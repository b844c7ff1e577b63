"""The benchmark tracer (perfbench/tracing.py) wraps godeaux2 functions at
the names their callers look them up by.  A rename or a changed call path
that would break a traced benchmark run fails here."""

import importlib.util
from pathlib import Path

import pytest

from godeaux2 import alpha, cli, elim, pipeline, rc, ring, surface, verify
from godeaux2.elim import EliminationError
from godeaux2.ring import PARAMETER, VariableTable

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (alpha, cli, elim, pipeline, rc, ring, surface, verify, ring.Polynomial, alpha.SymPolyMatrix)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_install_and_uninstall_restore_every_original():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracer()
    tracer.install()
    try:
        assert elim.lin_elim is not before[OWNERS.index(elim)]["lin_elim"]
        assert verify.lin_elim is not before[OWNERS.index(verify)]["lin_elim"]
        assert pipeline.driver is not before[OWNERS.index(pipeline)]["driver"]
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert [k for k in saved if now[k] is not saved[k]] == [], owner


def test_traced_driver_rounds_match_the_round_log():
    # the tracer tells the stages apart by the calls the driver makes through
    # the elim module globals, and stage A by the r-list it passes
    T = VariableTable([(n, 0, 1, PARAMETER) for n in ("r1", "g1", "d")])
    d, r1, g1 = T.var("d"), T.var("r1"), T.var("g1")
    tracer = load_tracer()
    tracer.install()
    try:
        with pytest.raises(EliminationError) as err:
            pipeline.driver([d * g1 - d * d, r1 * g1 - d], ["r1"], ["g1"], 2)
    finally:
        tracer.uninstall()
    stages = "".join(rec["stage"] for rec in tracer.spans if "stage" in rec)
    assert stages == "".join(r.stage for r in err.value.state.round_log) == "ABCDEABCD"
    assert tracer.layer_metrics({})["elim.rounds"] == 9


def test_traced_closed_form_rc_counts_its_driver_rounds(monkeypatch, run11):
    # closed_form_rc solves the rank condition through pipeline.driver, so
    # the tracer sees its rounds as it sees a pipeline run's
    logs = []
    real = pipeline.driver

    def spy(*args, **kwargs):
        state = real(*args, **kwargs)
        logs.append(state.round_log)
        return state

    monkeypatch.setattr(pipeline, "driver", spy)
    tracer = load_tracer()
    tracer.install()
    try:
        rep = verify.verify_closed_form_rc()
    finally:
        tracer.uninstall()
    assert rep.status == "pass"
    assert len(logs) == 1 and logs[0]
    stages = "".join(rec["stage"] for rec in tracer.spans if "stage" in rec)
    assert stages == "".join(r.stage for r in logs[0])
    assert tracer.layer_metrics({})["elim.rounds"] == len(logs[0])
