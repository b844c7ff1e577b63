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
            pipeline.driver([d * g1 - d * d, r1 * g1 - d], ["r1"], ["g1"])
    finally:
        tracer.uninstall()
    stages = "".join(rec["stage"] for rec in tracer.spans if "stage" in rec)
    assert stages == "".join(r.stage for r in err.value.state.round_log) == "ABCDEABCDE"
    assert tracer.layer_metrics({})["elim.rounds"] == 10


def test_traced_closed_form_rc_checks_residuals_without_eliminating(run11):
    # closed_form_rc forms its residuals through verify.rc_residuals, where
    # the tracer sees them, and runs no elimination of its own
    tracer = load_tracer()
    tracer.install()
    try:
        rep = verify.verify_closed_form_rc()
    finally:
        tracer.uninstall()
    assert rep.status == "pass"
    names = [rec["name"] for rec in tracer.spans]
    assert names.count("rc.rc_residuals") == 1
    assert "elim.driver" not in names
    metrics = tracer.layer_metrics({})
    assert metrics["elim.rounds"] == metrics["elim.lin_elim.calls"] == 0


def test_traced_cold_pipeline_times_back_substitution(monkeypatch):
    # run_pipeline back-substitutes one polynomial per call through the
    # pipeline module global, so the tracer sees every call; a local alias
    # bound before the tracer is installed would escape it
    monkeypatch.setattr(pipeline, "_CACHE", {})
    tracer = load_tracer()
    tracer.install()
    try:
        run = pipeline.run_pipeline(1, 1)
    finally:
        tracer.uninstall()
    names = [rec["name"] for rec in tracer.spans]
    assert names.count("elim.resolve_dependencies") == 1
    assert names.count("elim.back_substitute") == run.initial_f + 36 + len(run.l_final)
    metrics = tracer.layer_metrics({})
    assert metrics["elim.back_substitute.s"] > 0
    assert metrics["elim.resolve_dependencies.s"] > 0


def test_traced_f_terms_in_is_read_before_lin_elim_takes_f_over(monkeypatch):
    # lin_elim builds its worktable inside the list it is given, so the
    # tracer must count f's terms on entry; (1,1) runs only A and B moves,
    # each a lin_elim whose input is the f the move before it left
    monkeypatch.setattr(pipeline, "_CACHE", {})
    tracer = load_tracer()
    tracer.install()
    try:
        run = pipeline.run_pipeline(1, 1)
    finally:
        tracer.uninstall()
    log = run.elim.round_log
    assert {r.stage for r in log} == {"A", "B"}
    # the first move enters with f as extract_system returned it
    (flattened,) = [rec["f_terms"] for rec in tracer.spans if rec["name"] == "rc.extract_system"]
    entering = [flattened] + [r.f_terms for r in log[:-1]]
    traced = [rec["f_terms_in"] for rec in tracer.spans if rec["name"] == "elim.lin_elim"]
    assert traced == entering
    assert tracer.layer_metrics({})["elim.f_terms_in"] == sum(entering)
