"""The derived artifacts match the recorded reference hashes byte for byte,
and every derivation is checked for soundness as it runs."""

import gc
import hashlib
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from godeaux2 import pipeline
from godeaux2.alpha import AlphaCase, make_table
from godeaux2.elim import EliminationError
from godeaux2.pipeline import (
    equations_to_json,
    poly_to_json,
    run_pipeline,
    stats_dict,
    write_artifacts,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
ARTIFACTS = ("alpha.json", "equations.json", "deps.log")


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["artifact_sha256"]


@pytest.mark.parametrize("case", ["run11", "run20", "run30", "run31"])
def test_artifacts_match_reference(case, request, reference, tmp_path):
    run = run_pipeline(3, 1) if case == "run31" else request.getfixturevalue(case)
    write_artifacts(run, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    assert got == reference[f"alpha_{run.case.j}_{run.case.c}"]


@pytest.mark.parametrize("case", ["run11", "run20", "run30", "run31"])
def test_equations_json_grading_is_the_polynomial_grading(case, request):
    # each entry's (weighted_degree, sigma_sign) is read from its polynomial
    run = run_pipeline(3, 1) if case == "run31" else request.getfixturevalue(case)
    entries = equations_to_json(run)["equations"]
    assert [e["label"] for e in entries] == list(run.equations)
    for entry, p in zip(entries, run.equations.values()):
        assert (entry["weighted_degree"], entry["sigma_sign"]) == p.grading()


def test_poly_to_json_writes_a_fraction_as_p_over_q():
    # no solved case writes a non-integral coefficient, so this path is pinned here
    table = make_table(AlphaCase(1, 1))
    p = table.const(Fraction(-7, 2)) * table.var("x") + 3 * table.var("d")
    assert poly_to_json(p) == {
        "text": "-7/2*x + 3*d",
        "terms": [{"coeff": "-7/2", "exps": {"x": 1}}, {"coeff": "3", "exps": {"d": 1}}],
    }


def test_stats_record_soundness(run11, run20):
    for run in (run11, run20):
        stats = stats_dict(run)
        assert stats["sound"] is True
        assert stats["sound_checked"] == run.initial_f == stats["initial_f"]
        assert stats["distinct_parameters"] == len(run.param_names)


# the deterministic stats.json fields per case:
# initial_f, distinct_parameters, r_count, invertible, dependencies,
# sound_checked, r_survivors, equations
STATS = {
    (1, 1): (876, 394, 371, [], 291, 876, 94, 21),
    (3, 1): (692, 393, 371, [], 291, 692, 94, 21),
    (3, 0): (596, 144, 371, [], 112, 596, 279, 21),
    (2, 0): (741, 394, 371, ["d"], 391, 741, 1, 21),
}
STATS_FIELDS = (
    "initial_f",
    "distinct_parameters",
    "r_count",
    "invertible",
    "dependencies",
    "sound_checked",
    "r_survivors",
    "equations",
)


@pytest.mark.parametrize("case", sorted(STATS), ids=lambda c: f"alpha_{c[0]}_{c[1]}")
def test_stats_fields_are_pinned(case):
    run = run_pipeline(*case)
    stats = stats_dict(run)
    assert tuple(stats[k] for k in STATS_FIELDS) == STATS[case]
    # r_survivors counts collect_Gm's keys: the multipliers left in the
    # back-substituted l's and alpha are exactly those
    entries = list(run.l_final.values()) + [e for row in run.alpha_final.rows for e in row]
    assert set().union(*(p.multipliers() for p in entries)) == set(run.gm)


def test_unsound_dependency_log_is_rejected(monkeypatch):
    # negative control: a log missing its first dependency leaves that
    # polynomial of f unresolved, and the run must refuse to finish
    driver = pipeline.driver

    def lossy_driver(*args, **kwargs):
        state = driver(*args, **kwargs)
        del state.deps[0]
        return state

    monkeypatch.setattr(pipeline, "driver", lossy_driver)
    monkeypatch.setattr(pipeline, "_CACHE", {})  # a fresh cache, restored afterwards
    with pytest.raises(EliminationError, match="coefficients nonzero"):
        run_pipeline(3, 0)
    assert (3, 0) not in pipeline._CACHE


def test_a_cached_run_keeps_no_flattened_system(monkeypatch):
    # a cached run keeps the counts of f, not f: once run_pipeline returns,
    # the RCSystem that extract_system gave it is freed
    extract = pipeline.extract_system
    refs = []

    def watched(*args):
        system = extract(*args)
        refs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(pipeline, "extract_system", watched)
    monkeypatch.setattr(pipeline, "_CACHE", {})  # a fresh cache, restored afterwards
    run = run_pipeline(3, 0)
    gc.collect()
    assert pipeline._CACHE[(3, 0)] is run
    assert len(refs) == 1 and refs[0]() is None
    assert run.initial_f == 596
