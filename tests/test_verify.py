"""Tests for the verification checks, including the negative controls."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from godeaux2.alpha import SymPolyMatrix, adjugate
from godeaux2.verify import (
    BF_SURFACE,
    BY_SURFACE,
    CheckReport,
    SpecialSurface,
    all_checks,
    golden_final_entries,
    verify_alpha2_basepoint,
    verify_alpha3_square,
    verify_central_minors,
    verify_golden_match,
    verify_excluded_diagonal_rc,
    verify_closed_form_rc,
    verify_quartic_root_congruence,
    verify_imaginary_unit_congruence,
    verify_restriction_cofactors,
    verify_y2_quartic_coefficient,
    verify_r_removal,
    verify_scaling,
    verify_special,
    verify_extension_shuffle,
    verify_c_normalization,
)

from _controls import perturb_at_x0, perturb_excluded_multipliers, weaken_rewrite_rules
from _oracle import outside_low_degree_ideal, support_names

ROOT = Path(__file__).resolve().parents[1]


def test_report_invariant():
    with pytest.raises(ValueError):
        CheckReport("x", "fail")  # fail without witness
    with pytest.raises(ValueError):
        CheckReport("x", "pass", witness="boom")


def test_check_runner_reports_each_outcome(monkeypatch):
    from godeaux2 import verify

    monkeypatch.setattr(verify, "REGISTRY", {})
    kinds = ("pass", "fail", "skip", "crash")

    @verify.check("probe_{}_{}", *((3, kind) for kind in kinds))
    def probe(n, kind):
        if kind == "fail":
            raise verify.CheckFailed(f"({n},{n}): y1")
        if kind == "skip":
            raise verify.CheckSkipped("not applicable")
        if kind == "crash":
            return {}[n]
        return "all good"

    names = ["probe_3_pass", "probe_3_fail", "probe_3_skip", "probe_3_crash"]
    assert list(all_checks()) == names
    reports = {name: run() for name, run in all_checks().items()}
    assert [r.name for r in reports.values()] == names
    got = {name: (r.status, r.witness, r.note) for name, r in reports.items()}
    assert got == {
        "probe_3_pass": ("pass", None, "all good"),
        "probe_3_fail": ("fail", "(3,3): y1", ""),
        "probe_3_skip": ("skipped", None, "not applicable"),
        "probe_3_crash": ("fail", "KeyError(3)", ""),
    }
    assert all(r.timing >= 0 for r in reports.values())
    # the decorator returns the runner, which takes any instance
    assert probe(5, "pass").name == "probe_5_pass"
    assert list(all_checks()) == names


def test_identity_suite_passes():
    from godeaux2.verify import verify_c_normalization

    assert verify_c_normalization().status == "pass"
    for rep in [
        verify_excluded_diagonal_rc(),
        verify_restriction_cofactors(1),
        verify_restriction_cofactors(2),
        verify_restriction_cofactors(3),
        verify_y2_quartic_coefficient(),
        verify_quartic_root_congruence(),
        verify_imaginary_unit_congruence(),
        verify_extension_shuffle(),
    ]:
        assert rep.status == "pass", f"{rep.name}: {rep.witness}"


def _assert_cell_witness(rep):
    assert rep.status == "fail"
    assert rep.witness.startswith("(") and "): " in rep.witness, rep.witness


def test_identity_suite_negative_controls(monkeypatch):
    with monkeypatch.context() as m:
        perturb_excluded_multipliers(m)
        _assert_cell_witness(verify_excluded_diagonal_rc())
    with monkeypatch.context() as m:
        perturb_at_x0(m)
        _assert_cell_witness(verify_quartic_root_congruence())
        _assert_cell_witness(verify_imaginary_unit_congruence())
    with monkeypatch.context() as m:
        # without r^4 = -d^2 the r powers of the congruence stay unreduced
        weaken_rewrite_rules(m)
        rep = verify_quartic_root_congruence()
        _assert_cell_witness(rep)
        assert "r^4" in rep.witness


def _perturb_bordered(monkeypatch, where):
    """Make verify.bordered_matrix add y1 to one central entry (the (3,3)
    entry of the matrix) or double its first tail entry (the (2,6) one)."""
    from godeaux2 import verify

    real = verify.bordered_matrix

    def perturbed(x, G, qs, Q, central, tail):
        central, tail = [list(row) for row in central], list(tail)
        if where == "central":
            central[1][1] = central[1][1] + Q.table.var("y1")
        else:
            tail[0] = 2 * tail[0]
        return real(x, G, qs, Q, central, tail)

    monkeypatch.setattr(verify, "bordered_matrix", perturbed)


@pytest.mark.parametrize("where", ["central", "tail"])
@pytest.mark.parametrize("check", [verify_extension_shuffle, verify_c_normalization])
def test_bordered_congruences_fail_on_a_perturbed_entry(monkeypatch, check, where):
    # negative control: one wrong entry of the bordered matrix shows up as
    # an entry of the transformed matrix that misses its target
    assert check().status == "pass"
    _perturb_bordered(monkeypatch, where)
    _assert_cell_witness(check())


def test_border_keeps_x_names_the_first_entry_without_its_x_factor(run11):
    from godeaux2 import verify

    M = run11.alpha_final
    verify._border_keeps_x(M)
    y1, y2 = (run11.table.var(n) for n in ("y1", "y2"))
    for (i, j), entry, witness in [
        ((1, 1), M[1, 1] + y1 ** 2, "corner (1,1) not divisible by x^2"),
        ((1, 3), M[1, 3] + y1 * y2, "border (1,3) not divisible by x"),
    ]:
        rows = [list(r) for r in M.rows]
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = entry
        with pytest.raises(verify.CheckFailed, match=re.escape(witness)):
            verify._border_keeps_x(SymPolyMatrix(rows))


def test_scaling(run11):
    rep = verify_scaling()
    assert rep.status == "pass"


def test_scaling_fails_on_a_wrong_weight(monkeypatch, run11):
    # negative control: b12 has weight 4, so weight 3 breaks the grading
    from godeaux2 import verify

    monkeypatch.setitem(verify.SCALING_WEIGHTS, "b12", 3)
    rep = verify_scaling()
    assert rep.status == "fail" and "terms of det are not invariant" in rep.witness


def test_alpha3_square_and_control(run30, run11):
    rep = verify_alpha3_square()
    assert rep.status == "pass"
    assert "-(...)^2" in rep.note


def test_alpha3_square_fails_on_a_non_square_raw_det(monkeypatch, run30, run11):
    # negative control: feed the generic (1,1) ansatz in place of the (3,0)
    # one; its raw determinant is not a square up to sign
    from godeaux2 import alpha

    build = alpha.build_ansatz
    monkeypatch.setattr(
        alpha, "build_ansatz", lambda case: build(alpha.AlphaCase(1, 1))
    )
    rep = verify_alpha3_square()
    assert rep.status == "fail" and "raw generic" in rep.witness


def test_alpha3_square_control_fails_on_a_square_or_a_free_variable(monkeypatch, run11):
    # negative controls of the (1,1) side: alpha_final stubbed by a constant
    # symmetric matrix of determinant minus a square, then by one whose
    # determinant the BY point does not fully bind
    table = run11.table
    one, g1 = table.one(), table.var("g1")

    def diagonal(*entries):
        return SymPolyMatrix([[e if a == b else table.zero() for b in range(6)] for a, e in enumerate(entries)])

    for matrix, witness in [
        (diagonal(-60 * one, 60 * one, one, one, one, one),
         "control failed: det(alpha_1, c=1) = -3600 at the point is +- a square"),
        (diagonal(g1, one, one, one, one, one), "the control point leaves g1 free in det(alpha_1, c=1)"),
    ]:
        _feed_run(monkeypatch, SimpleNamespace(alpha_final=matrix))
        rep = verify_alpha3_square()
        assert rep.status == "fail" and rep.witness == witness


def test_alpha2_basepoint(run20):
    rep = verify_alpha2_basepoint()
    assert rep.status == "pass"


def test_r_removal(run11):
    rep = verify_r_removal()
    assert rep.status == "pass"
    assert rep.note == "all 94 r-coefficients certified by exact cofactors over Q[moduli]"


def _feed_run(monkeypatch, run):
    """Make every run_pipeline call of verify return `run`."""
    from godeaux2 import verify

    monkeypatch.setattr(verify, "run_pipeline", lambda *args, **kwargs: run)


def test_r_removal_fails_on_a_perturbed_coefficient(monkeypatch, run11):
    # negative control: the last coefficient, moved out of the ideal
    rname = max(run11.gm, key=lambda n: run11.table.index[n])
    gm = {k: list(v) for k, v in run11.gm.items()}
    label, G = gm[rname][-1]
    gm[rname][-1] = (label, G + outside_low_degree_ideal(run11, G))
    _feed_run(monkeypatch, dataclasses.replace(run11, gm=gm))
    rep = verify_r_removal()
    assert rep.status == "fail"
    assert rep.witness == f"G[{rname}] in {label} is not in the ideal"
    # with the first coefficient, in r order, moved out too, it is the witness
    first = min(run11.gm, key=lambda n: run11.table.index[n])
    label, G = gm[first][0]
    gm[first][0] = (label, G + outside_low_degree_ideal(run11, G))
    rep = verify_r_removal()
    assert rep.witness == f"G[{first}] in {label} is not in the ideal"


def test_central_minors(monkeypatch, run11):
    assert verify_central_minors().status == "pass"
    # negative control: a perturbed central entry breaks the divisibility
    rows = [list(r) for r in run11.alpha_final.rows]
    rows[1][1] = rows[1][1] + run11.table.var("y1")
    _feed_run(monkeypatch, dataclasses.replace(run11, alpha_final=SymPolyMatrix(rows)))
    rep = verify_central_minors()
    assert rep.status == "fail"
    assert rep.witness == "3x3 minor complementary to (2,2) not divisible by the conic"


def test_golden_match_and_closed_form_rc(run11):
    assert verify_golden_match().status == "pass"
    assert verify_closed_form_rc().status == "pass"


def test_closed_form_rc_fails_on_a_perturbed_entry(monkeypatch, run11):
    # negative control: b12*y1^3 added to G moves the closed form off the
    # pipeline's matrix at (1,1), and the pipeline's multipliers no longer
    # certify its rank condition
    from godeaux2 import verify

    def perturbed(table):
        g = golden_final_entries(table)
        g["G"] = g["G"] + table.var("b12") * table.var("y1") ** 3
        return g

    monkeypatch.setattr(verify, "golden_final_entries", perturbed)
    rep = verify_golden_match()
    assert rep.status == "fail"
    assert rep.witness == "(1,1): -b12*x^2*y1^3"
    rep = verify_closed_form_rc()
    assert rep.status == "fail"
    assert rep.witness == "residual (2,6) does not vanish"


def test_closed_form_rc_fails_on_a_perturbed_multiplier(monkeypatch, run11):
    # negative control: the certificate itself is wrong; b12*y3 added to
    # l_22^6 leaves -b12*y3*beta_16 in the (2,2) residual
    table = run11.table
    l_final = dict(run11.l_final)
    l_final[(2, 2, 6)] = l_final[(2, 2, 6)] + table.var("b12") * table.var("y3")
    _feed_run(monkeypatch, dataclasses.replace(run11, l_final=l_final))
    rep = verify_closed_form_rc()
    assert rep.status == "fail"
    assert rep.witness == "residual (2,2) does not vanish"


def test_golden_entries_are_the_survivor_family(run11):
    table = run11.table
    g = golden_final_entries(table)
    allowed = {"b5", "b9", "b6", "b8", "d", "b2", "b11", "g9", "b12"}
    geo = {"x", "y1", "y2", "y3"}
    for key, p in g.items():
        assert support_names(p) <= geo | allowed


def test_special_surfaces(run11):
    assert verify_special(BY_SURFACE).status == "pass"
    rep = verify_special(BF_SURFACE)
    assert rep.status == "pass"
    assert "sqrt(-15)" in rep.note


def test_special_surface_degenerate_flag(run11):
    broken = SpecialSurface("by_d0", dict(BY_SURFACE.values, d=0))
    rep = verify_special(broken)
    assert rep.name == "special_by_d0"
    assert rep.status == "fail"
    assert "conic degenerates" in rep.witness


def test_registry_names_its_reports_matches_the_tracer_and_passes(run11, run20, run30, tracing):
    # perfbench/tracing.py lists one per-check metric per registry name
    registry = all_checks()
    reports = {name: run() for name, run in registry.items()}
    assert all(rep.name == name for name, rep in reports.items())
    assert set(registry) == set(tracing.VERIFY_CHECKS)
    failed = {name: rep.witness for name, rep in reports.items() if rep.status not in ("pass", "skipped")}
    assert failed == {}


def test_all_checks_returns_a_fresh_copy():
    registry = all_checks()
    registry["probe"] = registry.pop("scaling")
    assert "probe" not in all_checks()
    assert "scaling" in all_checks()


def test_registry_holds_every_check_without_the_cli(tracing):
    # golden_file is a registry check of verify; cli only wraps it for the tracer
    code = (
        "import sys\n"
        "from godeaux2.verify import all_checks\n"
        "assert 'godeaux2.cli' not in sys.modules\n"
        "print(' '.join(all_checks()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert set(out.stdout.split()) == set(tracing.VERIFY_CHECKS)


def test_skipped_check_is_reported():
    rep = all_checks()["extension_cases_1_2"]()
    assert rep.status == "skipped"
    assert "rational-function" in rep.note


def test_checks_idempotent():
    names = ["excluded_diagonal_rc", "y2_quartic_coefficient", "extension_shuffle"]
    first = [all_checks()[n]() for n in names]
    second = [all_checks()[n]() for n in names]
    assert [(r.name, r.status) for r in first] == [(r.name, r.status) for r in second]


def test_final_matrix_satisfies_rank_condition_directly(run11):
    """Independent of the coefficient bookkeeping: recompute the cofactors of
    the final matrix and check all 15 identities beta_ij = sum_k l_ij^k beta_1k
    symbolically (the surviving r's stay symbolic too)."""
    from godeaux2.rc import PAIRS

    betas = adjugate(run11.alpha_final.rows)
    for (i, j) in PAIRS:
        acc = betas[(i, j)]
        for k in range(1, 7):
            lp = run11.l_final[(i, j, k)]
            if not lp.is_zero():
                acc = acc - lp * betas[(1, k)]
        assert acc.is_zero(), f"rank condition fails at ({i},{j})"
