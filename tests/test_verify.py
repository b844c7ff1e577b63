"""Tests for the verification checks, including the negative controls."""

import dataclasses

import pytest

from godeaux2.alpha import SymPolyMatrix
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
)

from _oracle import outside_low_degree_ideal


def test_report_invariant():
    with pytest.raises(ValueError):
        CheckReport("x", "fail")  # fail without witness
    with pytest.raises(ValueError):
        CheckReport("x", "pass", witness="boom")


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


def test_identity_suite_negative_controls():
    assert verify_excluded_diagonal_rc(perturb=True).status == "fail"
    rep = verify_quartic_root_congruence(with_rule=False)
    assert rep.status == "fail"
    assert "r^4" in rep.witness or "r^" in rep.witness
    assert verify_imaginary_unit_congruence(perturb=True).status == "fail"


def test_case2_transform_specialized_root():
    assert verify_quartic_root_congruence(d_value=1).status == "pass"


def test_scaling(run11):
    rep = verify_scaling(result=run11)
    assert rep.status == "pass"


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
        alpha, "build_ansatz", lambda case, table: build(alpha.AlphaCase(1, 1), alpha.make_table(1))
    )
    rep = verify_alpha3_square()
    assert rep.status == "fail" and "raw generic" in rep.witness


def test_alpha2_basepoint(run20):
    rep = verify_alpha2_basepoint()
    assert rep.status == "pass"


def test_r_removal(run11):
    rep = verify_r_removal(result=run11)
    assert rep.status == "pass"
    assert rep.note == "all 94 r-coefficients certified by exact cofactors over Q[moduli]"


def test_r_removal_fails_on_a_perturbed_coefficient(run11):
    # negative control: the last coefficient, moved out of the ideal
    rname = max(run11.gm, key=lambda n: run11.table.index[n])
    gm = {k: list(v) for k, v in run11.gm.items()}
    label, G = gm[rname][-1]
    gm[rname][-1] = (label, G + outside_low_degree_ideal(run11, G))
    rep = verify_r_removal(result=dataclasses.replace(run11, gm=gm))
    assert rep.status == "fail"
    assert rep.witness == f"G[{rname}] in {label} is not in the ideal"


def test_central_minors(run11):
    assert verify_central_minors(result=run11).status == "pass"
    # negative control: a perturbed central entry breaks the divisibility
    rows = [list(r) for r in run11.alpha_final.rows]
    rows[1][1] = rows[1][1] + run11.table.var("y1")
    rep = verify_central_minors(result=dataclasses.replace(run11, alpha_final=SymPolyMatrix(rows)))
    assert rep.status == "fail" and "conic" in rep.witness


def test_golden_match_and_closed_form_rc(run11):
    assert verify_golden_match(result=run11).status == "pass"
    assert verify_closed_form_rc(result=run11).status == "pass"


def test_golden_entries_are_the_survivor_family(run11):
    table = run11.table
    g = golden_final_entries(table)
    allowed = {"b5", "b9", "b6", "b8", "d", "b2", "b11", "g9", "b12"}
    geo = {"x", "y1", "y2", "y3"}
    for key, p in g.items():
        assert p.variables() <= geo | allowed


def test_special_surfaces(run11):
    assert verify_special(BY_SURFACE, result=run11).status == "pass"
    rep = verify_special(BF_SURFACE, result=run11)
    assert rep.status == "pass"
    assert "sqrt(-15)" in rep.note


def test_special_surface_degenerate_flag(run11):
    broken = SpecialSurface("by_d0", dict(BY_SURFACE.values, d=0))
    rep = verify_special(broken, result=run11)
    assert rep.status == "fail"
    assert "conic degenerates" in rep.witness


def test_registry_contains_expected_checks():
    names = set(all_checks())
    assert {
        "excluded_diagonal_rc",
        "restriction_cofactors_1",
        "restriction_cofactors_2",
        "restriction_cofactors_3",
        "y2_quartic_coefficient",
        "quartic_root_congruence",
        "imaginary_unit_congruence",
        "extension_shuffle",
        "c_normalization",
        "extension_cases_1_2",
        "scaling",
        "alpha3_square",
        "alpha2_basepoint",
        "r_removal",
        "central_minors",
        "golden_match",
        "closed_form_rc",
        "special_by",
        "special_bf",
    } <= names


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

    M = run11.alpha_final
    betas = M.cofactors([(1, k) for k in range(1, 7)] + list(PAIRS))
    for (i, j) in PAIRS:
        acc = betas[(i, j)]
        for k in range(1, 7):
            lp = run11.l_final[(i, j, k)]
            if not lp.is_zero():
                acc = acc - lp * betas[(1, k)]
        assert acc.is_zero(), f"rank condition fails at ({i},{j})"
