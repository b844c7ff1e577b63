"""Tests for equation generation, r-removal, and exact membership."""

import pytest

from godeaux2.alpha import AlphaCase, SymPolyMatrix, make_table
from godeaux2.rc import PAIRS
from godeaux2.ring import MULTIPLIER, Polynomial
from godeaux2.surface import (
    SurfaceError,
    collect_Gm,
    generate_equations,
    membership_check,
    remove_r,
)

from _oracle import outside_low_degree_ideal


def test_equation_count_and_labels(run11):
    eqs = run11.equations
    assert len(eqs.eqs) == 21
    labels = [eq.label for eq in eqs.eqs]
    assert labels[:15] == [f"vv_{i}{j}" for (i, j) in PAIRS]
    assert labels[15:] == [f"row_{i}" for i in range(1, 7)]


def test_row6_is_conic_plus_xz1(run11):
    table = run11.table
    row6 = run11.equations.by_label("row_6")
    Q = run11.alpha_final[1, 6]
    assert row6 == Q + table.var("x") * table.var("z1")


def test_equation_degrees_and_signs(run11):
    eqs = run11.equations
    by_label = {eq.label: eq for eq in eqs.eqs}
    for (i, j) in PAIRS:
        w = [None, 0, 3, 3, 3, 3, 4]
        eq = by_label[f"vv_{i}{j}"]
        assert eq.degree == w[i] + w[j]
    assert [by_label[f"row_{i}"].degree for i in range(1, 7)] == [8, 5, 5, 5, 5, 4]
    # the degree-5 relations split two invariant, two anti-invariant
    five = [eq.sign for eq in eqs.eqs if eq.degree == 5]
    assert sorted(five) == [-1, -1, 1, 1]


def test_low_degree_equations_r_free_and_removal(run11):
    raw = run11.equations_raw
    for eq in raw.low_degree(5):
        assert not eq.poly.multipliers()
    final = run11.equations
    allowed = {"b5", "b9", "b6", "b8", "d", "b2", "b11", "g9", "b12"}
    seen = set()
    for eq in final.eqs:
        params = {n for n in eq.poly.variables() if n[0] in "gbd" and n != "b"}
        seen |= params
    geo = {"x", "y1", "y2", "y3", "z1", "z2", "z3", "z4", "t"}
    for eq in final.eqs:
        assert eq.poly.variables() <= geo | allowed
    assert seen == allowed


def test_remove_r_idempotent(run11):
    final = run11.equations
    again = remove_r(final)
    assert [str(eq.poly) for eq in again.eqs] == [str(eq.poly) for eq in final.eqs]


def test_removal_commutes_with_generation(run11):
    # zero the surviving r's in the multipliers first, then generate
    table = run11.table
    zero = table.zero()
    bind = {n: zero for n in run11.r_survivors}
    l_zeroed = {k: p.substitute(bind) for k, p in run11.l_final.items()}
    alpha_zeroed = run11.alpha_final.substitute(bind)
    direct = generate_equations(alpha_zeroed, l_zeroed, run11.case, run11.gbd_survivors)
    assert [str(eq.poly) for eq in direct.eqs] == [
        str(eq.poly) for eq in run11.equations.eqs
    ]


def test_collect_gm_homogeneous(run11):
    for rname, occurrences in run11.gm.items():
        for label, G in occurrences:
            assert G.weighted_degree() is not None and G.weighted_degree() > 0


def test_degenerate_diag_input():
    table = make_table(1)
    t, y1, one, zero = table.var("t"), table.var("y1"), table.one(), table.zero()
    entries = [t * t, y1, y1, y1, y1, one]
    M = SymPolyMatrix(
        [[entries[i] if i == j else zero for j in range(6)] for i in range(6)]
    )
    l_zero = {(i, j, k): zero for (i, j) in PAIRS for k in range(1, 7)}
    eqs = generate_equations(M, l_zero, AlphaCase(1, 1), [])
    assert eqs.by_label("vv_22") == table.var("z1") ** 2


def test_membership_trivial_cases(run11):
    table = run11.table
    y1, y2 = table.var("y1"), table.var("y2")
    gens = [y1, y2]
    assert membership_check(gens[0], gens) == "verified"
    x = table.var("x")
    assert membership_check(y1 * y2 + x * x * y1, gens) == "verified"
    assert membership_check(table.one(), gens) == "refuted"
    assert membership_check(x * x, gens) == "refuted"
    with pytest.raises(SurfaceError):
        membership_check(y1, [])
    with pytest.raises(SurfaceError, match="pure"):
        membership_check(y1 * y2 + y2 * y2, gens)  # mixed involution sign
    with pytest.raises(SurfaceError, match="nonzero"):
        membership_check(table.zero(), gens)


def test_membership_rejects_multiplier_input(run11):
    table = run11.table
    y1, y2 = table.var("y1"), table.var("y2")
    r = table.var(table.of_kind(MULTIPLIER)[0])
    with pytest.raises(SurfaceError, match="multiplier"):
        membership_check(r * y1, [y1, y2])
    with pytest.raises(SurfaceError, match="multiplier"):
        membership_check(y1, [r * y1, y2])


def test_all_gm_membership_spot(run11):
    F = [eq.poly for eq in run11.equations_raw.low_degree(5)]
    certified = 0
    for rname, occurrences in sorted(run11.gm.items(), key=lambda kv: run11.table.index[kv[0]]):
        for label, G in occurrences:
            assert membership_check(G, F) == "verified", (rname, label)
            certified += 1
    assert certified == 94


def test_perturbed_gm_is_refuted(run11):
    # one coefficient of each (degree, sign) class present
    F = [eq.poly for eq in run11.equations_raw.low_degree(5)]
    classes = {}
    for rname, occurrences in sorted(run11.gm.items(), key=lambda kv: run11.table.index[kv[0]]):
        for label, G in occurrences:
            classes.setdefault((G.weighted_degree(), G.sigma_sign()), (rname, label, G))
    assert len(classes) == 5
    for rname, label, G in classes.values():
        assert membership_check(G + outside_low_degree_ideal(run11, G), F) == "refuted", (rname, label)


def test_equations_expose_nine_geometric_vars(run11):
    assert run11.equations.geo_vars == (
        "x", "y1", "y2", "y3", "z1", "z2", "z3", "z4", "t",
    )
