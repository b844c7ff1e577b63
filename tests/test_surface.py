"""Tests for equation generation, r-removal, and specialized membership."""

import pytest

from godeaux2.alpha import AlphaCase, SymPolyMatrix, make_table
from godeaux2.rc import PAIRS
from godeaux2.ring import Polynomial
from godeaux2.surface import (
    GBLimit,
    SurfaceError,
    buchberger,
    collect_Gm,
    generate_equations,
    membership_check,
    reduce_mod,
    remove_r,
    specialize_params,
)


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
    assert membership_check(gens[0], gens, [], seed=3) == "verified"
    assert membership_check(table.one(), gens, [], seed=3) == "refuted"
    with pytest.raises(SurfaceError):
        membership_check(y1, [], [], seed=0)


def test_reduce_known_ideal(run11):
    table = run11.table
    y1, y2 = table.var("y1"), table.var("y2")
    basis = buchberger([y1 * y1 - y2 * y2, y1 * y2])
    # y1^3 = y1*(y1^2 - y2^2) + y2*(y1*y2) and y2^3 = y1*(y1 y2) - y2*(y1^2-y2^2)
    assert reduce_mod(y1 ** 3, basis).is_zero()
    assert reduce_mod(y2 ** 3, basis).is_zero()
    assert reduce_mod(y1 ** 2 * y2, basis).is_zero()
    assert not reduce_mod(y1 * y1, basis).is_zero()


def test_buchberger_cap_reports():
    table = make_table(1)
    y1, y2, y3, x = (table.var(n) for n in ("y1", "y2", "y3", "x"))
    gens = [y1 ** 3 - x ** 2 * y2, y2 ** 3 - x * y3 ** 2, y3 ** 3 - y1 * y2]
    with pytest.raises(GBLimit):
        buchberger(gens, s_pair_cap=1, time_cap=60)


def test_specialize_params_seeded(run11):
    F = [eq.poly for eq in run11.equations.low_degree(5)]
    v1, g1 = specialize_params(F, run11.gbd_survivors, 7)
    v2, g2 = specialize_params(F, run11.gbd_survivors, 7)
    assert v1 == v2
    assert all(val != 0 for val in v1.values())
    v3, _ = specialize_params(F, run11.gbd_survivors, 8)
    assert v3 != v1


def test_all_gm_membership_spot(run11):
    F = [eq.poly for eq in run11.equations_raw.low_degree(5)]
    sample = sorted(run11.gm.items(), key=lambda kv: run11.table.index[kv[0]])[:3]
    for rname, occurrences in sample:
        for label, G in occurrences:
            assert membership_check(G, F, run11.gbd_survivors, seed=1) == "verified"


def test_equations_expose_nine_geometric_vars(run11):
    assert run11.equations.geo_vars == (
        "x", "y1", "y2", "y3", "z1", "z2", "z3", "z4", "t",
    )
