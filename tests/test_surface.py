"""Tests for equation generation, r-removal, and exact membership."""

import pytest

from godeaux2 import surface
from godeaux2.alpha import AlphaCase, SymPolyMatrix, make_table
from godeaux2.rc import PAIRS
from godeaux2.ring import MULTIPLIER, RingError, monomial_basis
from godeaux2.surface import (
    SurfaceError,
    generate_equations,
    low_degree,
    membership_check,
    remove_r,
)

from _oracle import outside_low_degree_ideal, support_names


@pytest.fixture(scope="module")
def raw11(run11):
    """The (1,1) equations before r-removal."""
    return generate_equations(run11.alpha_final, run11.l_final)


def test_equation_count_and_labels(run11):
    eqs = run11.equations
    assert len(eqs) == 21
    labels = list(eqs)
    assert labels[:15] == [f"vv_{i}{j}" for (i, j) in PAIRS]
    assert labels[15:] == [f"row_{i}" for i in range(1, 7)]


def test_row6_is_conic_plus_xz1(run11):
    table = run11.table
    row6 = run11.equations["row_6"]
    Q = run11.alpha_final[1, 6]
    assert row6 == Q + table.var("x") * table.var("z1")


def test_equation_degrees_and_signs(run11):
    eqs = run11.equations
    for (i, j) in PAIRS:
        w = [None, 0, 3, 3, 3, 3, 4]
        assert eqs[f"vv_{i}{j}"].grading()[0] == w[i] + w[j]
    assert [eqs[f"row_{i}"].grading()[0] for i in range(1, 7)] == [8, 5, 5, 5, 5, 4]
    # the degree-5 relations split two invariant, two anti-invariant
    five = [p.grading()[1] for p in eqs.values() if p.grading()[0] == 5]
    assert sorted(five) == [-1, -1, 1, 1]


def test_low_degree_is_rows_2_to_6(run11, raw11):
    # remove_r returns the r-free low-degree relations as the same objects
    low = low_degree(run11.equations)
    assert list(low) == [f"row_{i}" for i in range(2, 7)]
    assert low == low_degree(raw11)
    final = remove_r(raw11)
    assert all(final[label] is raw11[label] for label in low)


def test_low_degree_equations_r_free_and_removal(run11, raw11):
    for p in low_degree(raw11).values():
        assert not p.multipliers()
    final = run11.equations
    allowed = {"b5", "b9", "b6", "b8", "d", "b2", "b11", "g9", "b12"}
    seen = set()
    for p in final.values():
        params = {n for n in support_names(p) if n[0] in "gbd" and n != "b"}
        seen |= params
    geo = {"x", "y1", "y2", "y3", "z1", "z2", "z3", "z4", "t"}
    for p in final.values():
        assert support_names(p) <= geo | allowed
    assert seen == allowed


def test_remove_r_idempotent(run11):
    final = run11.equations
    again = remove_r(final)
    assert [str(p) for p in again.values()] == [str(p) for p in final.values()]


def test_remove_r_rejects_a_multiplier_in_a_low_degree_equation(run11, raw11):
    # the degree <= 5 relations must be r-free; r1 times row_6 (degree 4)
    # is the guard's negative control
    r1 = run11.table.var("r1")
    eqs = dict(raw11)
    eqs["row_6"] = r1 * eqs["row_6"]
    with pytest.raises(SurfaceError, match=r"degree-4 equation row_6 depends on \['r1'\]"):
        remove_r(eqs)


def test_removal_commutes_with_generation(run11):
    # zero the surviving r's in the multipliers first, then generate
    table = run11.table
    zero = table.zero()
    bind = {n: zero for n in run11.gm}
    l_zeroed = {k: p.substitute(bind) for k, p in run11.l_final.items()}
    alpha_zeroed = run11.alpha_final.substitute(bind)
    direct = generate_equations(alpha_zeroed, l_zeroed)
    assert [str(p) for p in direct.values()] == [
        str(p) for p in run11.equations.values()
    ]


def test_collect_gm_homogeneous(run11):
    for rname, occurrences in run11.gm.items():
        for label, G in occurrences:
            assert G.grading() is not None and G.grading()[0] > 0


def test_degenerate_diag_input():
    table = make_table(AlphaCase(1, 1))
    t, y1, one, zero = table.var("t"), table.var("y1"), table.one(), table.zero()
    entries = [t * t, y1, y1, y1, y1, one]
    M = SymPolyMatrix(
        [[entries[i] if i == j else zero for j in range(6)] for i in range(6)]
    )
    l_zero = {(i, j, k): zero for (i, j) in PAIRS for k in range(1, 7)}
    eqs = generate_equations(M, l_zero)
    assert eqs["vv_22"] == table.var("z1") ** 2


def test_membership_trivial_cases(run11):
    table = run11.table
    y1, y2 = table.var("y1"), table.var("y2")
    gens = [y1, y2]
    assert membership_check([gens[0]], gens) == [True]
    x = table.var("x")
    assert membership_check([y1 * y2 + x * x * y1], gens) == [True]
    assert membership_check([table.one()], gens) == [False]
    assert membership_check([x * x], gens) == [False]
    assert membership_check([], gens) == []
    with pytest.raises(SurfaceError):
        membership_check([y1], [])
    with pytest.raises(SurfaceError, match="pure"):
        membership_check([y1 * y2 + y2 * y2], gens)  # mixed involution sign
    with pytest.raises(SurfaceError, match="nonzero"):
        membership_check([table.zero()], gens)


def test_membership_rejects_multiplier_input(run11):
    table = run11.table
    y1, y2 = table.var("y1"), table.var("y2")
    r = table.var(table.of_kind(MULTIPLIER)[0])
    with pytest.raises(SurfaceError, match="multiplier"):
        membership_check([r * y1], [y1, y2])
    with pytest.raises(SurfaceError, match="multiplier"):
        membership_check([y1], [r * y1, y2])
    with pytest.raises(SurfaceError, match="multiplier"):
        membership_check([y1, r * y2], [y1, y2])  # any one target


def _all_gm(run):
    """(r name, equation label, coefficient) of every r-coefficient, in r order."""
    return [
        (rname, label, G)
        for rname, occurrences in sorted(run.gm.items(), key=lambda kv: run.table.index[kv[0]])
        for label, G in occurrences
    ]


def test_all_gm_membership_spot(run11):
    F = list(low_degree(run11.equations).values())
    found = _all_gm(run11)
    assert membership_check([G for _, _, G in found], F) == [True] * 94
    assert len(found) == 94


def _verdicts_by_substitution(gs, generators):
    """The verdicts of one substitution per target: `solved` of the target's
    class with each t_m set to the target's coefficient at m, and every other
    t_m to zero."""
    table = generators[0].table
    geo = table.names[: table.geo_cut]
    gradings = [F.grading() for F in generators]
    solved = {}
    verdicts = []
    for g in gs:
        if g.grading() not in solved:
            solved[g.grading()] = surface._solve_class(*g.grading(), generators, gradings, geo)
        s, targets = solved[g.grading()]
        bindings = dict.fromkeys(targets.values(), table.zero())
        bindings.update((targets[m], c) for m, c in g.coefficients_wrt(geo))
        verdicts.append(s.substitute(bindings).is_zero())
    return verdicts


def test_membership_matches_one_substitution_per_target(run11):
    F = list(low_degree(run11.equations).values())
    gs = [G for _, _, G in _all_gm(run11)]
    gs.append(gs[0] + outside_low_degree_ideal(run11, gs[0]))
    want = [True] * 94 + [False]
    assert _verdicts_by_substitution(gs, F) == want
    assert membership_check(gs, F) == want
    # d*y3 has no constant pivot, so its cofactor slot stays in `solved`, in
    # the part free of target slots, and every verdict reads False
    table = run11.table
    x, y1, y3, d = (table.var(n) for n in ("x", "y1", "y3", "d"))
    gens, gs = [y1, d * y3], [y1, y3, y1 + y3, d * y3, x * x * y1]
    assert membership_check(gs, gens) == _verdicts_by_substitution(gs, gens) == [False] * 5


def test_a_solved_class_not_linear_in_its_target_slots_raises(monkeypatch, run11):
    table = run11.table
    y1, y2 = table.var("y1"), table.var("y2")
    solve = surface._solve_class

    def with_a_square(*args):
        solved, targets = solve(*args)
        t = table.var(next(iter(targets.values())))
        return solved + t * t, targets

    monkeypatch.setattr(surface, "_solve_class", with_a_square)
    with pytest.raises(SurfaceError, match="not linear in its target slots"):
        membership_check([y1 * y2], [y1, y2])


def _perturbed_class_representatives(run):
    """One coefficient of each (degree, sign) class present, with a term
    outside the low-degree ideal added: {position in _all_gm: (rname, label,
    perturbed G)}."""
    classes = {}
    for k, (rname, label, G) in enumerate(_all_gm(run)):
        classes.setdefault(G.grading(), (k, rname, label, G))
    return {
        k: (rname, label, G + outside_low_degree_ideal(run, G)) for k, rname, label, G in classes.values()
    }


def test_perturbed_gm_is_refuted(run11):
    F = list(low_degree(run11.equations).values())
    perturbed = _perturbed_class_representatives(run11)
    assert len(perturbed) == 5
    verdicts = membership_check([G for _, _, G in perturbed.values()], F)
    for (rname, label, _), certified in zip(perturbed.values(), verdicts):
        assert not certified, (rname, label)


def test_batch_refutes_exactly_the_perturbed_positions(run11):
    F = list(low_degree(run11.equations).values())
    gs = [G for _, _, G in _all_gm(run11)]
    perturbed = _perturbed_class_representatives(run11)
    gs += [G for _, _, G in perturbed.values()]
    verdicts = membership_check(gs, F)
    assert [k for k, ok in enumerate(verdicts) if not ok] == list(range(94, 99))


def test_mixed_class_batch_keeps_input_order(run11):
    table = run11.table
    x, y1, y2 = table.var("x"), table.var("y1"), table.var("y2")
    gens = [y1, y2]
    gs = [y1 * y2, x * x, x * x * y1, y1, x ** 4, y2 * y1 * y1, y2, x ** 3, y1 * y1]
    want = [True, False, True, True, False, True, True, False, True]
    # six classes, interleaved; (2, 1) and (4, 1) each hold a member of the
    # ideal and one outside it
    assert len({g.grading() for g in gs}) == 6
    assert [gs[k].grading() for k in (1, 6, 4, 8)] == [(2, 1)] * 2 + [(4, 1)] * 2
    assert membership_check(gs, gens) == want
    assert membership_check(gs[::-1], gens) == want[::-1]
    for g, verdict in zip(gs, want):
        assert membership_check([g], gens) == [verdict]


def test_class_beyond_the_slot_count_raises(run11):
    table = run11.table
    x, y1 = table.var("x"), table.var("y1")
    geo = table.names[: table.geo_cut]
    slots = len(table.of_kind(MULTIPLIER))
    # the cofactors of x^2 and y1 and the target take more slots than there are
    deg = 12
    cofactors = len(monomial_basis(table, deg - 2, 1, geo)) + len(monomial_basis(table, deg - 2, -1, geo))
    targets = len(monomial_basis(table, deg, 1, geo))
    assert cofactors <= slots < cofactors + targets
    # the target T runs out of names: both counts are reported
    with pytest.raises(RingError, match=f"^{targets} slot monomials but {slots - cofactors} names left$"):
        membership_check([x ** deg], [x * x, y1])
