"""Tests for the rank-condition ansatz and coefficient system."""

import random
from fractions import Fraction

import pytest

from godeaux2 import alpha
from godeaux2.alpha import BORDER_PARAMS, AlphaCase, adjugate, build_ansatz
from godeaux2.rc import (
    PAIRS,
    RCError,
    build_l_ansatz,
    cofactor_grading,
    multiplier_grading,
    rc_residuals,
)
from godeaux2.ring import MULTIPLIER

from _oracle import dense_mono, dump_text, max_degree_in, multiplier_slots_reference, signed_minor, support_names


def test_r_count_is_371(rc11):
    _, table, _, _, _, _, _ = rc11
    assert len(table.of_kind(MULTIPLIER)) == 371


def test_r_slot_layout_matches_the_reference(rc11):
    # r1..r371 in pool order, each on the (i, j, k) and monomial the
    # independently derived layout gives its place in the order
    _, table, _, l, _, _, _ = rc11
    ref = multiplier_slots_reference()
    r_names = table.of_kind(MULTIPLIER)
    assert r_names == [f"r{n}" for n in range(1, len(ref) + 1)]
    want = {(i, j, k): {} for i in range(2, 7) for j in range(i, 7) for k in range(1, 7)}
    for name, (i, j, k, exps) in zip(r_names, ref, strict=True):
        want[i, j, k][dense_mono(exps) + (table.index[name],)] = 1
    assert {key: p.terms for key, p in l.items()} == want


def test_multiplier_degrees(rc11):
    assert cofactor_grading(2, 2) == (14, -1) and cofactor_grading(1, 6) == (12, 1)
    assert multiplier_grading(2, 2, 6) == (14 - 12, -1)
    # negative required degree -> identically zero, no parameters
    _, _, _, l, _, _, _ = rc11
    for (i, j) in PAIRS:
        for k in range(1, 7):
            if multiplier_grading(i, j, k)[0] < 0:
                assert l[(i, j, k)].is_zero()


def test_every_r_in_exactly_one_slot():
    # in every case the table's multipliers are r1..r371, and the ansatz
    # gives each of them exactly one slot
    for case in (AlphaCase(j, c) for j in (1, 2, 3) for c in (0, 1)):
        M, _ = build_ansatz(case)
        l = build_l_ansatz(M.table, case)
        assert M.table.of_kind(MULTIPLIER) == [f"r{n}" for n in range(1, 372)]
        seen = {}
        for (i, j, k), p in l.items():
            for m in p.terms:
                name = M.table.names[m[-1]]  # a slot term is its monomial times its r
                assert name not in seen
                seen[name] = (i, j, k)
        assert sorted(seen) == sorted(M.table.of_kind(MULTIPLIER))


def test_a_multiplier_left_over_raises(monkeypatch):
    # a table with r1..r372 has one multiplier more than the ansatz has slots
    monkeypatch.setattr(alpha, "MULTIPLIER_COUNT", 372)
    case = AlphaCase(1, 1)
    M, _ = build_ansatz(case)
    with pytest.raises(RCError, match="^multiplier ansatz leaves 1 of the table's multipliers unused$"):
        build_l_ansatz(M.table, case)


def test_multiplier_signs_match_cofactors(rc11):
    _, _, _, l, betas, _, _ = rc11
    for (i, j, k), p in l.items():
        if p.is_zero():
            continue
        bij = betas[(i, j)]
        b1k = betas[(1, k)]
        if bij.is_zero() or b1k.is_zero():
            continue
        assert p.grading()[1] == bij.grading()[1] * b1k.grading()[1]


def test_residual_count_and_zero_l(rc11):
    _, table, _, l, betas, res, _ = rc11
    assert len(res) == 15
    bare = rc_residuals(betas, {key: table.zero() for key in l})
    assert list(bare) == list(PAIRS)
    for (i, j), r in bare.items():
        assert r == betas[(i, j)]


def test_cofactor_symmetry(rc11):
    # adjugate keeps C[i, j] only; it must equal the cofactor of the
    # explicit (j, i) minor
    _, _, M, _, _, _, _ = rc11
    C = adjugate(M.rows)
    for (i, j) in [(2, 3), (2, 6), (4, 5)]:
        assert C[i, j] == signed_minor(M.rows, j, i)


def test_system_size_and_parameters(rc11):
    _, table, _, _, _, _, system = rc11
    assert len(system.f) == 876
    assert system.param_count == 394
    multipliers = set(table.of_kind(MULTIPLIER))
    rs = [n for n in system.param_names if n in multipliers]
    assert len(rs) == 371


def test_f_entries_parameter_only_and_affine_in_r(rc11):
    case, table, _, _, _, _, system = rc11
    geo = set(case.geo4)
    r_names = set(table.of_kind(MULTIPLIER))
    for p in system.f:
        names = support_names(p)
        assert not (names & geo)
        assert max_degree_in(p, r_names) <= 1
        # degree <= 2 jointly in the g, b, r parameters (d is unconstrained)
        assert max_degree_in(p, set(BORDER_PARAMS) | r_names) <= 2


def test_extraction_commutes_with_specialization(rc11):
    case, table, _, _, _, res, system = rc11
    rng = random.Random(17)
    spec = {
        n: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for n in system.param_names
    }
    # specialize a residual, re-extract, compare with specializing f directly
    target = res[2, 5]
    specialized = target.substitute(spec)
    direct = {}
    for mono, coeff in target.coefficients_wrt(case.geo4):
        direct[mono] = coeff.substitute(spec).terms.get((), 0)
    recomputed = dict(
        (m, c.terms.get((), 0))
        for m, c in specialized.coefficients_wrt(case.geo4)
    )
    assert {m: c for m, c in direct.items() if c} == recomputed


def test_l_lives_on_four_variables(rc11):
    _, _, _, l, _, _, _ = rc11
    allowed = {"x", "y1", "y2", "y3"}
    for p in l.values():
        geo = {n for n in support_names(p) if not n[0] in "rgbd"}
        assert geo <= allowed


def test_exact_multipliers_give_zero_residuals():
    """With the exact single-column multipliers of the x=0 diagonal-type
    matrix, every residual vanishes identically."""
    from godeaux2.verify import curve_table, diagonal_type_matrix, excluded_diagonal_multipliers

    table = curve_table()
    M = diagonal_type_matrix(table, 1)
    L = excluded_diagonal_multipliers(table)
    betas = adjugate(M.rows)
    zero = table.zero()
    polys = {}
    for (i, j) in PAIRS:
        for k in range(1, 7):
            polys[(i, j, k)] = L[i - 1][j - 1] if k == 6 else zero
    for res in rc_residuals(betas, polys).values():
        assert res.is_zero()


def test_system_dump_is_stable(rc11):
    case, _, _, _, _, res, system = rc11
    dump = dump_text(res, case.geo4)
    lines = dump.splitlines()
    assert len(lines) == 876
    assert lines[0].startswith("[22:")
    assert [line.split("] ", 1)[1] for line in lines] == [str(p) for p in system.f]
    assert dump == dump_text(res, case.geo4)
