"""Tests for the matrix family construction and its linear algebra."""

import random
from fractions import Fraction

import pytest

from godeaux2 import alpha
from godeaux2.alpha import (
    AlphaCase,
    PatternError,
    SymPolyMatrix,
    adjugate,
    build_ansatz,
    coordinate_entries,
    det_any,
    generic_border,
    make_table,
)
from godeaux2.ring import GEOMETRIC, INVERTIBLE, PARAMETER, RingError, VariableTable, exponents

from _oracle import build_ansatz_reference, first_row_det, signed_minor


@pytest.fixture(scope="module")
def case11():
    case = AlphaCase(1, 1)
    M, params = build_ansatz(case)
    return case, M.table, M, params


def diag_matrix(table, entries):
    zero = table.zero()
    return SymPolyMatrix(
        [[entries[i] if i == j else zero for j in range(6)] for i in range(6)]
    )


def test_ansatz_corner_entries(case11):
    _, table, M, _ = case11
    y1, y2, y3, d, x = (table.var(n) for n in ("y1", "y2", "y3", "d", "x"))
    assert M[6, 6].is_zero()
    assert M[1, 6] == y1 * y1 - y2 * y2 - d * y3 * y3
    assert M[2, 6] == x
    assert M[3, 4] == x * x  # c = 1
    assert M[3, 6].is_zero() and M[4, 6].is_zero() and M[5, 6].is_zero()


def test_ansatz_c0_kills_central_x2():
    M, _ = build_ansatz(AlphaCase(1, 0))
    assert M[3, 4].is_zero()


def test_ansatz_parameter_counts():
    for j, expected in ((1, 23), (2, 23), (3, 22)):
        M, params = build_ansatz(AlphaCase(j, 1))
        assert len(params) == expected
        M.check_pattern()


@pytest.mark.parametrize("j,c", [(j, c) for j in (1, 2, 3) for c in (0, 1)])
def test_build_ansatz_matches_the_written_out_reference(j, c):
    # bordered_matrix, generic_border and central_block against the layout
    # written out case by case
    case = AlphaCase(j, c)
    M, params = build_ansatz(case)
    M_ref, params_ref = build_ansatz_reference(case, M.table)
    assert M == M_ref
    assert params == params_ref


@pytest.mark.parametrize(
    "change,message", [("one_short", "3 slot monomials but 2 names left"), ("one_extra", "leaves b12 unused")]
)
def test_ansatz_rejects_a_wrong_q_slot_count(monkeypatch, change, message):
    # a normalization table one monomial short leaves 13 q slots for 12
    # names; one extra leaves 11 slots
    dropped = {k: set(v) for k, v in alpha._DROPPED[1].items()}
    if change == "one_short":
        dropped[3].discard("y3^2")
    else:
        dropped[2].add("x^2*y1")
    monkeypatch.setitem(alpha._DROPPED, 1, dropped)
    # too few names is generic_poly's RingError; a name left over, build_ansatz's PatternError
    with pytest.raises(RingError if change == "one_short" else PatternError, match=message):
        build_ansatz(AlphaCase(1, 1))


def test_ansatz_rejects_a_border_name_left_over(monkeypatch):
    # one name more than the border has slots: the table declares it, and
    # build_ansatz refuses to leave it unused
    monkeypatch.setattr(alpha, "BORDER_PARAMS", alpha.BORDER_PARAMS + ("b13",))
    with pytest.raises(PatternError, match="^border ansatz leaves b13 unused$"):
        build_ansatz(AlphaCase(2, 1))


def test_generic_border_rejects_a_spare_name_in_its_pool():
    # a verify-style table (extension_shuffle's coordinates and its 30
    # border names) plus one spare name: the pool is a plain sequence, and
    # generic_border refuses to leave the spare unused
    names = [f"h{k}" for k in range(1, 11)] + [f"k{k}" for k in range(1, 22)]
    geo = ("x", "y1", "y2", "y3")
    table = VariableTable(coordinate_entries(geo) + [(n, 0, 1, PARAMETER) for n in names])
    with pytest.raises(PatternError, match="^border ansatz leaves k21 unused$"):
        generic_border(table, geo, names)
    G, qs = generic_border(table, geo, names[:-1])
    assert sum(len(p.terms) for p in (G, *qs)) == 30


def test_ansatz_q_slots_match_expected_layout(case11):
    _, table, M, _ = case11
    x = table.var("x")
    q1 = M[1, 2].exact_divide(x)
    assert str(q1) == "b1*y1*y2 + b2*y2*y3"
    q2 = M[1, 3].exact_divide(x)
    assert str(q2) == "b3*x^2*y1 + b4*x^2*y3 + b5*y1*y2 + b6*y2*y3"
    q3 = M[1, 4].exact_divide(x)
    assert str(q3) == "b7*x^4 + b8*x^2*y2 + b9*y2^2"
    q4 = M[1, 5].exact_divide(x)
    assert str(q4) == "b10*x^4 + b11*y1*y3 + b12*y3^2"


def test_pattern_rejects_wrong_degree(case11):
    _, table, M, _ = case11
    x, one = table.var("x"), table.one()
    # degree 1 where 2 is required; a constant at (6,6), which wants (0, -1)
    for cells, entry in [(((1, 2), (2, 1)), x), (((5, 5),), one)]:
        rows = [list(r) for r in M.rows]
        for a, b in cells:
            rows[a][b] = entry
        with pytest.raises(PatternError):
            SymPolyMatrix(rows).check_pattern()


def test_cofactor_of_diagonal():
    T = VariableTable(
        [(f"p{k}", 1, 1, GEOMETRIC) for k in range(1, 7)]
    )
    ps = [T.var(f"p{k}") for k in range(1, 7)]
    M = diag_matrix(T, ps)
    c = adjugate(M.rows)[1, 1]
    assert c == ps[1] * ps[2] * ps[3] * ps[4] * ps[5]
    assert M.determinant() == ps[0] * c


def test_determinant_identity_matrix(case11):
    _, table, _, _ = case11
    one = table.one()
    assert diag_matrix(table, [one] * 6).determinant() == one


def _random_specialization(table, params, rng):
    return {
        p: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for p in params
    }


def test_laplace_identity_small_symbolic():
    T = VariableTable(
        [("u", 1, 1, GEOMETRIC), ("v", 1, 1, GEOMETRIC)]
    )
    u, v = T.var("u"), T.var("v")
    zero, one = T.zero(), T.one()
    rows = [
        [u, v, zero, one, zero, zero],
        [v, u + v, v, zero, zero, zero],
        [zero, v, u, zero, one, zero],
        [one, zero, zero, v, zero, zero],
        [zero, zero, one, zero, u, v],
        [zero, zero, zero, zero, v, u],
    ]
    M = SymPolyMatrix(rows)
    det = M.determinant()
    C = adjugate(M.rows)
    for i in range(1, 7):
        for k in range(1, 7):
            acc = T.zero()
            for j in range(1, 7):
                acc = acc + M[i, j] * C[min(k, j), max(k, j)]
            assert acc == (det if i == k else T.zero())


def test_laplace_identity_on_alpha_specialized(case11):
    _, table, M, params = case11
    rng = random.Random(3)
    spec = _random_specialization(table, params, rng)
    Ms = M.substitute(spec)
    det = Ms.determinant()
    C = adjugate(Ms.rows)
    for i, k in [(1, 1), (2, 2), (1, 3), (4, 2), (6, 6), (5, 1)]:
        acc = table.zero()
        for j in range(1, 7):
            acc = acc + Ms[i, j] * C[min(k, j), max(k, j)]
        assert acc == (det if i == k else table.zero())


def _symmetric_grid(T, n, seed):
    rng = random.Random(seed)
    u, v = T.var("u"), T.var("v")
    grid = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            grid[a][b] = grid[b][a] = rng.randint(-3, 3) * u + rng.randint(-3, 3) * v + rng.randint(-2, 2)
    return grid


def test_adjugate_keys_are_the_upper_triangle():
    T = VariableTable([("u", 1, 1, GEOMETRIC), ("v", 1, 1, GEOMETRIC)])
    for n in (4, 6):
        C = adjugate(_symmetric_grid(T, n, n))
        assert list(C) == [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i <= j]
    assert list(adjugate(_symmetric_grid(T, 6, 1))) == list(alpha.UPPER)


def test_adjugate_rejects_a_non_symmetric_or_non_square_grid():
    T = VariableTable([("u", 1, 1, GEOMETRIC), ("v", 1, 1, GEOMETRIC)])
    grid = _symmetric_grid(T, 4, 2)
    grid[1][3] = grid[1][3] + T.var("u")
    with pytest.raises(PatternError, match=r"^matrix not symmetric at \(2,4\)$"):
        adjugate(grid)
    with pytest.raises(PatternError, match="square"):
        adjugate([row[:3] for row in _symmetric_grid(T, 4, 3)])


def test_adjugate_calls_on_same_size_matrices_share_no_minors():
    # two matrices of one size have the same minor positions; each call must
    # expand its own matrix, never a minor cached from the other
    T = VariableTable([("u", 1, 1, GEOMETRIC), ("v", 1, 1, GEOMETRIC)])
    first, second = _symmetric_grid(T, 5, 4), _symmetric_grid(T, 5, 5)
    assert first != second
    for grid in (first, second, first):
        C = adjugate(grid)
        assert C == {(i, j): signed_minor(grid, i, j) for i in range(1, 6) for j in range(i, 6)}


def test_congruence_identity(case11):
    _, table, M, _ = case11
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert M.congruence(eye) == M


def test_congruence_determinant_scaling(case11):
    _, table, M, params = case11
    rng = random.Random(11)
    spec = _random_specialization(table, params, rng)
    Ms = M.substitute(spec)
    P = [[table.const(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
    PM = SymPolyMatrix  # noqa: F841  (P itself need not be symmetric)
    C = Ms.congruence(P)
    detP = first_row_det(table, P)
    assert C.determinant() == detP * detP * Ms.determinant()


def test_substitute_x0_gives_central_shape(case11):
    _, table, M, _ = case11
    R = M.substitute({"x": 0})
    y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
    zero = table.zero()
    Q = y1 * y1 - y2 * y2 - d * y3 * y3
    expected = SymPolyMatrix(
        [
            [zero, zero, zero, zero, zero, Q],
            [zero, d * y3, y1, y2, zero, zero],
            [zero, y1, y3, zero, y2, zero],
            [zero, y2, zero, -y3, y1, zero],
            [zero, zero, y2, y1, -(d * y3), zero],
            [Q, zero, zero, zero, zero, zero],
        ]
    )
    assert R == expected
    assert R.substitute({"x": 0}) == R  # x-free matrix is a fixed point


def test_det_even_in_x(case11):
    _, table, M, params = case11
    rng = random.Random(5)
    spec = _random_specialization(table, params, rng)
    det = M.substitute(spec).determinant()
    xi = table.index["x"]
    for m in det.terms:
        for v, e in exponents(m):
            if v == xi:
                assert e % 2 == 0
    assert det.grading() == (16, 1)


def test_make_table_main_pipeline_geometry():
    table = make_table(AlphaCase(1, 1))
    geo = [
        (table.names[v], table.weights[v], table.signs[v])
        for v in range(table.geo_cut)
    ]
    assert geo == [
        ("x", 1, -1),
        ("y1", 2, -1),
        ("y2", 2, 1),
        ("y3", 2, -1),
        ("z1", 3, -1),
        ("z2", 3, -1),
        ("z3", 3, 1),
        ("z4", 3, 1),
        ("t", 4, -1),
    ]
    # the fourth coordinate is the case's w_name: y4 for j = 2, 3
    for j in (2, 3):
        table = make_table(AlphaCase(j, 0))
        assert table.names[:5] == ("x", "y1", "y2", "y4", "z1")
        assert (table.weights[3], table.signs[3]) == (2, -1)
    # the j=2 constraint keeps d != 0, and only there is d declared invertible
    for j, c in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)):
        assert make_table(AlphaCase(j, c)).of_kind(INVERTIBLE) == (["d"] if j == 2 else [])


def test_determinant_matches_independent_expansion(case11):
    _, table, M, params = case11
    rng = random.Random(23)
    spec = _random_specialization(table, params, rng)
    Ms = M.substitute(spec)
    expected = first_row_det(table, [list(row) for row in Ms.rows])
    assert Ms.determinant() == expected
    assert det_any([list(row) for row in Ms.rows]) == expected
    # det_any on a non-symmetric matrix of plain ints next to one polynomial
    ints = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
    ints[0][0] = table.var("d")
    assert det_any(ints) == first_row_det(table, ints)
