"""Unit tests for the sparse polynomial core."""

import gc

import pytest

from godeaux2 import pipeline
from godeaux2.ring import (
    ALGEBRAIC,
    GEOMETRIC,
    MULTIPLIER,
    PARAMETER,
    Polynomial,
    RewriteRule,
    RingError,
    TableMismatchError,
    VariableTable,
    ZeroPolynomialError,
    generic_poly,
    monomial_basis,
)


def small_table(rules=()):
    return VariableTable(
        [
            ("x", 1, -1, GEOMETRIC),
            ("y1", 2, -1, GEOMETRIC),
            ("y2", 2, 1, GEOMETRIC),
            ("y3", 2, -1, GEOMETRIC),
            ("d", 0, 1, PARAMETER),
            ("g9", 0, 1, PARAMETER),
        ],
        rules=rules,
    )


@pytest.fixture
def T():
    return small_table()


def test_additive_identity(T):
    p = T.var("y1") + 2 * T.var("y2")
    assert p + T.zero() == p
    assert p + 0 == p


def test_cancellation(T):
    y1 = T.var("y1")
    assert (y1 + (-y1)).is_zero()


def test_add_builds_final_conic(T):
    y1, y2, y3, d = (T.var(n) for n in ("y1", "y2", "y3", "d"))
    q = (y1 * y1 - y2 * y2) + (-(d * y3 * y3))
    assert str(q) == "y1^2 - y2^2 - d*y3^2"


def test_table_mismatch_raises(T):
    other = small_table()
    with pytest.raises(TableMismatchError):
        T.var("x") + other.var("x")


def test_multiplicative_identity(T):
    p = 3 * T.var("x") - T.var("y2")
    assert p * T.one() == p
    assert p * 1 == p


def test_difference_of_squares(T):
    y1, y2 = T.var("y1"), T.var("y2")
    assert (y1 - y2) * (y1 + y2) == y1 * y1 - y2 * y2


def test_imaginary_unit_rule():
    T = VariableTable(
        [("y1", 2, -1, GEOMETRIC), ("i", 0, 1, ALGEBRAIC)],
        rules=[RewriteRule("i", 2, {(): -1})],
    )
    i = T.var("i")
    assert i * i == T.const(-1)
    assert (i * T.var("y1")) * (i * T.var("y1")) == -(T.var("y1") ** 2)


def test_quartic_root_rule():
    T = VariableTable(
        [("d", 0, 1, PARAMETER), ("r", 0, 1, ALGEBRAIC)],
        rules=[RewriteRule("r", 4, {((("d"), 2),): -1})],
    )
    r, d = T.var("r"), T.var("d")
    assert r ** 4 == -(d * d)
    assert r ** 6 == -(d * d) * r * r
    assert r ** 8 == d ** 4


def test_weighted_degree(T):
    x, y1, y2, y3, d = (T.var(n) for n in ("x", "y1", "y2", "y3", "d"))
    assert (x * x).grading() == (2, 1)
    q = y1 ** 2 - y2 ** 2 - d * d * y3 ** 2
    assert q.grading() == (4, 1)
    assert (x + y1).grading() is None  # degrees differ
    assert (x + y2).grading() is None  # both differ
    with pytest.raises(ZeroPolynomialError):
        T.zero().grading()


def test_sigma_sign(T):
    x, y1, y2 = T.var("x"), T.var("y1"), T.var("y2")
    assert y2.grading() == (2, 1)
    assert (x * y2).grading() == (3, -1)
    assert (x * x + y1).grading() is None  # signs differ
    with pytest.raises(ZeroPolynomialError):
        T.zero().grading()


def test_substitute_y4_policy():
    T = VariableTable(
        [
            ("y1", 2, -1, GEOMETRIC),
            ("y2", 2, 1, GEOMETRIC),
            ("y3", 2, -1, GEOMETRIC),
            ("y4", 2, -1, GEOMETRIC),
            ("d", 0, 1, PARAMETER),
        ]
    )
    y1, y2, y3, y4, d = (T.var(n) for n in ("y1", "y2", "y3", "y4", "d"))
    assert y4.substitute({"y4": d * y3}) == d * y3
    p = y1 ** 2 - y2 ** 2 - y3 * y4
    assert p.substitute({}) == p
    assert p.substitute({"y4": d * d * y3}) == y1 ** 2 - y2 ** 2 - d * d * y3 ** 2


def test_substitute_is_simultaneous(T):
    y1, y2 = T.var("y1"), T.var("y2")
    assert (y1 - 2 * y2).substitute({"y1": y2, "y2": y1}) == y2 - 2 * y1


def test_substitute_homomorphism_spot(T):
    x, y1, d = T.var("x"), T.var("y1"), T.var("d")
    p = x * y1 + d
    q = y1 - 2 * x
    b = {"y1": x * x + d}
    assert (p * q).substitute(b) == p.substitute(b) * q.substitute(b)


def test_coefficients_wrt(T):
    x, y1, y2, y3, d, g9 = (T.var(n) for n in ("x", "y1", "y2", "y3", "d", "g9"))
    geo = ["x", "y1", "y2", "y3"]
    b2 = T.var("d")  # any parameter works as a stand-in coefficient
    p = b2 * y2 * y3
    [(m, c)] = p.coefficients_wrt(geo)
    assert T.mono_str(m) == "y2*y3" and c == b2
    assert T.zero().coefficients_wrt(geo) == []
    p = (g9 + 1) * y2 ** 2 * y3 + d * x ** 4 * y3
    seq = p.coefficients_wrt(geo)
    assert [(T.mono_str(m), str(c)) for m, c in seq] == [
        ("x^4*y3", "d"),
        ("y2^2*y3", "g9 + 1"),
    ]


def test_exact_divide(T):
    y1, y2, y3, d = (T.var(n) for n in ("y1", "y2", "y3", "d"))
    q = y1 ** 2 - y2 ** 2 - d * d * y3 ** 2
    assert (q * q).exact_divide(q) == q
    assert (y1 ** 2 - y2 ** 2).exact_divide(y1 + y2) == y1 - y2
    assert (y1 ** 2 + y2 ** 2).exact_divide(y1 + y2) is None
    with pytest.raises(ZeroPolynomialError):
        q.exact_divide(T.zero())


def test_poly_sqrt(T):
    y1, y2 = T.var("y1"), T.var("y2")
    s = ((y1 + y2) ** 2).poly_sqrt()
    assert s == y1 + y2  # leading coefficient normalized positive
    s = ((-y1 - y2) * (y1 + y2) * -1).poly_sqrt()
    assert s == y1 + y2
    assert (y1 ** 2 + y2 ** 2).poly_sqrt() is None
    assert T.zero().poly_sqrt() == T.zero()
    p = (3 * y1 - 2 * y2 + y1 * y2) ** 2
    r = p.poly_sqrt()
    assert r is not None and r * r == p


def test_monomial_basis_q1_slots(T):
    basis = monomial_basis(T, 4, -1, ["x", "y1", "y2", "y3"])
    assert sorted(T.mono_str(m) for m in basis) == sorted(
        ["x^2*y1", "x^2*y3", "y1*y2", "y2*y3"]
    )
    assert monomial_basis(T, 0, 1, ["x", "y1", "y2", "y3"]) == [()]
    basis = monomial_basis(T, 4, 1, ["x", "y1", "y2", "y3"])
    assert sorted(T.mono_str(m) for m in basis) == sorted(
        ["x^4", "x^2*y2", "y1^2", "y1*y3", "y2^2", "y3^2"]
    )


def test_monomial_basis_leaves_no_reference_cycle(T):
    gc.collect()
    gc.disable()
    try:
        monomial_basis(T, 8, 1, ["x", "y1", "y2", "y3"])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_discarded_pipeline_run_leaves_no_reference_cycle(monkeypatch):
    # a table must not hold Polynomials, which point back at it: every
    # discarded run would then wait for the cyclic collector
    monkeypatch.setattr(pipeline, "_CACHE", {})
    gc.collect()
    gc.disable()
    try:
        pipeline.run_pipeline(3, 0)
        pipeline._CACHE.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = sum(isinstance(o, (VariableTable, Polynomial)) for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == 0


def test_substitute_leaves_no_reference_cycle(T):
    # the cache of image products must not point back at itself (a nested
    # function that calls itself would): every substitution with a bound
    # part of two or more variables would then wait for the cyclic collector
    x, y1, d = T.var("x"), T.var("y1"), T.var("d")
    p = x ** 2 * y1 * d + x * y1 + d
    gc.collect()
    gc.disable()
    try:
        assert p.substitute({"x": y1 + d, "y1": d + 1}) != p
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == 0


def test_canonical_text_is_grevlex_descending(T):
    x, y1, y2, y3 = (T.var(n) for n in ("x", "y1", "y2", "y3"))
    p = y3 ** 2 + y1 * y3 + y2 ** 2 + y1 ** 2 + x ** 2 * y2 + x ** 4
    assert str(p) == "x^4 + x^2*y2 + y1^2 + y2^2 + y1*y3 + y3^2"
    q = T.const(1) - T.var("x")
    assert str(q) == "-x + 1"


def test_fraction_coefficients_render(T):
    from fractions import Fraction

    p = Fraction(3, 2) * T.var("x") - Fraction(1, 2)
    assert str(p) == "3/2*x - 1/2"


def test_pattern_constants_validate():
    with pytest.raises(RingError):
        VariableTable([("d", 1, 1, PARAMETER)])
    with pytest.raises(RingError):
        VariableTable([("d", 0, -1, PARAMETER)])
    with pytest.raises(RingError):
        VariableTable([("r1", 1, 1, MULTIPLIER)])
    with pytest.raises(RingError):
        VariableTable([("r1", 0, -1, MULTIPLIER)])
    with pytest.raises(RingError):
        VariableTable([("x", 1, -1, GEOMETRIC), ("x", 2, 1, GEOMETRIC)])


def test_generic_poly_one_coefficient_per_slot(T):
    monos = monomial_basis(T, 4, -1, ["x", "y1", "y2", "y3"])[:2]
    p = generic_poly(T, ["d", "g9"], monos)
    assert p == T.var("d") * Polynomial(T, {monos[0]: 1}) + T.var("g9") * Polynomial(T, {monos[1]: 1})
    with pytest.raises(RingError):
        generic_poly(T, ["d"], monos)


def test_multipliers_exclude_algebraic_r():
    table = VariableTable(
        [
            ("x", 1, -1, GEOMETRIC),
            ("d", 0, 1, PARAMETER),
            ("r5", 0, 1, MULTIPLIER),
            ("r", 0, 1, ALGEBRAIC),
        ],
        rules=[RewriteRule("r", 2, {(): -15})],
    )
    p = table.var("r") * table.var("r5") * table.var("x") + table.var("r") * table.var("d")
    assert p.variables() == {"x", "d", "r5", "r"}
    assert p.multipliers() == {"r5"}
    assert table.of_kind(MULTIPLIER) == ["r5"]


@pytest.mark.parametrize(
    "op",
    [lambda p: p + 0.5, lambda p: 0.5 * p, lambda p: p - 0.5, lambda p: p == 0.5],
    ids=["add", "rmul", "sub", "eq"],
)
def test_inexact_scalars_are_refused_like_const(T, op):
    x = T.var("x")
    with pytest.raises(RingError):
        op(x)
    assert (x == None) is False  # noqa: E711 - a non-number is simply unequal
    assert x != "x"


def test_const_rejects_inexact_coefficients(T):
    from fractions import Fraction

    from godeaux2.alpha import det_any

    assert T.const(Fraction(1, 3)) == Polynomial(T, {(): Fraction(1, 3)})
    with pytest.raises(RingError):
        T.const(0.1)
    with pytest.raises(RingError):
        T.const("1/3")
    a = T.var("d")
    with pytest.raises(RingError):
        det_any([[a, 0.5], [0.5, a]])
