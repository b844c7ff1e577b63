"""Independent-oracle cross-checks: sympy for ring arithmetic (optional) and
exact Gaussian elimination for the determinant and membership controls."""

import random
from fractions import Fraction

import pytest

from godeaux2.ring import GEOMETRIC, PARAMETER, Polynomial, VariableTable, exponents
from godeaux2.surface import low_degree, membership_check

from _oracle import dense_mono


def test_arithmetic_matches_sympy():
    sp = pytest.importorskip("sympy")
    T = VariableTable(
        [
            ("x", 1, -1, GEOMETRIC),
            ("y1", 2, -1, GEOMETRIC),
            ("y2", 2, 1, GEOMETRIC),
            ("d", 0, 1, PARAMETER),
        ]
    )
    syms = sp.symbols("x y1 y2 d")

    def to_sympy(p):
        acc = sp.Integer(0)
        for m, c in p.terms.items():
            t = sp.Rational(Fraction(c).numerator, Fraction(c).denominator)
            for v, e in exponents(m):
                t *= syms[v] ** e
            acc += t
        return sp.expand(acc)

    rng = random.Random(5150)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            m = dense_mono(rng.choices(range(3), k=4))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                terms[m] = terms.get(m, 0) + c
        return Polynomial(T, {m: c for m, c in terms.items() if c})

    for _ in range(300):
        p, q = rand_poly(), rand_poly()
        assert sp.expand(to_sympy(p) + to_sympy(q) - to_sympy(p + q)) == 0
        assert sp.expand(to_sympy(p) * to_sympy(q) - to_sympy(p * q)) == 0


def _fraction_det(M):
    n = len(M)
    A = [row[:] for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = Fraction(1) / A[col][col]
        for r in range(col + 1, n):
            if A[r][col]:
                f = A[r][col] * inv
                for c2 in range(col, n):
                    A[r][c2] -= f * A[col][c2]
    return det


def _eval(p, point):
    total = Fraction(0)
    for m, c in p.terms.items():
        val = Fraction(c)
        for v, e in exponents(m):
            val *= point[v] ** e
        total += val
    return total


def test_final_det_matches_gaussian_elimination(run11):
    table = run11.table
    D = run11.alpha_final.determinant()
    rng = random.Random(31337)
    for _ in range(8):
        point = {
            table.index[name]: Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            for name in ["x", "y1", "y2", "y3"] + run11.gbd_survivors
        }
        M = [
            [_eval(run11.alpha_final[i, j], point) for j in range(1, 7)]
            for i in range(1, 7)
        ]
        assert _fraction_det(M) == _eval(D, point)


def test_membership_controls_on_true_generators(run11):
    table = run11.table
    F = list(low_degree(run11.equations).values())
    z1, z4 = table.var("z1"), table.var("z4")
    row2 = run11.equations["row_2"]
    assert membership_check([z1 * z1, row2 * z4], F) == [False, True]
