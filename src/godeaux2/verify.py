"""Machine verification of the polynomial identities the construction rests on.

Every check is an exact symbolic zero-test: pass means the difference
polynomial is identically zero.  Negative controls (deliberately perturbed
inputs) are exercised by the test suite to guard against vacuous passes.
Denominators in the congruence checks are cleared by explicit monomial
factors, recorded in the check's note, never by a fraction-field type.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .alpha import AlphaCase, SymPolyMatrix, cofactor_any, det_any
from .elim import lin_elim, resolve_dependencies
from .pipeline import PipelineResult, run_pipeline
from .rc import build_l_ansatz, extract_system, rc_residuals
from .ring import (
    ALGEBRAIC,
    GEOMETRIC,
    PARAMETER,
    Polynomial,
    RewriteRule,
    VariableTable,
    generic_poly,
    lex_descending,
    monomial_basis,
    mono_mul,
)
from .surface import membership_check


@dataclass
class CheckReport:
    name: str
    status: str  # pass / fail / skipped
    witness: Optional[str] = None
    timing: float = 0.0
    note: str = ""

    def __post_init__(self):
        if (self.status == "fail") != (self.witness is not None):
            raise ValueError("fail status and witness must appear together")


def _timed(name: str, fn: Callable[[], tuple]) -> CheckReport:
    t0 = time.monotonic()
    try:
        ok, witness, note = fn()
    except Exception as exc:  # structural failure inside a check is a failure
        return CheckReport(name, "fail", witness=repr(exc), timing=time.monotonic() - t0)
    dt = time.monotonic() - t0
    if ok:
        return CheckReport(name, "pass", timing=dt, note=note)
    return CheckReport(name, "fail", witness=witness or "nonzero difference", timing=dt, note=note)


# ---------------------------------------------------------------------------
# small bespoke tables


def curve_table(extra_params=(), rules=(), extra_algebraic=()) -> VariableTable:
    entries = [
        ("y1", 2, -1, GEOMETRIC),
        ("y2", 2, 1, GEOMETRIC),
        ("y3", 2, -1, GEOMETRIC),
        ("d", 0, 1, PARAMETER),
    ]
    entries += [(p, 0, 1, PARAMETER) for p in extra_params]
    entries += [(r.variable, 0, 1, ALGEBRAIC) for r in rules]
    entries += [(a, 0, 1, ALGEBRAIC) for a in extra_algebraic]
    return VariableTable(entries, rules=rules)


# ---------------------------------------------------------------------------
# the restriction-to-the-curve identities


def excluded_diagonal_matrix(table: VariableTable) -> SymPolyMatrix:
    y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
    zero = table.zero()
    Q = y1 * y1 - y2 * y2 - d * d * y3 * y3
    u = y1 + d * y3
    v = y1 - d * y3
    return SymPolyMatrix(
        [
            [zero, zero, zero, zero, zero, Q],
            [zero, u, zero, y2, zero, zero],
            [zero, zero, u, zero, y2, zero],
            [zero, y2, zero, v, zero, zero],
            [zero, zero, y2, zero, v, zero],
            [Q, zero, zero, zero, zero, zero],
        ]
    )


def excluded_diagonal_multipliers(table: VariableTable) -> list:
    y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
    zero, one = table.zero(), table.one()
    u = y1 + d * y3
    v = y1 - d * y3
    return [
        [zero, zero, zero, zero, zero, one],
        [zero, v, zero, -y2, zero, zero],
        [zero, zero, v, zero, -y2, zero],
        [zero, -y2, zero, u, zero, zero],
        [zero, zero, -y2, zero, u, zero],
        [one, zero, zero, zero, zero, zero],
    ]


def verify_excluded_diagonal_rc(perturb: bool = False) -> CheckReport:
    """At x = 0 the excluded diagonal-type matrix satisfies the rank condition
    with the stated single-column multipliers: beta_ij = l_ij^6 * beta_16."""

    def body():
        table = curve_table()
        M = excluded_diagonal_matrix(table)
        L = excluded_diagonal_multipliers(table)
        if perturb:
            L[1][1] = L[1][1] + table.var("y2")  # negative control
        memo: dict = {}
        b16 = M.cofactor(1, 6, memo)
        for i in range(1, 7):
            for j in range(i, 7):
                diff = M.cofactor(i, j, memo) - L[i - 1][j - 1] * b16
                if not diff.is_zero():
                    return False, f"({i},{j}): {diff}", ""
        return True, None, "all 21 cofactor identities hold"

    return _timed("excluded_diagonal_rc", body)


def _restriction_block(table: VariableTable, case: int) -> list:
    y1, y2, y3 = (table.var(n) for n in ("y1", "y2", "y3"))
    m = {
        k: table.var(f"a{k}") * y1 + table.var(f"b{k}") * y3 for k in (1, 3, 4, 5, 6)
    }
    zero = table.zero()
    if case == 1:
        m2, m3 = y1, y3
    elif case == 2:
        m2, m3 = y3, y1
    else:
        m2, m3 = zero, m[3]
    return [
        [m[1], m2, y2, zero],
        [m2, m3, zero, y2],
        [y2, zero, m[4], m[5]],
        [zero, y2, m[5], m[6]],
    ]


def verify_restriction_cofactors(case: int) -> CheckReport:
    """The closed-form cofactor identities of the central 4x4 block, per
    restriction case, plus (case 1) the coefficient solution making the three
    divided identities (Q, 0, 0)."""

    def body():
        table = curve_table(extra_params=[f"a{k}" for k in range(1, 7)] + [f"b{k}" for k in range(1, 7)])
        y1, y2, y3 = (table.var(n) for n in ("y1", "y2", "y3"))
        a = {k: table.var(f"a{k}") for k in range(1, 7)}
        b = {k: table.var(f"b{k}") for k in range(1, 7)}
        N = _restriction_block(table, case)
        checks = []
        if case == 1:
            checks = [
                (
                    "-C13/y2",
                    -cofactor_any(N, 1, 3),
                    a[5] * y1 ** 2 + (b[5] + a[6]) * y1 * y3 - y2 ** 2 + b[6] * y3 ** 2,
                ),
                (
                    "C14/y2",
                    cofactor_any(N, 1, 4),
                    a[4] * y1 ** 2 + (b[4] + a[5]) * y1 * y3 + b[5] * y3 ** 2,
                ),
                (
                    "C23/y2",
                    cofactor_any(N, 2, 3),
                    (a[1] * a[5] + a[6]) * y1 ** 2
                    + (a[1] * b[5] + b[1] * a[5] + b[6]) * y1 * y3
                    + b[1] * b[5] * y3 ** 2,
                ),
            ]
        elif case == 2:
            checks = [
                (
                    "-C13/y2",
                    -cofactor_any(N, 1, 3),
                    a[6] * y1 ** 2 + (a[5] + b[6]) * y1 * y3 - y2 ** 2 + b[5] * y3 ** 2,
                ),
                (
                    "C14/y2",
                    cofactor_any(N, 1, 4),
                    a[5] * y1 ** 2 + (a[4] + b[5]) * y1 * y3 + b[4] * y3 ** 2,
                ),
                (
                    # in this row/column numbering the quadric of the third
                    # identity sits at the (2,4) cofactor (case 3 has the
                    # same shape there)
                    "-C24/y2",
                    -cofactor_any(N, 2, 4),
                    a[1] * a[4] * y1 ** 2
                    + (a[1] * b[4] + b[1] * a[4] + a[5]) * y1 * y3
                    - y2 ** 2
                    + (b[1] * b[4] + b[5]) * y3 ** 2,
                ),
            ]
        else:
            checks = [
                (
                    "-C12/y2",
                    -cofactor_any(N, 1, 2),
                    y2 * (a[5] * y1 + b[5] * y3),
                ),
                (
                    "-C13/y2",
                    -cofactor_any(N, 1, 3),
                    a[3] * a[6] * y1 ** 2
                    + (b[3] * a[6] + a[3] * b[6]) * y1 * y3
                    - y2 ** 2
                    + b[3] * b[6] * y3 ** 2,
                ),
                (
                    "-C24/y2",
                    -cofactor_any(N, 2, 4),
                    a[1] * a[4] * y1 ** 2
                    + (b[1] * a[4] + a[1] * b[4]) * y1 * y3
                    - y2 ** 2
                    + b[1] * b[4] * y3 ** 2,
                ),
            ]
        for label, cof, expected in checks:
            got = cof.exact_divide(y2)
            if got is None:
                return False, f"{label}: not divisible by y2", ""
            if got != expected:
                return False, f"{label}: {got - expected}", ""
        note = "closed-form cofactor identities hold"
        if case == 1:
            d = table.var("d")
            spec = {
                "a1": table.zero(), "b1": d * d,
                "a4": table.zero(), "b4": table.const(-1),
                "a5": table.one(), "b5": table.zero(),
                "a6": table.zero(), "b6": -(d * d),
            }
            Q = y1 ** 2 - y2 ** 2 - d * d * y3 ** 2
            vals = [c.substitute(spec) for _, c, _ in checks]
            # vals are (-C13, C14, C23); the solved coefficients make the
            # divided identities (Q, 0, 0), so -C13 = Q*y2 and the rest vanish
            wanted = [Q * y2, table.zero(), table.zero()]
            if [v for v in vals] != wanted:
                return False, "case-1 specialization is not (Q, 0, 0)", ""
            note += "; case-1 specialization gives (Q, 0, 0)"
        return True, None, note

    return _timed(f"restriction_cofactors_{case}", body)


def verify_y2_quartic_coefficient() -> CheckReport:
    """The y2^4 coefficient of det(central block) is (r1 r4 - r2 r3)^2."""

    def body():
        table = curve_table(
            extra_params=[f"a{k}" for k in range(1, 7)]
            + [f"b{k}" for k in range(1, 7)]
            + [f"r{k}" for k in range(1, 5)]
        )
        y1, y2, y3 = (table.var(n) for n in ("y1", "y2", "y3"))
        m = {k: table.var(f"a{k}") * y1 + table.var(f"b{k}") * y3 for k in range(1, 7)}
        r = {k: table.var(f"r{k}") for k in range(1, 5)}
        N = [
            [m[1], m[2], r[1] * y2, r[2] * y2],
            [m[2], m[3], r[3] * y2, r[4] * y2],
            [r[1] * y2, r[3] * y2, m[4], m[5]],
            [r[2] * y2, r[4] * y2, m[5], m[6]],
        ]
        D = det_any(N)
        coeff = None
        for mono, c in D.coefficients_wrt(["y1", "y2", "y3"]):
            if table.mono_str(mono) == "y2^4":
                coeff = c
                break
        if coeff is None:
            return False, "no y2^4 term in det", ""
        expected = (r[1] * r[4] - r[2] * r[3]) ** 2
        if coeff != expected:
            return False, str(coeff - expected), ""
        unit = {"r1": 1, "r4": 1, "r2": 0, "r3": 0}
        if coeff.substitute(unit) != table.one():
            return False, "specialization r=(1,0,0,1) is not 1", ""
        if not coeff.substitute({"r1": 0, "r2": 0, "r3": 0, "r4": 0}).is_zero():
            return False, "specialization r=0 is not 0", ""
        return True, None, "coefficient equals (r1*r4 - r2*r3)^2"

    return _timed("y2_quartic_coefficient", body)


def _quartic_root_table(d_value=None, with_rule=True):
    if not with_rule:
        # negative control: r present but no quartic relation imposed
        return curve_table(extra_algebraic=("r",))
    rules = [RewriteRule("r", 4, {((("d"), 2),): -1})]
    if d_value is not None:
        rules = [RewriteRule("r", 4, {(): -(d_value ** 2)})]
    return curve_table(rules=rules)


def verify_quartic_root_congruence(with_rule: bool = True, d_value=None) -> CheckReport:
    """The quartic-root congruence: with r^4 = -d^2 the change of variables
    (y1, y2, y3) -> (-r^2 y3, y2, -r^2 d^-2 y1) sends the restricted matrix to
    P M P^T.  All d^-2 entries are cleared by the factors d^2 P and d^2 M, so
    the asserted identity is (d^2 P)(d^2 M)(d^2 P)^T = d^6 P M P^T entrywise.
    """

    def body():
        table = _quartic_root_table(d_value=d_value, with_rule=with_rule)
        y1, y2, y3 = (table.var(n) for n in ("y1", "y2", "y3"))
        d = table.const(d_value) if d_value is not None else table.var("d")
        r = table.var("r")
        zero = table.zero()
        Q = y1 * y1 - y2 * y2 - d * d * y3 * y3
        T = SymPolyMatrix(
            [
                [zero, zero, zero, zero, zero, Q],
                [zero, d * d * y3, y1, y2, zero, zero],
                [zero, y1, y3, zero, y2, zero],
                [zero, y2, zero, -y3, y1, zero],
                [zero, zero, y2, y1, -(d * d * y3), zero],
                [Q, zero, zero, zero, zero, zero],
            ]
        )
        # d^2 * M for the case-2 coefficient solution
        M2 = SymPolyMatrix(
            [
                [zero, zero, zero, zero, zero, d * d * Q],
                [zero, y1, d * d * y3, d * d * y2, zero, zero],
                [zero, d * d * y3, d * d * y1, zero, d * d * y2, zero],
                [zero, d * d * y2, zero, d ** 4 * y1, -(d ** 4) * y3, zero],
                [zero, zero, d * d * y2, -(d ** 4) * y3, d * d * y1, zero],
                [d * d * Q, zero, zero, zero, zero, zero],
            ]
        )
        P2 = [
            [d * d, zero, zero, zero, zero, zero],
            [zero, d * d * r ** 3, zero, zero, zero, zero],
            [zero, zero, r ** 3, zero, zero, zero],
            [zero, zero, zero, -r, zero, zero],
            [zero, zero, zero, zero, -(d * d) * r, zero],
            [zero, zero, zero, zero, zero, d * d],
        ]
        lhs = M2.congruence(P2)
        phi = {"y1": -(d * d) * r * r * y3, "y2": d * d * y2, "y3": -(r * r) * y1}
        rows = []
        for i in range(1, 7):
            row = []
            for j in range(1, 7):
                e = T[i, j]
                if e.is_zero():
                    row.append(zero)
                    continue
                k = e.weighted_degree() // 2  # y-degree of the entry
                row.append(d ** (6 - 2 * k) * e.change_vars(phi))
            rows.append(row)
        rhs = SymPolyMatrix(rows)
        for i in range(1, 7):
            for j in range(i, 7):
                diff = lhs[i, j] - rhs[i, j]
                if not diff.is_zero():
                    return False, f"({i},{j}): {diff}", ""
        return True, None, "cleared by d^2 per factor (overall d^6)"

    return _timed("quartic_root_congruence", body)


def verify_imaginary_unit_congruence(perturb: bool = False) -> CheckReport:
    """With i^2 = -1 the product (2d R) M_2 (2d R)^T equals the restricted
    matrix form in rescaled coordinates; M_1 is the excluded diagonal type."""

    def body():
        table = curve_table(rules=[RewriteRule("i", 2, {(): -1})])
        y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
        ii = table.var("i")
        zero = table.zero()
        Q = y1 * y1 - y2 * y2 - d * d * y3 * y3

        def M_j(j):
            s = -1 if j % 2 == 0 else 1  # -(-1)^j
            return SymPolyMatrix(
                [
                    [zero, zero, zero, zero, zero, Q],
                    [zero, y1 + d * y3, zero, y2, zero, zero],
                    [zero, zero, y1 + s * d * y3, zero, y2, zero],
                    [zero, y2, zero, y1 - d * y3, zero, zero],
                    [zero, zero, y2, zero, y1 - s * d * y3, zero],
                    [Q, zero, zero, zero, zero, zero],
                ]
            )

        M1, M2 = M_j(1), M_j(2)
        if M1 != excluded_diagonal_matrix(table):
            return False, "M_1 does not match the excluded diagonal type", ""
        flip = -1 if perturb else 1  # negative control: one wrong sign in R
        two_d_R = [
            [2 * d, zero, zero, zero, zero, zero],
            [zero, flip * 2 * d * ii, d * d, zero, zero, zero],
            [zero, -2 * ii, d, zero, zero, zero],
            [zero, zero, zero, -d * ii, 2 * table.one(), zero],
            [zero, zero, zero, ii * d * d, 2 * d, zero],
            [zero, zero, zero, zero, zero, 2 * d],
        ]
        C = M2.congruence(two_d_R)
        W3 = (d * d - 4) * y1 - (4 * d + d ** 3) * y3
        W1 = (4 + d * d) * y1 + (4 * d - d ** 3) * y3
        fy2 = 4 * d * d * y2
        expected = SymPolyMatrix(
            [
                [zero, zero, zero, zero, zero, 4 * d * d * Q],
                [zero, d * d * W3, d * W1, fy2, zero, zero],
                [zero, d * W1, W3, zero, fy2, zero],
                [zero, fy2, zero, -W3, d * W1, zero],
                [zero, zero, fy2, d * W1, -(d * d) * W3, zero],
                [4 * d * d * Q, zero, zero, zero, zero, zero],
            ]
        )
        for i in range(1, 7):
            for j in range(i, 7):
                diff = C[i, j] - expected[i, j]
                if not diff.is_zero():
                    return False, f"({i},{j}): {diff}", ""
        # the rescaled coordinates still cut out the same conic
        conic = W1 * W1 - 16 * d * d * y2 * y2 - W3 * W3 - 16 * d * d * Q
        if not conic.is_zero():
            return False, f"conic identity fails: {conic}", ""
        return True, None, "denominators cleared by 2d per factor (overall 4d^2)"

    return _timed("imaginary_unit_congruence", body)


def verify_extension_shuffle() -> CheckReport:
    """The unimodular row shuffle turns the c5 = d, c6 = 1 extension matrix
    into the j=2 shape (and the j=3 shape at d = 0)."""

    def body():
        params = (
            ["c2"]
            + [f"h{k}" for k in range(1, 11)]
            + [f"k{k}" for k in range(1, 21)]
        )
        entries = [
            ("x", 1, -1, GEOMETRIC),
            ("y1", 2, -1, GEOMETRIC),
            ("y2", 2, 1, GEOMETRIC),
            ("y3", 2, -1, GEOMETRIC),
            ("d", 0, 1, PARAMETER),
        ] + [(p, 0, 1, PARAMETER) for p in params]
        table = VariableTable(entries)
        x, y1, y2, y3, d, c2 = (table.var(n) for n in ("x", "y1", "y2", "y3", "d", "c2"))
        geo = ["x", "y1", "y2", "y3"]

        def generic(deg, sign, names):
            return generic_poly(table, names, lex_descending(table, monomial_basis(table, deg, sign, geo)))

        G = generic(6, -1, [f"h{k}" for k in range(1, 11)])
        q1 = generic(4, -1, [f"k{k}" for k in range(1, 5)])
        q2 = generic(4, -1, [f"k{k}" for k in range(5, 9)])
        q3 = generic(4, 1, [f"k{k}" for k in range(9, 15)])
        q4 = generic(4, 1, [f"k{k}" for k in range(15, 21)])
        Q = y1 * y1 - y2 * y2 - d * d * y3 * y3
        zero = table.zero()
        alpha = SymPolyMatrix(
            [
                [x * x * G, x * q1, x * q2, x * q3, x * q4, Q],
                [x * q1, d * d * y3, y1, y2, c2 * x * x, d * x],
                [x * q2, y1, y3, zero, y2, x],
                [x * q3, y2, zero, -y3, y1, zero],
                [x * q4, c2 * x * x, y2, y1, -(d * d) * y3, zero],
                [Q, d * x, x, zero, zero, zero],
            ]
        )
        P = [
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 1, -d, 0, 0, 0],
            [0, 0, 0, d, 1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ]
        detP = det_any([
            [table.const(e) if isinstance(e, int) else e for e in row] for row in P
        ])
        if detP != table.one() and detP != table.const(-1):
            return False, f"P' not unimodular: det = {detP}", ""
        B = alpha.congruence(P)
        w1 = y1 - d * y3  # the new anti-invariant coordinate
        w3 = -2 * d * w1  # the new third coordinate: the j=2 constraint
        expectations = {
            (2, 2): y3,
            (2, 3): w1,
            (2, 4): y2,
            (2, 5): zero,
            (2, 6): x,
            (3, 3): w3,
            (3, 4): c2 * x * x,
            (3, 5): y2,
            (3, 6): zero,
            (4, 4): -w3,
            (4, 5): w1,
            (4, 6): zero,
            (5, 5): -y3,
            (5, 6): zero,
            (6, 6): zero,
            (1, 6): Q,
        }
        for (i, j), want in expectations.items():
            diff = B[i, j] - want
            if not diff.is_zero():
                return False, f"({i},{j}): {diff}", ""
        # conic in the new coordinates: w1^2 - y2^2 - w3*y3 = Q
        if not (w1 * w1 - y2 * y2 - w3 * y3 - Q).is_zero():
            return False, "conic identity fails", ""
        # border stays divisible by x (x^2 at the corner)
        if B[1, 1].exact_divide(x * x) is None:
            return False, "corner not divisible by x^2", ""
        for k in (2, 3, 4, 5):
            if B[1, k].exact_divide(x) is None:
                return False, f"border (1,{k}) not divisible by x", ""
        # d -> 0 specialization has the j=3 shape: the (3,3)/(4,4) entries die
        B0 = B.substitute({"d": zero})
        if not (B0[3, 3].is_zero() and B0[4, 4].is_zero()):
            return False, "d=0 specialization is not of the j=3 shape", ""
        return True, None, "P' unimodular; j=2 shape symbolically, j=3 at d=0"

    return _timed("extension_shuffle", body)


def verify_c_normalization() -> CheckReport:
    """A nonzero central coefficient c can be scaled to 1: writing c = s^4,
    the congruence by Diag(1, s, 1/s, 1/s, s, 1) followed by x -> x/s,
    y3 -> s^2 y3, y4 -> y4/s^2 recovers the c = 1 shape.  Denominators are
    cleared by the factor s per congruence row and a per-entry power of s for
    the variable change."""

    def body():
        params = [f"h{k}" for k in range(1, 16)] + [f"k{k}" for k in range(1, 41)]
        entries = [
            ("x", 1, -1, GEOMETRIC),
            ("y1", 2, -1, GEOMETRIC),
            ("y2", 2, 1, GEOMETRIC),
            ("y3", 2, -1, GEOMETRIC),
            ("y4", 2, -1, GEOMETRIC),
        ] + [(p, 0, 1, PARAMETER) for p in params] + [("s", 0, 1, ALGEBRAIC)]
        table = VariableTable(entries)
        x, y1, y2, y3, y4, s = (table.var(n) for n in ("x", "y1", "y2", "y3", "y4", "s"))
        geo = ["x", "y1", "y2", "y3", "y4"]
        pool = iter(params)

        def generic(deg, sign):
            monos = lex_descending(table, monomial_basis(table, deg, sign, geo))
            return generic_poly(table, [next(pool) for _ in monos], monos)

        G = generic(6, -1)
        q = [generic(4, -1), generic(4, -1), generic(4, 1), generic(4, 1)]
        Q = y1 * y1 - y2 * y2 - y3 * y4
        zero = table.zero()
        c = s ** 4
        alpha = SymPolyMatrix(
            [
                [x * x * G, x * q[0], x * q[1], x * q[2], x * q[3], Q],
                [x * q[0], y4, y1, y2, zero, x],
                [x * q[1], y1, y3, c * x * x, y2, zero],
                [x * q[2], y2, c * x * x, -y3, y1, zero],
                [x * q[3], zero, y2, y1, -y4, zero],
                [Q, x, zero, zero, zero, zero],
            ]
        )
        sP = [
            [s, zero, zero, zero, zero, zero],
            [zero, s * s, zero, zero, zero, zero],
            [zero, zero, table.one(), zero, zero, zero],
            [zero, zero, zero, table.one(), zero, zero],
            [zero, zero, zero, zero, s * s, zero],
            [zero, zero, zero, zero, zero, s],
        ]
        T = alpha.congruence(sP)
        xi, y4i, si = table.index["x"], table.index["y4"], table.index["s"]

        def cleared_change(E):
            """s^M * (E with x -> x/s, y3 -> s^2 y3, y4 -> y4/s^2), M minimal."""
            base = E.change_vars({"y3": s * s * y3})
            pole = 0
            for m in base.terms:
                need = 0
                for v, e in m:
                    if v == xi:
                        need += e
                    elif v == y4i:
                        need += 2 * e
                pole = max(pole, need)
            out = {}
            for m, coeff in base.terms.items():
                need = 0
                for v, e in m:
                    if v == xi:
                        need += e
                    elif v == y4i:
                        need += 2 * e
                nm = mono_mul(m, ((si, pole - need),) if pole > need else ())
                out[nm] = out.get(nm, 0) + coeff
            return Polynomial(table, {m: co for m, co in out.items() if co}), pole

        targets = {
            (2, 2): y4, (2, 3): y1, (2, 4): y2, (2, 5): zero, (2, 6): x,
            (3, 3): y3, (3, 4): x * x, (3, 5): y2, (3, 6): zero,
            (4, 4): -y3, (4, 5): y1, (4, 6): zero,
            (5, 5): -y4, (5, 6): zero, (6, 6): zero, (1, 6): Q,
        }
        for (i, j), want in targets.items():
            got, pole = cleared_change(T[i, j])
            diff = got - s ** (pole + 2) * want
            if not diff.is_zero():
                return False, f"({i},{j}): {diff}", ""
        if T[1, 1].exact_divide(x * x) is None:
            return False, "corner loses its x^2 factor", ""
        for k in (2, 3, 4, 5):
            quo = T[1, k].exact_divide(x)
            if quo is None:
                return False, f"border (1,{k}) loses its x factor", ""
        return True, None, "c = s^4 rescales to c = 1; borders keep their x factors"

    return _timed("c_normalization", body)


def extension_cases12_skip() -> CheckReport:
    return CheckReport(
        "extension_cases_1_2",
        "skipped",
        note=(
            "the case-1/2 normalizations need rational-function entries "
            "(r^2 = c5^2/(c5^2 - d^2 c6^2)); out of scope by design"
        ),
    )


# ---------------------------------------------------------------------------
# pipeline-level checks (alpha_1 c=1 and the two empty strata)


SCALING_WEIGHTS = {
    "b5": 1,
    "b9": 1,
    "b6": 2,
    "b8": 2,
    "d": 2,
    "b2": 3,
    "b11": 3,
    "g9": 4,
    "b12": 4,
}


def verify_scaling(
    u_values=(1, 2, 3, Fraction(7, 5)),
    result: Optional[PipelineResult] = None,
    seed: int = 0,
) -> CheckReport:
    """The determinant is invariant under (y0, y3) -> (y0/u, y3/u) combined
    with the weighted parameter rescaling; checked symbolically on the
    grading of every term and by exact evaluation at rational points."""

    def body():
        run = result or run_pipeline(1, 1)
        D = run.det_final()
        table = run.table
        xi = table.index["x"]
        y3i = table.index["y3"]
        widx = {table.index[k]: w for k, w in SCALING_WEIGHTS.items()}
        for m in D.terms:
            s = 0
            for v, e in m:
                if v == xi:
                    if e % 2:
                        return False, "odd power of x in det", ""
                    s -= e // 2
                elif v == y3i:
                    s -= e
                else:
                    s += widx.get(v, 0) * e
            if s != 0:
                return False, f"term {table.mono_str(m)} scales by u^{s}", ""
        # independent route: exact evaluation at random rational points
        import random

        rng = random.Random(20260 + seed)

        def evaluate(y0, ys, pvals):
            total = Fraction(0)
            for m, c in D.terms.items():
                val = Fraction(c)
                for v, e in m:
                    if v == xi:
                        val *= y0 ** (e // 2)
                    elif v == y3i:
                        val *= ys[2] ** e
                    elif v == table.index["y1"]:
                        val *= ys[0] ** e
                    elif v == table.index["y2"]:
                        val *= ys[1] ** e
                    else:
                        val *= pvals[table.names[v]] ** e
                total += val
            return total

        for u in u_values:
            u = Fraction(u)
            if u == 0:
                return False, "u must be nonzero", ""
            y0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            pvals = {
                k: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for k in SCALING_WEIGHTS
            }
            scaled = {k: v * u ** SCALING_WEIGHTS[k] for k, v in pvals.items()}
            lhs = evaluate(y0 / u, [ys[0], ys[1], ys[2] / u], scaled)
            rhs = evaluate(y0, ys, pvals)
            if lhs != rhs:
                return False, f"evaluation mismatch at u = {u}", ""
        return True, None, f"graded symbolically; evaluated at u in {tuple(map(str, u_values))}"

    return _timed("scaling", body)


def verify_alpha3_square() -> CheckReport:
    """det(alpha_3, c=0) is a perfect square, both for the raw generic matrix
    and for the eliminated family; det(alpha_1, c=1) is not (control)."""

    def body():
        from .alpha import build_ansatz, make_table

        def square_root_up_to_sign(p):
            s = p.poly_sqrt()
            if s is not None:
                return s, 1
            s = (-p).poly_sqrt()
            if s is not None:
                return s, -1
            return None, 0

        raw, _ = build_ansatz(AlphaCase(3, 0), make_table(3))
        run = run_pipeline(3, 0)
        signs = []
        for which, det in (("final", run.det_final()), ("raw generic", raw.determinant())):
            sq, sign = square_root_up_to_sign(det)
            if sq is None:
                return False, f"{which} det(alpha_3, c=0) is not a square up to sign", ""
            if sign * (sq * sq) != det:
                return False, f"{which} square root verification failed", ""
            signs.append(f"{which} det = {'-' if sign < 0 else ''}(...)^2")
        # the coefficient field is Q; over C the sign is itself a square
        note = "; ".join(signs)
        run11 = run_pipeline(1, 1)
        d11 = run11.det_final()
        if d11.poly_sqrt() is not None or (-d11).poly_sqrt() is not None:
            return False, "control failed: det(alpha_1, c=1) is a square", ""
        return True, None, note + "; alpha_1 c=1 control is not a square"

    return _timed("alpha3_square", body)


BASE_POINT = {"x": 0, "y1": 0, "y2": 0, "z1": 0, "z2": 0, "z3": 0, "z4": 0, "t": 0}


def verify_alpha2_basepoint() -> CheckReport:
    """Every equation of the (alpha_2, c=0) family vanishes identically at the
    point with the surviving degree-2 coordinate set to 1 and all other
    geometric coordinates 0."""

    def body():
        run = run_pipeline(2, 0, max_rounds=16)
        table = run.table
        point = dict(BASE_POINT)
        point["y4"] = 1
        for eq in run.equations.eqs:
            val = eq.poly.substitute(point)
            if not val.is_zero():
                return False, f"{eq.label}: {val}", ""
        # control: the coordinate point with t = 1 is not on the surface
        other = dict(BASE_POINT)
        other["y4"] = 0
        other["t"] = 1
        if all(eq.poly.substitute(other).is_zero() for eq in run.equations.eqs):
            return False, "control point t=1 annihilates all equations", ""
        return True, None, "all 21 equations vanish identically (symbolic parameters)"

    return _timed("alpha2_basepoint", body)


def verify_r_removal(result: Optional[PipelineResult] = None) -> CheckReport:
    """Degree <= 5 equations are r-free and every r-coefficient lies in the
    ideal of the five low-degree relations, certified by exact cofactors over
    Q[moduli] (surface.membership_check)."""

    def body():
        run = result or run_pipeline(1, 1)
        for eq in run.equations_raw.low_degree(5):
            bad = eq.poly.multipliers()
            if bad:
                return False, f"{eq.label} depends on {sorted(bad)}", ""
        F = [eq.poly for eq in run.equations_raw.low_degree(5)]
        for rname, occurrences in sorted(run.gm.items(), key=lambda kv: run.table.index[kv[0]]):
            for label, G in occurrences:
                if membership_check(G, F) != "verified":
                    return False, f"G[{rname}] in {label} is not in the ideal", ""
        n = sum(len(v) for v in run.gm.values())
        return True, None, f"all {n} r-coefficients certified by exact cofactors over Q[moduli]"

    return _timed("r_removal", body)


def _conic_witness(M: SymPolyMatrix) -> Optional[str]:
    """At x = 0, every 3x3 minor of the central 4x4 block must divide by the
    conic (the (1,6) entry) and the block's determinant by its square.
    Returns the first failure, or None when all divisibilities hold."""
    R = M.restrict_x0()
    Q = R[1, 6]
    central = [[R[i, j] for j in range(2, 6)] for i in range(2, 6)]
    memo: dict = {}
    for i in range(1, 5):
        for j in range(1, 5):
            minor = cofactor_any(central, i, j, memo)
            if not minor.is_zero() and minor.exact_divide(Q) is None:
                return f"3x3 minor complementary to ({i},{j}) not divisible by the conic"
    if det_any(central).exact_divide(Q * Q) is None:
        return "central determinant not divisible by conic^2"
    return None


def verify_central_minors(result: Optional[PipelineResult] = None) -> CheckReport:
    """At x = 0, every 3x3 minor of the central block divides by the conic and
    the 4x4 determinant divides by its square."""

    def body():
        run = result or run_pipeline(1, 1)
        failure = _conic_witness(run.alpha_final)
        if failure:
            return False, failure, ""
        return True, None, "all 3x3 minors divide by Q, det by Q^2"

    return _timed("central_minors", body)


# ---------------------------------------------------------------------------
# the closed-form family as golden data


def golden_final_entries(table) -> dict:
    """The closed-form (alpha_1, c=1) family in the nine surviving moduli."""
    x, y1, y2, y3 = (table.var(n) for n in ("x", "y1", "y2", "y3"))
    d, g9 = table.var("d"), table.var("g9")
    b2, b5, b6, b8, b9, b11, b12 = (
        table.var(n) for n in ("b2", "b5", "b6", "b8", "b9", "b11", "b12")
    )
    G = (
        (-2 * b9 * b6 * d + 2 * b9 * b8 * d + 4 * b9 * d * d + 2 * b6 * b11 - 2 * b8 * b11 - 4 * d * b11)
        * x ** 4 * y1
        + (
            -2 * b5 * b9 * d * d + b5 * d * b11 - 2 * b9 ** 2 * d * d - b9 * d * b11
            + 2 * b6 * d * d + b6 * b12 + b8 ** 2 * d + 2 * b8 * d * d + d * g9
            + 2 * d * b12 + b11 ** 2
        )
        * x ** 4 * y3
        + (-2 * b5 * b9 * d - 2 * b9 ** 2 * d - 2 * b9 * b11 + 2 * b6 * d + 2 * g9 + 4 * b12)
        * x ** 2 * y1 * y2
        + (
            -2 * b5 * d * d - b5 * b12 - 2 * b9 * b6 * d + 2 * b9 * b8 * d - b9 * b12
            + b6 * b11 + 2 * d * b2 - 2 * d * b11
        )
        * x ** 2 * y2 * y3
        + (2 * b9 * d - 2 * b11) * y1 ** 3
        + (b5 * b11 + b9 ** 2 * d + b9 * b11 - 2 * b6 * d - g9 - 4 * b12) * y1 ** 2 * y3
        + (-2 * b5 * d - 4 * b9 * d + 4 * b2 - 2 * b11) * y1 * y2 ** 2
        + (b5 * b12 - 2 * b9 * d * d + b9 * b12 + b6 * b11) * y1 * y3 ** 2
        + g9 * y2 ** 2 * y3
        + (-(b9 ** 2) * d * d + 2 * b6 * d * d + b6 * b12 + d * g9 + 2 * d * b12) * y3 ** 3
    )
    return {
        "G": G,
        "q1": b2 * y2 * y3,
        "q2": (b6 - b8 - 2 * d) * x * x * y1 + (b5 * d + b11) * x * x * y3 + b5 * y1 * y2 + b6 * y2 * y3,
        "q3": (-b9 * d + b11) * x ** 4 + b8 * x * x * y2 + b9 * y2 ** 2,
        "q4": (b8 * d + d * d + b12) * x ** 4 + b11 * y1 * y3 + b12 * y3 ** 2,
        "Q": y1 * y1 - y2 * y2 - d * y3 * y3,
    }


def verify_golden_match(result: Optional[PipelineResult] = None) -> CheckReport:
    """Textual match of the back-substituted family against the closed-form
    entries; a divergent entry fails the check."""

    def body():
        run = result or run_pipeline(1, 1)
        table = run.table
        x = table.var("x")
        golden = golden_final_entries(table)
        got = {
            "G": run.alpha_final[1, 1].exact_divide(x * x),
            "q1": run.alpha_final[1, 2].exact_divide(x),
            "q2": run.alpha_final[1, 3].exact_divide(x),
            "q3": run.alpha_final[1, 4].exact_divide(x),
            "q4": run.alpha_final[1, 5].exact_divide(x),
            "Q": run.alpha_final[1, 6],
        }
        diffs = [k for k in golden if str(got[k]) != str(golden[k])]
        if diffs:
            return False, f"divergent entries: {diffs}", ""
        return True, None, "back-substituted entries match the closed form textually"

    return _timed("golden_match", body)


def verify_closed_form_rc(result: Optional[PipelineResult] = None) -> CheckReport:
    """The closed-form family satisfies the rank condition: with its entries
    substituted, the multiplier system solves to empty with residuals
    identically zero."""

    def body():
        run = result or run_pipeline(1, 1)
        table = run.table
        case = run.case
        g = golden_final_entries(table)
        x = table.var("x")
        y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
        zero = table.zero()
        dy3 = d * y3
        rows = [
            [x * x * g["G"], x * g["q1"], x * g["q2"], x * g["q3"], x * g["q4"], g["Q"]],
            [x * g["q1"], dy3, y1, y2, zero, x],
            [x * g["q2"], y1, y3, x * x, y2, zero],
            [x * g["q3"], y2, x * x, -y3, y1, zero],
            [x * g["q4"], zero, y2, y1, -dy3, zero],
            [g["Q"], x, zero, zero, zero, zero],
        ]
        alpha = SymPolyMatrix(rows)
        alpha.check_pattern()
        l0 = build_l_ansatz(alpha, case)
        residuals = rc_residuals(alpha, l0)
        system = extract_system(residuals, case)
        f = list(system.f)
        deps = []
        for n in range(1, 11):
            f, _, new = lin_elim(f, [True] * len(f), l0.r_names, n)
            deps.extend(new)
            if not f:
                break
        if f:
            return False, f"{len(f)} coefficients remain unsolved", ""
        resolved = resolve_dependencies(deps)
        for res in residuals:
            need = res.variables() & resolved.keys()
            val = res.substitute({k: resolved[k] for k in need}) if need else res
            if not val.is_zero():
                return False, "a residual does not vanish after solving", ""
        return True, None, "rank condition solvable; all 15 residuals vanish"

    return _timed("closed_form_rc", body)


# ---------------------------------------------------------------------------
# the two special surfaces


@dataclass(frozen=True)
class SpecialSurface:
    """A known surface located inside the (alpha_1, c=1) family.

    BY: the quotient of the Cartwright-Steger surface (rational moduli).
    BF: the fake-projective-plane quotient cover (moduli in Q(sqrt(-15))).
    """

    name: str
    values: dict  # parameter name -> int or (a, b) meaning a + b*sqrt(-15)

    def bindings(self, table) -> dict:
        out = {}
        r = table.var("r")
        for k, v in self.values.items():
            if isinstance(v, tuple):
                a, b = v
                out[k] = table.const(a) + table.const(b) * r
            else:
                out[k] = table.const(v)
        return out


BY_SURFACE = SpecialSurface(
    "by",
    {
        "b5": -60,
        "b9": 40,
        "b6": -120,
        "b8": -302,
        "d": 9,
        "b2": 252,
        "b11": 360,
        "g9": 15903,
        "b12": 648,
    },
)

BF_SURFACE = SpecialSurface(
    "bf",
    {
        "b5": (36, 36),
        "b9": (64, 0),
        "b6": (1752, -360),
        "b8": (4392, 360),
        "d": (-366, -30),
        "b2": (-45504, -10176),
        "b11": (78960, 20976),
        "g9": (1635576, 238008),
        "b12": (867744, -383328),
    },
)


def verify_special(surface: SpecialSurface, result: Optional[PipelineResult] = None) -> CheckReport:
    """Substitute the surface's moduli into the family and check the
    structural invariants survive the specialization."""

    def body():
        run = result or run_pipeline(1, 1)
        table = run.table
        bind = surface.bindings(table)
        d_val = bind["d"]
        if d_val.is_zero():
            return False, "conic degenerates: d = 0", ""
        M = run.alpha_final.substitute(bind)
        M.check_pattern()
        det = M.determinant()
        if det.is_zero():
            return False, "determinant vanishes at the special point", ""
        failure = _conic_witness(M)
        if failure:
            return False, f"specialized: {failure}", ""
        for eq in run.equations.eqs:
            p = eq.poly.substitute(bind)
            if p.is_zero():
                return False, f"equation {eq.label} collapses", ""
            if p.weighted_degree() != eq.degree:
                return False, f"equation {eq.label} drops degree", ""
        ext = "Q(sqrt(-15))" if any(isinstance(v, tuple) for v in surface.values.values()) else "Q"
        return True, None, f"matrix pattern, det != 0, conic divisibility, 21 equations over {ext}"

    return _timed(f"special_{surface.name}", body)


# ---------------------------------------------------------------------------
# registry


def all_checks(seed: int = 0) -> dict:
    return {
        "excluded_diagonal_rc": verify_excluded_diagonal_rc,
        "restriction_cofactors_1": lambda: verify_restriction_cofactors(1),
        "restriction_cofactors_2": lambda: verify_restriction_cofactors(2),
        "restriction_cofactors_3": lambda: verify_restriction_cofactors(3),
        "y2_quartic_coefficient": verify_y2_quartic_coefficient,
        "quartic_root_congruence": verify_quartic_root_congruence,
        "imaginary_unit_congruence": verify_imaginary_unit_congruence,
        "extension_shuffle": verify_extension_shuffle,
        "c_normalization": verify_c_normalization,
        "extension_cases_1_2": extension_cases12_skip,
        "scaling": lambda: verify_scaling(seed=seed),
        "alpha3_square": verify_alpha3_square,
        "alpha2_basepoint": verify_alpha2_basepoint,
        "r_removal": verify_r_removal,
        "central_minors": verify_central_minors,
        "golden_match": verify_golden_match,
        "closed_form_rc": verify_closed_form_rc,
        "special_by": lambda: verify_special(BY_SURFACE),
        "special_bf": lambda: verify_special(BF_SURFACE),
    }
