"""Machine verification of the polynomial identities the construction rests on.

Every check is an exact symbolic zero-test: pass means the difference
polynomial is identically zero.  Each check is one function under
`@check(name, *instances)`, which registers it: its body returns the pass
note, or raises `CheckFailed` with a witness.  `all_checks()` returns the
registry.  The checks take no test-only options; their negative controls live
in the test suite (`tests/test_verify.py`, `tests/test_acceptance.py`,
`tests/test_cli.py`), where each one monkeypatches a module-level name of this
module (a matrix builder, `_at_x0`, `RewriteRule`, `run_pipeline`,
`SCALING_WEIGHTS`, `golden_final_entries`, `GOLDEN_FILES`) and asserts that
the check then fails.  Denominators in the congruence checks are cleared by
explicit monomial factors, recorded in the check's note, or moved to the other
side of the identity as the inverse change of variables; never by a
fraction-field type.  No check depends on a random seed.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .alpha import (
    UPPER,
    AlphaCase,
    SymPolyMatrix,
    adjugate,
    bordered_matrix,
    central_block,
    coordinate_entries,
    det_any,
    generic_border,
)
from .pipeline import ARTIFACT_TEXT, run_pipeline
from .rc import compute_cofactors, rc_residuals
from .ring import ALGEBRAIC, PARAMETER, Polynomial, RewriteRule, VariableTable, sorted_monos
from .surface import low_degree, membership_check

# never called here: the rank condition is solved only inside run_pipeline,
# and verify checks the multipliers it returns.  perfbench/tracing.py installs
# its wrappers at these names of this module, and its install() fails on a
# name that is missing.
from .elim import lin_elim, resolve_dependencies  # noqa: F401
from .rc import build_l_ansatz, extract_system  # noqa: F401


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


class CheckFailed(Exception):
    """Raised by a check body; the message is the failure witness."""


class CheckSkipped(Exception):
    """Raised by a check body that does not apply; the message is the note."""


# check name -> runner taking no arguments; filled by @check, read through
# all_checks()
REGISTRY: dict = {}


def all_checks() -> dict:
    """A fresh copy of the registry: every check `verify` runs, by name."""
    return dict(REGISTRY)


def check(name: str, *instances):
    """Decorate a check body into a runner that returns a timed CheckReport,
    and register it: once under `name` if the body takes no arguments, else
    once per instance (a tuple of arguments) under `name.format(*instance)`.

    The returned runner takes any instance, and names its report `name`
    formatted with the call's arguments.  The body's return value is the pass
    note; `CheckFailed` and `CheckSkipped` carry the witness and the skip
    note.  Any other exception raised inside the body is a structural
    failure, reported with its repr as witness.
    """

    def decorate(body):
        @functools.wraps(body)
        def run(*args) -> CheckReport:
            status, witness, note = "pass", None, ""
            t0 = time.monotonic()
            try:
                note = body(*args)
            except CheckFailed as exc:
                status, witness = "fail", str(exc)
            except CheckSkipped as exc:
                status, note = "skipped", str(exc)
            except Exception as exc:  # structural failure inside a check is a failure
                status, witness = "fail", repr(exc)
            dt = time.monotonic() - t0
            return CheckReport(name.format(*args), status, witness, dt, note)

        for args in instances or [()]:
            REGISTRY[name.format(*args)] = functools.partial(run, *args)
        return run

    return decorate


def _expect_equal(cells) -> None:
    """Raise CheckFailed with the witness "(i,j): got - want" of the first
    (i, j, got, want) cell whose two sides differ."""
    for i, j, got, want in cells:
        diff = got - want
        if not diff.is_zero():
            raise CheckFailed(f"({i},{j}): {diff}")


def _border_keeps_x(B: SymPolyMatrix) -> None:
    """Raise CheckFailed unless the corner (1,1) of B divides by x^2 and the
    border entries (1,2)..(1,5) by x."""
    x = B.table.var("x")
    if B[1, 1].exact_divide(x * x) is None:
        raise CheckFailed("corner (1,1) not divisible by x^2")
    for k in (2, 3, 4, 5):
        if B[1, k].exact_divide(x) is None:
            raise CheckFailed(f"border (1,{k}) not divisible by x")


def _at_x0(Q: Polynomial, central) -> SymPolyMatrix:
    """The bordered layout at x = 0: the conic Q at (1,6), the central 4x4
    block, zeros elsewhere."""
    zero = Q.table.zero()
    return bordered_matrix(zero, zero, [zero] * 4, Q, central, [zero] * 4)


# ---------------------------------------------------------------------------
# small bespoke tables


def curve_table(extra_params=(), rules=()) -> VariableTable:
    entries = coordinate_entries(("y1", "y2", "y3"))
    entries += [(p, 0, 1, PARAMETER) for p in ("d", *extra_params)]
    entries += [(r.variable, 0, 1, ALGEBRAIC) for r in rules]
    return VariableTable(entries, rules=rules)


# ---------------------------------------------------------------------------
# the restriction-to-the-curve identities


def diagonal_type_matrix(table: VariableTable, j: int) -> SymPolyMatrix:
    """The diagonal-type matrix M_j at x = 0; M_1 is the excluded type."""
    y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
    zero = table.zero()
    s = -1 if j % 2 == 0 else 1  # -(-1)^j
    return _at_x0(
        y1 * y1 - y2 * y2 - d * d * y3 * y3,
        [
            [y1 + d * y3, zero, y2, zero],
            [zero, y1 + s * d * y3, zero, y2],
            [y2, zero, y1 - d * y3, zero],
            [zero, y2, zero, y1 - s * d * y3],
        ],
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


@check("excluded_diagonal_rc")
def verify_excluded_diagonal_rc() -> str:
    """At x = 0 the excluded diagonal-type matrix satisfies the rank condition
    with the stated single-column multipliers: beta_ij = l_ij^6 * beta_16."""
    table = curve_table()
    M = diagonal_type_matrix(table, 1)
    L = excluded_diagonal_multipliers(table)
    C = adjugate(M.rows)
    _expect_equal((i, j, C[i, j], L[i - 1][j - 1] * C[1, 6]) for i, j in UPPER)
    return "all 21 cofactor identities hold"


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


@check("restriction_cofactors_{}", (1,), (2,), (3,))
def verify_restriction_cofactors(case: int) -> str:
    """The closed-form cofactor identities of the central 4x4 block, per
    restriction case, plus (case 1) the coefficient solution making the three
    divided identities (Q, 0, 0)."""
    table = curve_table(extra_params=[f"a{k}" for k in range(1, 7)] + [f"b{k}" for k in range(1, 7)])
    y1, y2, y3 = (table.var(n) for n in ("y1", "y2", "y3"))
    a = {k: table.var(f"a{k}") for k in range(1, 7)}
    b = {k: table.var(f"b{k}") for k in range(1, 7)}
    C = adjugate(_restriction_block(table, case))
    if case == 1:
        checks = [
            (
                "-C13/y2",
                -C[1, 3],
                a[5] * y1 ** 2 + (b[5] + a[6]) * y1 * y3 - y2 ** 2 + b[6] * y3 ** 2,
            ),
            (
                "C14/y2",
                C[1, 4],
                a[4] * y1 ** 2 + (b[4] + a[5]) * y1 * y3 + b[5] * y3 ** 2,
            ),
            (
                "C23/y2",
                C[2, 3],
                (a[1] * a[5] + a[6]) * y1 ** 2
                + (a[1] * b[5] + b[1] * a[5] + b[6]) * y1 * y3
                + b[1] * b[5] * y3 ** 2,
            ),
        ]
    elif case == 2:
        checks = [
            (
                "-C13/y2",
                -C[1, 3],
                a[6] * y1 ** 2 + (a[5] + b[6]) * y1 * y3 - y2 ** 2 + b[5] * y3 ** 2,
            ),
            (
                "C14/y2",
                C[1, 4],
                a[5] * y1 ** 2 + (a[4] + b[5]) * y1 * y3 + b[4] * y3 ** 2,
            ),
            (
                # in this row/column numbering the quadric of the third
                # identity sits at the (2,4) cofactor (case 3 has the
                # same shape there)
                "-C24/y2",
                -C[2, 4],
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
                -C[1, 2],
                y2 * (a[5] * y1 + b[5] * y3),
            ),
            (
                "-C13/y2",
                -C[1, 3],
                a[3] * a[6] * y1 ** 2
                + (b[3] * a[6] + a[3] * b[6]) * y1 * y3
                - y2 ** 2
                + b[3] * b[6] * y3 ** 2,
            ),
            (
                "-C24/y2",
                -C[2, 4],
                a[1] * a[4] * y1 ** 2
                + (b[1] * a[4] + a[1] * b[4]) * y1 * y3
                - y2 ** 2
                + b[1] * b[4] * y3 ** 2,
            ),
        ]
    for label, cof, closed_form in checks:
        diff = cof - y2 * closed_form
        if not diff.is_zero():
            raise CheckFailed(f"{label}: {diff}")
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
        if vals != wanted:
            raise CheckFailed("case-1 specialization is not (Q, 0, 0)")
        note += "; case-1 specialization gives (Q, 0, 0)"
    return note


@check("y2_quartic_coefficient")
def verify_y2_quartic_coefficient() -> str:
    """The y2^4 coefficient of det(central block) is (r1 r4 - r2 r3)^2."""
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
    y2_4 = (table.index["y2"],) * 4
    coeff = dict(D.coefficients_wrt(["y1", "y2", "y3"])).get(y2_4)
    if coeff is None:
        raise CheckFailed("no y2^4 term in det")
    expected = (r[1] * r[4] - r[2] * r[3]) ** 2
    if coeff != expected:
        raise CheckFailed(str(coeff - expected))
    return "coefficient equals (r1*r4 - r2*r3)^2"


@check("quartic_root_congruence")
def verify_quartic_root_congruence() -> str:
    """The quartic-root congruence: with r^4 = -d^2 the change of variables
    (y1, y2, y3) -> (-r^2 y3, y2, -r^2 d^-2 y1) sends the restricted matrix to
    P M P^T.  All d^-2 entries are cleared by the factors d^2 P and d^2 M, so
    the asserted identity is (d^2 P)(d^2 M)(d^2 P)^T = d^6 P M P^T entrywise.
    """
    table = curve_table(rules=[RewriteRule("r", 4, {(("d", 2),): -1})])
    y1, y2, y3, d, r = (table.var(n) for n in ("y1", "y2", "y3", "d", "r"))
    zero = table.zero()
    Q = y1 * y1 - y2 * y2 - d * d * y3 * y3
    T = _at_x0(
        Q,
        [
            [d * d * y3, y1, y2, zero],
            [y1, y3, zero, y2],
            [y2, zero, -y3, y1],
            [zero, y2, y1, -(d * d * y3)],
        ],
    )
    # d^2 * M for the case-2 coefficient solution
    M2 = _at_x0(
        d * d * Q,
        [
            [y1, d * d * y3, d * d * y2, zero],
            [d * d * y3, d * d * y1, zero, d * d * y2],
            [d * d * y2, zero, d ** 4 * y1, -(d ** 4) * y3],
            [zero, d * d * y2, -(d ** 4) * y3, d * d * y1],
        ],
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
    # an entry of y-degree k = weighted degree / 2 is cleared by d^(6-2k)
    rhs = T.map_entries(
        lambda e: e if e.is_zero() else d ** (6 - 2 * (e.grading()[0] // 2)) * e.substitute(phi)
    )
    _expect_equal((i, j, lhs[i, j], rhs[i, j]) for i, j in UPPER)
    return "cleared by d^2 per factor (overall d^6)"


@check("imaginary_unit_congruence")
def verify_imaginary_unit_congruence() -> str:
    """With i^2 = -1 the product (2d R) M_2 (2d R)^T equals the restricted
    matrix form in rescaled coordinates."""
    table = curve_table(rules=[RewriteRule("i", 2, {(): -1})])
    y1, y2, y3, d = (table.var(n) for n in ("y1", "y2", "y3", "d"))
    ii = table.var("i")
    zero = table.zero()
    Q = y1 * y1 - y2 * y2 - d * d * y3 * y3
    two_d_R = [
        [2 * d, zero, zero, zero, zero, zero],
        [zero, 2 * d * ii, d * d, zero, zero, zero],
        [zero, -2 * ii, d, zero, zero, zero],
        [zero, zero, zero, -d * ii, 2 * table.one(), zero],
        [zero, zero, zero, ii * d * d, 2 * d, zero],
        [zero, zero, zero, zero, zero, 2 * d],
    ]
    C = diagonal_type_matrix(table, 2).congruence(two_d_R)
    W3 = (d * d - 4) * y1 - (4 * d + d ** 3) * y3
    W1 = (4 + d * d) * y1 + (4 * d - d ** 3) * y3
    fy2 = 4 * d * d * y2
    expected = _at_x0(
        4 * d * d * Q,
        [
            [d * d * W3, d * W1, fy2, zero],
            [d * W1, W3, zero, fy2],
            [fy2, zero, -W3, d * W1],
            [zero, fy2, d * W1, -(d * d) * W3],
        ],
    )
    _expect_equal((i, j, C[i, j], expected[i, j]) for i, j in UPPER)
    # the rescaled coordinates still cut out the same conic
    conic = W1 * W1 - 16 * d * d * y2 * y2 - W3 * W3 - 16 * d * d * Q
    if not conic.is_zero():
        raise CheckFailed(f"conic identity fails: {conic}")
    return "denominators cleared by 2d per factor (overall 4d^2)"


@check("extension_shuffle")
def verify_extension_shuffle() -> str:
    """The unimodular row shuffle turns the c5 = d, c6 = 1 extension matrix
    into the j=2 shape (and the j=3 shape at d = 0)."""
    params = (
        ["c2"]
        + [f"h{k}" for k in range(1, 11)]
        + [f"k{k}" for k in range(1, 21)]
    )
    entries = coordinate_entries(("x", "y1", "y2", "y3"))
    table = VariableTable(entries + [(p, 0, 1, PARAMETER) for p in ["d"] + params])
    x, y1, y2, y3, d, c2 = (table.var(n) for n in ("x", "y1", "y2", "y3", "d", "c2"))
    G, qs = generic_border(table, ["x", "y1", "y2", "y3"], params[1:])
    Q = y1 * y1 - y2 * y2 - d * d * y3 * y3
    zero = table.zero()
    central = [
        [d * d * y3, y1, y2, c2 * x * x],
        [y1, y3, zero, y2],
        [y2, zero, -y3, y1],
        [c2 * x * x, y2, y1, -(d * d) * y3],
    ]
    alpha = bordered_matrix(x, G, qs, Q, central, [d * x, x, zero, zero])
    P = [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 1, -d, 0, 0, 0],
        [0, 0, 0, d, 1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    detP = det_any(P)
    if detP != table.one() and detP != table.const(-1):
        raise CheckFailed(f"P' not unimodular: det = {detP}")
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
    _expect_equal((i, j, B[i, j], want) for (i, j), want in expectations.items())
    # conic in the new coordinates: w1^2 - y2^2 - w3*y3 = Q
    if not (w1 * w1 - y2 * y2 - w3 * y3 - Q).is_zero():
        raise CheckFailed("conic identity fails")
    _border_keeps_x(B)
    # d -> 0 specialization has the j=3 shape: the (3,3)/(4,4) entries die
    B0 = B.substitute({"d": zero})
    if not (B0[3, 3].is_zero() and B0[4, 4].is_zero()):
        raise CheckFailed("d=0 specialization is not of the j=3 shape")
    return "P' unimodular; j=2 shape symbolically, j=3 at d=0"


@check("c_normalization")
def verify_c_normalization() -> str:
    """A nonzero central coefficient c can be scaled to 1: writing c = s^4,
    the congruence by Diag(1, s, 1/s, 1/s, s, 1) followed by x -> x/s,
    y3 -> s^2 y3, y4 -> y4/s^2 recovers the c = 1 shape.  The congruence is
    cleared by the factor s per row, so T = s^2 P alpha P^T.  The variable
    change is checked with its inverse x -> s x, y4 -> s^2 y4 applied to the
    target instead, which leaves both sides polynomial:
    T(x, s^2 y3, y4) = s^2 want(s x, y3, s^2 y4)."""
    params = [f"h{k}" for k in range(1, 16)] + [f"k{k}" for k in range(1, 35)]
    entries = coordinate_entries(("x", "y1", "y2", "y3", "y4"))
    entries += [(p, 0, 1, PARAMETER) for p in params] + [("s", 0, 1, ALGEBRAIC)]
    table = VariableTable(entries)
    x, y1, y2, y3, y4, s = (table.var(n) for n in ("x", "y1", "y2", "y3", "y4", "s"))
    G, qs = generic_border(table, ["x", "y1", "y2", "y3", "y4"], params)
    Q = y1 * y1 - y2 * y2 - y3 * y4
    zero = table.zero()
    cx2 = s ** 4 * x * x
    central = [[y4, y1, y2, zero], [y1, y3, cx2, y2], [y2, cx2, -y3, y1], [zero, y2, y1, -y4]]
    alpha = bordered_matrix(x, G, qs, Q, central, [x, zero, zero, zero])
    sP = [
        [s, zero, zero, zero, zero, zero],
        [zero, s * s, zero, zero, zero, zero],
        [zero, zero, table.one(), zero, zero, zero],
        [zero, zero, zero, table.one(), zero, zero],
        [zero, zero, zero, zero, s * s, zero],
        [zero, zero, zero, zero, zero, s],
    ]
    T = alpha.congruence(sP)
    forward = {"y3": s * s * y3}
    inverse = {"x": s * x, "y4": s * s * y4}
    targets = {
        (2, 2): y4, (2, 3): y1, (2, 4): y2, (2, 5): zero, (2, 6): x,
        (3, 3): y3, (3, 4): x * x, (3, 5): y2, (3, 6): zero,
        (4, 4): -y3, (4, 5): y1, (4, 6): zero,
        (5, 5): -y4, (5, 6): zero, (6, 6): zero, (1, 6): Q,
    }
    _expect_equal(
        (i, j, T[i, j].substitute(forward), s * s * want.substitute(inverse))
        for (i, j), want in targets.items()
    )
    _border_keeps_x(T)
    return "c = s^4 rescales to c = 1; borders keep their x factors"


@check("extension_cases_1_2")
def extension_cases12_skip() -> str:
    raise CheckSkipped(
        "the case-1/2 normalizations need rational-function entries "
        "(r^2 = c5^2/(c5^2 - d^2 c6^2)); out of scope by design"
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


@check("scaling")
def verify_scaling() -> str:
    """The determinant is invariant under (y0, y3) -> (y0/u, y3/u), y0 = x^2,
    combined with the weighted parameter rescaling p -> u^w_p p.  With
    u = s^2 a term of D picks up s to the power of its weight: the sum over
    its variables of 2 w_p per parameter p, -1 per x and -2 per y3.  So D is
    invariant exactly when every term has weight 0."""
    run = run_pipeline(1, 1)
    D = run.alpha_final.determinant()
    table = run.table
    xi = table.index["x"]
    if any(m.count(xi) % 2 for m in D.terms):
        raise CheckFailed("odd power of x in det")
    weight = {table.index[p]: 2 * w for p, w in SCALING_WEIGHTS.items()}
    weight.update({xi: -1, table.index["y3"]: -2})
    off = [m for m in D.terms if sum(weight.get(v, 0) for v in m)]
    if off:
        raise CheckFailed(
            f"{len(off)} terms of det are not invariant, "
            f"first {table.mono_str(sorted_monos(off, table)[0])}"
        )
    return "every term of det has weight 0: 2w per parameter, -1 per x, -2 per y3"


@check("alpha3_square")
def verify_alpha3_square() -> str:
    """det(alpha_3, c=0) of the raw generic matrix M is -S^2 with
    S = M[1,6]^2 + x*(y2*M[1,4] - y1*M[1,3]), that is Q^2 + x^2*(y2*q3 - y1*q2),
    so the stratum is empty: every member's matrix is the raw ansatz under a
    substitution, and a specialisation of minus a square is minus a square.

    Control: det(alpha_1, c=1) is not a square up to sign over Q.  At the BY
    moduli with x = y1 = y2 = y3 = 1 it takes the integer value -10732032
    (the all-ones point is a zero of it), and a rational whose square is an
    integer is an integer, so a square root T over Q would make 10732032 a
    perfect square, which it is not.  The value is the determinant of the
    matrix evaluated at the point, since det(M(p)) = det(M)(p)."""
    from .alpha import build_ansatz

    raw, _ = build_ansatz(AlphaCase(3, 0))
    x, y1, y2 = (raw.table.var(n) for n in ("x", "y1", "y2"))
    root = raw[1, 6] ** 2 + x * (y2 * raw[1, 4] - y1 * raw[1, 3])
    if raw.determinant() != -(root * root):
        raise CheckFailed("raw generic det(alpha_3, c=0) is not -S^2")
    point = dict(BY_SURFACE.values, x=1, y1=1, y2=1, y3=1)
    value = run_pipeline(1, 1).alpha_final.substitute(point).determinant()
    if value.support():
        free = ", ".join(sorted(value.table.names[v] for v in value.support()))
        raise CheckFailed(f"the control point leaves {free} free in det(alpha_1, c=1)")
    magnitude = abs(Fraction(value.terms.get((), 0)))
    if all(math.isqrt(n) ** 2 == n for n in (magnitude.numerator, magnitude.denominator)):
        raise CheckFailed(f"control failed: det(alpha_1, c=1) = {value} at the point is +- a square")
    return (
        "raw generic det = -(...)^2, so is every specialisation;"
        " alpha_1 c=1 control is not a square"
    )


BASE_POINT = {"x": 0, "y1": 0, "y2": 0, "z1": 0, "z2": 0, "z3": 0, "z4": 0, "t": 0}


@check("alpha2_basepoint")
def verify_alpha2_basepoint() -> str:
    """Every equation of the (alpha_2, c=0) family vanishes identically at the
    point with the surviving degree-2 coordinate set to 1 and all other
    geometric coordinates 0."""
    run = run_pipeline(2, 0)
    point = dict(BASE_POINT)
    point["y4"] = 1
    for label, p in run.equations.items():
        val = p.substitute(point)
        if not val.is_zero():
            raise CheckFailed(f"{label}: {val}")
    # control: the coordinate point with t = 1 is not on the surface
    other = dict(BASE_POINT)
    other["y4"] = 0
    other["t"] = 1
    if all(p.substitute(other).is_zero() for p in run.equations.values()):
        raise CheckFailed("control point t=1 annihilates all equations")
    return "all 21 equations vanish identically (symbolic parameters)"


@check("r_removal")
def verify_r_removal() -> str:
    """Every r-coefficient lies in the ideal of the five low-degree relations,
    certified by exact cofactors over Q[moduli]: one surface.membership_check
    call takes all of them, and certifies one when the conditions its class's
    one elimination leaves vanish at it, with unsolved cofactor slots at 0.
    The first coefficient not certified, in r order, is the witness.  That
    those relations are r-free is asserted by remove_r inside run_pipeline,
    whose SurfaceError the check runner reports as a failure; remove_r
    returns them unchanged, so they are read from the final equations."""
    run = run_pipeline(1, 1)
    F = list(low_degree(run.equations).values())
    found = [
        (rname, label, G)
        for rname, occurrences in sorted(run.gm.items(), key=lambda kv: run.table.index[kv[0]])
        for label, G in occurrences
    ]
    verdicts = membership_check([G for _, _, G in found], F)
    for (rname, label, _), certified in zip(found, verdicts):
        if not certified:
            raise CheckFailed(f"G[{rname}] in {label} is not in the ideal")
    return f"all {len(found)} r-coefficients certified by exact cofactors over Q[moduli]"


def _conic_witness(M: SymPolyMatrix) -> Optional[str]:
    """At x = 0, every 3x3 minor of the central 4x4 block must divide by the
    conic (the (1,6) entry) and the block's determinant by its square.
    Returns the first failure, or None when all divisibilities hold."""
    R = M.substitute({"x": 0})
    Q = R[1, 6]
    central = [[R[i, j] for j in range(2, 6)] for i in range(2, 6)]
    for (i, j), minor in adjugate(central).items():
        if not minor.is_zero() and minor.exact_divide(Q) is None:
            return f"3x3 minor complementary to ({i},{j}) not divisible by the conic"
    if det_any(central).exact_divide(Q * Q) is None:
        return "central determinant not divisible by conic^2"
    return None


@check("central_minors")
def verify_central_minors() -> str:
    """At x = 0, every 3x3 minor of the central block divides by the conic and
    the 4x4 determinant divides by its square."""
    run = run_pipeline(1, 1)
    failure = _conic_witness(run.alpha_final)
    if failure:
        raise CheckFailed(failure)
    return "all 3x3 minors divide by Q, det by Q^2"


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


# artifact -> the packaged golden file the (1,1) run must reproduce
GOLDEN_FILES = {
    "alpha.json": Path(__file__).parent / "data" / "alpha_1_1.json",
    "equations.json": Path(__file__).parent / "data" / "equations_1_1.json",
}


@check("golden_file")
def golden_file() -> str:
    """The (1,1) pipeline output is byte-equal to the packaged golden alpha
    and equations files."""
    result = run_pipeline(1, 1)
    for artifact, path in GOLDEN_FILES.items():
        if not path.exists():
            raise CheckSkipped(f"no golden file at {path}")
        if ARTIFACT_TEXT[artifact](result) != path.read_text():
            raise CheckFailed(f"pipeline output differs from {path}")
    return ""


def _golden_matrix(run) -> SymPolyMatrix:
    """The closed-form (alpha_1, c=1) family laid out in `run`'s table."""
    table = run.table
    g = golden_final_entries(table)
    x, zero = table.var("x"), table.zero()
    central, _ = central_block(run.case, table)
    qs = [g[f"q{k}"] for k in range(1, 5)]
    return bordered_matrix(x, g["G"], qs, g["Q"], central, [x, zero, zero, zero])


@check("golden_match")
def verify_golden_match() -> str:
    """The back-substituted family equals the closed-form matrix entry by
    entry: every difference of corresponding entries is the zero polynomial."""
    run = run_pipeline(1, 1)
    golden = _golden_matrix(run)
    _expect_equal((i, j, run.alpha_final[i, j], golden[i, j]) for i, j in UPPER)
    return "back-substituted entries equal the closed form"


@check("closed_form_rc")
def verify_closed_form_rc() -> str:
    """The closed-form family satisfies the rank condition, with the
    pipeline's back-substituted multipliers as the certificate: every
    residual beta_ij - sum_k l_ij^k beta_1k of the closed-form matrix
    vanishes identically.  The surviving r's stay symbolic, so the identity
    holds for every value of them."""
    run = run_pipeline(1, 1)
    alpha = _golden_matrix(run)
    alpha.check_pattern()
    for (i, j), res in rc_residuals(compute_cofactors(alpha), run.l_final).items():
        if not res.is_zero():
            raise CheckFailed(f"residual ({i},{j}) does not vanish")
    return "rank condition solvable; all 15 residuals vanish"


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


@check("special_{0.name}", (BY_SURFACE,), (BF_SURFACE,))
def verify_special(surface: SpecialSurface) -> str:
    """Substitute the surface's moduli into the family and check the
    structural invariants survive the specialization."""
    run = run_pipeline(1, 1)
    table = run.table
    bind = surface.bindings(table)
    d_val = bind["d"]
    if d_val.is_zero():
        raise CheckFailed("conic degenerates: d = 0")
    M = run.alpha_final.substitute(bind)
    M.check_pattern()
    det = M.determinant()
    if det.is_zero():
        raise CheckFailed("determinant vanishes at the special point")
    failure = _conic_witness(M)
    if failure:
        raise CheckFailed(f"specialized: {failure}")
    for label, p in run.equations.items():
        q = p.substitute(bind)
        if q.is_zero():
            raise CheckFailed(f"equation {label} collapses")
        if q.grading() != p.grading():
            raise CheckFailed(f"equation {label} loses its grading")
    ext = "Q(sqrt(-15))" if any(isinstance(v, tuple) for v in surface.values.values()) else "Q"
    return f"matrix pattern, det != 0, conic divisibility, 21 equations over {ext}"
