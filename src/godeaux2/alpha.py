"""The symmetric 6x6 matrix families alpha_j and their linear algebra.

A valid matrix is graded by row weights (4, 1, 1, 1, 1, 0): entry (i, j) is
weighted-homogeneous of degree w_i + w_j, so det has weighted degree 16 (the
bicanonical octic).  Rows carry the involution characters (+, -, -, +, +, -);
entry (i, j) is a pure eigenvector of sign -eps_i*eps_j.  `adjugate` gives
the cofactors as a map {(i, j): cofactor} over the upper triangle `UPPER`.

Case j selects the linear constraint tying the auxiliary degree-2 variable to
the others (j=1: y4 = d*y3, j=2: y3 = -2d*y1 cleared of denominators, j=3:
y3 = 0); c in {0, 1} is the central x^2 coefficient.  The border polynomials
G, q1..q4 are generic of weighted degrees 6 and 4 with signs (-, -, -, +, +),
subject to the 8-slot normalization that row/column operations allow, leaving
10 g-parameters and 12 b-parameters; `ring.generic_poly` numbers their slots
in descending lex order.

`bordered_matrix` is the one layout of such a matrix (x^2*G in the corner,
x*q_k along the border, the conic Q at (1,6), a central 4x4 block);
`build_ansatz` and every matrix `verify` writes down are built through it,
from `generic_border` and `central_block`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .ring import (
    ALGEBRAIC,
    GEOMETRIC,
    INVERTIBLE,
    MULTIPLIER,
    PARAMETER,
    Polynomial,
    RewriteRule,
    RingError,
    VariableTable,
    generic_poly,
    sum_of_products,
)

ROW_WEIGHTS = (4, 1, 1, 1, 1, 0)
ROW_SIGNS = (1, -1, -1, 1, 1, -1)

# weighted degree and involution sign of each geometric coordinate
GRADING = {
    "x": (1, -1),
    "y1": (2, -1),
    "y2": (2, 1),
    "y3": (2, -1),
    "y4": (2, -1),
    "z1": (3, -1),
    "z2": (3, -1),
    "z3": (3, 1),
    "z4": (3, 1),
    "t": (4, -1),
}

# the coefficients of the border polynomials G and q1..q4, in slot order
BORDER_PARAMS = tuple([f"g{k}" for k in range(1, 11)] + [f"b{k}" for k in range(1, 13)])

# the multipliers r1..r371: one per slot of the rank-condition ansatz
MULTIPLIER_COUNT = 371


class PatternError(RingError):
    pass


def upper_triangle(n: int) -> tuple:
    """The positions (i, j), 1 <= i <= j <= n, of an n x n matrix, row by row."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


UPPER = upper_triangle(6)  # the 21 positions of a symmetric 6x6 matrix


def entry_grading(i: int, j: int) -> tuple:
    """Required (weighted degree, sigma sign) of entry (i, j), 1-based."""
    return ROW_WEIGHTS[i - 1] + ROW_WEIGHTS[j - 1], -ROW_SIGNS[i - 1] * ROW_SIGNS[j - 1]


@dataclass(frozen=True)
class AlphaCase:
    """A member (j, c) of the three-by-two family of matrix shapes."""

    j: int
    c: int

    def __post_init__(self):
        if self.j not in (1, 2, 3) or self.c not in (0, 1):
            raise ValueError(f"invalid case (j={self.j}, c={self.c})")

    @property
    def w_name(self) -> str:
        """The surviving anti-invariant degree-2 variable besides y1."""
        return "y3" if self.j == 1 else "y4"

    @property
    def geo4(self) -> tuple:
        return ("x", "y1", "y2", self.w_name)


def coordinate_entries(names) -> list:
    """VariableTable entries of the named geometric coordinates, graded by
    GRADING."""
    return [(n, *GRADING[n], GEOMETRIC) for n in names]


def make_table(case: AlphaCase) -> VariableTable:
    """Pipeline variable table for `case`.

    Geometric: x, y1, y2, case.w_name, z1..z4, t.  Parameters: d, g1..g10, b1..b12;
    d is INVERTIBLE for j=2, whose constraint keeps d != 0, so the elimination
    may divide by it.  Multipliers: r1..r371, one per rank-condition slot
    (`rc.build_l_ansatz`).  A trailing algebraic symbol r (r^2 = -15) makes
    specializations over Q(sqrt(-15)) plain substitutions on the same table.
    """
    entries = coordinate_entries(("x", "y1", "y2", case.w_name, "z1", "z2", "z3", "z4", "t"))
    entries += [("d", 0, 1, INVERTIBLE if case.j == 2 else PARAMETER)]
    entries += [(n, 0, 1, PARAMETER) for n in BORDER_PARAMS]
    entries += [(f"r{k}", 0, 1, MULTIPLIER) for k in range(1, MULTIPLIER_COUNT + 1)]
    entries += [("r", 0, 1, ALGEBRAIC)]
    return VariableTable(entries, rules=[RewriteRule("r", 2, {(): -15})])


# ---------------------------------------------------------------------------
# matrices


class SymPolyMatrix:
    """Symmetric 6x6 matrix of polynomials.  All indices are 1-based."""

    __slots__ = ("table", "rows")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        if len(rows) != 6 or any(len(r) != 6 for r in rows):
            raise PatternError("matrix must be 6x6")
        self.table = rows[0][0].table
        for r in rows:
            for p in r:
                if p.table is not self.table:
                    raise PatternError("mixed variable tables in matrix")
        _require_symmetric(rows)
        self.rows = tuple(tuple(r) for r in rows)

    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPolyMatrix) and self.rows == other.rows

    def map_entries(self, fn) -> "SymPolyMatrix":
        return SymPolyMatrix([[fn(p) for p in row] for row in self.rows])

    def substitute(self, bindings) -> "SymPolyMatrix":
        return self.map_entries(lambda p: p.substitute(bindings))

    def check_pattern(self) -> None:
        """Enforce the degree and sign pattern; raises PatternError."""
        for i, j in UPPER:
            p = self[i, j]
            if p.is_zero():
                continue
            want = entry_grading(i, j)
            if p.grading() != want:
                raise PatternError(f"entry ({i},{j}) has grading {p.grading()}, wants {want}")

    # -- determinants --------------------------------------------------------

    def determinant(self) -> Polynomial:
        full = tuple(range(6))
        return _minor_det(self.rows, full, full, {})

    def congruence(self, P: Sequence[Sequence]) -> "SymPolyMatrix":
        """P * M * P^T for a 6x6 matrix P of polynomials/scalars."""
        table = self.table
        Pp = _as_grid(P, table)
        if len(Pp) != 6:
            raise PatternError("congruence transform must be 6x6")
        B = [
            [sum_of_products(table, zip(Pp[i], (row[j] for row in self.rows))) for j in range(6)]
            for i in range(6)
        ]
        C = [[sum_of_products(table, zip(B[i], Pp[j])) for j in range(6)] for i in range(6)]
        return SymPolyMatrix(C)

    def __repr__(self) -> str:
        return "SymPolyMatrix(\n  " + "\n  ".join(
            "[" + ", ".join(str(p) for p in row) + "]" for row in self.rows
        ) + "\n)"


def _minor_det(grid, rows: tuple, cols: tuple, memo: dict) -> Polynomial:
    """Determinant of the submatrix of a square polynomial grid on the given
    0-based rows and columns, expanded along its sparsest line.  Minors are
    cached in `memo`, which belongs to the one grid."""
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    n = len(rows)
    if n == 0:
        return grid[0][0].table.one()
    if n == 1:
        return grid[rows[0]][cols[0]]
    # expand along the line (row or column) with the most zero entries; a
    # column expansion is a row expansion of the transpose
    by_row, by_col = (lambda a, b: grid[a][b]), (lambda a, b: grid[b][a])
    best_zeros = -1
    for at, lines, across in ((by_row, rows, cols), (by_col, cols, rows)):
        for k, a in enumerate(lines):
            z = sum(1 for b in across if at(a, b).is_zero())
            if z > best_zeros:
                best_zeros, best = z, (at, lines, across, k)
    at, lines, across, k0 = best
    line, rest = lines[k0], lines[:k0] + lines[k0 + 1 :]
    pairs = []  # (signed entry, its minor) along the line
    for k, b in enumerate(across):
        e = at(line, b)
        if e.is_zero():
            continue
        others = across[:k] + across[k + 1 :]
        minor = (rest, others) if at is by_row else (others, rest)
        pairs.append((e if (k0 + k) % 2 == 0 else -e, _minor_det(grid, *minor, memo)))
    det = memo[key] = sum_of_products(grid[0][0].table, pairs)
    return det


def _as_grid(rows, table: Optional[VariableTable] = None) -> list:
    """A square matrix with scalar entries lifted to `table`, by default the
    table of its polynomial entries."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise PatternError("matrix must be square and nonempty")
    if table is None:
        table = next((e.table for row in rows for e in row if isinstance(e, Polynomial)), None)
    if table is None:
        raise PatternError("matrix has no polynomial entries")
    return [[e if isinstance(e, Polynomial) else table.const(e) for e in row] for row in rows]


def det_any(rows) -> Polynomial:
    """Determinant of a square matrix of polynomials and scalars."""
    grid = _as_grid(rows)
    full = tuple(range(len(grid)))
    return _minor_det(grid, full, full, {})


def _require_symmetric(grid) -> None:
    for i, j in upper_triangle(len(grid)):
        if grid[i - 1][j - 1] != grid[j - 1][i - 1]:
            raise PatternError(f"matrix not symmetric at ({i},{j})")


def adjugate(rows) -> dict:
    """The cofactors {(i, j): (-1)^(i+j) det(minor_ij)}, 1-based, i <= j, of a
    symmetric square matrix of polynomials and scalars, else PatternError; by
    symmetry that is the whole adjugate.  The minors share one fresh cache."""
    grid = _as_grid(rows)
    _require_symmetric(grid)
    full = tuple(range(len(grid)))
    memo: dict = {}
    out = {}
    for i, j in upper_triangle(len(grid)):
        d = _minor_det(grid, full[: i - 1] + full[i:], full[: j - 1] + full[j:], memo)
        out[i, j] = d if (i + j) % 2 == 0 else -d
    return out


# ---------------------------------------------------------------------------
# the ansatz


# q-monomials removed by the 8-parameter normalization, per case.  For j=1 this
# is the classical choice (row/column operations on l3..l6); for j=2,3 no
# operation feeds w^2 into q3, so the removable set differs.
_DROPPED = {
    1: {
        1: {"x^2*y1", "x^2*y3"},
        2: set(),
        3: {"y1^2", "y1*y3", "y3^2"},
        4: {"x^2*y2", "y1^2", "y2^2"},
    },
    2: {
        1: {"x^2*y1", "x^2*y4"},
        2: set(),
        3: {"y1^2"},
        4: {"x^2*y2", "y2^2", "y1^2", "y1*y4", "y4^2"},
    },
}
_DROPPED[3] = _DROPPED[2]


def generic_border(table: VariableTable, geo, names, dropped: Optional[dict] = None):
    """Generic border polynomials (G, [q1, q2, q3, q4]) over the geometric
    variables `geo`: G of weighted degree 6 and sign -1, q_k of degree 4 and
    signs (-, -, +, +).  All five draw their coefficient names, in order, from
    the one sequence `names`, G first, through `generic_poly`, and use them
    all up, or it raises; `dropped` maps k to the q_k monomials (as text)
    that get no slot."""
    dropped = dropped or {}
    names = iter(names)
    G = generic_poly(table, (6, -1), geo, names)
    signs = ((1, -1), (2, -1), (3, 1), (4, 1))
    qs = [generic_poly(table, (4, sign), geo, names, dropped.get(k, ())) for k, sign in signs]
    left = list(names)
    if left:
        raise PatternError(f"border ansatz leaves {', '.join(left)} unused")
    return G, qs


def central_block(case: AlphaCase, table: VariableTable):
    """The central 4x4 block of the family (j, c) and its conic Q.  The
    block's diagonal is (a, b, -b, -a), with a, b and Q fixed by j; c is the
    x^2 coefficient off the diagonal."""
    x, y1, y2, w, d = (table.var(n) for n in ("x", "y1", "y2", case.w_name, "d"))
    cx2 = table.const(case.c) * x * x
    zero = table.zero()
    if case.j == 1:
        a, b, Q = d * w, w, y1 * y1 - y2 * y2 - d * w * w
    elif case.j == 2:
        a, b, Q = w, -2 * d * y1, y1 * y1 - y2 * y2 + 2 * d * y1 * w
    else:
        a, b, Q = w, zero, y1 * y1 - y2 * y2
    central = [
        [a, y1, y2, zero],
        [y1, b, cx2, y2],
        [y2, cx2, -b, y1],
        [zero, y2, y1, -a],
    ]
    return central, Q


def bordered_matrix(x: Polynomial, G: Polynomial, qs, Q: Polynomial, central, tail) -> SymPolyMatrix:
    """The bordered layout every alpha shares: x^2*G at the corner, x*q_k
    along the first row and column, Q at (1,6), the central 4x4 block in rows
    and columns 2..5, and `tail` (four entries) in rows 2..5 of column 6."""
    zero = x.table.zero()
    xqs = [x * q for q in qs]
    return SymPolyMatrix(
        [[x * x * G] + xqs + [Q]]
        + [[xqs[k]] + list(central[k]) + [tail[k]] for k in range(4)]
        + [[Q] + list(tail) + [zero]]
    )


def build_ansatz(case: AlphaCase):
    """The generic matrix of the family (j, c) over a new `make_table(case)`
    (the matrix's `table`).  Its border uses up BORDER_PARAMS, or it raises.

    Returns (matrix, parameter names).  The parameter list has 23 entries for
    j=1,2 (g1..g10, b1..b12, d) and 22 for j=3 (d does not occur there).
    """
    table = make_table(case)
    G, qs = generic_border(table, case.geo4, BORDER_PARAMS, _DROPPED[case.j])
    central, Q = central_block(case, table)
    x, zero = table.var("x"), table.zero()
    M = bordered_matrix(x, G, qs, Q, central, [x, zero, zero, zero])
    M.check_pattern()
    return M, list(BORDER_PARAMS) + (["d"] if case.j != 3 else [])
