"""Independent oracles: dense rational Gaussian elimination for LinElim, a
plain first-row cofactor expansion for determinants, cofactors from
explicitly written-out minors (`signed_minor`), dense comparisons
for the canonical and the lex monomial orders, a form outside the ideal of
the low-degree surface relations, the budget-last pivot search, the
ansatz matrix written out case by case, and the r-slot layout of the
rank-condition ansatz re-derived from the row gradings; plus three readers of polynomials
and systems that only the tests need (`max_degree_in`, `dump_text`,
`support_names`), and `dense_mono`, which builds a monomial from a dense
exponent vector.  Every oracle reads a monomial through `ring.exponents`."""

from fractions import Fraction
from itertools import product

from godeaux2.alpha import SymPolyMatrix, det_any
from godeaux2.ring import Polynomial, exponents, monomial_basis
from godeaux2.surface import low_degree


def gauss_classify(rows, nvars):
    """rows: list of (coeff list, constant) meaning sum c_i x_i + const = 0.

    Returns ("unique", solution), ("under", None) or ("inconsistent", None).
    """
    aug = [[Fraction(c) for c in cs] + [Fraction(k)] for cs, k in rows]
    m = len(aug)
    pivots = []
    row = 0
    for col in range(nvars):
        pivot = None
        for r in range(row, m):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][nvars]:
            return "inconsistent", None
    if len(pivots) < nvars:
        return "under", None
    solution = [Fraction(0)] * nvars
    for r, col in enumerate(pivots):
        solution[col] = -aug[r][nvars]
    return "unique", solution


def first_row_det(table, rows):
    """Determinant by cofactor expansion along the first row, always;
    scalar entries are lifted to `table`."""
    n = len(rows)
    if n == 1:
        return table.zero() + rows[0][0]
    acc = table.zero()
    for k in range(n):
        if not rows[0][k]:
            continue
        minor = [row[:k] + row[k + 1 :] for row in rows[1:]]
        term = rows[0][k] * first_row_det(table, minor)
        acc = acc + (term if k % 2 == 0 else -term)
    return acc


def grevlex_cmp(a, b, cut):
    """Canonical order on monomials, compared on dense exponent
    vectors: +1 if a > b, -1 if a < b, 0 if equal.  The geometric block
    (indices below cut) decides first, then the parameter block; within a
    block the higher total degree is larger, and at equal degree the last
    index where the exponents differ decides, the smaller exponent being the
    larger monomial."""
    n = 1 + max([v for v, _ in exponents(a) + exponents(b)], default=0)
    ea, eb = [0] * n, [0] * n
    for v, e in exponents(a):
        ea[v] = e
    for v, e in exponents(b):
        eb[v] = e
    for lo, hi in ((0, cut), (cut, n)):
        xa, xb = ea[lo:hi], eb[lo:hi]
        if sum(xa) != sum(xb):
            return 1 if sum(xa) > sum(xb) else -1
        for x, y in zip(reversed(xa), reversed(xb)):
            if x != y:
                return 1 if x < y else -1
    return 0


def lex_dense_key(m, nvars):
    """The dense exponent vector of a monomial: sorting by it in
    reverse is descending lex order over the variable order."""
    exps = [0] * nvars
    for v, e in exponents(m):
        exps[v] = e
    return tuple(exps)


def dense_mono(exps):
    """The monomial with the dense exponent vector `exps`."""
    return tuple(v for v, e in enumerate(exps) for _ in range(e))


def max_degree_in(p, names):
    """Largest per-term total exponent of the named variables in p."""
    idxs = {p.table.index[n] for n in names}
    return max((sum(e for v, e in exponents(m) if v in idxs) for m in p.terms), default=0)


def dump_text(residuals, geo):
    """Ordered canonical text of the flattened system of `residuals`, the map
    {(i, j): residual} keyed by pair that rc.rc_residuals returns, one line
    per distinct coefficient in `geo`, labelled by the pair and the geometric
    monomial where it first occurs."""
    lines = []
    seen = set()
    for pair, res in residuals.items():
        for mono, p in res.coefficients_wrt(geo):
            if p not in seen:
                seen.add(p)
                lines.append(f"[{pair[0]}{pair[1]}:{p.table.mono_str(mono) or '1'}] {p}")
    return "\n".join(lines) + "\n"


def signed_minor(rows, i, j):
    """(-1)^(i+j) det_any of the minor of the square matrix `rows` without row
    i and column j (1-based), written out explicitly."""
    minor = [[e for b, e in enumerate(row, 1) if b != j] for a, row in enumerate(rows, 1) if a != i]
    d = det_any(minor)
    return d if (i + j) % 2 == 0 else -d


def support_names(p):
    """Names of the variables occurring in p."""
    return {p.table.names[v] for v in p.support()}


def outside_low_degree_ideal(run, G):
    """A monomial of G's degree and sign outside the ideal of the degree <= 5
    surface relations of `run`: those all vanish on the linear space x = y = 0
    (each of their terms carries x or a y, asserted here), and a nonzero form
    in z1..z4, t alone does not."""
    table = run.table
    low = {table.index[n] for n in table.names[: table.geo_cut] if n == "x" or n[0] == "y"}
    for label, p in low_degree(run.equations).items():
        assert all(any(v in low for v, _ in exponents(m)) for m in p.terms), label
    monos = monomial_basis(table, *G.grading(), ["z1", "z2", "z3", "z4", "t"])
    return Polynomial(table, {monos[0]: 1})


def find_pivot_reference(p, support, var_idx, n):
    """(var index, coefficient) of the lowest-ranked target variable v with a
    bare c*v term, v occurring nowhere else in p and at most n other target
    variables in the support; else None.  The budget is checked last, per
    candidate."""
    candidates = []
    for m, c in p.terms.items():
        pairs = exponents(m)
        if len(pairs) == 1 and pairs[0][1] == 1:
            v = pairs[0][0]
            rank = var_idx.get(v)
            if rank is not None:
                candidates.append((rank, v, c))
    if not candidates:
        return None
    candidates.sort()
    for rank, v, c in candidates:
        # v must occur nowhere else in p
        sole = True
        for m in p.terms:
            if exponents(m) == ((v, 1),):
                continue
            if any(w == v for w, _ in exponents(m)):
                sole = False
                break
        if not sole:
            continue
        budget = sum(1 for w in support if w in var_idx and w != v)
        if budget <= n:
            return v, c
    return None


def build_ansatz_reference(case, table):
    """The generic matrix of the family (j, c) and its parameter names, with
    the slot sums, the central block and the 6x6 layout written out per
    case.  G and the q_k list their monomials in descending lex order over
    (x, y1, y2, w), less the q-monomials the normalization drops."""
    x, y1, y2, w = (table.var(n) for n in ("x", "y1", "y2", case.w_name))
    g = [table.var(f"g{k}") for k in range(1, 11)]
    b = [table.var(f"b{k}") for k in range(1, 13)]
    G = (
        g[0] * x**4 * y1 + g[1] * x**4 * w + g[2] * x**2 * y1 * y2 + g[3] * x**2 * y2 * w
        + g[4] * y1**3 + g[5] * y1**2 * w + g[6] * y1 * y2**2 + g[7] * y1 * w**2
        + g[8] * y2**2 * w + g[9] * w**3
    )
    q1 = b[0] * y1 * y2 + b[1] * y2 * w
    q2 = b[2] * x**2 * y1 + b[3] * x**2 * w + b[4] * y1 * y2 + b[5] * y2 * w
    if case.j == 1:
        q3 = b[6] * x**4 + b[7] * x**2 * y2 + b[8] * y2**2
        q4 = b[9] * x**4 + b[10] * y1 * w + b[11] * w**2
    else:
        q3 = b[6] * x**4 + b[7] * x**2 * y2 + b[8] * y1 * w + b[9] * y2**2 + b[10] * w**2
        q4 = b[11] * x**4
    qs = [q1, q2, q3, q4]
    g_names = [f"g{k}" for k in range(1, 11)]
    b_names = [f"b{k}" for k in range(1, 13)]
    d = table.var("d")
    cx2 = table.const(case.c) * x * x
    zero = table.zero()
    if case.j == 1:
        central = [
            [d * w, y1, y2, zero],
            [y1, w, cx2, y2],
            [y2, cx2, -w, y1],
            [zero, y2, y1, -(d * w)],
        ]
        Q = y1 * y1 - y2 * y2 - d * w * w
        params = g_names + b_names + ["d"]
    elif case.j == 2:
        central = [
            [w, y1, y2, zero],
            [y1, -2 * d * y1, cx2, y2],
            [y2, cx2, 2 * d * y1, y1],
            [zero, y2, y1, -w],
        ]
        Q = y1 * y1 - y2 * y2 + 2 * d * y1 * w
        params = g_names + b_names + ["d"]
    else:
        central = [
            [w, y1, y2, zero],
            [y1, zero, cx2, y2],
            [y2, cx2, zero, y1],
            [zero, y2, y1, -w],
        ]
        Q = y1 * y1 - y2 * y2
        params = g_names + b_names
    xqs = [x * q for q in qs]
    rows = [
        [x * x * G] + xqs + [Q],
        [xqs[0]] + central[0] + [x],
        [xqs[1]] + central[1] + [zero],
        [xqs[2]] + central[2] + [zero],
        [xqs[3]] + central[3] + [zero],
        [Q, x, zero, zero, zero, zero],
    ]
    return SymPolyMatrix(rows), params


# row weights and involution signs of alpha, and the geometric grading of
# (x, y1, y2, w): the r-slot layout below re-derives every grading from these
_ROW_WEIGHTS = (4, 1, 1, 1, 1, 0)
_ROW_SIGNS = (1, -1, -1, 1, 1, -1)
_GEO4_GRADING = ((1, -1), (2, -1), (2, 1), (2, -1))


def multiplier_slots_reference():
    """(i, j, k, dense exponent vector over (x, y1, y2, w)) of every r-slot
    of the rank-condition ansatz, in slot order: pairs (2,2), (2,3), ...,
    (6,6), then k = 1..6, then the monomials of l_ij^k by descending
    exponent vector.  l_ij^k = beta_ij / beta_1k has weighted degree
    w_1 + w_k - w_i - w_j and sign eps_i*eps_j*eps_1*eps_k."""
    w, eps = _ROW_WEIGHTS, _ROW_SIGNS
    slots = []
    for i in range(2, 7):
        for j in range(i, 7):
            for k in range(1, 7):
                deg = w[0] + w[k - 1] - w[i - 1] - w[j - 1]
                sign = eps[i - 1] * eps[j - 1] * eps[0] * eps[k - 1]
                ranges = [range(deg // weight + 1) for weight, _ in _GEO4_GRADING]
                exps = [e for e in product(*ranges) if _dense_grading(e) == (deg, sign)]
                slots += [(i, j, k, e) for e in sorted(exps, reverse=True)]
    return slots


def _dense_grading(exps):
    """(weighted degree, sign) of the monomial over (x, y1, y2, w) with the
    dense exponent vector `exps`."""
    deg, sign = 0, 1
    for n, (weight, s) in zip(exps, _GEO4_GRADING):
        deg += n * weight
        sign *= s**n
    return deg, sign
