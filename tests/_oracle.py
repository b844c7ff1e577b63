"""Independent oracles: dense rational Gaussian elimination for LinElim, a
plain first-row cofactor expansion for determinants, a dense comparison
for the canonical monomial order, a form outside the ideal of the
low-degree surface relations, and the budget-last pivot search."""

from fractions import Fraction

from godeaux2.ring import Polynomial, monomial_basis


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
    """Canonical order on sparse monomials, compared on dense exponent
    vectors: +1 if a > b, -1 if a < b, 0 if equal.  The geometric block
    (indices below cut) decides first, then the parameter block; within a
    block the higher total degree is larger, and at equal degree the last
    index where the exponents differ decides, the smaller exponent being the
    larger monomial."""
    n = 1 + max([v for v, _ in a + b], default=0)
    ea, eb = [0] * n, [0] * n
    for v, e in a:
        ea[v] = e
    for v, e in b:
        eb[v] = e
    for lo, hi in ((0, cut), (cut, n)):
        xa, xb = ea[lo:hi], eb[lo:hi]
        if sum(xa) != sum(xb):
            return 1 if sum(xa) > sum(xb) else -1
        for x, y in zip(reversed(xa), reversed(xb)):
            if x != y:
                return 1 if x < y else -1
    return 0


def outside_low_degree_ideal(run, G):
    """A monomial of G's degree and sign outside the ideal of the degree <= 5
    surface relations of `run`: those all vanish on the linear space x = y = 0
    (each of their terms carries x or a y, asserted here), and a nonzero form
    in z1..z4, t alone does not."""
    table = run.table
    low = {table.index[n] for n in table.names[: table.geo_cut] if n == "x" or n[0] == "y"}
    for eq in run.equations_raw.low_degree(5):
        assert all(any(v in low for v, _ in m) for m in eq.poly.terms), eq.label
    monos = monomial_basis(table, G.weighted_degree(), G.sigma_sign(), ["z1", "z2", "z3", "z4", "t"])
    return Polynomial(table, {monos[0]: 1})


def find_pivot_reference(p, support, var_idx, n):
    """(var index, coefficient) of the lowest-ranked target variable v with a
    bare c*v term, v occurring nowhere else in p and at most n other target
    variables in the support; else None.  The budget is checked last, per
    candidate."""
    candidates = []
    for m, c in p.terms.items():
        if len(m) == 1 and m[0][1] == 1:
            v = m[0][0]
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
            if m == ((v, 1),):
                continue
            if any(w == v for w, _ in m):
                sole = False
                break
        if not sole:
            continue
        budget = sum(1 for w in support if w in var_idx and w != v)
        if budget <= n:
            return v, c
    return None
