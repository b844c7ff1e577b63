"""Independent oracles: dense rational Gaussian elimination for LinElim, a
plain first-row cofactor expansion for determinants, and a dense comparison
for the canonical monomial order."""

from fractions import Fraction


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
