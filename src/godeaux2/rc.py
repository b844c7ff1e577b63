"""Rank-condition ansatz: multipliers l_ij^k and the coefficient system f.

The rank condition asks every cofactor beta_ij to be an A-combination of the
first-row cofactors: beta_ij = sum_k l_ij^k beta_1k.  The 15 unordered pairs
(i, j), 2 <= i <= j <= 6 carry the content (pairs with i = 1 are tautological).
Each l_ij^k is a generic polynomial (`ring.generic_poly`) over {x, y1, y2, w}
of the forced weighted degree and sigma-sign, one fresh r-parameter per slot
monomial; the forced degree is deg(beta_ij) - deg(beta_1k) and negative
degrees mean l = 0.  The slots use up the table's multipliers r1..r371.

Cofactors come from `alpha.adjugate` as {(i, j): beta_ij}; flattening the
residuals {(i, j): beta_ij - sum_k l_ij^k beta_1k} along geometric monomials
yields the system f of parameter polynomials, affine in the r's.
The same identity, over the solved multipliers and with the section products
v_i*v_j in place of the cofactors, gives the 15 quadric relations of the
surface (`surface.generate_equations`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .alpha import ROW_WEIGHTS, UPPER, AlphaCase, SymPolyMatrix, adjugate, entry_grading
from .ring import MULTIPLIER, RingError, VariableTable, generic_poly, sum_of_products

PAIRS = tuple((i, j) for (i, j) in UPPER if i > 1)


class RCError(RingError):
    pass


def cofactor_grading(i: int, j: int) -> tuple:
    """Required (weighted degree, sigma sign) of beta_ij: the degree of the
    octic det less that of entry (i, j), and the entry's sign."""
    degree, sign = entry_grading(i, j)
    return 2 * sum(ROW_WEIGHTS) - degree, sign


def multiplier_grading(i: int, j: int, k: int) -> tuple:
    """Required (weighted degree, sigma sign) of l_ij^k = beta_ij / beta_1k."""
    (dij, sij), (d1k, s1k) = cofactor_grading(i, j), cofactor_grading(1, k)
    return dij - d1k, sij * s1k


def compute_cofactors(alpha: SymPolyMatrix) -> dict:
    """The cofactors {(i, j): beta_ij}, i <= j, of `alpha`, grading-checked."""
    betas = adjugate(alpha.rows)
    for (i, j), b in betas.items():
        if b and b.grading() != cofactor_grading(i, j):
            raise RCError(
                f"cofactor ({i},{j}) has grading {b.grading()}, wants {cofactor_grading(i, j)}"
            )
    return betas


def build_l_ansatz(table: VariableTable, case: AlphaCase) -> dict:
    """The generic multipliers {(i, j, k): l_ij^k} of the family over `table`.
    The r-slots take the table's multipliers in order, over pairs (2,2),
    (2,3),...,(6,6), then k = 1..6, then descending lex monomials
    (`ring.generic_poly`), and use them all up.  The cofactors the multipliers
    combine come from `compute_cofactors`."""
    names = iter(table.of_kind(MULTIPLIER))
    polys = {
        (i, j, k): generic_poly(table, multiplier_grading(i, j, k), case.geo4, names)
        for (i, j) in PAIRS
        for k in range(1, 7)
    }
    left = sum(1 for _ in names)
    if left:
        raise RCError(f"multiplier ansatz leaves {left} of the table's multipliers unused")
    return polys


def rc_residuals(cofactors: dict, multipliers: dict) -> dict:
    """The 15 residuals {(i, j): beta_ij - sum_k l_ij^k beta_1k}, in pair
    order, for cofactors {(i, j): beta_ij} and multipliers {(i, j, k):
    l_ij^k}.  Given the products v_i*v_j in place of beta_ij (and v_k in place
    of beta_1k), the residuals are the quadric relations of the surface."""
    table = cofactors[1, 1].table
    one = table.one()
    return {
        (i, j): sum_of_products(
            table,
            [(one, cofactors[i, j])] + [(-multipliers[i, j, k], cofactors[1, k]) for k in range(1, 7)],
        )
        for (i, j) in PAIRS
    }


@dataclass
class RCSystem:
    """The flattened coefficient system.

    Each f[k] is a polynomial purely in parameters.  Coefficients that repeat
    verbatim across slots are kept once (first occurrence): the system size
    876 for alpha_1, c=1 counts distinct coefficients (the raw flattening has
    896 slots with 20 exact repeats).
    """

    f: list
    param_names: list  # distinct parameters occurring in f, table order

    @property
    def param_count(self) -> int:
        return len(self.param_names)

    def take_f(self) -> list:
        """Hand f over: return the list and leave an empty one in its place,
        so that the caller holds the system's only reference to it."""
        f, self.f = self.f, []
        return f


def extract_system(residuals: dict, case: AlphaCase) -> RCSystem:
    geo = case.geo4
    table = None
    f = []
    seen_params = set()
    seen_coeffs = set()
    for pair, res in residuals.items():
        if res.is_zero():
            continue
        table = res.table
        geo_idx = {table.index[n] for n in geo}
        for _, coeff in res.coefficients_wrt(geo):
            support = coeff.support()
            if support & geo_idx:
                raise RCError(
                    f"coefficient of residual {pair} involves a geometric variable"
                )
            if coeff in seen_coeffs:
                continue
            seen_coeffs.add(coeff)
            f.append(coeff)
            seen_params |= support
    names = [table.names[v] for v in sorted(seen_params)] if table is not None else []
    return RCSystem(f, names)
