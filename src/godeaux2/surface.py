"""Surface equations, the r-removal step, and exact ideal membership.

The 21 equations live on the nine geometric variables: 15 quadric relations
v_i*v_j = sum_k l_ij^k v_k over the section vector v = (1, z1, z2, z3, z4, t)
and the 6 rows of alpha*v.  Every equation is weighted-homogeneous with a pure
involution sign; the five relations of weighted degree <= 5 come from rows
2..6 of alpha*v and never involve the multipliers, hence no r-parameters.

Surviving r's enter the higher-degree equations linearly, as r_m times a
coefficient polynomial; membership_check certifies that such a coefficient
lies in the ideal of the low-degree equations by exact cofactors over
Q[moduli], found with the same constant-pivot elimination as the rank
condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .alpha import AlphaCase, SymPolyMatrix
from .elim import back_substitute, lin_elim
from .rc import PAIRS
from .ring import MULTIPLIER, Polynomial, RingError, generic_poly, monomial_basis


class SurfaceError(RingError):
    pass


@dataclass(frozen=True)
class SurfaceEquation:
    label: str
    degree: int
    sign: int
    poly: Polynomial


@dataclass
class SurfaceEquations:
    case: AlphaCase
    eqs: list
    params: list  # surviving g/b/d parameters

    @property
    def geo_vars(self) -> tuple:
        table = self.eqs[0].poly.table
        return tuple(table.names[v] for v in range(table.geo_cut))

    def by_label(self, label: str) -> Polynomial:
        for eq in self.eqs:
            if eq.label == label:
                return eq.poly
        raise KeyError(label)

    def low_degree(self, bound: int = 5) -> list:
        return [eq for eq in self.eqs if eq.degree <= bound]

    def polys(self) -> list:
        return [eq.poly for eq in self.eqs]


def generate_equations(
    alpha_final: SymPolyMatrix,
    l_final: dict,
    case: AlphaCase,
    params: Optional[Sequence[str]] = None,
) -> SurfaceEquations:
    """The 15 quadric relations and 6 row relations, fully expanded.

    Aborts if any equation fails weighted- or sigma-homogeneity, which would
    signal a pipeline bug upstream.
    """
    table = alpha_final.table
    v = [
        table.one(),
        table.var("z1"),
        table.var("z2"),
        table.var("z3"),
        table.var("z4"),
        table.var("t"),
    ]
    eqs = []
    for (i, j) in PAIRS:
        acc = v[i - 1] * v[j - 1]
        for k in range(1, 7):
            lp = l_final.get((i, j, k))
            if lp is None or lp.is_zero():
                continue
            acc = acc - lp * v[k - 1]
        eqs.append((f"vv_{i}{j}", acc))
    for i in range(1, 7):
        acc = table.zero()
        for j in range(1, 7):
            acc = acc + alpha_final[i, j] * v[j - 1]
        eqs.append((f"row_{i}", acc))
    out = []
    for label, p in eqs:
        if p.is_zero():
            raise SurfaceError(f"equation {label} collapsed to zero")
        deg = p.weighted_degree()
        sign = p.sigma_sign()
        if deg is None or sign is None:
            raise SurfaceError(f"equation {label} is not homogeneous and pure")
        out.append(SurfaceEquation(label, deg, sign, p))
    if len(out) != 21:
        raise SurfaceError(f"expected 21 equations, got {len(out)}")
    return SurfaceEquations(case, out, list(params or []))


def equation_r_names(eqs: SurfaceEquations) -> list:
    table = eqs.eqs[0].poly.table
    names = set()
    for eq in eqs.eqs:
        names |= eq.poly.multipliers()
    return sorted(names, key=lambda n: table.index[n])


def remove_r(eqs: SurfaceEquations) -> SurfaceEquations:
    """Assert the degree <= 5 equations are r-free, then set every r to 0."""
    for eq in eqs.low_degree(5):
        bad = eq.poly.multipliers()
        if bad:
            raise SurfaceError(
                f"degree-{eq.degree} equation {eq.label} depends on {sorted(bad)}"
            )
    names = equation_r_names(eqs)
    if not names:
        return eqs
    table = eqs.eqs[0].poly.table
    zero = table.zero()
    bindings = {n: zero for n in names}
    out = []
    for eq in eqs.eqs:
        p = eq.poly.substitute(bindings)
        if p.is_zero():
            raise SurfaceError(f"equation {eq.label} vanished under r-removal")
        out.append(SurfaceEquation(eq.label, eq.degree, eq.sign, p))
    return SurfaceEquations(eqs.case, out, eqs.params)


def collect_Gm(eqs: SurfaceEquations) -> dict:
    """Coefficients of the surviving r-parameters, per equation.

    Returns {r_name: [(label, coefficient polynomial)]}.  Aborts if any r
    occurs nonlinearly (jointly, across all r's in a monomial).
    """
    table = eqs.eqs[0].poly.table
    r_idx = {table.index[n]: n for n in table.of_kind(MULTIPLIER)}
    out: dict = {}
    for eq in eqs.eqs:
        per_r: dict = {}
        for m, c in eq.poly.terms.items():
            hits = [(v, e) for v, e in m if v in r_idx]
            if not hits:
                continue
            if len(hits) > 1 or hits[0][1] > 1:
                raise SurfaceError(
                    f"equation {eq.label} is nonlinear in the r-parameters"
                )
            v = hits[0][0]
            rest = tuple(ve for ve in m if ve[0] != v)
            per_r.setdefault(v, {})[rest] = c
        for v, terms in per_r.items():
            g = Polynomial(table, terms)
            if g.weighted_degree() is None or g.weighted_degree() <= 0:
                raise SurfaceError("r-coefficient fails homogeneity of positive degree")
            out.setdefault(r_idx[v], []).append((eq.label, g))
    return out


def _grading(p: Polynomial) -> tuple:
    deg = None if p.is_zero() else p.weighted_degree()
    sign = p.sigma_sign()
    if deg is None or sign is None:
        raise SurfaceError("membership check needs nonzero homogeneous, pure input")
    return deg, sign


def membership_check(g: Polynomial, generators: Sequence[Polynomial]) -> str:
    """'verified' when g = sum h_i F_i holds exactly for cofactors h_i found
    by elimination, else 'refuted'.

    For each generator F_i of degree <= deg g, h_i is a generic polynomial of
    degree deg g - deg F_i and sign sign(g)*sign(F_i) in the geometric
    variables, one multiplier slot of the table per monomial.  The
    coefficients of g - sum h_i F_i over the geometric monomials are solved by
    lin_elim; its pivots are integer constants, so the cofactors lie in
    Q[moduli][geo] and 'verified' holds for every value of the moduli.
    'refuted' means g - sum h_i F_i does not back-substitute to zero: g is not
    in the ideal over Q(moduli), or only a non-constant pivot would show it is.
    """
    if not generators:
        raise SurfaceError("membership check needs at least one generator")
    if any(p.multipliers() for p in (g, *generators)):
        raise SurfaceError("membership check needs multiplier-free input")
    table = g.table
    geo = table.names[: table.geo_cut]
    deg, sign = _grading(g)
    slots = table.of_kind(MULTIPLIER)
    unknowns: list = []
    residual = g
    for F in generators:
        fdeg, fsign = _grading(F)
        if fdeg > deg:
            continue
        monos = monomial_basis(table, deg - fdeg, sign * fsign, geo)
        # generic_poly rejects a slot list that runs out before the monomials
        names = slots[len(unknowns) : len(unknowns) + len(monos)]
        unknowns += names
        residual = residual - generic_poly(table, names, monos) * F
    f = [c for _, c in residual.coefficients_wrt(geo)]
    deps = lin_elim(f, [True] * len(f), unknowns, len(unknowns))[2] if unknowns else []
    return "verified" if back_substitute(residual, deps).is_zero() else "refuted"
