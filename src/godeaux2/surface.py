"""Surface equations, the r-removal step, and exact ideal membership.

The 21 equations live on the nine geometric variables: 15 quadric relations
v_i*v_j = sum_k l_ij^k v_k over the section vector v = (1, z1, z2, z3, z4, t)
and the 6 rows of alpha*v.  The quadric relations are the rank-condition
identity of `rc.rc_residuals` with v_i*v_j in place of beta_ij (and v_k in
place of beta_1k), over the multipliers that solve it.  Every equation is
weighted-homogeneous with a pure involution sign; the five relations of
weighted degree <= 5 come from rows 2..6 of alpha*v and never involve the
multipliers, hence no r-parameters.

Surviving r's enter the higher-degree equations linearly, as r_m times a
coefficient polynomial; membership_check certifies that such coefficients lie
in the ideal of the low-degree equations by exact cofactors over Q[moduli],
found with the same constant-pivot elimination as the rank condition.  It
takes all targets at once and runs one elimination per (weighted degree,
sign) class: the cofactors of a generic target T = sum t_m m are solved once,
linearly in the t_m, and each target costs one substitution of its
coefficients for the t_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import elim
from .alpha import SymPolyMatrix
from .elim import back_substitute, resolve_dependencies
from .rc import PAIRS, rc_residuals
from .ring import MULTIPLIER, Polynomial, RingError, generic_poly, monomial_basis


# the highest weighted degree of the r-free relations (rows 2..6 of alpha*v)
LOW_DEGREE = 5


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
    eqs: list

    def low_degree(self) -> list:
        """The relations of weighted degree <= LOW_DEGREE (r-free)."""
        return [eq for eq in self.eqs if eq.degree <= LOW_DEGREE]


def generate_equations(alpha_final: SymPolyMatrix, l_final: dict) -> SurfaceEquations:
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
    # v_1 = 1, so the (1, k) products are v_k themselves
    products = {(1, k): v[k - 1] for k in range(1, 7)}
    products.update({(i, j): v[i - 1] * v[j - 1] for (i, j) in PAIRS})
    residuals = rc_residuals(products, l_final)
    eqs = [(f"vv_{i}{j}", res) for (i, j), res in zip(PAIRS, residuals)]
    for i in range(1, 7):
        acc = table.zero()
        for j in range(1, 7):
            acc = acc + alpha_final[i, j] * v[j - 1]
        eqs.append((f"row_{i}", acc))
    out = []
    for label, p in eqs:
        if p.is_zero():
            raise SurfaceError(f"equation {label} collapsed to zero")
        grading = p.grading()
        if grading is None:
            raise SurfaceError(f"equation {label} is not homogeneous and pure")
        out.append(SurfaceEquation(label, *grading, p))
    return SurfaceEquations(out)


def remove_r(eqs: SurfaceEquations) -> SurfaceEquations:
    """Assert the degree <= 5 equations are r-free, then set every r of each
    equation to 0 (collect_Gm owns the set of r's that occur)."""
    for eq in eqs.low_degree():
        bad = eq.poly.multipliers()
        if bad:
            raise SurfaceError(
                f"degree-{eq.degree} equation {eq.label} depends on {sorted(bad)}"
            )
    zero = eqs.eqs[0].poly.table.zero()
    out = []
    for eq in eqs.eqs:
        p = eq.poly.substitute(dict.fromkeys(eq.poly.multipliers(), zero))
        if p.is_zero():
            raise SurfaceError(f"equation {eq.label} vanished under r-removal")
        out.append(SurfaceEquation(eq.label, eq.degree, eq.sign, p))
    return SurfaceEquations(out)


def collect_Gm(eqs: SurfaceEquations) -> dict:
    """Coefficients of the surviving r-parameters, per equation.

    Returns {r_name: [(label, coefficient polynomial)]}.  Aborts if any r
    occurs nonlinearly (jointly, across all r's in a monomial).
    """
    table = eqs.eqs[0].poly.table
    r_names = table.of_kind(MULTIPLIER)
    out: dict = {}
    for eq in eqs.eqs:
        for r_mono, g in eq.poly.coefficients_wrt(r_names):
            if not r_mono:
                continue
            if len(r_mono) > 1:
                raise SurfaceError(
                    f"equation {eq.label} is nonlinear in the r-parameters"
                )
            grading = g.grading()
            if grading is None or grading[0] <= 0:
                raise SurfaceError("r-coefficient fails homogeneity of positive degree")
            out.setdefault(table.names[r_mono[0]], []).append((eq.label, g))
    return out


def membership_check(gs: Sequence[Polynomial], generators: Sequence[Polynomial]) -> list:
    """One verdict per target g, in input order: True when g = sum h_i F_i
    holds exactly for cofactors h_i found by elimination, else False.

    The targets are solved together, one elimination per (weighted degree,
    sign) class.  For each generator F_i of degree <= deg, h_i is a generic
    polynomial of degree deg - deg F_i and sign sign*sign(F_i) in the
    geometric variables, one multiplier slot of the table per monomial; the
    class's generic target T = sum t_m m over monomial_basis(deg, sign) takes
    the slots after them.  The coefficients of T - sum h_i F_i over the
    geometric monomials are solved for the cofactor slots by one lin_elim,
    whose pivots are integer constants, and one back substitution gives
    `solved`, linear in the t_m.  A target's verdict is whether `solved` with
    each t_m set to g's coefficient at m is zero: that polynomial is exactly
    g - sum h_i(t := g) F_i, so True holds for every value of the moduli.
    False means it is not zero: g is not in the ideal over Q(moduli), or only
    a non-constant pivot would show it is.  A class that needs more slots than
    the table has raises RingError.
    """
    if not generators:
        raise SurfaceError("membership check needs at least one generator")
    if any(p.multipliers() for p in (*gs, *generators)):
        raise SurfaceError("membership check needs multiplier-free input")
    gradings = [p.grading() if p else None for p in (*gs, *generators)]
    if None in gradings:
        raise SurfaceError("membership check needs nonzero homogeneous, pure input")
    classes: dict = {}
    for k, grading in enumerate(gradings[: len(gs)]):
        classes.setdefault(grading, []).append(k)
    table = generators[0].table
    geo = table.names[: table.geo_cut]
    verdicts = [False] * len(gs)
    for (deg, sign), members in classes.items():
        solved, targets = _solve_class(deg, sign, generators, gradings[len(gs) :], geo)
        zero = dict.fromkeys(targets.values(), table.zero())
        for k in members:
            bindings = dict(zero)
            bindings.update((targets[m], c) for m, c in gs[k].coefficients_wrt(geo))
            verdicts[k] = solved.substitute(bindings).is_zero()
    return verdicts


def _solve_class(deg: int, sign: int, generators, generator_gradings, geo) -> tuple:
    """(T - sum h_i F_i with the cofactor slots solved, {geometric monomial m:
    the name of its target slot t_m}) for one (degree, sign) class."""
    table = generators[0].table
    slots = table.of_kind(MULTIPLIER)
    unknowns: list = []
    residual = table.zero()
    for F, (fdeg, fsign) in zip(generators, generator_gradings):
        if fdeg > deg:
            continue
        monos = monomial_basis(table, deg - fdeg, sign * fsign, geo)
        # generic_poly rejects a slot list that runs out before the monomials
        names = slots[len(unknowns) : len(unknowns) + len(monos)]
        unknowns += names
        residual = residual - generic_poly(table, names, monos) * F
    basis = monomial_basis(table, deg, sign, geo)
    t_names = slots[len(unknowns) : len(unknowns) + len(basis)]
    residual = residual + generic_poly(table, t_names, basis)
    f = [c for _, c in residual.coefficients_wrt(geo)]
    # looked up on elim at call time, so that a wrapper installed on
    # elim.lin_elim (perfbench/tracing.py) also sees this call
    deps = elim.lin_elim(f, [True] * len(f), unknowns, len(unknowns))[2] if unknowns else []
    return back_substitute(residual, resolve_dependencies(deps)), dict(zip(basis, t_names))
