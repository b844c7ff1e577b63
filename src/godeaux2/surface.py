"""Surface equations, the r-removal step, and exact ideal membership.

The 21 equations live on the nine geometric variables: 15 quadric relations
v_i*v_j = sum_k l_ij^k v_k over the section vector v = (1, z1, z2, z3, z4, t)
and the 6 rows of alpha*v.  The quadric relations are the rank-condition
identity of `rc.rc_residuals` with v_i*v_j in place of beta_ij (and v_k in
place of beta_1k), over the multipliers that solve it.  A set of equations is
a plain dict {label: polynomial} with keys vv_22..vv_66, then row_1..row_6.
Every equation is weighted-homogeneous with a pure involution sign, so its
(weighted degree, sign) is `p.grading()`; the five relations of weighted
degree <= 5 come from rows 2..6 of alpha*v and never involve the
multipliers, hence no r-parameters.

Surviving r's enter the higher-degree equations linearly, as r_m times a
coefficient polynomial; membership_check certifies that such coefficients lie
in the ideal of the low-degree equations by exact cofactors over Q[moduli],
found with the same constant-pivot elimination as the rank condition.  It
takes all targets at once and runs one elimination per (weighted degree,
sign) class on the cofactors of a generic target T = sum t_m m, and
certifies a target when the conditions that elimination leaves vanish at
t_m := its coefficient at m, with the cofactor slots no pivot solved at 0.
"""

from __future__ import annotations

from typing import Sequence

from . import elim
from .alpha import SymPolyMatrix
from .rc import PAIRS, rc_residuals
from .ring import MULTIPLIER, Polynomial, RingError, generic_poly, sum_of_products


# the highest weighted degree of the r-free relations (rows 2..6 of alpha*v)
LOW_DEGREE = 5


class SurfaceError(RingError):
    pass


def low_degree(eqs: dict) -> dict:
    """The relations of weighted degree <= LOW_DEGREE (r-free), by label."""
    return {label: p for label, p in eqs.items() if p.grading()[0] <= LOW_DEGREE}


def generate_equations(alpha_final: SymPolyMatrix, l_final: dict) -> dict:
    """The 15 quadric relations and 6 row relations, fully expanded, as
    {label: polynomial}.

    Aborts if any equation is zero or fails weighted- or sigma-homogeneity,
    which would signal a pipeline bug upstream.
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
    eqs = {f"vv_{i}{j}": res for (i, j), res in rc_residuals(products, l_final).items()}
    for i in range(1, 7):
        eqs[f"row_{i}"] = sum_of_products(table, zip(alpha_final.rows[i - 1], v))
    for label, p in eqs.items():
        if p.is_zero():
            raise SurfaceError(f"equation {label} collapsed to zero")
        if p.grading() is None:
            raise SurfaceError(f"equation {label} is not homogeneous and pure")
    return eqs


def remove_r(eqs: dict) -> dict:
    """Assert the degree <= 5 equations are r-free, then set every r of each
    equation to 0 (collect_Gm owns the set of r's that occur).  An r-free
    equation comes back as the same object."""
    for label, p in low_degree(eqs).items():
        bad = p.multipliers()
        if bad:
            raise SurfaceError(
                f"degree-{p.grading()[0]} equation {label} depends on {sorted(bad)}"
            )
    out = {}
    for label, p in eqs.items():
        q = p.substitute(dict.fromkeys(p.multipliers(), p.table.zero()))
        if q.is_zero():
            raise SurfaceError(f"equation {label} vanished under r-removal")
        out[label] = q
    return out


def collect_Gm(eqs: dict) -> dict:
    """Coefficients of the surviving r-parameters, per equation.

    Returns {r_name: [(label, coefficient polynomial)]}.  Aborts if any r
    occurs nonlinearly (jointly, across all r's in a monomial).
    """
    table = next(iter(eqs.values())).table
    r_names = table.of_kind(MULTIPLIER)
    out: dict = {}
    for label, p in eqs.items():
        for r_mono, g in p.coefficients_wrt(r_names):
            if not r_mono:
                continue
            if len(r_mono) > 1:
                raise SurfaceError(
                    f"equation {label} is nonlinear in the r-parameters"
                )
            grading = g.grading()
            if grading is None or grading[0] <= 0:
                raise SurfaceError("r-coefficient fails homogeneity of positive degree")
            out.setdefault(table.names[r_mono[0]], []).append((label, g))
    return out


def membership_check(gs: Sequence[Polynomial], generators: Sequence[Polynomial]) -> list:
    """One verdict per target g, in input order: True when g = sum h_i F_i
    holds exactly for cofactors h_i found by elimination, else False.

    The targets are solved together, one elimination per (weighted degree,
    sign) class.  For each generator F_i of degree <= deg, h_i is a generic
    polynomial (`ring.generic_poly`) of degree deg - deg F_i and sign
    sign*sign(F_i) in the geometric variables, one multiplier slot of the
    table per monomial, in slot (descending lex) order; the class's generic
    target T = sum t_m m over the monomials of (deg, sign) takes the slots
    after them, in the same order.  One lin_elim solves the coefficients of
    T - sum h_i F_i over the geometric monomials for the cofactor slots, by
    integer constant pivots.  The conditions it leaves are linear in the t_m
    (else SurfaceError); the cofactor slots no pivot solved are set to 0,
    which drops each condition's part free of the t_m.  g is certified when
    every condition vanishes at t_m := g's coefficient at m; the solved
    slots then give cofactors over Q[moduli], so True holds for every value
    of the moduli.  False means g is not in the ideal over Q(moduli), or
    only a non-constant pivot would show it (d*y3 against (y1, d*y3): its
    cofactor slot has coefficient d).  A class that needs more slots than
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
        conditions, targets = _solve_class(deg, sign, generators, gradings[len(gs) :], geo)
        splits = (c.coefficients_wrt(targets.values()) for c in conditions)
        # a part with no target slot holds only unsolved cofactor slots, set to 0
        rows = [[(slots, part) for slots, part in split if slots] for split in splits]
        if any(len(slots) > 1 for row in rows for slots, _ in row):
            raise SurfaceError(f"a condition of class ({deg}, {sign}) is not linear in its target slots")
        slot = {m: (table.index[name],) for m, name in targets.items()}
        for k in members:
            g = {slot[m]: c for m, c in gs[k].coefficients_wrt(geo)}
            sums = (sum_of_products(table, [(g[t], part) for t, part in row if t in g]) for row in rows)
            verdicts[k] = all(s.is_zero() for s in sums)
    return verdicts


def _solve_class(deg: int, sign: int, generators, generator_gradings, geo) -> tuple:
    """(the conditions one lin_elim leaves of T - sum h_i F_i = 0, {geometric
    monomial m: the name of its target slot t_m}) for one (degree, sign) class."""
    table = generators[0].table
    pool = table.of_kind(MULTIPLIER)
    names = iter(pool)
    hs = [generic_poly(table, (deg - d, sign * s), geo, names) for d, s in generator_gradings]
    unknowns = pool[: sum(len(h.terms) for h in hs)]
    T = generic_poly(table, (deg, sign), geo, names)
    residual = sum_of_products(table, [(table.one(), T)] + [(-h, F) for h, F in zip(hs, generators)])
    f = [c for _, c in residual.coefficients_wrt(geo)]
    # looked up on elim at call time, so that a wrapper installed on
    # elim.lin_elim (perfbench/tracing.py) also sees this call
    conditions = elim.lin_elim(f, [True] * len(f), unknowns, len(unknowns))[0] if unknowns else f
    # each term of T is t_m*m, and t_m's index is above every geometric one
    targets = {tm[:-1]: table.names[tm[-1]] for tm in T.terms}
    return conditions, targets
