"""Surface equations, the r-removal step, and specialized ideal membership.

The 21 equations live on the nine geometric variables: 15 quadric relations
v_i*v_j = sum_k l_ij^k v_k over the section vector v = (1, z1, z2, z3, z4, t)
and the 6 rows of alpha*v.  Every equation is weighted-homogeneous with a pure
involution sign; the five relations of weighted degree <= 5 come from rows
2..6 of alpha*v and never involve the multipliers, hence no r-parameters.

Surviving r's enter the higher-degree equations linearly, as r_m times a
coefficient polynomial; those coefficients are checked to lie in the ideal of
the low-degree equations at random rational specializations of the surviving
parameters (a nonzero remainder at any point refutes membership symbolically).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .alpha import AlphaCase, SymPolyMatrix
from .rc import PAIRS
from .ring import MULTIPLIER, Polynomial, RingError

GB_SPAIR_CAP = 20000
GB_TIME_CAP = 60.0


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
# ---------------------------------------------------------------------------
# Buchberger and specialized ideal membership
#
# Groebner work runs on dense exponent tuples over the geometric variables
# only (text polynomials are converted in and out), with a max-heap of pending
# monomials during reduction.  The canonical order restricted to geometric
# monomials is plain total-degree grevlex.

import heapq as _heapq


def _dense_key(mono: tuple) -> tuple:
    # min-heap friendly: smaller key = larger monomial in grevlex
    return (-sum(mono), tuple(reversed(mono)))


def _dense_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _dense_div(a: tuple, b: tuple):
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def _dense_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


class _DensePoly:
    """Terms as {dense exponent tuple: Fraction}, with cached leading data."""

    __slots__ = ("terms", "lm", "lc")

    def __init__(self, terms: dict):
        self.terms = terms
        self.lm = min(terms, key=_dense_key) if terms else None
        self.lc = terms[self.lm] if terms else None


def _to_dense(p: Polynomial, nvars: int) -> _DensePoly:
    terms = {}
    for m, c in p.terms.items():
        exp = [0] * nvars
        for v, e in m:
            if v >= nvars:
                raise SurfaceError("polynomial is not purely geometric")
            exp[v] = e
        terms[tuple(exp)] = Fraction(c)
    return _DensePoly(terms)


def _heap_reduce(p: _DensePoly, basis) -> _DensePoly:
    """Full remainder of p modulo basis (leading-term division)."""
    work = dict(p.terms)
    heap = [(_dense_key(m), m) for m in work]
    _heapq.heapify(heap)
    rem: dict = {}
    lts = [(g.lm, g.lc, g.terms) for g in basis]
    while heap:
        _, m = _heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        hit = None
        for gm, gc, gterms in lts:
            q = _dense_div(m, gm)
            if q is not None:
                hit = (q, gc, gterms)
                break
        if hit is None:
            rem[m] = c
            del work[m]
            continue
        q, gc, gterms = hit
        factor = c / gc
        for gm2, gc2 in gterms.items():
            mm = _dense_mul(q, gm2)
            old = work.get(mm)
            if old is None:
                nv = -factor * gc2
                if nv:
                    work[mm] = nv
                    _heapq.heappush(heap, (_dense_key(mm), mm))
            else:
                nv = old - factor * gc2
                if nv:
                    work[mm] = nv
                else:
                    del work[mm]
    return _DensePoly(rem)


def _spoly(f: _DensePoly, g: _DensePoly) -> _DensePoly:
    lcm = _dense_lcm(f.lm, g.lm)
    qf = _dense_div(lcm, f.lm)
    qg = _dense_div(lcm, g.lm)
    terms: dict = {}
    for m, c in f.terms.items():
        terms[_dense_mul(qf, m)] = c / f.lc
    for m, c in g.terms.items():
        mm = _dense_mul(qg, m)
        old = terms.get(mm)
        nv = (old if old is not None else 0) - c / g.lc
        if nv:
            terms[mm] = nv
        elif old is not None:
            del terms[mm]
    return _DensePoly(terms)


class GBLimit(Exception):
    pass


class _DenseBuchberger:
    """Pairs are processed in ascending weighted lcm degree; for a
    weighted-homogeneous input, pairs beyond `degree_bound` cannot contribute
    basis elements of degree <= bound, so they are dropped (truncated basis,
    sufficient to reduce forms of degree <= bound)."""

    def __init__(self, gens, s_pair_cap, time_cap, weights, degree_bound=None):
        self.basis = [g for g in gens if g.terms]
        self.s_pair_cap = s_pair_cap
        self.time_cap = time_cap
        self.weights = weights
        self.degree_bound = degree_bound
        self.start = time.monotonic()
        self.pairs = []
        self.pair_set = set()
        for i in range(len(self.basis)):
            for j in range(i + 1, len(self.basis)):
                self._push_pair(i, j)

    def _wdeg(self, mono):
        return sum(e * w for e, w in zip(mono, self.weights))

    def _push_pair(self, i, j):
        lcm = _dense_lcm(self.basis[i].lm, self.basis[j].lm)
        wd = self._wdeg(lcm)
        if self.degree_bound is not None and wd > self.degree_bound:
            return
        _heapq.heappush(self.pairs, (wd, _dense_key(lcm), i, j))
        self.pair_set.add((i, j))

    def _chain(self, i, j, lcm) -> bool:
        for k in range(len(self.basis)):
            if k == i or k == j:
                continue
            if _dense_div(lcm, self.basis[k].lm) is None:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in self.pair_set and b not in self.pair_set:
                return True
        return False

    def run(self):
        processed = 0
        while self.pairs:
            if processed > self.s_pair_cap:
                raise GBLimit(f"S-pair cap hit ({processed})")
            if time.monotonic() - self.start > self.time_cap:
                raise GBLimit("time cap hit")
            _, _, i, j = _heapq.heappop(self.pairs)
            if (i, j) not in self.pair_set:
                continue
            self.pair_set.discard((i, j))
            processed += 1
            f, g = self.basis[i], self.basis[j]
            lcm = _dense_lcm(f.lm, g.lm)
            if lcm == _dense_mul(f.lm, g.lm):
                continue  # product criterion: coprime leading terms
            if self._chain(i, j, lcm):
                continue
            r = _heap_reduce(_spoly(f, g), self.basis)
            if not r.terms:
                continue
            r = _DensePoly({m: c / r.lc for m, c in r.terms.items()})
            k = len(self.basis)
            self.basis.append(r)
            for t in range(k):
                self._push_pair(t, k)
        return self.basis

    def self_check(self):
        for i in range(len(self.basis)):
            for j in range(i + 1, len(self.basis)):
                if time.monotonic() - self.start > self.time_cap:
                    raise GBLimit("time cap hit during self-check")
                lcm = _dense_lcm(self.basis[i].lm, self.basis[j].lm)
                if self.degree_bound is not None and self._wdeg(lcm) > self.degree_bound:
                    continue
                r = _heap_reduce(_spoly(self.basis[i], self.basis[j]), self.basis)
                if r.terms:
                    raise SurfaceError("Buchberger self-check failed")


def buchberger(
    gens,
    s_pair_cap: int = GB_SPAIR_CAP,
    time_cap: float = GB_TIME_CAP,
    self_check: bool = True,
    degree_bound: int = None,
) -> list:
    """Groebner basis (canonical order) of geometric-variable polynomials.

    Returns the internal dense representation, suitable for reduce_mod.
    Raises GBLimit at the S-pair or time cap.  On success the basis is
    self-checked: every S-polynomial (within the degree bound, when one is
    given) reduces to zero.

    With `degree_bound` and weighted-homogeneous input the result is the
    truncated basis through that weighted degree, which is exactly what
    reducing a form of degree <= bound requires.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    table = gens[0].table
    nv = table.geo_cut
    if degree_bound is not None:
        for g in gens:
            if g.weighted_degree() is None:
                raise SurfaceError("degree-bounded basis needs homogeneous input")
    dense = [_to_dense(g, nv) for g in gens]
    weights = table.weights[:nv]
    engine = _DenseBuchberger(dense, s_pair_cap, time_cap, weights, degree_bound)
    basis = engine.run()
    if self_check:
        engine.self_check()
    return basis


def reduce_mod(p: Polynomial, basis) -> Polynomial:
    """Remainder of a geometric-variable polynomial modulo a dense basis."""
    table = p.table
    if not basis:
        return p
    rem = _heap_reduce(_to_dense(p, table.geo_cut), basis)
    terms = {}
    for m, c in rem.terms.items():
        mono = tuple((v, e) for v, e in enumerate(m) if e)
        terms[mono] = c
    return Polynomial(table, table.reduce_terms(terms))


def random_rational(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-50, 51) if n])
    den = rng.choice([n for n in range(1, 51)])
    return Fraction(num, den)


def specialize_params(
    polys: Iterable[Polynomial], params: Sequence[str], seed: int
) -> tuple:
    """Random rational values for the parameters, nonzero by construction
    (so the conic modulus d never degenerates)."""
    rng = random.Random(seed)
    values = {p: random_rational(rng) for p in params}
    return values, [p.substitute(values) for p in polys]


def membership_check(
    g: Polynomial,
    generators: Sequence[Polynomial],
    params: Sequence[str],
    seed: int = 0,
    rounds: int = 3,
    s_pair_cap: int = GB_SPAIR_CAP,
    time_cap: float = GB_TIME_CAP,
) -> str:
    """'verified' / 'refuted' / 'inconclusive' membership of g in <generators>
    at `rounds` random rational specializations of the parameters.

    A nonzero remainder at any specialization proves symbolic non-membership;
    zero remainders at all seeds give the probabilistic 'verified'.
    """
    if not generators:
        raise SurfaceError("membership check needs at least one generator")
    hit_cap = False
    bound = g.weighted_degree()
    for k in range(rounds):
        values, gens = specialize_params(generators, params, seed + 1000003 * k)
        gs = g.substitute(values)
        try:
            basis = buchberger(gens, s_pair_cap, time_cap, degree_bound=bound)
        except GBLimit:
            hit_cap = True
            continue
        if not reduce_mod(gs, basis).is_zero():
            return "refuted"
    return "inconclusive" if hit_cap else "verified"
