"""Staged linear elimination of the coefficient system.

The primitive scans a designated subset g of the system f for polynomials of
the form c*v + h with c a nonzero rational constant, v in the target variable
list, h free of v and containing at most n target variables.  On a hit it
solves v = -h/c, substitutes everywhere, logs the dependency and restarts the
scan.  The driver alternates this over the r-parameters (budget n = 1, 2, ...)
with sweeps over the g/b-parameters restricted to the r-free part of f
(budget 22), until f is empty or the round cap is reached.

Polynomials in f are kept in integer-primitive form (content removed, leading
coefficient positive); zero polynomials are dropped and exact duplicates of
the normalized forms are pruned, keeping the earliest copy.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .ring import Polynomial, RingError, add_terms, mono_div, mono_mul

STAGE_B_BUDGET = 22


class EliminationError(RingError):
    pass


@dataclass(frozen=True)
class Dependency:
    var: str
    expr: Polynomial  # free of var; may involve later-eliminated variables


@dataclass
class RoundRecord:
    stage: str
    n: int
    eliminated: int
    f_size: int
    seconds: float
    peak_kb: int = 0


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class EliminationState:
    f: list
    deps: list = field(default_factory=list)
    round_log: list = field(default_factory=list)

    @property
    def eliminated(self) -> set:
        return {d.var for d in self.deps}


def strip_content_var(p: Polynomial, var: str) -> Polynomial:
    """Divide out the largest power of `var` dividing every term.  Sound only
    when the variable is invertible on the family (the j=2 constraint forces
    d != 0).  Dividing every term by one monomial keeps their order, so the
    leading monomial is handed on."""
    if not p.terms:
        return p
    vi = p.table.index[var]
    k = None
    for m in p.terms:
        e = 0
        for w, ee in m:
            if w == vi:
                e = ee
                break
        k = e if k is None else min(k, e)
        if k == 0:
            return p
    terms = {}
    for m, c in p.terms.items():
        nm = tuple(
            (w, ee - k) if w == vi else (w, ee) for w, ee in m if not (w == vi and ee == k)
        )
        terms[nm] = c
    return Polynomial(p.table, terms, mono_div(p.leading_mono(), ((vi, k),)))


def primitive_form(p: Polynomial, invertible: tuple = ()) -> Polynomial:
    """Integer content removed, leading (canonical) coefficient positive,
    content in the invertible variables divided out.  A polynomial already in
    that form is returned as it is."""
    if not p.terms:
        return p
    for var in invertible:
        p = strip_content_var(p, var)
    terms = p.terms
    nums = terms
    for c in terms.values():
        if type(c) is not int:
            den = math.lcm(*(c.denominator for c in terms.values()))
            nums = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
            break
    g = math.gcd(*nums.values())
    if g == 0:
        return p.table.zero()
    lead = p.leading_mono()
    if nums[lead] < 0:
        g = -g
    if g == 1 and nums is terms:
        return p
    return Polynomial(p.table, {m: n // g for m, n in nums.items()}, lead)


def _poly_key(p: Polynomial):
    return frozenset(p.terms.items())


class _Worktable:
    """Mutable view of (f, g) during one lin_elim call."""

    def __init__(self, f: Sequence[Polynomial], g_flags: Sequence[bool], invertible: tuple = ()):
        self.polys = []
        self.in_g = []
        self.supports = []
        self.by_key = {}
        self.invertible = tuple(invertible)
        for p, flag in zip(f, g_flags):
            self._append(primitive_form(p, self.invertible), flag)

    def _append(self, p: Polynomial, flag: bool) -> None:
        if p.is_zero():
            return
        key = _poly_key(p)
        prior = self.by_key.get(key)
        if prior is not None and self.polys[prior] is not None:
            if flag and not self.in_g[prior]:
                self.in_g[prior] = True
            return
        self.by_key[key] = len(self.polys)
        self.polys.append(p)
        self.in_g.append(flag)
        self.supports.append(p.support())

    def alive(self) -> list:
        return [p for p in self.polys if p is not None]

    def alive_flags(self) -> list:
        return [self.in_g[i] for i, p in enumerate(self.polys) if p is not None]

    def kill(self, i: int) -> None:
        key = _poly_key(self.polys[i])
        if self.by_key.get(key) == i:
            del self.by_key[key]
        self.polys[i] = None
        self.supports[i] = None

    def replace(self, i: int, p: Polynomial) -> None:
        old_key = _poly_key(self.polys[i])
        if self.by_key.get(old_key) == i:
            del self.by_key[old_key]
        if p.is_zero():
            self.polys[i] = None
            self.supports[i] = None
            return
        key = _poly_key(p)
        prior = self.by_key.get(key)
        if prior is not None and prior != i and self.polys[prior] is not None:
            if self.in_g[i] and not self.in_g[prior]:
                self.in_g[prior] = True
            self.polys[i] = None
            self.supports[i] = None
            return
        self.by_key[key] = i
        self.polys[i] = p
        self.supports[i] = p.support()


def _cleared_pivot_substitution(v: int, c: int, neg_h: Polynomial):
    """q -> c^k * q(v = -h/c), k = deg_v q, for an integer pivot c*v + h.

    The result is an integer polynomial and a nonzero rational multiple of
    q(v = -h/c), so its primitive form is the same; no Fraction is made.
    """
    powers = {1: neg_h.terms}  # j -> terms of (-h)^j

    def substitute(q: Polynomial) -> Polynomial:
        table = q.table
        split = []
        k = 0
        for m, a in q.terms.items():
            j = 0
            for w, e in m:
                if w == v:
                    j = e
                    break
            split.append((m, j, a))
            if j > k:
                k = j
        out: dict = {}
        for m, j, a in split:
            scale = a * c ** (k - j)
            if not j:
                products = ((m, scale),)
            else:
                t = powers.get(j)
                if t is None:
                    t = powers[j] = (neg_h ** j).terms
                rest = tuple(ve for ve in m if ve[0] != v)
                products = ((mono_mul(rest, hm), scale * hc) for hm, hc in t.items())
            add_terms(out, products)
        return Polynomial(table, table.reduce_terms(out))

    return substitute


def _find_pivot(p: Polynomial, support, var_idx: dict, n: int):
    """(var index, coefficient) for the best eliminable variable, or None."""
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


def lin_elim(
    f: Sequence[Polynomial],
    g_flags: Sequence[bool],
    var: Sequence[str],
    n: int,
    invertible: tuple = (),
):
    """One fixpoint pass of the elimination primitive.

    Returns (new_f, new_g_flags, dependencies).  Scanning is restarted from
    the beginning of g after every elimination; no-progress is a normal
    outcome (empty dependency list).
    """
    if n < 1:
        raise EliminationError("variable budget n must be >= 1")
    if not f:
        return [], [], []
    table = f[0].table
    # _find_pivot prefers low rank; rank order is the var sequence order
    var_idx = {table.index[name]: rank for rank, name in enumerate(var)}
    work = _Worktable(f, g_flags, invertible)
    deps = []
    checked = set()
    progress = True
    while progress:
        progress = False
        for i, p in enumerate(work.polys):
            if p is None or not work.in_g[i] or i in checked:
                continue
            hit = _find_pivot(p, work.supports[i], var_idx, n)
            if hit is None:
                checked.add(i)
                continue
            v, c = hit
            neg_h = Polynomial(table, {m: -a for m, a in p.terms.items() if m != ((v, 1),)})
            deps.append(Dependency(table.names[v], neg_h * Fraction(1, c)))
            substitute = _cleared_pivot_substitution(v, c, neg_h)
            work.kill(i)
            checked.discard(i)
            for k, q in enumerate(work.polys):
                if q is None or work.supports[k] is None or v not in work.supports[k]:
                    continue
                nq = primitive_form(substitute(q), work.invertible)
                work.replace(k, nq)
                checked.discard(k)
            progress = True
            break
    return work.alive(), work.alive_flags(), deps


def stage_b_flags(f: Sequence[Polynomial], r_names: Iterable[str]) -> list:
    """Polynomials involving no r-parameter (the g/b/d-only subset)."""
    if not f:
        return []
    table = f[0].table
    r_idx = {table.index[n] for n in r_names}
    return [not (p.support() & r_idx) for p in f]


def zero_free_vars(f: Sequence[Polynomial], var: Sequence[str], invertible: tuple = ()):
    """Specialize every target variable still occurring in f to zero, in var
    order, logging a zero dependency for each.  The end-to-end soundness check
    (dependencies substituted into the original system give zeros) remains the
    arbiter of validity."""
    if not f:
        return [], []
    table = f[0].table
    present = set()
    for p in f:
        present |= p.support()
    names = [name for name in var if table.index[name] in present]
    if not names:
        return list(f), []
    zero = table.zero()
    bindings = {name: zero for name in names}
    deps = [Dependency(name, zero) for name in names]
    out = []
    for p in f:
        q = primitive_form(p.substitute(bindings), tuple(invertible))
        if not q.is_zero():
            out.append(q)
    # dedup exact repeats, first kept
    seen = set()
    kept = []
    for p in out:
        key = _poly_key(p)
        if key not in seen:
            seen.add(key)
            kept.append(p)
    return kept, deps


def monomial_elim(
    f: Sequence[Polynomial],
    r_var: Sequence[str],
    all_var: Sequence[str] = (),
    invertible: tuple = (),
):
    """Fallback moves on single-monomial entries of f.

    A pure power c*v^e forces v = 0 outright (the unique solution over a
    reduced ring), for any target variable v.  A mixed monomial containing
    exactly one r-parameter (to the first power) forces that r to 0 on the
    component where the geometric moduli stay free; either substitution kills
    the monomial identically, so soundness is unaffected.

    Never needed for (alpha_1, c=1); the reducible cases (j=2 and c=0 systems)
    stall on entries like b3*r57 and b4^2 without it.
    """
    if not f:
        return [], []
    table = f[0].table
    r_rank = {table.index[name]: rank for rank, name in enumerate(r_var)}
    any_rank = dict(r_rank)
    for rank, name in enumerate(all_var):
        any_rank.setdefault(table.index[name], len(r_rank) + rank)
    work = _Worktable(f, [True] * len(f), invertible)
    deps = []
    progress = True
    while progress:
        progress = False
        for i, p in enumerate(work.polys):
            if p is None or len(p.terms) != 1:
                continue
            (mono, _), = p.terms.items()
            v = None
            if len(mono) == 1 and mono[0][0] in any_rank:
                v = mono[0][0]  # pure power c*v^e: v = 0 is forced
            else:
                hits = [(r_rank[w], w) for w, e in mono if w in r_rank and e == 1]
                if hits and sum(1 for w, _ in mono if w in r_rank) == 1:
                    v = min(hits)[1]
            if v is None:
                continue
            name = table.names[v]
            deps.append(Dependency(name, table.zero()))
            work.kill(i)
            for k, q in enumerate(work.polys):
                if q is None or v not in work.supports[k]:
                    continue
                nq = primitive_form(q.substitute({name: table.zero()}), work.invertible)
                work.replace(k, nq)
            progress = True
            break
    return work.alive(), deps


def driver(
    f: Sequence[Polynomial],
    r_names: Sequence[str],
    gb_names: Sequence[str],
    max_rounds: int = 10,
    invertible: tuple = (),
) -> EliminationState:
    """Alternate stage A (r-elimination, n = 1, 2, ...) with stage B
    (g/b-elimination over the r-free subset, n = 22) until f empties.

    When a full A+B round makes no progress, three fallbacks fire in order:
    C zeroes single-monomial entries (see monomial_elim), D widens the g/b
    sweep to polynomials still carrying r's, and E (once) specializes every r
    left in f to 0.  None of them is ever reached for (alpha_1, c=1).

    Raises EliminationError with the residual attached when the round cap is
    exceeded with a nonempty system.
    """
    state = EliminationState(list(f))
    zeroed_rs = False
    for n in range(1, max_rounds + 1):
        t0 = time.monotonic()
        state.f, flags, new_a = lin_elim(
            state.f, [True] * len(state.f), r_names, n, invertible
        )
        state.deps.extend(new_a)
        state.round_log.append(
            RoundRecord("A", n, len(new_a), len(state.f), time.monotonic() - t0, _peak_kb())
        )
        if not state.f:
            return state
        t0 = time.monotonic()
        flags = stage_b_flags(state.f, r_names)
        state.f, _, new_b = lin_elim(state.f, flags, gb_names, STAGE_B_BUDGET, invertible)
        state.deps.extend(new_b)
        state.round_log.append(
            RoundRecord("B", STAGE_B_BUDGET, len(new_b), len(state.f), time.monotonic() - t0, _peak_kb())
        )
        if not state.f:
            return state
        if not new_a and not new_b:
            t0 = time.monotonic()
            state.f, new_c = monomial_elim(state.f, r_names, gb_names, invertible)
            state.deps.extend(new_c)
            state.round_log.append(
                RoundRecord("C", 0, len(new_c), len(state.f), time.monotonic() - t0, _peak_kb())
            )
            if not state.f:
                return state
            if not new_c:
                # widen the g/b sweep to polynomials still carrying r's
                t0 = time.monotonic()
                state.f, _, new_d = lin_elim(
                    state.f, [True] * len(state.f), gb_names, STAGE_B_BUDGET, invertible
                )
                state.deps.extend(new_d)
                state.round_log.append(
                    RoundRecord(
                        "D", STAGE_B_BUDGET, len(new_d), len(state.f),
                        time.monotonic() - t0, _peak_kb(),
                    )
                )
                if not state.f:
                    return state
                if not new_d and not zeroed_rs:
                    # last resort, once: specialize every free r still in f
                    # to 0 (the value the r-removal step takes anyway) and
                    # let the ladder continue on the g/b variables
                    zeroed_rs = True
                    t0 = time.monotonic()
                    state.f, new_e = zero_free_vars(state.f, r_names, invertible)
                    state.deps.extend(new_e)
                    state.round_log.append(
                        RoundRecord("E", 0, len(new_e), len(state.f), time.monotonic() - t0, _peak_kb())
                    )
                    if not state.f:
                        return state
    err = EliminationError(
        f"elimination stalled with {len(state.f)} residual polynomials "
        f"after {max_rounds} rounds"
    )
    err.state = state
    raise err


def survivors(param_names: Iterable[str], deps: Sequence[Dependency]) -> list:
    gone = {d.var for d in deps}
    return [p for p in param_names if p not in gone]


def resolve_dependencies(deps: Sequence[Dependency]) -> dict:
    """Fully resolved substitution map: every eliminated variable expressed in
    never-eliminated variables (reverse elimination order)."""
    resolved: dict = {}
    for dep in reversed(deps):
        need = dep.expr.variables() & resolved.keys()
        if need:
            resolved[dep.var] = dep.expr.substitute({k: resolved[k] for k in need})
        else:
            resolved[dep.var] = dep.expr
    return resolved


def back_substitute(obj, deps: Sequence[Dependency], resolved: Optional[dict] = None):
    """Substitute the full dependency chain into a Polynomial, a matrix, a
    dict of polynomials, or a list of polynomials."""
    if resolved is None:
        resolved = resolve_dependencies(deps)
    gone = {d.var for d in deps}

    def one(p: Polynomial) -> Polynomial:
        need = p.variables() & resolved.keys()
        q = p.substitute({k: resolved[k] for k in need}) if need else p
        left = q.variables() & gone
        if left:
            raise EliminationError(f"eliminated variables survive: {sorted(left)}")
        return q

    from .alpha import SymPolyMatrix  # local import to avoid a cycle

    if isinstance(obj, Polynomial):
        return one(obj)
    if isinstance(obj, SymPolyMatrix):
        return obj.map_entries(one)
    if isinstance(obj, dict):
        return {k: one(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(one(v) for v in obj)
    raise TypeError(f"cannot back-substitute into {type(obj).__name__}")
