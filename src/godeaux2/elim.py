"""Staged linear elimination of the coefficient system.

The primitive scans a designated subset g of the system f for polynomials of
the form c*v + h with c a nonzero rational constant, v in the target variable
list, h free of v and containing at most n target variables.  On a hit it
solves v = -h/c, substitutes everywhere, logs the dependency and restarts the
scan.  The driver climbs one ladder of moves per round: A sweeps the
r-parameters (budget n = the round number), B the g/b-parameters over the
r-free part of f (budget 22), and the fallbacks C, D, E run only after an
idle A and B; see `driver`.  It stops when f is empty, or at the first idle
round, which is a fixpoint of the ladder.

Every move works on a `_Worktable`, which keeps f in integer-primitive form
(content removed, leading coefficient positive), drops zero polynomials,
prunes exact duplicates of the normalized forms (keeping the earliest copy),
and applies a pivot by rewriting exactly the polynomials that hold its
variable.

`resolve_dependencies` turns the dependency log into a map keyed by table
index, from each eliminated variable to its image in the never-eliminated
ones; `back_substitute` applies that map to one polynomial.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from operator import contains
from typing import Iterable, Sequence

from .ring import Polynomial, RingError, mono_div

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
    f_terms: int  # terms of f after the move, summed over its polynomials
    seconds: float
    peak_kb: int = 0


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class EliminationState:
    f: list
    deps: list = field(default_factory=list)
    round_log: list = field(default_factory=list)


def strip_content_var(p: Polynomial, vi: int) -> Polynomial:
    """Divide out the largest power of the variable with table index `vi`
    dividing every term.  Sound only when the table declares that variable
    INVERTIBLE (`alpha.make_table` does so for d when j=2, where the family's
    constraint keeps d != 0).  Dividing every term by one monomial keeps their
    order, so the leading monomial is handed on."""
    if not p.terms:
        return p
    k = None
    for m in p.terms:
        e = m.count(vi)
        k = e if k is None else min(k, e)
        if k == 0:
            return p
    terms = {}
    for m, c in p.terms.items():
        i = m.index(vi)
        terms[m[:i] + m[i + k :]] = c
    return Polynomial(p.table, terms, mono_div(p.leading_mono(), (vi,) * k))


def primitive_form(p: Polynomial) -> Polynomial:
    """Integer content removed, leading (canonical) coefficient positive,
    content in the variables that `p.table` declares INVERTIBLE divided out.
    A polynomial already in that form is returned as it is, with its
    `primitive` flag set, so a second call returns at once."""
    if not p.terms or p.primitive:
        return p
    for vi in p.table.invertible:
        p = strip_content_var(p, vi)
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
    if not (g == 1 and nums is terms):
        p = Polynomial(p.table, {m: n // g for m, n in nums.items()}, lead)
    p.primitive = True
    return p


def _bucket_key(p: Polynomial) -> tuple:
    """(size, leading monomial, leading coefficient): equal polynomials have
    equal keys, and the key costs no pass over the terms."""
    lead = p.leading_mono()
    return len(p.terms), lead, p.terms[lead]


class _Worktable:
    """Mutable view of (f, g) during one move.  Slot i holds a polynomial in
    primitive form, or None once it is zero, a copy of a live polynomial, or
    used up as a pivot.

    The worktable takes the list f over as its slot list: each input is
    replaced by its primitive form, and each polynomial a rewrite replaces or
    drops leaves f at once, so nothing keeps it alive until the move ends.
    A polynomial leaves its slot and its bucket before it goes to the
    rewrite, so the rewrite gets the worktable's only reference and can free
    it before building the result.  The caller must keep its own references
    to any input it still needs.
    Copies are found by comparing term dicts only within a bucket of live
    slots that share (number of terms, leading monomial, leading
    coefficient)."""

    def __init__(self, f: list, g_flags: Sequence[bool]):
        self.polys = f
        self.in_g = list(g_flags)
        self.buckets = {}  # (size, lead, lead coefficient) -> live slots
        for i, p in enumerate(f):
            f[i] = None
            self.replace(i, primitive_form(p))

    def alive(self) -> list:
        return [p for p in self.polys if p is not None]

    def alive_flags(self) -> list:
        return [self.in_g[i] for i, p in enumerate(self.polys) if p is not None]

    def take(self, i: int):
        """Empty slot i and return what it held (None for an empty slot)."""
        old = self.polys[i]
        if old is not None:
            key = _bucket_key(old)
            bucket = self.buckets[key]
            bucket.remove(i)
            if not bucket:
                del self.buckets[key]
            self.polys[i] = None
        return old

    def replace(self, i: int, p: Polynomial) -> None:
        """Put p in slot i.  A zero, or a copy of a live polynomial (which
        then joins g if slot i was in it), leaves the slot empty."""
        self.take(i)
        if p.is_zero():
            return
        bucket = self.buckets.setdefault(_bucket_key(p), [])
        for prior in bucket:
            if self.polys[prior].terms == p.terms:
                self.in_g[prior] = self.in_g[prior] or self.in_g[i]
                return
        bucket.append(i)
        self.polys[i] = p

    def eliminate(self, i: int, v: int, rewrite) -> list:
        """Drop the pivot polynomial i and put every polynomial whose support
        holds v through `rewrite`, in primitive form; return the indices
        rewritten.  Each polynomial is taken out of the worktable before
        `rewrite` gets it.  A rewrite leaves v in no polynomial, so the slots
        to rewrite are known before the first one is."""
        self.take(i)
        rewritten = [k for k, q in enumerate(self.polys) if q is not None and v in q.support()]
        for k in rewritten:
            self.replace(k, primitive_form(rewrite(self.take(k))))
        return rewritten

    def solve(self, pivot) -> list:
        """Apply pivots until none is left and return their dependencies.

        pivot(p) gives (dependency, v, rewrite) for a polynomial of g, or
        None.  The scan restarts from the first slot after every elimination
        and skips the polynomials found pivot-free since they last changed.
        """
        deps = []
        checked = set()
        progress = True
        while progress:
            progress = False
            for i, p in enumerate(self.polys):
                if p is None or not self.in_g[i] or i in checked:
                    continue
                hit = pivot(p)
                if hit is None:
                    checked.add(i)
                    continue
                dep, v, rewrite = hit
                deps.append(dep)
                checked.difference_update(self.eliminate(i, v, rewrite))
                progress = True
                break
        return deps


def _cleared_pivot_substitution(v: int, c: int, neg_h: Polynomial):
    """q -> c^k * q(v = -h/c), k = deg_v q, for an integer pivot c*v + h.

    The result is an integer polynomial and a nonzero rational multiple of
    q(v = -h/c), so its primitive form is the same; no Fraction is made.
    Only the terms holding v are rewritten, and the rewrite rules are applied
    only when q or h holds a rule variable (a product holds one only if an
    operand does).

    This is the one substitution that does not go through
    `Polynomial.substitute`, on purpose: that would bind v to -h/c, make
    Fraction coefficients that `primitive_form` clears again, and rebuild
    the powers of the image for every polynomial, where this closure
    shares them across all the polynomials one pivot rewrites.  Routed
    through `substitute`, a cold (2,0) derivation was slower in each of 8
    interleaved pairs (median 1.87 s against 1.53 s, per-pair ratio 1.15;
    2-core machine, CPython 3.11.7), with the same artifacts.

    What the polynomials of one pivot share, and what the closure keeps:
    the terms of each power (-h)^j met; for each (j, scale) pair met, the
    row of coefficients scale * a over the terms a of (-h)^j; one int object
    per coefficient value of the rows and of the merged sums; and one tuple
    per product monomial that enters an output as a new key.  A product
    that cancels is dropped from the monomial table at once, so the closure
    pins no monomial that no output holds.  On a cold (2,0) derivation this
    took the traced peak from 14.72 to 13.55 MiB, with the same outputs.
    """
    powers = {1: neg_h.terms}  # j -> terms of (-h)^j
    rows = {}  # (j, scale) -> [scale * a for the coefficients a of (-h)^j]
    rules = neg_h.table.rules
    h_plain = neg_h.support().isdisjoint(rules)
    monos = {}  # product monomial -> the one tuple of it that outputs hold
    shared = monos.setdefault
    value = {}.setdefault  # coefficient -> the one int object of that value

    def substitute(q: Polynomial) -> Polynomial:
        table, terms = q.table, q.terms
        needs_rules = not (h_plain and q.support().isdisjoint(rules))
        held = list(compress(terms, map(contains, terms, repeat(v))))
        degrees = list(map(tuple.count, held, repeat(v)))
        k = max(degrees, default=0)
        ck = c ** k
        out = dict(terms) if ck == 1 else {m: a * ck for m, a in terms.items()}
        for m in held:
            del out[m]
        # held term m = rest * v^j, to become scale * rest * (-h)^j
        parts = []
        for m, j in zip(held, degrees):
            i = m.index(v)
            parts.append((m[:i] + m[i + j :], j, terms[m] * c ** (k - j)))
        # the worktable hands q over (see _Worktable.eliminate): dropping it
        # here frees its term dict and held monomials before the products
        del q, terms, held, degrees
        # add_terms and mono_mul inlined: a generator per held term and a
        # call per product would cost more CPU than the rows save
        get = out.get
        for rest, j, scale in parts:
            t = powers.get(j)
            if t is None:
                t = powers[j] = (neg_h ** j).terms
            row = rows.get((j, scale))
            if row is None:
                row = [scale * a for a in t.values()]
                row = rows[j, scale] = list(map(value, row, row))
            for hm, x in zip(t, row):
                pm = tuple(sorted(rest + hm))
                s = get(pm)
                if s is None:
                    out[shared(pm, pm)] = x
                else:
                    s = s + x
                    if s:
                        out[pm] = value(s, s)
                    else:
                        del out[pm]
                        monos.pop(pm, None)
        if needs_rules:
            out = table.reduce_terms(out)
        # a copy sized for its terms: a dict never shrinks after deletions
        return Polynomial(table, dict(out))

    return substitute


def _find_pivot(p: Polynomial, targets: frozenset, var_idx: dict, n: int):
    """(var index, coefficient) for the best eliminable variable, or None.

    A pivot's h holds every other target variable of p, so the budget is the
    same for every candidate and is checked first."""
    if len(p.support() & targets) - 1 > n:
        return None
    candidates = []
    for m, c in p.terms.items():
        if len(m) == 1:
            v = m[0]
            rank = var_idx.get(v)
            if rank is not None:
                candidates.append((rank, v, c))
    if not candidates:
        return None
    candidates.sort()
    for rank, v, c in candidates:
        # v must occur nowhere else in p
        if all(v not in m for m in p.terms if m != (v,)):
            return v, c
    return None


def lin_elim(f: list, g_flags: Sequence[bool], var: Sequence[str], n: int):
    """One fixpoint pass of the elimination primitive.

    Returns (new_f, new_g_flags, dependencies).  Scanning is restarted from
    the beginning of g after every elimination; no-progress is a normal
    outcome (empty dependency list).  The worktable is built inside the list
    f (see `_Worktable`): afterwards f holds only live slots and None, and
    each rewrite gets the worktable's only reference to the polynomial it
    replaces, so a caller that needs an input polynomial again keeps its own
    reference.
    """
    if n < 1:
        raise EliminationError("variable budget n must be >= 1")
    if not f:
        return [], [], []
    table = f[0].table
    # _find_pivot prefers low rank; rank order is the var sequence order
    var_idx = {table.index[name]: rank for rank, name in enumerate(var)}
    targets = frozenset(var_idx)

    def pivot(p):
        hit = _find_pivot(p, targets, var_idx, n)
        if hit is None:
            return None
        v, c = hit
        neg_h = Polynomial(table, {m: -a for m, a in p.terms.items() if m != (v,)})
        dep = Dependency(table.names[v], neg_h * Fraction(1, c))
        return dep, v, _cleared_pivot_substitution(v, c, neg_h)

    work = _Worktable(f, g_flags)
    deps = work.solve(pivot)
    return work.alive(), work.alive_flags(), deps


def stage_b_flags(f: Sequence[Polynomial], r_names: Iterable[str]) -> list:
    """Polynomials involving no r-parameter (the g/b/d-only subset)."""
    if not f:
        return []
    table = f[0].table
    r_idx = {table.index[n] for n in r_names}
    return [not (p.support() & r_idx) for p in f]


def zero_free_vars(f: Sequence[Polynomial], var: Sequence[str]):
    """Specialize every target variable still occurring in f to zero, in var
    order, logging a zero dependency for each.  The end-to-end soundness check
    (dependencies substituted into the original system give zeros) remains the
    arbiter of validity."""
    if not f:
        return [], []
    table = f[0].table
    present = set().union(*(p.support() for p in f))
    names = [name for name in var if table.index[name] in present]
    if not names:
        return list(f), []
    zero = table.zero()
    bindings = {name: zero for name in names}
    work = _Worktable([p.substitute(bindings) for p in f], [True] * len(f))
    return work.alive(), [Dependency(name, zero) for name in names]


def monomial_elim(f: list, r_var: Sequence[str], all_var: Sequence[str]):
    """Fallback moves on single-monomial entries of f.

    A pure power c*v^e forces v = 0 outright (the unique solution over a
    reduced ring), for any target variable v: an r of `r_var` or a name of
    `all_var`.  A mixed monomial containing exactly one r-parameter (to the
    first power) forces that r to 0 on the component where the geometric
    moduli stay free; either substitution kills the monomial identically, so
    soundness is unaffected.

    Never needed for (alpha_1, c=1); the reducible cases (j=2 and c=0 systems)
    stall on entries like b3*r57 and b4^2 without it.  Like `lin_elim`, it
    builds its worktable inside the list f.
    """
    if not f:
        return [], []
    table = f[0].table
    r_idx = {table.index[name] for name in r_var}
    targets = r_idx | {table.index[name] for name in all_var}

    def pivot(p):
        if len(p.terms) != 1:
            return None
        (mono, _), = p.terms.items()
        rs = [w for w in mono if w in r_idx]
        if mono and mono[0] == mono[-1] and mono[0] in targets:
            v = mono[0]  # pure power c*v^e: v = 0 is forced
        elif len(rs) == 1:
            v = rs[0]  # the one r of a mixed monomial, to the first power
        else:
            return None
        zero = {table.names[v]: table.zero()}
        return Dependency(table.names[v], table.zero()), v, lambda q: q.substitute(zero)

    work = _Worktable(f, [True] * len(f))
    deps = work.solve(pivot)
    return work.alive(), deps


def driver(
    f: Sequence[Polynomial], r_names: Sequence[str], gb_names: Sequence[str]
) -> EliminationState:
    """Run the elimination ladder, one round per budget n = 1, 2, ..., until
    f empties or a round is idle.

    Each round climbs the ladder of moves in order:
      A  r-elimination with budget n;
      B  g/b-elimination over the r-free subset, budget 22;
      C  zero single-monomial entries (see monomial_elim);
      D  the g/b sweep widened to polynomials still carrying r's;
      E  specialize every r left in f to 0 (the value the r-removal step
         gives it anyway).
    A and B run every round; a fallback (C, D, E) runs only when every move
    before it in the round was idle.  None of the fallbacks is ever reached
    for (alpha_1, c=1).  Every move logs one RoundRecord.

    The first idle round is a fixpoint of the ladder:
      - an idle round climbs to E, and E was idle there, so f holds no r;
      - nothing puts an r back: B and D substitute an h taken from that
        r-free f, C substitutes 0, and content stripping only divides;
      - so A is idle at every budget, and B, C and D have fixed budgets on
        the same f: every later round repeats the idle one;
      - for the same reason E, which leaves f free of r's, can eliminate
        something at most once.
    Each round before it eliminates at least one of the finitely many
    variables of f, none of which comes back, so the loop terminates.  The
    budget 22 of B and D is a constant of the ladder: a stall is not a claim
    that f has no linear pivot at all.

    The driver works on a copy of the list f and keeps no reference to the
    caller's list, so a caller that keeps its own list is unaffected, and a
    caller that hands its only list over lets each original polynomial be
    freed when its first rewrite replaces it.

    Raises EliminationError with the state attached as `err.state` when a
    round is idle with f nonempty; the message names the idle round and the
    residual count.
    """

    def sweep(var, flags):
        def move(f, n):
            f, _, deps = lin_elim(f, flags(f), var, n)
            return f, deps

        return move

    def everywhere(f):
        return [True] * len(f)

    ladder = (
        # (stage, budget: None for the round number, fallback, move)
        ("A", None, False, sweep(r_names, everywhere)),
        ("B", STAGE_B_BUDGET, False, sweep(gb_names, lambda f: stage_b_flags(f, r_names))),
        ("C", 0, True, lambda f, n: monomial_elim(f, r_names, gb_names)),
        ("D", STAGE_B_BUDGET, True, sweep(gb_names, everywhere)),
        ("E", 0, True, lambda f, n: zero_free_vars(f, r_names)),
    )
    state = EliminationState(list(f))
    del f
    for rnd in count(1):
        idle = True
        for stage, budget, fallback, move in ladder:
            if fallback and not idle:
                break
            n = rnd if budget is None else budget
            t0 = time.monotonic()
            state.f, new = move(state.f, n)
            seconds = time.monotonic() - t0
            state.deps.extend(new)
            f_terms = sum(len(p.terms) for p in state.f)
            state.round_log.append(
                RoundRecord(stage, n, len(new), len(state.f), f_terms, seconds, _peak_kb())
            )
            if not state.f:
                return state
            idle = idle and not new
        if idle:
            err = EliminationError(
                f"elimination stalled: the ladder reached a fixpoint at idle round {rnd} "
                f"with {len(state.f)} residual polynomials"
            )
            err.state = state
            raise err


def survivors(param_names: Iterable[str], deps: Sequence[Dependency]) -> list:
    gone = {d.var for d in deps}
    return [p for p in param_names if p not in gone]


def resolve_dependencies(deps: Sequence[Dependency]) -> dict:
    """Fully resolved substitution map, keyed by table index: every eliminated
    variable expressed in never-eliminated variables (reverse elimination
    order)."""
    resolved: dict = {}
    for dep in reversed(deps):
        resolved[dep.expr.table.index[dep.var]] = back_substitute(dep.expr, resolved)
    return resolved


def back_substitute(p: Polynomial, resolved: dict) -> Polynomial:
    """p with every variable of a resolved map (`resolve_dependencies`)
    replaced by its image.  Raises EliminationError, naming the survivors,
    if an eliminated variable is left in the result."""
    names = p.table.names
    need = p.support() & resolved.keys()
    q = p.substitute({names[v]: resolved[v] for v in need}) if need else p
    left = q.support() & resolved.keys()
    if left:
        raise EliminationError(f"eliminated variables survive: {sorted(names[v] for v in left)}")
    return q
