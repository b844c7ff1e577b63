"""Exact sparse multivariate polynomials over a table of weighted, signed variables.

Coefficients are arbitrary-precision rationals kept in lowest terms (plain int
where integral, fractions.Fraction otherwise); there is no floating point
anywhere: a number meets a polynomial (in +, -, * and ==) only through
`VariableTable.const`, which refuses anything but int and Fraction.
A monomial is the non-decreasing tuple of its variable indices, each index
repeated by its exponent (x0^2*x3 is (0, 0, 3)); () is the unit monomial.
Products, divisions, supports and block splits are then tuple sorts, slices,
counts and set operations that run in C.  `exponents` is the one decoder to
(index, exponent) pairs, for text and JSON output.  All text output and every
"leading term" choice use the canonical order described below.

`Polynomial.grading()` is the one grading query: the (weighted degree, sigma
sign) pair that every term shares, None when two terms differ in either.

A Polynomial's `terms` dict is never mutated after construction: every
operation builds a new dict.  The per-polynomial caches (leading monomial,
support, hash, primitive-form marker) rely on this.

`Polynomial.substitute` is the one substitution: it is simultaneous (every
bound variable is replaced at once and images are never substituted again),
so point evaluation, zeroing parameters and coordinate swaps all go through it.

Algebraic extensions (i = sqrt(-1), quartic roots, sqrt(-15)) are realized as
extra weight-0 variables carrying a monic power rewrite rule v^k -> p with p
free of v; products and substitutions are reduced to the rewrite fixpoint.

Weight-0 parameters rule out grading the term order by weighted degree (it
would not be well founded), so the canonical order is the elimination block
order: geometric variables (a table prefix) compared by total-degree grevlex,
ties broken by total-degree grevlex on the parameter block.  This is a genuine
term order and renders parameters as trailing coefficients in text output.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, filterfalse
from numbers import Number
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

Mono = tuple  # tuple[int, ...]: variable indices, non-decreasing, with repeats
Coeff = Union[int, Fraction]
Scalar = (int, Fraction)

GEOMETRIC = "geometric"
PARAMETER = "parameter"
MULTIPLIER = "multiplier"  # a parameter of the rank-condition multiplier ansatz
ALGEBRAIC = "algebraic"

UNIT_MONO: Mono = ()
_REVERSED = itemgetter(slice(None, None, -1))


class RingError(ValueError):
    pass


class TableMismatchError(RingError):
    pass


class ZeroPolynomialError(RingError):
    pass


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


def mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None when b does not divide a."""
    if not b:
        return a
    out = list(a)
    for v in b:
        try:
            out.remove(v)
        except ValueError:
            return None
    return tuple(out)


def exponents(m: Mono) -> tuple:
    """The (variable index, exponent) pairs of a monomial, by index."""
    return tuple((v, m.count(v)) for v in dict.fromkeys(m))


def mono_split(m: Mono, cut: int) -> tuple:
    """(geometric part, parameter part) at the table's geometric prefix."""
    i = bisect_left(m, cut)
    return m[:i], m[i:]


def mono_key(m: Mono, cut: int) -> tuple:
    """Sort key of the canonical order: the larger monomial has the smaller key.

    In each block (geometric, then parameter) a higher total degree comes
    first; at equal degree, reading the indices from the top down, the first
    difference decides: the monomial with the higher index there is the
    smaller one (reverse lex).
    """
    if m and m[0] < cut:
        geo, par = mono_split(m, cut)
        return (-len(geo), geo[::-1], -len(par), par[::-1])
    return (0, UNIT_MONO, -len(m), m[::-1])  # no geometric part


def sorted_monos(monos: Iterable[Mono], table: "VariableTable") -> list:
    """Monomials in canonical descending order."""
    cut = table.geo_cut
    return sorted(monos, key=lambda m: mono_key(m, cut))


def add_terms(out: dict, products: Iterable) -> None:
    """Add (monomial, coefficient) pairs into a term dict, dropping zero sums."""
    get = out.get
    for m, c in products:
        s = get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]


def add_products(out: dict, a: Mapping, b: Mapping) -> dict:
    """Add the product of the term dicts a and b into `out`, dropping zero
    sums, and return `out`; the rewrite rules are not applied."""
    if len(a) > len(b):
        a, b = b, a
    # add_terms inlined: fed a generator of products it measured about 6%
    # slower on products of the (alpha_1, c=1) entries (CPython 3.11)
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _bound_image(powers: dict, key: Mono) -> dict:
    """The terms of the product of the images of the bound part `key` of a
    monomial.  `powers` maps each one-variable key to its image's terms (so
    an exponent-1 image is taken as it is) and keeps every longer key built
    here, each from its prefix."""
    t = powers.get(key)
    if t is None:
        t = powers[key] = add_products({}, _bound_image(powers, key[:-1]), powers[key[-1:]])
    return t


def _as_coeff(c) -> Coeff:
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise RingError(f"not an exact rational coefficient: {c!r}")


def _coeff_div(a: Coeff, b: Coeff) -> Coeff:
    q = Fraction(a) / Fraction(b)
    return int(q) if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# variable tables


@dataclass(frozen=True)
class RewriteRule:
    """Power rewrite v^power -> replacement, with replacement free of v.

    The replacement is given name-based as {((name, exp), ...): coeff} so rules
    can be declared before the table exists.
    """

    variable: str
    power: int
    replacement: Mapping


class VariableTable:
    """Ordered table of variables with weights, sigma-signs, kinds and rules.

    The ordering is fixed at construction and defines the canonical monomial
    order.  Tables compare by identity: polynomials from different tables never
    mix.
    """

    __slots__ = (
        "names",
        "weights",
        "signs",
        "kinds",
        "index",
        "rules",
        "geo_cut",
        "_first_alg",
        "_var_cache",
    )

    def __init__(self, entries: Sequence, rules: Sequence[RewriteRule] = ()):
        names, weights, signs, kinds = [], [], [], []
        for name, weight, sign, kind in entries:
            if weight < 0:
                raise RingError(f"negative weight for {name}")
            if sign not in (1, -1):
                raise RingError(f"sign of {name} must be +1 or -1")
            if kind not in (GEOMETRIC, PARAMETER, MULTIPLIER, ALGEBRAIC):
                raise RingError(f"unknown kind {kind!r} for {name}")
            if kind != GEOMETRIC and (weight != 0 or sign != 1):
                raise RingError(f"{kind} variable {name} must have weight 0, sign +1")
            names.append(name)
            weights.append(weight)
            signs.append(sign)
            kinds.append(kind)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        cut = sum(1 for k in kinds if k == GEOMETRIC)
        if any(k == GEOMETRIC for k in kinds[cut:]):
            raise RingError("geometric variables must form a prefix of the table")
        self.geo_cut = cut
        self.names = tuple(names)
        self.weights = tuple(weights)
        self.signs = tuple(signs)
        self.kinds = tuple(kinds)
        self.index = {n: i for i, n in enumerate(names)}
        self._var_cache = {}  # name -> the term dict of the variable
        self.rules = {}
        alg = [i for i, k in enumerate(kinds) if k == ALGEBRAIC]
        self._first_alg = min(alg) if alg else len(names)
        for rule in rules:
            vi = self.index[rule.variable]
            if self.kinds[vi] != ALGEBRAIC:
                raise RingError(f"rewrite rule on non-algebraic variable {rule.variable}")
            if rule.power < 2:
                raise RingError("rewrite power must be >= 2")
            terms = {}
            for named_mono, coeff in rule.replacement.items():
                mono = tuple(sorted(v for n, e in named_mono for v in (self.index[n],) * e))
                if vi in mono:
                    raise RingError(f"rule replacement for {rule.variable} involves itself")
                terms[mono] = _as_coeff(coeff)
            self.rules[vi] = (rule.power, terms)

    def of_kind(self, kind: str) -> list:
        """Names of the variables of one kind, in table order."""
        return [n for n, k in zip(self.names, self.kinds) if k == kind]

    # var, zero and one build a new Polynomial on each call (term dicts are
    # never mutated, so a variable's is shared): a Polynomial cached here
    # would point back at the table, and the cycle would leave every
    # discarded table to the cyclic garbage collector
    def var(self, name: str) -> "Polynomial":
        terms = self._var_cache.get(name)
        if terms is None:
            terms = self._var_cache[name] = {(self.index[name],): 1}
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {UNIT_MONO: 1})

    def const(self, c) -> "Polynomial":
        c = _as_coeff(c)
        return Polynomial(self, {UNIT_MONO: c} if c else {})

    def mono_grading(self, mono: Mono) -> tuple:
        """(weighted degree, sigma sign) of a monomial."""
        weights, signs = self.weights, self.signs
        degree, sign = 0, 1
        for v in mono:
            degree += weights[v]
            sign *= signs[v]
        return degree, sign

    def mono_str(self, mono: Mono) -> str:
        # parameter factors render first, as coefficients of the geometric part
        geo, par = mono_split(mono, self.geo_cut)
        return "*".join(
            self.names[v] if e == 1 else f"{self.names[v]}^{e}" for v, e in exponents(par + geo)
        )

    def has_reducible(self, terms: Mapping) -> bool:
        if not self.rules:
            return False
        first = self._first_alg
        rules = self.rules
        for m in terms:
            if m and m[-1] >= first:
                for v, (power, _) in rules.items():
                    if m.count(v) >= power:
                        return True
        return False

    def reduce_terms(self, terms: dict) -> dict:
        """Apply power rewrite rules to fixpoint.  Confluent for the rule sets
        used here (single power rule per variable, replacements free of all
        algebraic variables)."""
        if not self.has_reducible(terms):
            return terms
        rules = sorted(self.rules.items())  # the lowest reducible index goes first
        done = []
        work = list(terms.items())
        while work:
            mono, coeff = work.pop()
            for v, (power, repl) in rules:
                if mono.count(v) >= power:
                    break
            else:
                done.append((mono, coeff))
                continue
            i = mono.index(v)
            rest = mono[:i] + mono[i + power :]
            for rm, rc in repl.items():
                work.append((mono_mul(rest, rm), coeff * rc))
        out: dict = {}
        add_terms(out, done)
        return out


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial over a VariableTable.

    `lead` may pass on a leading monomial the caller already knows (for
    example after dividing every term by one scalar); otherwise
    `leading_mono` finds it once and keeps it.  `support()` and the hash are
    likewise computed at most once.  `primitive_for` is the tuple of
    invertible variables `elim.primitive_form` last found the polynomial
    primitive for, or None.
    """

    __slots__ = ("table", "terms", "_lead", "_support", "_hash", "primitive_for")

    def __init__(self, table: VariableTable, terms: dict, lead: Optional[Mono] = None):
        self.table = table
        self.terms = terms
        self._lead = lead
        self._support = self._hash = self.primitive_for = None

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if not isinstance(other, Number):
                return NotImplemented
            other = self.table.const(other)
        return self.table is other.table and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((id(self.table), frozenset(self.terms.items())))
        return h

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.table is not self.table:
                raise TableMismatchError("operands from different variable tables")
            return other
        if isinstance(other, Number):
            return self.table.const(other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def support(self) -> frozenset:
        """Set of variable indices occurring in the polynomial."""
        s = self._support
        if s is None:
            s = self._support = frozenset(chain.from_iterable(self.terms))
        return s

    def variables(self) -> frozenset:
        return frozenset(self.table.names[v] for v in self.support())

    def multipliers(self) -> frozenset:
        """Names of the multiplier parameters occurring in the polynomial."""
        names, kinds = self.table.names, self.table.kinds
        return frozenset(names[v] for v in self.support() if kinds[v] == MULTIPLIER)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        t = dict(self.terms)
        add_terms(t, other.terms.items())
        return Polynomial(self.table, t)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Scalar):
            c = _as_coeff(other)
            if not c:
                return self.table.zero()
            return Polynomial(self.table, {m: v * c for m, v in self.terms.items()})
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return self.table.zero()
        return Polynomial(self.table, self.table.reduce_terms(add_products({}, a, b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise RingError("polynomial powers must be nonnegative integers")
        if n == 0:
            return self.table.one()
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- grading -------------------------------------------------------------

    def grading(self) -> Optional[tuple]:
        """(weighted degree, sigma sign) shared by every term, None when two
        terms differ in either; the zero polynomial has no grading."""
        if not self.terms:
            raise ZeroPolynomialError("grading of the zero polynomial")
        gradings = set(map(self.table.mono_grading, self.terms))
        return gradings.pop() if len(gradings) == 1 else None

    # -- leading terms and canonical text -------------------------------------

    def leading_mono(self) -> Mono:
        lead = self._lead
        if lead is None:
            if not self.terms:
                raise ZeroPolynomialError("leading term of the zero polynomial")
            terms, cut = self.terms, self.table.geo_cut
            if min(self.support(), default=cut) < cut:
                lead = min(terms, key=lambda m: mono_key(m, cut))
            else:
                # no geometric part: mono_key is (0, (), -len(m), m[::-1]), so
                # the longest monomials compete by their reversed index tuples
                top = max(map(len, terms))
                lead = min([m for m in terms if len(m) == top], key=_REVERSED)
            self._lead = lead
        return lead

    def leading_term(self):
        m = self.leading_mono()
        return m, self.terms[m]

    def sorted_terms(self) -> list:
        order = sorted_monos(self.terms.keys(), self.table)
        return [(m, self.terms[m]) for m in order]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            neg = c < 0
            mag = -c if neg else c
            body = self.table.mono_str(m)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(f"-{text}" if neg else text)
            else:
                parts.append(f" - {text}" if neg else f" + {text}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self}>"

    # -- substitution ----------------------------------------------------------

    def substitute(self, bindings: Mapping) -> "Polynomial":
        """Simultaneous substitution of variables (by name) by polynomials or
        scalars.

        Every bound variable is replaced at once and images are never
        substituted again, so mutually dependent images (a swap y1 <-> y3, or
        y2 -> y2 - c*x^2) mean what they say.  Grading and sign need not be
        preserved.  The rewrite rules are applied once, to the sum, and only
        when the polynomial or an image holds a rule variable.
        """
        if not bindings:
            return self
        table = self.table
        images = {table.index[name]: self._coerce(val) for name, val in bindings.items()}
        terms = self.terms
        out = {m: c for m, c in terms.items() if images.keys().isdisjoint(m)}
        live = {v: p for v, p in images.items() if p.terms}
        if live:
            zeros = images.keys() - live.keys()  # a term holding one of these vanishes
            is_bound = images.__contains__
            powers = {(v,): p.terms for v, p in live.items()}
            for m, c in terms.items():
                if live.keys().isdisjoint(m) or not zeros.isdisjoint(m):
                    continue
                key = tuple(filter(is_bound, m))
                rest = tuple(filterfalse(is_bound, m))
                add_products(out, {rest: c}, _bound_image(powers, key))
        if table.rules and not all(
            p.support().isdisjoint(table.rules) for p in (self, *live.values())
        ):
            out = table.reduce_terms(out)
        return Polynomial(table, out)

    # -- coefficient extraction --------------------------------------------------

    def coefficients_wrt(self, names: Iterable[str]) -> list:
        """Split p = sum(mono_in_names * coefficient); canonical mono order.

        `names` must be one contiguous block of the table (in any order), so
        each monomial splits at two bisections.  Returns [(mono, Polynomial)]
        with nonzero coefficient polynomials in the remaining variables,
        ordered canonically (descending).
        """
        table = self.table
        idxs = sorted(table.index[n] for n in names)
        lo, hi = (idxs[0], idxs[-1] + 1) if idxs else (0, 0)
        if idxs != list(range(lo, hi)):
            block = [table.names[v] for v in idxs]
            raise RingError(f"coefficients_wrt needs a contiguous block of the table: {block}")
        groups: dict = {}
        for m, c in self.terms.items():
            i = bisect_left(m, lo)
            j = bisect_left(m, hi, i)
            # (inside, outside) determines m, so no two terms meet here
            groups.setdefault(m[i:j], {})[m[:i] + m[j:]] = c
        order = sorted_monos(list(groups), table)
        return [(m, Polynomial(table, groups[m])) for m in order]

    # -- exact division and square root --------------------------------------------

    def exact_divide(self, q: "Polynomial") -> Optional["Polynomial"]:
        """h with self == q*h, else None.  Leading-term division with a final
        verification by multiplication."""
        q = self._coerce(q)
        if q.is_zero():
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.is_zero():
            return self.table.zero()
        lt_m, lt_c = q.leading_term()
        rem = Polynomial(self.table, dict(self.terms))
        quo: dict = {}
        while rem.terms:
            rm, rc = rem.leading_term()
            m = mono_div(rm, lt_m)
            if m is None:
                return None
            c = _coeff_div(rc, lt_c)
            quo[m] = c
            rem = rem - Polynomial(self.table, {m: c}) * q
        h = Polynomial(self.table, quo)
        if q * h != self:
            return None
        return h

    def poly_sqrt(self) -> Optional["Polynomial"]:
        """s with s^2 == self (positive leading coefficient), else None."""
        if self.is_zero():
            return self.table.zero()
        lt_m, lt_c = self.leading_term()
        root_m = _mono_sqrt(lt_m)
        root_c = _coeff_sqrt(lt_c)
        if root_m is None or root_c is None:
            return None
        s = Polynomial(self.table, {root_m: root_c})
        rem = self - s * s
        cut = self.table.geo_cut
        prev = None
        while rem.terms:
            rm, rc = rem.leading_term()
            tm = mono_div(rm, root_m)
            if tm is None:
                return None
            if prev is not None and mono_key(tm, cut) <= mono_key(prev, cut):
                return None
            tc = _coeff_div(rc, 2 * root_c)
            t = Polynomial(self.table, {tm: tc})
            rem = rem - (2 * s * t) - t * t
            s = s + t
            prev = tm
        return s


def _mono_sqrt(m: Mono) -> Optional[Mono]:
    # every exponent is even exactly when the indices pair off in order
    if len(m) % 2 or m[::2] != m[1::2]:
        return None
    return m[::2]


def _coeff_sqrt(c: Coeff) -> Optional[Coeff]:
    f = Fraction(c)
    if f <= 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return _as_coeff(Fraction(rn, rd))


# ---------------------------------------------------------------------------
# monomial bases


def monomial_basis(table: VariableTable, degree: int, sign: int, names: Sequence[str]) -> list:
    """All monomials in the given variables of the given weighted degree and
    sigma-sign, in canonical (descending) order."""
    if degree < 0:
        raise RingError("degree must be nonnegative")
    idxs = [table.index[n] for n in names]
    if any(table.weights[v] == 0 for v in idxs):
        raise RingError("monomial_basis needs positively weighted variables")
    # (monomial so far, weighted degree left), one variable at a time
    partial = [(UNIT_MONO, degree)]
    for v in idxs:
        w = table.weights[v]
        partial = [(m + (v,) * e, left - e * w) for m, left in partial for e in range(left // w + 1)]
    found = [tuple(sorted(m)) for m, left in partial if left == 0]
    keep = [m for m in found if table.mono_grading(m) == (degree, sign)]
    return sorted_monos(keep, table)


def generic_poly(table: VariableTable, names: Sequence[str], monos: Sequence[Mono]) -> Polynomial:
    """sum_k names[k] * monos[k]: a generic polynomial with one coefficient
    variable per slot monomial."""
    if len(names) != len(monos):
        raise RingError(f"{len(names)} slot names for {len(monos)} slot monomials")
    index = table.index
    terms = {mono_mul((index[n],), m): 1 for n, m in zip(names, monos)}
    return Polynomial(table, table.reduce_terms(terms))


def lex_descending(monos: Iterable[Mono]) -> list:
    """Descending lexicographic order over the table's variable order (the
    layout used for ansatz slot numbering).  At the first position where two
    index tuples differ, the smaller variable index is the larger monomial
    (it has the higher exponent there); a monomial that extends the other is
    the larger one."""
    return sorted(monos, key=lambda m: tuple(-v for v in m), reverse=True)
