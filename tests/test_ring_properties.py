"""Property-based tests for the polynomial core (ring axioms, gradings,
division/sqrt round trips, substitution homomorphism, rewrite confluence)."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux2.elim import primitive_form
from godeaux2.ring import (
    ALGEBRAIC,
    GEOMETRIC,
    INVERTIBLE,
    MULTIPLIER,
    PARAMETER,
    Polynomial,
    RingError,
    RewriteRule,
    TableMismatchError,
    VariableTable,
    exponents,
    lex_descending,
    mono_div,
    mono_key,
    mono_mul,
    mono_split,
    monomial_basis,
    sorted_monos,
    sum_of_products,
)

from _oracle import dense_mono, grevlex_cmp, lex_dense_key

TABLE = VariableTable(
    [
        ("x", 1, -1, GEOMETRIC),
        ("y1", 2, -1, GEOMETRIC),
        ("y2", 2, 1, GEOMETRIC),
        ("d", 0, 1, INVERTIBLE),  # primitive_form strips its content
    ]
)

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5)),
)
small_exps = st.integers(min_value=0, max_value=3)
dense_vectors = st.tuples(small_exps, small_exps, small_exps, small_exps)
monos = dense_vectors.map(dense_mono)
polys = st.dictionaries(monos, coeffs, max_size=4).map(
    lambda t: Polynomial(TABLE, {m: c for m, c in t.items() if c})
)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def test_ring_axioms_bulk_seeded():
    # the cheap non-hypothesis bulk run: >= 1000 random triples
    rng = random.Random(20240)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            m = dense_mono(rng.choices(range(0, 3), k=4))
            terms[m] = terms.get(m, 0) + rng.randint(-5, 5)
        return Polynomial(TABLE, {m: c for m, c in terms.items() if c})

    for _ in range(1000):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


homog = st.sampled_from([2, 3, 4]).flatmap(
    lambda deg: st.builds(
        lambda pairs: Polynomial(TABLE, {m: c for m, c in pairs if c}),
        st.lists(
            st.tuples(
                st.sampled_from(
                    monomial_basis(TABLE, deg, 1, ["x", "y1", "y2"])
                    + monomial_basis(TABLE, deg, -1, ["x", "y1", "y2"])
                ),
                coeffs,
            ),
            min_size=1,
            max_size=3,
        ),
    )
)


def _graded_poly(grading):
    """Nonzero polynomials whose every term has the given (weighted degree,
    sigma sign)."""
    basis = monomial_basis(TABLE, *grading, ["x", "y1", "y2"])
    terms = st.lists(st.tuples(st.sampled_from(basis), coeffs), min_size=1, max_size=3)
    return st.tuples(st.just(grading), terms.map(lambda pairs: Polynomial(TABLE, dict(pairs))))


# (grading, polynomial of that grading)
graded = st.sampled_from([(deg, sign) for deg in (2, 3, 4) for sign in (1, -1)]).flatmap(_graded_poly)


@given(graded, graded)
@settings(max_examples=150, deadline=None)
def test_degree_and_sign_multiplicative(gp, gq):
    (dp, sp_), p = gp
    (dq, sq_), q = gq
    assert p.grading() == (dp, sp_) and q.grading() == (dq, sq_)
    assert (p * q).grading() == (dp + dq, sp_ * sq_)
    # one term of the same degree and the other sign makes p sign-mixed
    other = monomial_basis(TABLE, dp, -sp_, ["x", "y1", "y2"])[0]
    assert (p + Polynomial(TABLE, {other: 1})).grading() is None


@given(homog, homog)
@settings(max_examples=150, deadline=None)
def test_exact_divide_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_divide(q) == p


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_cached_support_and_hash_match_a_fresh_copy(p, q, img):
    for a in (p, q, img):  # fill the operands' caches first
        a.support(), hash(a)
    results = [p + q, p * q, p.substitute({"y1": img}), primitive_form(p)]
    results.append(primitive_form(results[-1]))  # returned as it is
    for r in results:
        fresh = Polynomial(TABLE, dict(r.terms))
        for _ in range(2):  # computed, then read back
            assert r.support() == fresh.support()
            assert hash(r) == hash(fresh)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_substitute_is_homomorphism(p, q, img):
    b = {"y1": img}
    assert (p + q).substitute(b) == p.substitute(b) + q.substitute(b)
    assert (p * q).substitute(b) == p.substitute(b) * q.substitute(b)


@given(polys, polys, st.permutations(TABLE.names), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_substitute_with_zero_images_matches_one_variable_at_a_time(p, img, names, k):
    # zeros first, then the one nonzero image: nothing is substituted twice
    target, zeroed = names[0], names[1 : 1 + k]
    mixed = {target: img, **{name: 0 for name in zeroed}}
    stepwise = p
    for name in zeroed:
        stepwise = stepwise.substitute({name: 0})
    assert p.substitute(mixed) == stepwise.substitute({target: img})


# the substitution properties also over an algebraic rule variable i
# (i^2 = -1); t is a spare parameter that the drawn polynomials never hold
ALG_TABLE = VariableTable(
    [
        ("x", 1, -1, GEOMETRIC),
        ("y1", 2, -1, GEOMETRIC),
        ("y2", 2, 1, GEOMETRIC),
        ("d", 0, 1, PARAMETER),
        ("t", 0, 1, PARAMETER),
        ("i", 0, 1, ALGEBRAIC),
    ],
    rules=[RewriteRule("i", 2, {(): -1})],
)
ALG_NAMES = ("x", "y1", "y2", "d", "i")


def _alg_poly(names, max_size=4):
    """Polynomials over the named variables of ALG_TABLE, exponents up to 3,
    reduced by the rule i^2 = -1."""
    index = [ALG_TABLE.index[n] for n in names]
    mono = st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)).map(
        lambda es: tuple(sorted(v for v, e in zip(index, es) for _ in range(e)))
    )
    return st.dictionaries(mono, coeffs, max_size=max_size).map(
        lambda t: Polynomial(ALG_TABLE, ALG_TABLE.reduce_terms({m: c for m, c in t.items() if c}))
    )


def _image(names):
    """A substitution image over the named variables: a polynomial, or an
    int or Fraction scalar."""
    return st.one_of(_alg_poly(names, max_size=3), coeffs, st.just(0))


def substitute_reference(p, steps):
    """Substitute (name, image) steps one variable at a time, expanding each
    term c*rest*v^e as rest * image**e with * and **."""
    table = p.table
    for name, image in steps:
        v, image = table.index[name], table.zero() + image
        out = table.zero()
        for m, c in p.terms.items():
            rest = Polynomial(table, {tuple(w for w in m if w != v): c})
            out = out + rest * image ** m.count(v)
        p = out
    return p


@given(_alg_poly(ALG_NAMES), st.permutations(ALG_NAMES), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_substitute_matches_one_variable_at_a_time(p, names, k, data):
    # images free of the bound variables: the simultaneous substitution is
    # then the one-at-a-time one, in any order; terms hold up to three bound
    # variables to powers up to 3, images hold i or are Fraction scalars, and
    # i itself may be bound
    bound, free = names[:k], names[k:]
    bindings = {name: data.draw(_image(free)) for name in bound}
    assert p.substitute(bindings) == substitute_reference(p, bindings.items())


def test_substitute_matches_one_variable_at_a_time_on_a_fixed_case():
    # the cases the property covers, in one polynomial: a term with two bound
    # variables to the powers 2 and 3, an image whose square holds i^2, a
    # Fraction image; then i itself bound
    x, y1, y2, d, i = (ALG_TABLE.var(n) for n in ALG_NAMES)
    p = x ** 2 * y1 ** 3 * d + i * x * y1 * y2 - Fraction(3, 4) * y2 ** 2 + x * i
    for bindings in ({"x": d * i + 1, "y1": Fraction(-1, 2)}, {"i": 2 * d, "x": y2 - d}):
        assert p.substitute(bindings) == substitute_reference(p, bindings.items())
    # (d*i + 1)^2 = 1 - d^2 + 2*d*i, so no term keeps i^2
    assert (x ** 2).substitute({"x": d * i + 1}) == 1 - d * d + 2 * d * i


@given(_alg_poly(ALG_NAMES), st.permutations(ALG_NAMES).map(lambda names: names[:2]))
@settings(max_examples=150, deadline=None)
def test_substitute_swap_matches_one_variable_at_a_time(p, pair):
    # a <-> b at once is a -> t, b -> a, t -> b through the spare t
    a, b = pair
    var = ALG_TABLE.var
    swap = {a: var(b), b: var(a)}
    steps = [(a, var("t")), (b, var(a)), ("t", var(b))]
    assert p.substitute(swap) == substitute_reference(p, steps)


@given(_alg_poly(ALG_NAMES))
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_multiplication(p):
    product = ALG_TABLE.one()
    for n in range(6):
        assert p ** n == product
        product = product * p


def multiply_then_add(table, pairs):
    """The sum of the products a*b, each formed by * and added by +."""
    out = table.zero()
    for a, b in pairs:
        out = out + a * b
    return out


alg_pairs = st.lists(st.tuples(_alg_poly(ALG_NAMES), _alg_poly(ALG_NAMES)), max_size=5)


@given(alg_pairs, st.lists(st.booleans(), min_size=5, max_size=5), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_sum_of_products_matches_multiply_then_add(pairs, negated, at):
    # factors hold i (i^2 = -1) and may be zero; each of the first five
    # pairs put in again with one factor negated cancels its own product, so
    # only the pairs after them are left
    zero = ALG_TABLE.zero()
    pairs = pairs[:at] + [(zero, ALG_TABLE.var("i")), (ALG_TABLE.var("x"), zero)] + pairs[at:]
    assert sum_of_products(ALG_TABLE, pairs) == multiply_then_add(ALG_TABLE, pairs)
    again = [(-a, b) if flip else (a, -b) for (a, b), flip in zip(pairs, negated)]
    assert sum_of_products(ALG_TABLE, pairs + again) == multiply_then_add(ALG_TABLE, pairs[len(again) :])
    assert sum_of_products(ALG_TABLE, iter(pairs + again)) == sum_of_products(ALG_TABLE, pairs[len(again) :])


def test_sum_of_products_reduces_the_sum_once_on_a_fixed_case():
    # sqrt(-15) as in the special surface BF: r*r and 15*1 cancel only once
    # r^2 is rewritten, and (x*r)*(d*r) leaves -15*x*d
    T = VariableTable(
        [("x", 1, -1, GEOMETRIC), ("d", 0, 1, PARAMETER), ("r", 0, 1, ALGEBRAIC)],
        rules=[RewriteRule("r", 2, {(): -15})],
    )
    x, d, r = (T.var(n) for n in ("x", "d", "r"))
    assert sum_of_products(T, [(r, r), (T.const(15), T.one())]).is_zero()
    total = sum_of_products(T, [(x * r, d * r), (x, d + r), (T.zero(), r)])
    assert total == multiply_then_add(T, [(x * r, d * r), (x, d + r)]) == -14 * x * d + x * r
    assert sum_of_products(T, []) == T.zero()


def test_sum_of_products_refuses_a_second_table():
    other = VariableTable([("x", 1, -1, GEOMETRIC)])
    x, y = ALG_TABLE.var("x"), other.var("x")
    # a zero factor from the other table is refused as well
    for pairs in ([(x, y)], [(y, x)], [(x, x), (y, other.one())], [(x, other.zero())]):
        with pytest.raises(TableMismatchError):
            sum_of_products(ALG_TABLE, pairs)
    with pytest.raises(TableMismatchError):
        sum_of_products(other, [(x, x)])


@given(polys, st.permutations(TABLE.names).map(lambda names: names[:2]))
@settings(max_examples=150, deadline=None)
def test_substitute_swap_is_an_involution(p, pair):
    # simultaneous: each image is placed once, never substituted again
    a, b = pair
    swap = {a: TABLE.var(b), b: TABLE.var(a)}
    assert p.substitute(swap).substitute(swap) == p


def test_rewrite_confluence():
    # two independent power rules; reduction order must not matter
    T = VariableTable(
        [
            ("y1", 2, -1, GEOMETRIC),
            ("d", 0, 1, PARAMETER),
            ("i", 0, 1, ALGEBRAIC),
            ("r", 0, 1, ALGEBRAIC),
        ],
        rules=[
            RewriteRule("i", 2, {(): -1}),
            RewriteRule("r", 4, {((("d"), 2),): -1}),
        ],
    )
    i, r, y1, d = (T.var(n) for n in ("i", "r", "y1", "d"))
    rng = random.Random(7)
    factors = [i, r, y1 + i * r, d * r * r - i, r ** 3 + 2]
    for _ in range(60):
        chosen = [rng.choice(factors) for _ in range(4)]
        left = ((chosen[0] * chosen[1]) * chosen[2]) * chosen[3]
        right = chosen[0] * (chosen[1] * (chosen[2] * chosen[3]))
        shuffled = list(chosen)
        rng.shuffle(shuffled)
        prod = T.one()
        for f in shuffled:
            prod = prod * f
        assert left == right == prod
        # no residual exponent at or above the rule power
        for m in left.terms:
            for v, e in exponents(m):
                rule = T.rules.get(v)
                if rule:
                    assert e < rule[0]


@given(dense_vectors, dense_vectors)
@settings(max_examples=300, deadline=None)
def test_mono_arithmetic_matches_dense_exponent_vectors(ea, eb):
    a, b = dense_mono(ea), dense_mono(eb)
    assert exponents(a) == tuple((v, e) for v, e in enumerate(ea) if e)
    assert mono_mul(a, b) == dense_mono([x + y for x, y in zip(ea, eb)])
    if all(x >= y for x, y in zip(ea, eb)):
        assert mono_div(a, b) == dense_mono([x - y for x, y in zip(ea, eb)])
    else:
        assert mono_div(a, b) is None
    assert mono_div(mono_mul(a, b), b) == a


# the canonical order against the dense oracle, over 8 variables split into a
# geometric prefix of `cut` variables and a parameter block
ORDER_NV = 8
ORDER_TABLES = {
    cut: VariableTable(
        [(f"v{i}", 1, 1, GEOMETRIC) for i in range(cut)]
        + [(f"p{i}", 0, 1, PARAMETER) for i in range(cut, ORDER_NV)]
    )
    for cut in (0, 3, 5, 8)
}
exponent_vectors = st.lists(st.integers(0, 3), min_size=ORDER_NV, max_size=ORDER_NV)


order_monos = st.one_of(
    st.just(()),  # the unit monomial
    exponent_vectors.map(lambda e: dense_mono(e[:3])),  # geometric only for cut >= 3
    exponent_vectors.map(dense_mono),  # mixed
)


@given(st.lists(order_monos, min_size=1, max_size=8), st.sampled_from(sorted(ORDER_TABLES)))
@settings(max_examples=300, deadline=None)
def test_mono_key_matches_oracle_order(ms, cut):
    for a in ms:
        for b in ms:
            ka, kb = mono_key(a, cut), mono_key(b, cut)
            # the larger monomial has the smaller key
            assert (ka < kb) - (ka > kb) == grevlex_cmp(a, b, cut)
    table = ORDER_TABLES[cut]
    distinct = list(dict.fromkeys(ms))
    expected = sorted(distinct, key=cmp_to_key(lambda a, b: grevlex_cmp(a, b, cut)), reverse=True)
    assert sorted_monos(distinct, table) == expected
    assert Polynomial(table, {m: 1 for m in distinct}).leading_mono() == expected[0]


@given(
    st.lists(order_monos, min_size=1, max_size=12),
    st.sampled_from(sorted(ORDER_TABLES)),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_leading_mono_is_the_mono_key_minimum(ms, cut, parameters_only):
    # leading_mono takes a shortcut on polynomials with no geometric variable
    if parameters_only:
        ms = [mono_split(m, cut)[1] for m in ms]
    p = Polynomial(ORDER_TABLES[cut], dict.fromkeys(ms, 1))
    assert p.leading_mono() == min(ms, key=lambda m: mono_key(m, cut))


@given(st.lists(order_monos, max_size=12, unique=True))
@settings(max_examples=300, deadline=None)
def test_lex_descending_matches_dense_oracle(ms):
    assert lex_descending(ms) == sorted(ms, key=lambda m: lex_dense_key(m, ORDER_NV), reverse=True)


# coefficients_wrt against a split of dense exponent vectors, on the three
# kinds of block the package splits at: a proper prefix of the geometric
# block, the whole geometric block, and an interior block (the multipliers)
BLOCK_TABLE = VariableTable(
    [(n, 1, 1, GEOMETRIC) for n in ("x", "y1", "y2", "y3")]
    + [(n, 0, 1, PARAMETER) for n in ("d", "g1")]
    + [(n, 0, 1, MULTIPLIER) for n in ("r1", "r2", "r3")]
    + [("i", 0, 1, ALGEBRAIC)]
)
BLOCKS = (("x", "y1"), ("x", "y1", "y2", "y3"), ("r1", "r2", "r3"))
block_polys = st.dictionaries(
    st.lists(st.integers(0, 2), min_size=10, max_size=10).map(dense_mono), coeffs, max_size=6
).map(lambda t: Polynomial(BLOCK_TABLE, t))


def dense_split(p, names):
    """{inside monomial: {outside monomial: coefficient}} from dense vectors."""
    inside = {BLOCK_TABLE.index[n] for n in names}
    groups = {}
    for m, c in p.terms.items():
        exps = [m.count(v) for v in range(len(BLOCK_TABLE.names))]
        ins = dense_mono([e if v in inside else 0 for v, e in enumerate(exps)])
        out = dense_mono([0 if v in inside else e for v, e in enumerate(exps)])
        groups.setdefault(ins, {})[out] = c
    return groups


@given(block_polys, st.sampled_from(BLOCKS).flatmap(st.permutations))
@settings(max_examples=200, deadline=None)
def test_coefficients_wrt_matches_a_dense_split(p, names):
    split = p.coefficients_wrt(names)
    expected = dense_split(p, names)
    assert {m: c.terms for m, c in split} == expected
    assert [m for m, _ in split] == sorted_monos(expected, BLOCK_TABLE)


def test_coefficients_wrt_refuses_a_set_that_is_not_a_block():
    p = BLOCK_TABLE.var("x") * BLOCK_TABLE.var("y2") + BLOCK_TABLE.var("d")
    for names in (["x", "y2"], ["y3", "r1"], ["d", "r2", "r3"]):
        with pytest.raises(RingError, match="contiguous block"):
            p.coefficients_wrt(names)
