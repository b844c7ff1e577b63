"""Tests for the elimination primitive and the staged driver."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux2.alpha import BORDER_PARAMS
from godeaux2.elim import (
    Dependency,
    EliminationError,
    _find_pivot,
    _Worktable,
    back_substitute,
    driver,
    lin_elim,
    monomial_elim,
    primitive_form,
    resolve_dependencies,
    strip_content_var,
    survivors,
)
from godeaux2.ring import (
    ALGEBRAIC,
    GEOMETRIC,
    INVERTIBLE,
    MULTIPLIER,
    PARAMETER,
    Polynomial,
    RewriteRule,
    VariableTable,
)

from _oracle import dense_mono, find_pivot_reference, gauss_classify, max_degree_in


def param_table(nr=10, extras=("g1", "d"), d_kind=PARAMETER):
    """r1..r<nr> and the extras as parameters; d, if an extra, of kind d_kind."""
    entries = [(f"r{k}", 0, 1, PARAMETER) for k in range(1, nr + 1)]
    entries += [(p, 0, 1, d_kind if p == "d" else PARAMETER) for p in extras]
    return VariableTable(entries)


def test_single_dependency():
    T = param_table()
    r1, g1 = T.var("r1"), T.var("g1")
    f, flags, deps = lin_elim([r1 - g1], [True], ["r1"], 1)
    assert f == [] and len(deps) == 1
    assert deps[0].var == "r1" and deps[0].expr == g1


def test_budget_limits_h_size():
    T = param_table()
    r1, r2, r3 = T.var("r1"), T.var("r2"), T.var("r3")
    p = r1 + r2 + r3  # h for r1 contains two target variables
    f, _, deps = lin_elim([p], [True], ["r1", "r2", "r3"], 1)
    assert not deps and len(f) == 1
    f, _, deps = lin_elim([p], [True], ["r1", "r2", "r3"], 2)
    assert f == [] and deps[0].var == "r1"  # first in var order wins


def test_pivot_needs_constant_coefficient():
    T = param_table()
    d, r1, g1 = T.var("d"), T.var("r1"), T.var("g1")
    p = d * r1 + g1
    f, _, deps = lin_elim([p], [True], ["r1"], 5)
    assert not deps  # d*r1 is not a bare-variable monomial
    f, _, deps = lin_elim([p], [True], ["g1"], 5)
    assert f == [] and deps[0].var == "g1" and deps[0].expr == -(d * r1)


def test_g_subset_is_respected():
    T = param_table()
    r1, g1 = T.var("r1"), T.var("g1")
    f, _, deps = lin_elim([r1 - g1], [False], ["r1"], 3)
    assert not deps and len(f) == 1  # not in g, never scanned


def test_primitive_form_normalizes():
    T = param_table()
    r1, r2 = T.var("r1"), T.var("r2")
    p = Fraction(2, 3) * r1 - Fraction(4, 3) * r2
    q = primitive_form(p)
    assert q == r1 - 2 * r2
    assert primitive_form(-q) == q  # leading coefficient made positive
    assert primitive_form(T.zero()).is_zero()


def test_strip_content_var():
    T = param_table()
    d, r1, r2 = T.var("d"), T.var("r1"), T.var("r2")
    vd = T.index["d"]
    assert strip_content_var(d * d * r1 - d * r2 * d, vd) == r1 - r2
    p = d * r1 + r2  # no common d content
    assert strip_content_var(p, vd) == p


def _random_poly(rng, T, names, max_exp=2, size=6):
    p = T.zero()
    for _ in range(size):
        term = T.const(rng.choice([-6, -3, -1, 1, 2, 4, 9]))
        for name in names:
            term = term * T.var(name) ** rng.randint(0, max_exp)
        p = p + term
    return p


def test_strip_content_var_hands_on_the_leading_monomial():
    # a table with a geometric block, so both blocks of the order take part
    T = VariableTable(
        [("x", 1, 1, GEOMETRIC), ("y", 2, 1, GEOMETRIC)]
        + [(n, 0, 1, PARAMETER) for n in ("r1", "r2", "g1", "d")]
    )
    rng = random.Random(7)
    d, vd = T.var("d"), T.index["d"]
    stripped = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        p = _random_poly(rng, T, ("x", "y", "r1", "r2", "g1", "d")) * d**k
        if p.is_zero():
            continue
        p.leading_mono()
        s = strip_content_var(p, vd)
        assert s.leading_mono() == Polynomial(T, dict(s.terms)).leading_mono()
        # the power stripped is the k multiplied in, plus any d content of
        # the random factor
        j = min(m.count(vd) for m in p.terms)
        assert j >= k and s * d**j == p
        assert any(vd not in m for m in s.terms)  # all d content removed
        stripped += 1
    assert stripped >= 30


def test_primitive_form_returns_a_primitive_input_itself():
    T = param_table()
    d, r1, r2 = T.var("d"), T.var("r1"), T.var("r2")
    q = r1 - 2 * r2 + 3 * d
    assert primitive_form(q) is q
    U = param_table(d_kind=INVERTIBLE)
    u = U.var("r1") - 2 * U.var("r2") + 3 * U.var("d")
    assert primitive_form(u) is u  # no d content to strip
    assert primitive_form(2 * q) == q and primitive_form(2 * q) is not 2 * q
    assert primitive_form(-q) == q


def test_cleared_pivot_step_keeps_the_primitive_form():
    # lin_elim substitutes c^k * q(v = -h/c) with integer arithmetic; its
    # primitive form must be that of the plain rational substitution.  c^k = 1
    # takes the unscaled copy of the v-free terms, c^k != 1 the scaled one;
    # with the rule variable i (i^2 = -1) in q or h the rewrite must reduce,
    # and with i in both, products i*i occur that only the reduction removes
    T = VariableTable(
        [(n, 0, 1, PARAMETER) for n in ("r1", "r2", "r3", "g1", "g2", "d")]
        + [("i", 0, 1, ALGEBRAIC)],
        rules=[RewriteRule("i", 2, {(): -1})],
    )
    i, r1 = T.index["i"], T.var("r1")
    rng = random.Random(11)
    tried = set()
    for rule_in in ("neither", "q", "h", "both"):
        in_h, in_q = rule_in in ("h", "both"), rule_in in ("q", "both")
        h_names = ("r2", "g1", "g2") + ("i",) * in_h
        q_names = ("g1", "d") + ("i",) * in_q
        for c in (1, -1, 2, -3, 6, 9):
            for k in (1, 2):  # deg_r1 q
                for _ in range(20):
                    h = _random_poly(rng, T, h_names, max_exp=1, size=3)
                    if h.is_zero() or primitive_form(c * r1 + h) != c * r1 + h:
                        continue  # lin_elim would pivot on a rescaled c
                    q = T.zero()
                    for e in range(k + 1):
                        q = q + r1 ** e * _random_poly(rng, T, q_names, size=2)
                    if max_degree_in(q, ["r1"]) != k:
                        continue
                    if (i in h.support(), i in q.support()) != (in_h, in_q):
                        continue
                    out, _, deps = lin_elim([c * r1 + h, q], [True, False], ["r1"], 1)
                    assert [dep.var for dep in deps] == ["r1"]
                    expected = primitive_form(q.substitute({"r1": -h * Fraction(1, c)}))
                    assert out == ([expected] if expected else [])
                    assert all(m.count(i) < 2 for p in out for m in p.terms)
                    tried.add((rule_in, c, k))
    assert len(tried) == 4 * 6 * 2


def test_duplicates_pruned_up_to_scale():
    T = param_table()
    r1, r2, g1 = T.var("r1"), T.var("r2"), T.var("g1")
    f = [2 * r1 - 2 * g1, r1 - g1, 3 * r2 + g1, r2 - r2 + (3 * r2 + g1)]
    out, _, deps = lin_elim(f, [False] * 4, ["r9"], 1)  # no elimination possible
    assert len(out) == 2


def test_primitive_form_strips_the_content_of_the_tables_invertible_d():
    # over a PARAMETER d, the d content of a primitive polynomial stays
    T = param_table()
    d, r1, r2 = T.var("d"), T.var("r1"), T.var("r2")
    p = d * r1 + 2 * d * r2  # primitive over the integers, d content d
    assert not p.primitive
    assert primitive_form(p) is p
    assert p.primitive and p == d * (r1 + 2 * r2)
    # over an INVERTIBLE d, both the 3 and the d go
    U = param_table(d_kind=INVERTIBLE)
    assert U.invertible == (U.index["d"],) and T.invertible == ()
    d, r1, r2 = U.var("d"), U.var("r1"), U.var("r2")
    q = primitive_form(3 * (d * r1 + 2 * d * r2))
    assert q == r1 + 2 * r2 and q.primitive
    assert primitive_form(q) is q


@pytest.mark.parametrize(
    "copy",
    [lambda p: Polynomial(p.table, dict(reversed(list(p.terms.items())))), lambda p: -p],
    ids=["reordered", "negated"],
)
def test_worktable_keeps_the_first_slot_for_a_copy(copy):
    T = param_table()
    p = T.var("r1") + 2 * T.var("g1") - T.var("d")
    q = copy(p)
    assert list(q.terms.items()) != list(p.terms.items()) and primitive_form(q) == p
    for flags in ([False, True], [True, False]):
        work = _Worktable([p, q], flags)
        assert work.polys == [p, None] and work.polys[0] is p
        assert work.alive_flags() == [True]  # the copy's g flag is ORed in


PIVOT_TABLE = param_table(nr=6, extras=())
pivot_coeffs = st.integers(-5, 5).filter(bool)
pivot_monos = st.lists(st.integers(0, 2), min_size=6, max_size=6).map(dense_mono)
pivot_polys = st.tuples(
    st.dictionaries(
        st.integers(0, 5).map(lambda v: (v,)), pivot_coeffs, min_size=1, max_size=5
    ),
    st.dictionaries(pivot_monos, pivot_coeffs, max_size=3),
).map(lambda t: Polynomial(PIVOT_TABLE, {**t[1], **t[0]}))
pivot_ranks = st.permutations(range(6)).flatmap(
    lambda order: st.integers(1, 6).map(lambda k: {v: r for r, v in enumerate(order[:k])})
)


@given(pivot_polys, pivot_ranks, st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_find_pivot_matches_the_budget_last_reference(p, var_idx, n):
    want = find_pivot_reference(p, p.support(), var_idx, n)
    assert _find_pivot(p, frozenset(var_idx), var_idx, n) == want


def test_find_pivot_over_budget_returns_none():
    T = PIVOT_TABLE
    p = T.var("r1") + T.var("r2") + T.var("r3") + 2 * T.var("r4")
    var_idx = {v: v for v in range(4)}
    targets = frozenset(var_idx)
    for n in (0, 1, 2):
        assert find_pivot_reference(p, p.support(), var_idx, n) is None
        assert _find_pivot(p, targets, var_idx, n) is None
    assert _find_pivot(p, targets, var_idx, 3) == (0, 1)


def test_monomial_elim_rules():
    T = param_table()
    d, b, r5 = T.var("d"), T.var("g1"), T.var("r5")
    # mixed monomial with exactly one r: the r goes to zero
    f, deps = monomial_elim([d * b * r5], ["r5"], [])
    assert f == [] and deps[0].var == "r5" and deps[0].expr.is_zero()
    # pure power of any target variable: forced zero
    f, deps = monomial_elim([b * b], [], ["g1"])
    assert f == [] and deps[0].var == "g1"
    # a two-variable monomial with no r is left alone
    f, deps = monomial_elim([d * b], [], ["g1", "d"])
    assert not deps and len(f) == 1


def test_back_substitute_identity_and_soundness():
    T = param_table()
    r1, r2, g1 = T.var("r1"), T.var("r2"), T.var("g1")
    p = r1 + r2 + g1
    assert back_substitute(p, {}) == p
    deps = [Dependency("r1", r2 + g1), Dependency("r2", 2 * g1)]
    resolved = resolve_dependencies(deps)
    assert resolved == {T.index["r2"]: 2 * g1, T.index["r1"]: 3 * g1}
    out = back_substitute(p, resolved)
    assert out == 6 * g1  # r1 -> 3*g1, r2 -> 2*g1, plus the bare g1
    # an image that still holds an eliminated variable is refused, by name
    with pytest.raises(EliminationError, match=r"survive: \['r2'\]"):
        back_substitute(p, {T.index["r1"]: r2, T.index["r2"]: g1})


def test_linelim_matches_gauss_oracle():
    """Criterion: on random affine systems, iterated LinElim agrees with dense
    Gaussian elimination whenever a constant-pivot solution exists, and makes
    no bogus progress otherwise."""
    rng = random.Random(991)
    nv_total = 10
    T = param_table(nr=nv_total, extras=())
    names = [f"r{k}" for k in range(1, nv_total + 1)]
    var_polys = [T.var(n) for n in names]
    unique = under = inconsistent = 0
    for trial in range(150):
        nv = rng.randint(2, nv_total)
        ne = rng.randint(max(1, nv - 1), nv + 3)
        rows = []
        for _ in range(ne):
            coeffs = [
                Fraction(rng.randint(-4, 4)) if rng.random() < 0.8 else Fraction(0)
                for _ in range(nv)
            ]
            const = Fraction(rng.randint(-6, 6))
            rows.append((coeffs, const))
        verdict, solution = gauss_classify(rows, nv)
        f = []
        for coeffs, const in rows:
            p = T.const(const)
            for c, v in zip(coeffs, var_polys):
                p = p + c * v
            if not p.is_zero():
                f.append(p)
        deps = []
        for n in range(1, nv + 1):
            f, _, new = lin_elim(f, [True] * len(f), names[:nv], n)
            deps.extend(new)
            if not f:
                break
        if verdict == "inconsistent":
            inconsistent += 1
            assert f, "LinElim emptied an inconsistent system"
        elif verdict == "unique":
            unique += 1
            assert not f, "LinElim failed on a uniquely solvable system"
            resolved = resolve_dependencies(deps)
            for k, name in enumerate(names[:nv]):
                want = T.const(solution[k])
                got = resolved.get(T.index[name], T.var(name))
                assert got == want
        else:
            under += 1
            if not f:
                resolved = resolve_dependencies(deps)
                for coeffs, const in rows:
                    p = T.const(const)
                    for c, v in zip(coeffs, var_polys):
                        p = p + c * v
                    # soundness: the residual must vanish for all free values,
                    # i.e. be the zero polynomial
                    assert back_substitute(p, resolved).is_zero(), "unsound parametrization"
    assert unique + under + inconsistent == 150
    assert unique >= 25 and inconsistent >= 10  # the mix is genuinely exercised


def test_driver_reproduces_survivors_and_is_deterministic(run11, rc11):
    state1 = run11.elim
    # fresh second run over the same system, flattened over its own table;
    # polynomials of two tables never compare equal, so the expressions are
    # compared as deps.log prints them
    state2 = driver(rc11[-1].f, run11.table.of_kind(MULTIPLIER), list(BORDER_PARAMS))
    assert [d.var for d in state1.deps] == [d.var for d in state2.deps]
    lines = [[f"{d.var} := {d.expr}" for d in s.deps] for s in (state1, state2)]
    assert lines[0] == lines[1]
    assert [(r.stage, r.n, r.eliminated, r.f_size) for r in state1.round_log] == [
        (r.stage, r.n, r.eliminated, r.f_size) for r in state2.round_log
    ]
    surv = survivors(run11.params, state1.deps)
    assert set(surv) == {"b5", "b9", "b6", "b8", "d", "b2", "b11", "g9", "b12"}


def test_driver_monotone_f(run11):
    sizes = [r.f_size for r in run11.elim.round_log]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 0


def test_resolution_hits_only_survivors(run11):
    table = run11.table
    gone = {table.index[d.var] for d in run11.elim.deps}
    resolved = resolve_dependencies(run11.elim.deps)
    assert resolved.keys() == gone
    for v, expr in resolved.items():
        assert not (expr.support() & gone), f"{table.names[v]} resolves through eliminated vars"


def test_back_substituted_alpha_matches_ansatz_slots(run11):
    table = run11.table
    x = table.var("x")
    q1 = run11.alpha_final[1, 2].exact_divide(x)
    assert str(q1) == "b2*y2*y3"
    assert str(run11.alpha_final[1, 6]) == "y1^2 - y2^2 - d*y3^2"


def test_case31_survivor_count_matches_moduli_dimension():
    # the (3,1) family is parametrized by a 7-dimensional weighted projective
    # space, i.e. eight surviving parameters
    from godeaux2.pipeline import run_pipeline

    run = run_pipeline(3, 1)
    assert len(run.gbd_survivors) == 8
    assert not run.elim.f


def test_driver_invertible_content_stripping():
    def system(T):
        d, r1, r2 = T.var("d"), T.var("r1"), T.var("r2")
        return [d * r1 - d * d * r2, r2 - d]

    # one f over two tables: with d a PARAMETER, d*r1 - d^2*r2 offers no
    # constant pivot on r1; with d INVERTIBLE its d content goes first
    with pytest.raises(EliminationError):
        driver(system(param_table()), ["r1", "r2"], [])
    U = param_table(d_kind=INVERTIBLE)
    state = driver(system(U), ["r1", "r2"], [])
    assert not state.f
    resolved = resolve_dependencies(state.deps)
    d = U.var("d")
    assert resolved == {U.index["r2"]: d, U.index["r1"]: d * d}


def test_zero_free_vars_unit():
    from godeaux2.elim import zero_free_vars

    T = param_table()
    d, r1, r2, g1 = T.var("d"), T.var("r1"), T.var("r2"), T.var("g1")
    f = [r1 * r2 - r1 * d, g1 + r2]
    out, deps = zero_free_vars(f, ["r1", "r2", "r3"])
    assert [dep.var for dep in deps] == ["r1", "r2"]
    assert all(dep.expr.is_zero() for dep in deps)
    assert out == [g1]


def test_dependency_vars_unique(run11, run20):
    for state in (run11.elim, run20.elim):
        names = [d.var for d in state.deps]
        assert len(names) == len(set(names))


# (stage, n, eliminated, f_size, f_terms) of every driver round of the four
# cases that solve; (2,0) is the one that climbs to the C, D and E
# fallbacks, and its D and A13 moves grow f from 1,787 to 47,705 terms and
# from 37,349 to 82,251
ROUND_LOGS = {
    (1, 1): [
        ("A", 1, 82, 576, 6789), ("B", 22, 3, 558, 6276), ("A", 2, 115, 294, 4728),
        ("B", 22, 11, 195, 4203), ("A", 3, 17, 162, 3516), ("B", 22, 0, 162, 3516),
        ("A", 4, 38, 69, 1470), ("B", 22, 0, 69, 1470), ("A", 5, 11, 34, 703),
        ("B", 22, 0, 34, 703), ("A", 6, 8, 12, 282), ("B", 22, 0, 12, 282),
        ("A", 7, 3, 6, 128), ("B", 22, 0, 6, 128), ("A", 8, 3, 0, 0),
    ],
    (3, 1): [
        ("A", 1, 143, 314, 2934), ("B", 22, 14, 204, 1514), ("A", 2, 88, 76, 714),
        ("B", 22, 0, 76, 714), ("A", 3, 19, 33, 343), ("B", 22, 0, 33, 343),
        ("A", 4, 7, 21, 221), ("B", 22, 0, 21, 221), ("A", 5, 9, 11, 117),
        ("B", 22, 0, 11, 117), ("A", 6, 11, 0, 0),
    ],
    (3, 0): [
        ("A", 1, 87, 176, 804), ("B", 22, 20, 15, 54), ("A", 2, 5, 0, 0),
    ],
    (2, 0): [
        ("A", 1, 53, 473, 4349), ("B", 22, 10, 346, 2458), ("A", 2, 48, 290, 2276),
        ("B", 22, 0, 290, 2276), ("A", 3, 57, 192, 1805), ("B", 22, 0, 192, 1805),
        ("A", 4, 7, 184, 1830), ("B", 22, 0, 184, 1830), ("A", 5, 9, 175, 1891),
        ("B", 22, 0, 175, 1891), ("A", 6, 2, 173, 1839), ("B", 22, 0, 173, 1839),
        ("A", 7, 2, 171, 1809), ("B", 22, 0, 171, 1809), ("A", 8, 0, 171, 1809),
        ("B", 22, 0, 171, 1809), ("C", 0, 4, 167, 1787), ("A", 9, 0, 167, 1787),
        ("B", 22, 0, 167, 1787), ("C", 0, 0, 167, 1787), ("D", 22, 11, 153, 47705),
        ("A", 10, 11, 136, 37487), ("B", 22, 0, 136, 37487), ("A", 11, 1, 135, 37432),
        ("B", 22, 0, 135, 37432), ("A", 12, 1, 134, 37349), ("B", 22, 0, 134, 37349),
        ("A", 13, 5, 129, 82251), ("B", 22, 0, 129, 82251), ("A", 14, 0, 129, 82251),
        ("B", 22, 0, 129, 82251), ("C", 0, 0, 129, 82251), ("D", 22, 0, 129, 82251),
        ("E", 0, 170, 0, 0),
    ],
}


@pytest.mark.parametrize("j, c", list(ROUND_LOGS))
def test_driver_round_logs_are_pinned(j, c):
    from godeaux2.pipeline import run_pipeline

    log = run_pipeline(j, c).elim.round_log
    assert [(r.stage, r.n, r.eliminated, r.f_size, r.f_terms) for r in log] == ROUND_LOGS[j, c]


def test_run_pipeline_stall_carries_the_system_and_the_state():
    """(1,0) stalls; the error carries the flattened system and the driver's
    last state, which scripts/case_survey.py reports."""
    from godeaux2.elim import EliminationError
    from godeaux2.pipeline import run_pipeline

    with pytest.raises(EliminationError) as err:
        run_pipeline(1, 0)
    assert len(err.value.system.f) == 850 and err.value.system.param_count == 394
    left = err.value.state.f
    assert len(left) == 73
    T = left[0].table
    assert T.var("b11") * T.var("b12") in left


def test_driver_fallbacks_follow_idle_moves_and_e_fires_once():
    from godeaux2.elim import EliminationError

    T = param_table()
    d, r1, g1 = T.var("d"), T.var("r1"), T.var("g1")
    # round 1: A frees nothing, B's pivot on g1 has coefficient d, so C, D
    # and E each get a turn; round 2 climbs to E again, finds no r left and
    # is the idle round the driver stops at
    with pytest.raises(EliminationError, match="idle round 2 with 2 residual") as err:
        driver([d * g1 - d * d, r1 * g1 - d], ["r1"], ["g1"])
    state = err.value.state
    assert "".join(r.stage for r in state.round_log) == "ABCDEABCDE"
    assert [dep.var for dep in state.deps] == ["r1"]  # from E, in round 1 only
    assert state.f == [d * g1 - d * d, d]


# (residuals, idle round, stage string) of the two cases that stall
STALLS = {
    (1, 0): (73, 11, "ABABABABABABABCABCDABCDEABCABCDE"),
    (2, 1): (155, 13, "ABABABABABABABABABABABABCDEABCDE"),
}


@pytest.mark.parametrize("j, c", list(STALLS))
def test_stall_is_the_first_idle_round(j, c):
    from godeaux2.elim import EliminationError
    from godeaux2.pipeline import run_pipeline

    residuals, idle_round, stages = STALLS[j, c]
    with pytest.raises(EliminationError) as err:
        run_pipeline(j, c)
    assert f"idle round {idle_round} with {residuals} residual" in str(err.value)
    state = err.value.state
    assert len(state.f) == residuals
    log = state.round_log
    assert "".join(r.stage for r in log) == stages
    assert [(r.stage, r.n, r.eliminated) for r in log[-5:]] == [
        ("A", idle_round, 0), ("B", 22, 0), ("C", 0, 0), ("D", 22, 0), ("E", 0, 0),
    ]


# d a PARAMETER and d INVERTIBLE: both content rules of primitive_form
DRIVER_TABLES = (param_table(nr=3), param_table(nr=3, d_kind=INVERTIBLE))
DRIVER_TARGETS = (["r1", "r2", "r3"], ["g1"])
driver_monos = st.lists(st.integers(0, 2), min_size=5, max_size=5).map(dense_mono)
driver_systems = st.tuples(
    st.sampled_from(DRIVER_TABLES),
    st.lists(
        st.dictionaries(driver_monos, st.integers(-3, 3).filter(bool), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
).map(lambda table_terms: [Polynomial(table_terms[0], t) for t in table_terms[1]])


@given(driver_systems)
@settings(max_examples=200, deadline=None)
def test_driver_stops_at_its_first_idle_round(f):
    from godeaux2.elim import EliminationError

    r_names, gb_names = DRIVER_TARGETS
    try:
        state = driver(f, r_names, gb_names)
        assert not state.f
    except EliminationError as err:
        state = err.state
        last = state.round_log[-5:]
        assert [(r.stage, r.eliminated) for r in last] == [(s, 0) for s in "ABCDE"]
        assert state.f
    log = state.round_log
    assert sum(1 for r in log if r.stage == "E" and r.eliminated) <= 1
    assert sum(r.stage == "A" for r in log) <= len(r_names) + len(gb_names) + 1


def test_zero_free_vars_keeps_the_first_of_equal_images_and_drops_zeros():
    from godeaux2.elim import zero_free_vars

    T = param_table()
    d, r1, g1 = T.var("d"), T.var("r1"), T.var("g1")
    f = [g1 + r1, r1 * d, d * g1, 2 * g1 + 2 * r1 * d]
    out, deps = zero_free_vars(f, ["r1"])
    assert [dep.var for dep in deps] == ["r1"]
    # r1*d goes to zero; 2*g1 normalises to the g1 already kept in front
    assert out == [g1, d * g1]


def test_monomial_elim_leaves_a_nonzero_constant_alone():
    # the unit monomial is neither a pure power nor holds an r
    T = param_table()
    r1, g1 = T.var("r1"), T.var("g1")
    out, deps = monomial_elim([T.const(-3), g1 * r1, g1 ** 2], ["r1"], ["g1"])
    assert [dep.var for dep in deps] == ["r1", "g1"]
    assert out == [T.one()]


def test_monomial_elim_rewrites_only_what_holds_v(monkeypatch):
    T = param_table()
    d, g1, r5, r6 = T.var("d"), T.var("g1"), T.var("r5"), T.var("r6")
    f = [d * g1 * r5, g1 + d * r5, d + g1 * r6]
    rewritten = []
    substitute = Polynomial.substitute

    def spy(self, bindings):
        rewritten.append(self)
        return substitute(self, bindings)

    monkeypatch.setattr(Polynomial, "substitute", spy)
    untouched = f[2]  # monomial_elim takes the list f over
    out, deps = monomial_elim(f, ["r5", "r6"], [])
    assert [dep.var for dep in deps] == ["r5"]
    assert rewritten == [g1 + d * r5]
    assert out == [g1, d + g1 * r6]
    assert out[1] is untouched  # not a copy


def test_lin_elim_frees_what_it_rewrites_or_drops():
    # the worktable is built inside f: a pivot, a rewritten polynomial and a
    # copy leave the caller's list during the call, an untouched one stays
    T = param_table()
    r1, r2, g1, d = T.var("r1"), T.var("r2"), T.var("g1"), T.var("d")
    pivot, held, copy, untouched = r1 - g1, r1 * r2 + d, 2 * g1 * r2 + 2 * d, g1 + d
    f = [pivot, held, copy, untouched]
    out, _, deps = lin_elim(f, [True, False, False, False], ["r1"], 1)
    assert [dep.var for dep in deps] == ["r1"]
    assert out == [g1 * r2 + d, untouched] and out[1] is untouched
    ids = {id(p) for p in f}
    assert not ids & {id(pivot), id(held), id(copy)}
    assert id(untouched) in ids


def test_worktable_keeps_different_polynomials_of_one_bucket():
    # same size, leading monomial and leading coefficient, different terms
    T = param_table()
    r1, r2, r3 = T.var("r1"), T.var("r2"), T.var("r3")
    p, q = r1 + r2, r1 + r3
    assert len(p.terms) == len(q.terms) and p.leading_mono() == q.leading_mono()
    work = _Worktable([p, q], [True, False])
    assert work.polys == [p, q] and work.alive_flags() == [True, False]


def test_eliminate_hands_each_rewrite_the_polynomial_out_of_its_slot():
    # the rewrite gets the worktable's only reference: no slot holds the
    # polynomial it receives, and every bucket names only live slots
    T = param_table()
    r1, r2, r3, g1, d = (T.var(n) for n in ("r1", "r2", "r3", "g1", "d"))
    work = _Worktable([r1 - g1, r1 * r2 + d, g1 + d, r1 * r3 - g1], [True] * 4)
    seen = []

    def rewrite(q):
        in_slot = any(p is q for p in work.polys)
        stale = any(work.polys[i] is None for b in work.buckets.values() for i in b)
        seen.append((q, in_slot, stale))
        return q.substitute({"r1": g1})

    assert work.eliminate(0, T.index["r1"], rewrite) == [1, 3]
    assert [q for q, _, _ in seen] == [r1 * r2 + d, r1 * r3 - g1]
    assert not any(in_slot or stale for _, in_slot, stale in seen)
    assert work.alive() == [g1 * r2 + d, g1 + d, g1 * r3 - g1]


def test_rewrites_store_term_dicts_sized_for_their_terms():
    # each rewrite deletes the terms that held r1 and every product that
    # cancels; what it returns must not keep the room those took
    T = param_table()
    r = [T.var(f"r{k}") for k in range(1, 9)]
    g1, d = T.var("g1"), T.var("d")
    tail = sum(r[2:], T.zero())
    f = [r[0] - g1 - d, r[0] * tail + (g1 + d) * (r[1] - tail), r[0] ** 2 * r[1] - d]
    out, _, _ = lin_elim(f, [True, False, False], ["r1"], 1)
    assert len(out) == 2 and len(out[0].terms) == 2  # twelve products cancelled
    for p in out:
        assert sys.getsizeof(p.terms) <= sys.getsizeof(dict(p.terms))


def test_one_pivot_shares_its_product_monomials():
    T = param_table()
    r1, r2, r3, r4, g1 = (T.var(n) for n in ("r1", "r2", "r3", "r4", "g1"))
    out, _, _ = lin_elim([r1 - g1, r1 * r2 + r3, r1 * r2 + r4], [True, False, False], ["r1"], 1)
    assert out == [g1 * r2 + r3, g1 * r2 + r4]
    (product,) = (g1 * r2).terms
    first, second = ([m for m in p.terms if m == product][0] for p in out)
    assert first is second
