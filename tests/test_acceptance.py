"""Acceptance suite: one test per criterion, exact tolerances, one emitted
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
from fractions import Fraction

from godeaux2.alpha import BORDER_PARAMS
from godeaux2.elim import back_substitute, driver, lin_elim, resolve_dependencies
from godeaux2.ring import MULTIPLIER
from godeaux2.verify import (
    BF_SURFACE,
    BY_SURFACE,
    verify_alpha2_basepoint,
    verify_alpha3_square,
    verify_central_minors,
    verify_golden_match,
    verify_excluded_diagonal_rc,
    verify_closed_form_rc,
    verify_quartic_root_congruence,
    verify_imaginary_unit_congruence,
    verify_restriction_cofactors,
    verify_y2_quartic_coefficient,
    verify_r_removal,
    verify_scaling,
    verify_special,
    verify_extension_shuffle,
)

from _controls import perturb_at_x0, perturb_excluded_multipliers, weaken_rewrite_rules

SURVIVORS = {"b5", "b9", "b6", "b8", "d", "b2", "b11", "g9", "b12"}


def _line(num: int, ok: bool, desc: str) -> bool:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    return ok


def test_criterion_01_system_size(run11):
    ok = run11.initial_f == 876 and len(run11.param_names) == 394
    multipliers = set(run11.table.of_kind(MULTIPLIER))
    rs = [n for n in run11.param_names if n in multipliers]
    ok = ok and len(rs) == 371 and len(multipliers) == 371
    assert _line(1, ok, "876 coefficients over 394 = 371 + 23 parameters")


def test_criterion_02_survivor_set(run11):
    ok = not run11.elim.f and set(run11.gbd_survivors) == SURVIVORS
    assert _line(2, ok, f"driver empties f; g/b/d survivors = {sorted(SURVIVORS)}")


def test_criterion_03_elimination_soundness(run11, rc11):
    # the cached run keeps no f: eliminate rc11's f, flattened over its own
    # table, and check that its log is run11's, line for line as deps.log
    # prints it, and annihilates every coefficient
    f = rc11[-1].f
    state = driver(f, run11.table.of_kind(MULTIPLIER), list(BORDER_PARAMS))
    lines = [[f"{d.var} := {d.expr}" for d in s.deps] for s in (state, run11.elim)]
    same = lines[0] == lines[1]
    resolved = resolve_dependencies(state.deps)
    bad = sum(1 for p in f if not back_substitute(p, resolved).is_zero())
    ok = same and len(f) == 876 and bad == 0
    assert _line(3, ok, "dependency log annihilates all 876 coefficients")


def test_criterion_04_closed_form_rc(run11):
    rep = verify_closed_form_rc()
    assert _line(4, rep.status == "pass", "closed-form family satisfies the rank condition")


def test_criterion_05_golden_match_soft(run11):
    rep = verify_golden_match()
    _line(5, rep.status == "pass", "back-substituted entries match the closed form (soft)")
    if rep.status != "pass":
        print(f"  divergence (non-fatal while criteria 2-4 hold): {rep.witness}")


def _fails_under(monkeypatch, control, check) -> bool:
    with monkeypatch.context() as m:
        control(m)
        return check().status == "fail"


def test_criterion_06_identity_suite(monkeypatch):
    reports = [
        verify_excluded_diagonal_rc(),
        verify_restriction_cofactors(1),
        verify_restriction_cofactors(2),
        verify_restriction_cofactors(3),
        verify_y2_quartic_coefficient(),
        verify_quartic_root_congruence(),
        verify_imaginary_unit_congruence(),
        verify_extension_shuffle(),
    ]
    ok = all(r.status == "pass" for r in reports)
    controls_fail = (
        _fails_under(monkeypatch, perturb_excluded_multipliers, verify_excluded_diagonal_rc)
        and _fails_under(monkeypatch, weaken_rewrite_rules, verify_quartic_root_congruence)
        and _fails_under(monkeypatch, perturb_at_x0, verify_imaginary_unit_congruence)
    )
    assert _line(
        6,
        ok and controls_fail,
        "identity suite exact zero-tests pass; negative controls fail",
    )


def test_criterion_07_scaling(monkeypatch, run11):
    from godeaux2 import verify

    # at s = 0 or +-1 a power of s does not tell its exponent, so the
    # comparison would not prove every term invariant
    assert verify.SCALING_S not in (0, 1, -1)
    ok = verify_scaling().status == "pass"
    monkeypatch.setattr(verify, "SCALING_S", Fraction(7, 5))
    ok = ok and verify_scaling().status == "pass"
    assert _line(7, ok, "weighted scaling identity, term by term, at s = 2 and s = 7/5")


def test_criterion_08_emptiness_witnesses(run30, run20):
    sq = verify_alpha3_square()
    bp = verify_alpha2_basepoint()
    ok = sq.status == "pass" and bp.status == "pass"
    assert _line(
        8, ok, "det(alpha_3, c=0) square up to sign; (alpha_2, c=0) contains the base point"
    )


def test_criterion_09_central_minors(run11):
    rep = verify_central_minors()
    assert _line(9, rep.status == "pass", "3x3 minors in (x^2, Q); central det in (x^2, Q^2)")


def test_criterion_10_special_surfaces(run11):
    by = verify_special(BY_SURFACE)
    bf = verify_special(BF_SURFACE)
    ok = by.status == "pass" and bf.status == "pass"
    assert _line(10, ok, "special surfaces verified over Q and Q(sqrt(-15))")


def test_criterion_11_r_removal(run11):
    rep = verify_r_removal()
    ok = rep.status == "pass" and rep.note.startswith("all 94 r-coefficients certified by exact cofactors")
    assert _line(11, ok, f"degree<=5 equations r-free; {rep.note}")


def test_criterion_12_performance(run11, tmp_path):
    from godeaux2.pipeline import stats_dict, write_artifacts

    stats = stats_dict(run11)
    ok = (
        run11.wall_time < 900.0
        and run11.peak_kb < 2 * 1024 * 1024
        and stats["wall_time_s"] > 0
        and stats["peak_memory_kb"] > 0
    )
    write_artifacts(run11, tmp_path)
    ok = ok and (tmp_path / "stats.json").exists()
    assert _line(
        12,
        ok,
        f"pipeline in {run11.wall_time:.1f}s, {run11.peak_kb // 1024}MB "
        "(limits: 900s, 2GB); stats recorded",
    )


def test_criterion_13_linelim_oracle():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from _oracle import gauss_classify

    from godeaux2.ring import PARAMETER, VariableTable

    rng = random.Random(424243)
    nv_total = 10
    T = VariableTable([(f"r{k}", 0, 1, PARAMETER) for k in range(1, nv_total + 1)])
    names = [f"r{k}" for k in range(1, nv_total + 1)]
    var_polys = [T.var(n) for n in names]
    checked = 0
    for _ in range(110):
        nv = rng.randint(2, nv_total)
        ne = rng.randint(max(1, nv - 1), nv + 2)
        rows = []
        for _ in range(ne):
            coeffs = [
                Fraction(rng.randint(-5, 5)) if rng.random() < 0.8 else Fraction(0)
                for _ in range(nv)
            ]
            rows.append((coeffs, Fraction(rng.randint(-6, 6))))
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
        if verdict == "unique":
            assert not f
            resolved = resolve_dependencies(deps)
            for k, name in enumerate(names[:nv]):
                assert resolved.get(T.index[name], T.var(name)) == T.const(solution[k])
        elif verdict == "inconsistent":
            assert f
        checked += 1
    assert _line(13, checked >= 100, f"LinElim matches the Gaussian oracle on {checked} systems")
