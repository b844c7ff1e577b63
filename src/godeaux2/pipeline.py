"""End-to-end pipeline: ansatz -> rank condition -> elimination -> equations.

Runs are cached per (j, c) because several verification checks
share them.  `ARTIFACT_TEXT` is the one place the artifact formats live: it
maps each file name to the text a result writes there.  Everything except
wall-clock and memory statistics is byte-deterministic.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from .alpha import BORDER_PARAMS, AlphaCase, SymPolyMatrix, build_ansatz
from .elim import (
    EliminationError,
    EliminationState,
    back_substitute,
    driver,
    resolve_dependencies,
    survivors,
)
from .rc import build_l_ansatz, compute_cofactors, extract_system, rc_residuals
from .ring import INVERTIBLE, MULTIPLIER, Polynomial, exponents
from .surface import collect_Gm, generate_equations, remove_r


@dataclass
class PipelineResult:
    """One derived family.  `l_final` maps (i, j, k) to the solved multiplier
    l_ij^k, `equations` maps each label (vv_22..vv_66, row_1..row_6) to its
    r-free equation, and `gm` each surviving r to its (label, coefficient)
    pairs: plain dicts of polynomials.

    Of the flattened system f a cached run keeps two fields: `initial_f`,
    the number of coefficients the soundness check back-substituted, and
    `param_names`, the distinct parameters of f in table order.  Nothing
    after that check reads f itself, and several runs stay cached at once,
    so f is freed when `run_pipeline` returns."""

    case: AlphaCase
    table: object
    params: list
    initial_f: int
    param_names: list
    elim: EliminationState
    alpha_final: SymPolyMatrix
    l_final: dict
    equations: dict
    gm: dict  # one key per r left in the raw equations
    gbd_survivors: list
    wall_time: float
    peak_kb: int


_CACHE: dict = {}


def run_pipeline(j: int, c: int) -> PipelineResult:
    """Derive the family (j, c): the multiplier ansatz, the 15 residuals, the
    flattened system f, the driver over the table's multipliers and the
    border parameters BORDER_PARAMS, then back-substitution, equations and
    r-removal.  For j=2 the driver may divide by d, which `make_table`
    declares INVERTIBLE.  The soundness check back-substitutes all
    `initial_f` coefficients of f; a run whose dependency log leaves one
    nonzero raises EliminationError and is not cached.  The driver's
    EliminationError (a stall) propagates with the full system attached as
    `err.system`."""
    key = (j, c)
    if key in _CACHE:
        return _CACHE[key]
    t0 = time.monotonic()
    case = AlphaCase(j, c)
    alpha0, params = build_ansatz(case)
    l0 = build_l_ansatz(alpha0.table, case)
    system = extract_system(rc_residuals(compute_cofactors(alpha0), l0), case)
    try:
        state = driver(system.f, alpha0.table.of_kind(MULTIPLIER), list(BORDER_PARAMS))
    except EliminationError as err:
        err.system = system
        raise
    resolved = resolve_dependencies(state.deps)
    # soundness: the dependency log must annihilate every coefficient of f
    unsound = sum(1 for p in system.f if back_substitute(p, resolved))
    if unsound:
        raise EliminationError(
            f"dependency log leaves {unsound} of {len(system.f)} coefficients nonzero"
        )
    alpha_final = alpha0.map_entries(lambda p: back_substitute(p, resolved))
    alpha_final.check_pattern()
    l_final = {k: back_substitute(p, resolved) for k, p in l0.items()}
    gbd = survivors(params, state.deps)
    equations_raw = generate_equations(alpha_final, l_final)
    gm = collect_Gm(equations_raw)
    equations = remove_r(equations_raw)
    result = PipelineResult(
        case=case,
        table=alpha0.table,
        params=params,
        initial_f=len(system.f),
        param_names=system.param_names,
        elim=state,
        alpha_final=alpha_final,
        l_final=l_final,
        equations=equations,
        gm=gm,
        gbd_survivors=gbd,
        wall_time=time.monotonic() - t0,
        peak_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    _CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# serialization


def poly_to_json(p: Polynomial) -> dict:
    table = p.table
    terms = []
    for m, c in p.sorted_terms():
        terms.append(
            {
                "coeff": str(c),
                "exps": {table.names[v]: e for v, e in exponents(m)},
            }
        )
    return {"text": str(p), "terms": terms}


def alpha_to_json(result: PipelineResult) -> dict:
    return {
        "case": {"alpha": result.case.j, "c": result.case.c},
        "parameters": result.params,
        "survivors": result.gbd_survivors,
        "matrix": [
            [poly_to_json(p) for p in row] for row in result.alpha_final.rows
        ],
    }


def equations_to_json(result: PipelineResult) -> dict:
    equations = []
    for label, p in result.equations.items():
        degree, sign = p.grading()
        equations.append(
            {"label": label, "weighted_degree": degree, "sigma_sign": sign, **poly_to_json(p)}
        )
    return {
        "case": {"alpha": result.case.j, "c": result.case.c},
        "variables": [
            result.table.names[v] for v in range(result.table.geo_cut)
        ],
        "parameters": result.gbd_survivors,
        "equations": equations,
    }


def deps_log_text(result: PipelineResult) -> str:
    lines = [f"{dep.var} := {dep.expr}" for dep in result.elim.deps]
    return "\n".join(lines) + "\n"


def stats_dict(result: PipelineResult) -> dict:
    return {
        "case": {"alpha": result.case.j, "c": result.case.c},
        "initial_f": result.initial_f,
        "distinct_parameters": len(result.param_names),
        "r_count": len(result.table.of_kind(MULTIPLIER)),
        "invertible": result.table.of_kind(INVERTIBLE),
        "rounds": [
            {
                "stage": r.stage,
                "n": r.n,
                "eliminated": r.eliminated,
                "f_size": r.f_size,
                "f_terms": r.f_terms,
                "seconds": round(r.seconds, 6),
                "peak_kb": r.peak_kb,
            }
            for r in result.elim.round_log
        ],
        "dependencies": len(result.elim.deps),
        "sound": True,
        "sound_checked": result.initial_f,
        "survivors": result.gbd_survivors,
        "r_survivors": len(result.gm),
        "equations": len(result.equations),
        "wall_time_s": round(result.wall_time, 6),
        "peak_memory_kb": result.peak_kb,
    }


def _json_text(to_json):
    return lambda result: json.dumps(to_json(result), indent=1) + "\n"


# artifact file name -> its text for a result, in the order they are written
ARTIFACT_TEXT = {
    "alpha.json": _json_text(alpha_to_json),
    "equations.json": _json_text(equations_to_json),
    "deps.log": deps_log_text,
    "stats.json": _json_text(stats_dict),
}


def write_artifacts(result: PipelineResult, out_dir) -> list:
    """Write every ARTIFACT_TEXT entry into `out_dir`; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in ARTIFACT_TEXT.items():
        path = out / name
        path.write_text(text(result))
        written.append(path)
    return written
