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

    Of the flattened system f a run keeps two fields: `initial_f`, the
    number of coefficients of f, each of which the soundness check covers,
    and `param_names`, the distinct parameters of f in table order.  The
    driver gets the only reference to f's list, so each coefficient is
    freed once the elimination has replaced it."""

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
    declares INVERTIBLE.

    f's list goes to the driver with no reference kept here.  The soundness
    check is the rank-condition identity: the back-substituted cofactors of
    the ansatz and the solved multipliers must give zero residuals.
    Back-substitution is a ring map that fixes the geometric variables, so
    the geometric coefficients of those residuals are the images of the
    coefficients of f, and the check covers all `initial_f` of them and the
    flattening as well.  A run whose dependency log leaves one nonzero raises
    EliminationError and is not cached.  The driver's EliminationError (a
    stall) propagates with the system's two counts attached as
    `err.initial_f` and `err.param_count`, next to the driver's `err.state`."""
    key = (j, c)
    if key in _CACHE:
        return _CACHE[key]
    t0 = time.monotonic()
    case = AlphaCase(j, c)
    alpha0, params = build_ansatz(case)
    l0 = build_l_ansatz(alpha0.table, case)
    betas = compute_cofactors(alpha0)
    system = extract_system(rc_residuals(betas, l0), case)
    initial_f, param_names = len(system.f), system.param_names
    try:
        state = driver(system.take_f(), alpha0.table.of_kind(MULTIPLIER), list(BORDER_PARAMS))
    except EliminationError as err:
        err.initial_f, err.param_count = initial_f, system.param_count
        raise
    resolved = resolve_dependencies(state.deps)
    l_final = {k: back_substitute(p, resolved) for k, p in l0.items()}
    # soundness: the rank-condition identity holds after back-substitution
    images = {pos: back_substitute(b, resolved) for pos, b in betas.items()}
    unsound = {
        coeff
        for res in rc_residuals(images, l_final).values()
        for _, coeff in res.coefficients_wrt(case.geo4)
    }
    if unsound:
        raise EliminationError(
            f"dependency log leaves {len(unsound)} of {initial_f} coefficients nonzero"
        )
    alpha_final = alpha0.map_entries(lambda p: back_substitute(p, resolved))
    alpha_final.check_pattern()
    gbd = survivors(params, state.deps)
    equations_raw = generate_equations(alpha_final, l_final)
    gm = collect_Gm(equations_raw)
    equations = remove_r(equations_raw)
    result = PipelineResult(
        case=case,
        table=alpha0.table,
        params=params,
        initial_f=initial_f,
        param_names=param_names,
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
