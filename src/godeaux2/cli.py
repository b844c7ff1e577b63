"""Command-line entry point: pipeline, verify, and special subcommands.

Exit codes: 0 success, 1 check or pipeline failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .elim import EliminationError
from .pipeline import alpha_to_json, equations_to_json, run_pipeline, stats_dict, write_artifacts
from .verify import (
    BF_SURFACE,
    BY_SURFACE,
    all_checks,
    verify_special,
)

EMIT_CHOICES = ("alpha", "equations", "deps", "stats")


@dataclass
class RunConfig:
    alpha_case: int = 1
    c: int = 1
    out_dir: Path = Path("out")
    max_rounds: int = 10
    seed: int = 0
    checks: tuple = ()
    emit: tuple = EMIT_CHOICES
    golden: Path = None


def packaged_golden() -> Path:
    return Path(__file__).parent / "data" / "alpha_1_1.json"


def packaged_golden_equations() -> Path:
    return Path(__file__).parent / "data" / "equations_1_1.json"


def cmd_pipeline(cfg: RunConfig) -> int:
    try:
        result = run_pipeline(cfg.alpha_case, cfg.c, cfg.max_rounds)
    except EliminationError as err:
        state = getattr(err, "state", None)
        print(f"pipeline failed: {err}", file=sys.stderr)
        if state is not None:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
            dump = cfg.out_dir / "residual_f.txt"
            dump.write_text("\n".join(str(p) for p in state.f) + "\n")
            print(f"residual system dumped to {dump}", file=sys.stderr)
        return 1
    written = write_artifacts(result, cfg.out_dir, cfg.emit)
    stats = stats_dict(result)
    print(
        f"case alpha_{cfg.alpha_case} c={cfg.c}: |f|={stats['initial_f']} over "
        f"{stats['distinct_parameters']} parameters; eliminated "
        f"{stats['dependencies']}; survivors {stats['survivors']}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _golden_file_check(cfg: RunConfig):
    from .verify import CheckReport
    import time

    def check() -> CheckReport:
        t0 = time.monotonic()
        result = run_pipeline(1, 1, cfg.max_rounds)
        targets = [(cfg.golden or packaged_golden(), json.dumps(alpha_to_json(result), indent=1) + "\n")]
        if cfg.golden is None:
            targets.append(
                (packaged_golden_equations(), json.dumps(equations_to_json(result), indent=1) + "\n")
            )
        for path, current in targets:
            if not path.exists():
                return CheckReport(
                    "golden_file", "skipped", note=f"no golden file at {path}", timing=time.monotonic() - t0
                )
            if current != path.read_text():
                return CheckReport(
                    "golden_file",
                    "fail",
                    witness=f"pipeline output differs from {path}",
                    timing=time.monotonic() - t0,
                )
        return CheckReport("golden_file", "pass", timing=time.monotonic() - t0)

    return check


def cmd_verify(cfg: RunConfig) -> int:
    registry = all_checks(cfg.seed)
    registry["golden_file"] = _golden_file_check(cfg)
    names = list(cfg.checks) if cfg.checks and "all" not in cfg.checks else sorted(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        report = registry[name]()
        line = f"{report.name:26s} {report.status:8s} {report.timing:7.2f}s"
        if report.note:
            line += f"  {report.note}"
        print(line)
        if report.status == "fail":
            failed += 1
            print(f"  witness: {report.witness}")
    return 1 if failed else 0


def cmd_special(cfg: RunConfig, surface_name: str) -> int:
    surface = {"by": BY_SURFACE, "bf": BF_SURFACE}[surface_name]
    report = verify_special(surface)
    print(f"{report.name:26s} {report.status:8s} {report.timing:7.2f}s  {report.note}")
    if report.status == "fail":
        print(f"  witness: {report.witness}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godeaux2",
        description=(
            "Exact determinantal equations and identity verification for "
            "etale double covers of Z/2-Godeaux surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the full derivation for one case")
    p.add_argument("--alpha", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--c", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", type=Path, default=Path("out"))
    p.add_argument("--max-rounds", type=int, default=10)
    p.add_argument(
        "--emit",
        default=",".join(EMIT_CHOICES),
        help=f"comma list from {EMIT_CHOICES}",
    )

    v = sub.add_parser("verify", help="run the identity verification suite")
    v.add_argument(
        "--check",
        action="append",
        default=[],
        help="check name (repeatable); default: all",
    )
    v.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seeds the evaluation points of the scaling check only",
    )
    v.add_argument("--max-rounds", type=int, default=10)
    v.add_argument("--golden", type=Path, default=None)

    s = sub.add_parser("special", help="check a known special surface")
    s.add_argument("--surface", choices=("by", "bf"), required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline":
        emit = tuple(e.strip() for e in args.emit.split(",") if e.strip())
        bad = [e for e in emit if e not in EMIT_CHOICES]
        if bad:
            parser.error(f"unknown emit targets: {bad}")
        cfg = RunConfig(
            alpha_case=args.alpha,
            c=args.c,
            out_dir=args.out,
            max_rounds=args.max_rounds,
            emit=emit,
        )
        return cmd_pipeline(cfg)
    if args.command == "verify":
        cfg = RunConfig(
            checks=tuple(args.check),
            seed=args.seed,
            max_rounds=args.max_rounds,
            golden=args.golden,
        )
        return cmd_verify(cfg)
    if args.command == "special":
        return cmd_special(RunConfig(), args.surface)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
