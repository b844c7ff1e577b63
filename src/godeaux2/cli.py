"""Command-line entry point: the pipeline and verify subcommands.

Exit codes: 0 success, 1 check or pipeline failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .elim import EliminationError
from .pipeline import run_pipeline, stats_dict, write_artifacts


def cmd_pipeline(args: argparse.Namespace) -> int:
    try:
        result = run_pipeline(args.alpha, args.c)
    except EliminationError as err:
        state = getattr(err, "state", None)
        print(f"pipeline failed: {err}", file=sys.stderr)
        if state is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            dump = args.out / "residual_f.txt"
            dump.write_text("\n".join(str(p) for p in state.f) + "\n")
            print(f"residual system dumped to {dump}", file=sys.stderr)
        return 1
    written = write_artifacts(result, args.out)
    stats = stats_dict(result)
    print(
        f"case alpha_{args.alpha} c={args.c}: |f|={stats['initial_f']} over "
        f"{stats['distinct_parameters']} parameters; eliminated "
        f"{stats['dependencies']}; survivors {stats['survivors']}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def all_checks() -> dict:
    """`verify.all_checks()`.  The verification suite is imported here, when
    a verify command first asks for it, so that `godeaux2 pipeline` never
    loads it."""
    from . import verify

    return verify.all_checks()


def _golden_file_check():
    """Only the tracer's hook: perfbench/tracing.py wraps this name, and
    cmd_verify puts what it returns, the registry check `verify.golden_file`,
    back into the registry under its own name."""
    from . import verify

    return verify.golden_file


def cmd_verify(args: argparse.Namespace) -> int:
    registry = all_checks()
    registry["golden_file"] = _golden_file_check()
    names = list(dict.fromkeys(args.check))  # a check named twice runs once, where first named
    unknown = [n for n in names if n not in registry and n != "all"]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    if not names or "all" in names:
        names = sorted(registry)
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
    p.add_argument(
        "--max-rounds",
        type=int,
        help="has no effect: the elimination stops at its first idle round",
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
        help="has no effect: every check is exact and seed-free",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline":
        return cmd_pipeline(args)
    if args.command == "verify":
        return cmd_verify(args)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
