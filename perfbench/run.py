"""Derivation and verification benchmark for godeaux2.

    python3 perfbench/run.py --workload derive_ab --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from `src`).
Workloads:

  derive_ab        cold derivations of (1,1), (3,1), (3,0): stages A and B only
  derive_fallback  a cold (2,0) derivation: 34 rounds with the C/D/E fallbacks
  verify_warm      a full `godeaux2 verify` pass over three warm pipelines

Each run starts one workload process (perfbench/workload.py) for the timed
passes, plus set-up-only processes so that set-up is timed several times.
It prints every metric by name with its unit, median, tail percentile and
sample count, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from the traced
passes (see perfbench/tracing.py).

An operation is one case derivation or one verify check; it fails when the
program exits nonzero, an artifact differs from the seed-commit reference,
or a check does not report its expected status.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESS_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(values):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q:g}", sorted(values)[math.ceil(q / 100 * n) - 1]
    return None


def describe(name, unit, values):
    med = statistics.median(values)
    t = tail(values)
    tail_text = f"{t[0]} {t[1]:.6g} {unit}" if t else "tail n/a (n < 20)"
    return f"  {name:40s} median {med:.6g} {unit:5s}  {tail_text}  n={len(values)}"


def spawn(args, setup_only: bool, work_dir: Path) -> tuple:
    """Start one workload process; returns (set-up seconds, result dict).
    Set-up is timed from just before the process starts until it reports
    ready."""
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        setup_s, result = None, None
        for line in proc.stdout:
            if line == "ready\n" and setup_s is None:
                setup_s = perf_counter() - t0
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or result is None:
        raise RuntimeError(f"workload process exited with code {code}")
    return setup_s, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="godeaux2 derivation and verification benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "godeaux2" / "__init__.py").is_file():
        print(f"error: no godeaux2 source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = HERE / "out" / f"work-{os.getpid()}"
    try:
        setup_s, main_result = spawn(args, setup_only=False, work_dir=work_dir)
        setups, results = [setup_s], [main_result]
        if not args.trace:
            # more set-ups, each in a process of its own; the timed process was the first
            for _ in range(WORKLOADS[args.workload]["setups"] - 1):
                setup_s, result = spawn(args, setup_only=True, work_dir=work_dir)
                setups.append(setup_s)
                results.append(result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.workload.startswith("derive"):
        print("  (derive workloads are deterministic and ignore the seed)")
    for r in results:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")

    if args.trace:
        layers = main_result["layers"]
        metrics = {}
        for name, unit in LAYER_METRICS:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"  {name:40s} {layers[name]:.6g} {unit}")
        print(
            f"  tracing overhead: {layers['trace.overhead_s']:.4f} s per pass "
            f"(traced {statistics.median(main_result['traced_passes_s']):.4f} s, "
            f"untraced {statistics.median(main_result['passes_s']):.4f} s)"
        )
        print(f"  spans written to {main_result['trace_file']}")
    else:
        samples = {
            "setup_s": setups,
            "wall_s": main_result["passes_s"],
            "peak_rss_mb": [main_result["peak_rss_mb"]],
        }
        metrics = {}
        for name, unit in END_TO_END:
            print(describe(name, unit, samples[name]))
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        if args.workload == "derive_ab":
            # the headline case; printed only, since no other workload derives it
            print(describe("case_s.alpha_1_1", "s", main_result["case_s"]["alpha_1_1"]))
    print(f"  fail_frac {failed / max(attempted, 1):.6g} ratio  (failed {failed} of {attempted} operations)")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
