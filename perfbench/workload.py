"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work-dir DIR [--setup-only]

The process sets the workload up (import, and for verify_warm three warm
pipelines), prints `ready` on stdout so the parent can time set-up from
process start, then runs timed passes and prints one `result {json}` line.

A pass drives the package through its public entry points only:
`godeaux2.cli.main(["pipeline", ...])` for a derivation and
`godeaux2.cli.main(["verify", "--seed", ...])` for a verify pass.  Every
operation is checked by the correctness gate; a mismatch or a nonzero exit
counts as one failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracing import ARTIFACTS, VERIFY_CHECKS, Tracer

# case name -> (alpha, c, max rounds)
CASES = {
    "alpha_1_1": (1, 1, 10),
    "alpha_3_1": (3, 1, 10),
    "alpha_3_0": (3, 0, 10),
    "alpha_2_0": (2, 0, 16),
}

# derive: the derivations of one pass; warm: pipelines derived during set-up;
# setups: set-ups timed per run (a verify_warm set-up includes a (2,0)
# derivation, so it is timed twice, not five times)
WORKLOADS = {
    "derive_ab": {"derive": ("alpha_1_1", "alpha_3_1", "alpha_3_0"), "min_passes": 3, "setups": 5},
    "derive_fallback": {"derive": ("alpha_2_0",), "min_passes": 2, "setups": 5},
    "verify_warm": {"warm": ("alpha_1_1", "alpha_3_0", "alpha_2_0"), "min_passes": 3, "setups": 2},
}

# verify checks that report `skipped` by design; every other check must pass
SKIPPED_BY_DESIGN = ("extension_cases_1_2",)

CHECK_LINE = re.compile(r"^(\S+)\s+(pass|fail|skipped)\s+-?\d+\.\d+s")


def run_cli(cli, argv):
    """`godeaux2 <argv>`; an exception escaping the CLI is reported in
    place of an exit code, so that it counts as a failed operation."""
    try:
        return cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - any crash is one failed operation
        print(f"godeaux2 {argv[0]} raised {exc!r}", file=sys.stderr)
        return f"exception {type(exc).__name__}"


class Gate:
    """Counts operations and failed operations."""

    def __init__(self, reference: dict):
        self.hashes = reference["artifact_sha256"]
        data = ROOT / "src" / "godeaux2" / "data"
        self.golden = {
            "alpha.json": (data / "alpha_1_1.json").read_bytes(),
            "equations.json": (data / "equations_1_1.json").read_bytes(),
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def artifacts_ok(self, case: str, out_dir: Path) -> bool:
        """sha256 of the three artifacts against the seed-commit reference;
        for (1,1) also byte equality with the packaged golden files."""
        for name in ARTIFACTS:
            path = out_dir / name
            if not path.is_file():
                return False
            blob = path.read_bytes()
            if hashlib.sha256(blob).hexdigest() != self.hashes[case][name]:
                return False
            if case == "alpha_1_1" and name in self.golden and blob != self.golden[name]:
                return False
        return True

    def record_verify(self, rc, text: str) -> None:
        """One operation per check: `pass`, or `skipped` where by design."""
        seen = {}
        for line in text.splitlines():
            m = CHECK_LINE.match(line)
            if m:
                seen[m.group(1)] = m.group(2)
        bad_before = self.failed
        for name in sorted(set(VERIFY_CHECKS) | set(seen)):
            want = "skipped" if name in SKIPPED_BY_DESIGN else "pass"
            got = seen.get(name, "missing")
            self.record(got == want, f"verify {name}: {got}")
        if rc != 0 and self.failed == bad_before:
            self.record(False, f"verify exit code {rc}")


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.gate = None
        self.case_s: dict = {}  # case -> [seconds, ...]
        self.warm_state = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        from godeaux2 import cli, pipeline  # imported here: the import is part of set-up

        self.cli, self.pipeline = cli, pipeline
        self.gate = Gate(json.loads((HERE / "reference.json").read_text()))
        if "warm" in self.spec:
            for case in self.spec["warm"]:
                self.derive(case, cold=False)
            self._snapshot_warm_state()

    def _snapshot_warm_state(self) -> None:
        cache = self.pipeline._CACHE
        self.warm_state = (
            dict(cache),
            {key: dict(result.table._var_cache) for key, result in cache.items()},
        )

    def _restore_warm_state(self) -> None:
        """Every verify pass starts from the state set-up left: the same
        cached pipelines, no cached determinant, the same variable caches."""
        results, var_caches = self.warm_state
        cache = self.pipeline._CACHE
        cache.clear()
        cache.update(results)
        for key, result in results.items():
            result._det = None
            result.table._var_cache.clear()
            result.table._var_cache.update(var_caches[key])

    # -- operations --------------------------------------------------------

    def derive(self, case: str, cold: bool = True) -> float:
        """One derivation through `godeaux2 pipeline`, artifacts included."""
        j, c, rounds = CASES[case]
        out_dir = self.work_dir / case
        shutil.rmtree(out_dir, ignore_errors=True)
        if cold:
            self.pipeline._CACHE.clear()
        argv = ["pipeline", "--alpha", str(j), "--c", str(c), "--max-rounds", str(rounds), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc = run_cli(self.cli, argv)
            dt = perf_counter() - t0
        if rc != 0:
            self.gate.record(False, f"derive {case}: exit {rc}")
        else:
            self.gate.record(self.gate.artifacts_ok(case, out_dir), f"derive {case}: artifacts differ from the reference")
        self.case_s.setdefault(case, []).append(dt)
        return dt

    def verify(self, seed: int) -> float:
        self._restore_warm_state()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            rc = run_cli(self.cli, ["verify", "--seed", str(seed)])
            dt = perf_counter() - t0
        self.gate.record_verify(rc, buf.getvalue())
        return dt

    def one_pass(self, offset: int) -> float:
        """Seconds the package spent on one pass; the gate is not timed."""
        if self.workload == "verify_warm":
            # the k-th pass verifies at seed + k, so that a run averages over
            # several verify seeds
            return self.verify(self.seed + offset)
        return sum(self.derive(case) for case in self.spec["derive"])

    # -- timed loop --------------------------------------------------------

    def timed(self, seconds: float, trace: bool):
        """Passes until the next one would end after `seconds` (at least
        `min_passes`).  With tracing, passes come in pairs, untraced then
        traced, on the same input."""
        untraced, traced, tracers = [], [], []
        start = perf_counter()
        index = 0
        while True:
            if trace and index % 2 == 1:
                tracer = Tracer()
                marks = {case: len(v) for case, v in self.case_s.items()}
                tracer.install()
                try:
                    traced.append(self.one_pass(index // 2))
                finally:
                    tracer.uninstall()
                case_times = {case: v[marks.get(case, 0):] for case, v in self.case_s.items()}
                tracers.append((tracer, case_times))
            else:
                untraced.append(self.one_pass(index // 2 if trace else index))
            index += 1
            elapsed = perf_counter() - start
            if trace:
                enough = len(traced) == len(untraced)
            else:
                enough = len(untraced) >= self.spec["min_passes"]
            if enough and elapsed + statistics.median(untraced + traced) > seconds:
                return untraced, traced, tracers


def layer_report(untraced, traced, tracers) -> dict:
    overhead = statistics.median(traced) - statistics.median(untraced)
    per_pass = []
    for tracer, case_times in tracers:
        extra = {f"pipeline.case_s.{case}": sum(v) for case, v in case_times.items()}
        extra["trace.overhead_s"] = overhead
        per_pass.append(tracer.layer_metrics(extra))
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.work_dir)
    runner.setup()
    print("ready", flush=True)
    result = {}
    if not args.setup_only:
        untraced, traced, tracers = runner.timed(args.seconds, bool(args.trace))
        result["passes_s"] = untraced
        if args.trace:
            result["traced_passes_s"] = traced
            result["layers"] = layer_report(untraced, traced, tracers)
            trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            tracers[-1][0].dump(trace_file, f"{args.workload} seed {args.seed}")
            result["trace_file"] = str(trace_file.relative_to(ROOT))
    result.update(
        case_s=runner.case_s,
        attempted=runner.gate.attempted,
        failed=runner.gate.failed,
        problems=runner.gate.problems[:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
