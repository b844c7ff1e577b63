"""Quick self-test of the benchmark on the (3,0) case (about a second).

    python3 perfbench/selftest.py

Shows that
  * a clean derivation passes the correctness gate;
  * a one-byte change to any artifact, or an `r_removal` that reports
    `skipped` after a cap hit, is counted as a failed operation
    (negative controls);
  * every count-type layer metric repeats exactly across two traced runs.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import ARTIFACTS, COUNT_METRICS, VERIFY_CHECKS, Tracer  # noqa: E402
from workload import Runner  # noqa: E402

CASE = "alpha_3_0"


def main() -> int:
    work_dir = HERE / "out" / f"selftest-{os.getpid()}"
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    try:
        runner = Runner("derive_ab", 0, work_dir)
        runner.setup()
        gate = runner.gate

        runner.derive(CASE)
        expect(gate.failed == 0, f"clean {CASE} derivation passes the gate")

        clean = work_dir / CASE
        for name in ARTIFACTS:
            bad = work_dir / "mutated"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(clean, bad)
            blob = bytearray((bad / name).read_bytes())
            blob[len(blob) // 2] ^= 0x01
            (bad / name).write_bytes(bytes(blob))
            before = gate.failed
            gate.record(gate.artifacts_ok(CASE, bad), f"mutated {name}")
            expect(gate.failed == before + 1, f"one flipped byte in {name} counts as a failure")

        lines = [
            f"{name:26s} {'skipped' if name in ('r_removal', 'extension_cases_1_2') else 'pass':8s}    0.01s"
            for name in VERIFY_CHECKS
        ]
        before = gate.failed
        gate.record_verify(0, "\n".join(lines))
        expect(gate.failed == before + 1, "an r_removal that reports skipped counts as a failure")

        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                runner.derive(CASE)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics({})
            counts.append({name: metrics[name] for name in COUNT_METRICS})
        expect(counts[0]["elim.lin_elim.calls"] > 0, "the traced run reaches the elimination layer")
        differ = [name for name in COUNT_METRICS if counts[0][name] != counts[1][name]]
        expect(not differ, f"{len(COUNT_METRICS)} count metrics repeat across two traced runs" + (f": {differ}" if differ else ""))
        for name in COUNT_METRICS:
            print(f"       {name:40s} {counts[0][name]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
