#!/usr/bin/env python3
"""Tracemalloc peak of one cold derivation per solved case, and of one
verify pass.

    python3 scripts/heap_peaks.py

For each solved case (j, c) the script starts a fresh Python process with
PYTHONHASHSEED=0 and this checkout's `src` first on the path.  That process
imports `godeaux2.pipeline`, starts tracemalloc and runs `run_pipeline(j, c)`
once.  The script prints the peak of the traced memory during the call,
above the traced memory just before it, in MiB.  Last, one more such process
derives (1,1), (3,0) and (2,0) untraced, then traces one `godeaux2 verify`
pass over those warm pipelines, and the script prints its peak the same way.

Unlike the peak RSS, which follows the allocator's history, this figure
counts the live Python objects only.  It repeats from run to run to within
a hundred bytes or so, well below the KiB that the printed figure resolves.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CASES = ((1, 1), (3, 1), (3, 0), (2, 0))  # the solved cases

MEASURE = """
import sys, tracemalloc
from godeaux2.pipeline import run_pipeline
j, c = map(int, sys.argv[1:])
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
run_pipeline(j, c)
print(tracemalloc.get_traced_memory()[1] - before)
"""

WARM = ((1, 1), (3, 0), (2, 0))  # the pipelines a verify pass reads

MEASURE_VERIFY = f"""
import contextlib, io, tracemalloc
from godeaux2.cli import main
from godeaux2.pipeline import run_pipeline
for j, c in {WARM}:
    run_pipeline(j, c)
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["verify"])
peak = tracemalloc.get_traced_memory()[1] - before
assert status == 0, "verify failed"
print(peak)
"""


def _traced_peak_mib(code: str, *args: str) -> float:
    """The traced peak that `code`, run in a fresh process, prints, in MiB."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(proc.stdout) / 2**20


def peak_mib(j: int, c: int) -> float:
    """Traced peak of one cold run_pipeline(j, c) in a fresh process, in MiB."""
    return _traced_peak_mib(MEASURE, str(j), str(c))


def report(j: int, c: int) -> str:
    """The script's line for case (j, c)."""
    return f"alpha_{j}_{c} {peak_mib(j, c):.3f} MiB"


def report_verify() -> str:
    """The script's line for one verify pass over the WARM pipelines."""
    return f"verify {_traced_peak_mib(MEASURE_VERIFY):.3f} MiB"


def main() -> None:
    for j, c in CASES:
        print(report(j, c), flush=True)
    print(report_verify(), flush=True)


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    main()
