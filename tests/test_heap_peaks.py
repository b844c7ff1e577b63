"""scripts/heap_peaks.py: the traced peak of a cold derivation repeats."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "heap_peaks.py"


def test_two_fresh_runs_print_the_same_peak():
    report = runpy.run_path(str(SCRIPT))["report"]
    first = report(3, 0)
    assert first.startswith("alpha_3_0 ") and first.endswith(" MiB")
    assert report(3, 0) == first
