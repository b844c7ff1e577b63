#!/usr/bin/env python3
"""Interleaved benchmark pairs between two source checkouts.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload derive_fallback --pairs 10

Runs `perfbench/run.py --trace 0` in the two checkouts one after the other,
`--pairs` times, switching from pair to pair which side runs first, so that a
drift of the machine's speed falls on both sides alike.  Each run lasts the
`run_seconds` of this repository's BENCHMARK.json.  Each run's end-to-end
metrics come from the JSON object on its last line of output.

Prints every pair (parent value, change value and change/parent ratio per
metric), then per metric each side's median and quartiles, the median of the
per-pair ratios, the number of pairs in which the change was lower, whether
the pairs show a gain (see `gain_shown`), and whether the change's median is
within the metric's `bound` in BENCHMARK.json's `end_to_end`: no worse than
the parent's median by more than that fraction.  Exits 1 as soon as a run
fails or is not `correct`.
The script only starts `perfbench/run.py`; each run cleans up after itself.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def run_once(checkout: Path, workload: str) -> dict:
    """{metric: value} of one `--trace 0` run in `checkout`."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{checkout}: run failed (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3); one value is all three."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def within_bound(name: str, before: float, after: float):
    """Whether the change's median `after` is no worse than the parent's
    `before` by more than the metric's end-to-end bound; None for a metric
    with no bound."""
    metric = END_TO_END.get(name)
    if metric is None:
        return None
    if metric["better"] == "lower":
        return after <= before * (1 + metric["bound"])
    return after >= before * (1 - metric["bound"])


def gain_shown(name: str, pairs: list) -> bool:
    """Whether the pairs show the change better on metric `name`: better in
    at least 9 of every 10 pairs, and its median better than the parent's by
    more than the parent's interquartile range.  Lower is better unless
    BENCHMARK.json's `end_to_end` says otherwise."""
    sign = -1 if END_TO_END.get(name, {}).get("better") == "higher" else 1
    before = [sign * p[name] for p, _ in pairs]
    after = [sign * c[name] for _, c in pairs]
    q1, med, q3 = quartiles(before)
    better = sum(c < p for p, c in zip(before, after))
    return 10 * better >= 9 * len(pairs) and med - statistics.median(after) > q3 - q1


def summarize(pairs: list) -> list:
    """One row per metric over (parent, change) metric dicts:
    (name, parent median, parent q1, parent q3, change median, change q1,
    change q3, median ratio, pairs with the change lower, within bound)."""
    rows = []
    for name in pairs[0][0]:
        before = [p[name] for p, _ in pairs]
        after = [c[name] for _, c in pairs]
        q1, med, q3 = quartiles(before)
        c1, cmed, c3 = quartiles(after)
        ratio = statistics.median(c / p for p, c in zip(before, after))
        lower = sum(c < p for p, c in zip(before, after))
        rows.append((name, med, q1, q3, cmed, c1, c3, ratio, lower, within_bound(name, med, cmed)))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="interleaved perfbench pairs: parent vs change")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    pairs = []
    for k in range(args.pairs):
        sides = {}
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_once(getattr(args, side), args.workload)
        pairs.append((sides["parent"], sides["change"]))
        cells = [
            f"{name} {p:.4g} -> {sides['change'][name]:.4g} ({sides['change'][name] / p:.3f})"
            for name, p in sides["parent"].items()
        ]
        print(f"pair {k + 1} ({order[0]} first): " + "  ".join(cells), flush=True)

    print(f"{args.workload}, {len(pairs)} pairs, parent -> change:")
    for name, med, q1, q3, cmed, c1, c3, ratio, lower, ok in summarize(pairs):
        bound = "no bound"
        if ok is not None:
            bound = f"{'within' if ok else 'BEYOND'} bound {END_TO_END[name]['bound']:g}"
        gain = "gain shown" if gain_shown(name, pairs) else "no gain shown"
        print(
            f"  {name:12s} parent {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]  "
            f"change {cmed:.4g} [q1 {c1:.4g}, q3 {c3:.4g}]  "
            f"median ratio {ratio:.3f}  change lower in {lower}/{len(pairs)}  {gain}  {bound}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
