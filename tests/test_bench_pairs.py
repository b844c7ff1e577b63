"""The summary of scripts/bench_pairs.py over hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_takes_per_pair_ratios_and_parent_quartiles(bench_pairs):
    pairs = [
        ({"wall_s": 2.0, "peak_rss_mb": 50.0}, {"wall_s": 1.0, "peak_rss_mb": 50.0}),
        ({"wall_s": 4.0, "peak_rss_mb": 50.0}, {"wall_s": 3.0, "peak_rss_mb": 55.0}),
        ({"wall_s": 3.0, "peak_rss_mb": 50.0}, {"wall_s": 1.5, "peak_rss_mb": 45.0}),
    ]
    rows = {row[0]: row[1:] for row in bench_pairs.summarize(pairs)}
    # ratios 0.5, 0.75, 0.5: the median of the ratios, not the ratio of medians;
    # the change's quartiles follow its median
    assert rows["wall_s"] == (3.0, 2.0, 4.0, 1.5, 1.0, 3.0, 0.5, 3, True)
    assert rows["peak_rss_mb"] == (50.0, 50.0, 50.0, 50.0, 45.0, 55.0, 1.0, 1, True)


def test_summarize_of_one_pair_has_no_spread(bench_pairs):
    rows = bench_pairs.summarize([({"setup_s": 0.2}, {"setup_s": 0.1})])
    assert rows == [("setup_s", 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.5, 1, True)]


def test_summarize_judges_the_change_median_against_the_benchmark_bound(bench_pairs):
    bounds = {name: m["bound"] for name, m in bench_pairs.END_TO_END.items()}
    assert bounds == {"setup_s": 0.25, "wall_s": 0.25, "peak_rss_mb": 0.1}
    parent = {"wall_s": 1.0, "peak_rss_mb": 100.0, "elim.pivots": 5}
    change = {"wall_s": 1.25, "peak_rss_mb": 111.0, "elim.pivots": 9}
    pairs = [(parent, change)]
    verdicts = {row[0]: row[-1] for row in bench_pairs.summarize(pairs)}
    # 1.25 s is at the 25% bound, 111 MB is 11% past a 10% bound, and a
    # metric outside end_to_end has no bound
    assert verdicts == {"wall_s": True, "peak_rss_mb": False, "elim.pivots": None}


def test_main_prints_both_sides_quartiles_and_the_bound_verdict(bench_pairs, monkeypatch, capsys):
    values = {"parent": {"wall_s": 1.0, "elim.pivots": 5}, "change": {"wall_s": 2.0, "elim.pivots": 5}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload: values[checkout.name])
    assert bench_pairs.main(["--parent", "parent", "--change", "change", "--workload", "w", "--pairs", "2"]) == 0
    summary = capsys.readouterr().out.splitlines()[-2:]
    assert "parent 1 [q1 1, q3 1]  change 2 [q1 2, q3 2]" in summary[0]
    assert summary[0].endswith("change lower in 0/2  no gain shown  BEYOND bound 0.25")
    assert summary[1].endswith("no bound")


def test_gain_needs_nine_of_ten_pairs_and_a_median_gap_beyond_the_parent_iqr(bench_pairs):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # q1 1.175, q3 1.725
    pairs = lambda change: [({"wall_s": p}, {"wall_s": c}) for p, c in zip(parent, change)]
    # lower in all 10 pairs, medians 1.45 -> 0.85: a gap of 0.6 > IQR 0.55
    assert bench_pairs.gain_shown("wall_s", pairs([p - 0.6 for p in parent]))
    # the same gap, but lower in only 8 of the 10 pairs
    assert not bench_pairs.gain_shown("wall_s", pairs([p - 0.6 for p in parent[:8]] + [5.0, 5.0]))
    # lower in every pair, but a gap of 0.5 inside the parent's IQR
    assert not bench_pairs.gain_shown("wall_s", pairs([p - 0.5 for p in parent]))


def test_a_parent_spread_wider_than_the_bound_leaves_the_verdict_unresolved(
    bench_pairs, monkeypatch, capsys
):
    parent = [1.0, 1.2, 1.4, 1.6, 1.8]  # q1 1.1, q3 1.7: an IQR of 0.6 > 0.25 * 1.4
    pairs = lambda change: [({"wall_s": p}, {"wall_s": c}) for p, c in zip(parent, change)]
    # a median within the bound says nothing while the parent spreads this wide
    assert bench_pairs.unresolved("wall_s", pairs([1.5] * 5))
    # unless every change run beats every parent run
    assert not bench_pairs.unresolved("wall_s", pairs([0.9] * 5))
    # a narrow parent: an IQR of 0.02 < 0.25 * 1.0
    narrow = [({"wall_s": p}, {"wall_s": 1.1}) for p in (0.99, 1.0, 1.01)]
    assert not bench_pairs.unresolved("wall_s", narrow)
    # a metric with no bound has no verdict to withhold
    unbound = [({"elim.pivots": p}, {"elim.pivots": 2}) for p in parent]
    assert not bench_pairs.unresolved("elim.pivots", unbound)

    runs = {"parent": iter(parent[:4]), "change": iter([1.5] * 4)}
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload: {"wall_s": next(runs[checkout.name])})
    bench_pairs.main(["--parent", "parent", "--change", "change", "--workload", "w", "--pairs", "4"])
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.endswith("no gain shown  unresolved: parent IQR > bound 0.25 x median")
