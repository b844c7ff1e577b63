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
    # ratios 0.5, 0.75, 0.5: the median of the ratios, not the ratio of medians
    assert rows["wall_s"] == (3.0, 2.0, 4.0, 1.5, 0.5, 3)
    assert rows["peak_rss_mb"] == (50.0, 50.0, 50.0, 50.0, 1.0, 1)


def test_summarize_of_one_pair_has_no_spread(bench_pairs):
    rows = bench_pairs.summarize([({"setup_s": 0.2}, {"setup_s": 0.1})])
    assert rows == [("setup_s", 0.2, 0.2, 0.2, 0.1, 0.5, 1)]
