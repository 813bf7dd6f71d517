"""The verdicts of ``tools/bench_pairs.py`` on hand-made paired runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]
STEADY = [100, 101, 99, 100, 102]
SPREAD = [60, 100, 140, 100, 100]    # wider than the 25% bound


def runs(workload, parent, change, name):
    return [{"workload": workload, "seed": 1, "pair": i, "side": side, name: value}
            for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


@pytest.mark.parametrize("name, parent, change, expected", [
    ("ops_per_s", STEADY, [120, 121, 119, 120, 122], "better"),
    ("ops_per_s", STEADY, [95, 96, 94, 95, 103], "within bound"),
    ("ops_per_s", STEADY, [130, 96, 94, 95, 97], "within bound"),
    ("ops_per_s", STEADY, [70, 74, 72, 90, 80], "worse"),
    ("ops_per_s", SPREAD, [95, 99, 101, 100, 98], "unresolved"),
    ("ops_per_s", SPREAD, [60, 61, 62, 63, 64], "unresolved"),
    ("ops_per_s", SPREAD, [141, 142, 143, 141, 150], "better"),
    ("op_p50_ms", [2.0, 2.1, 1.9, 2.0, 2.0], [1.5, 1.6, 1.4, 1.5, 1.5], "better"),
    ("op_p50_ms", [2.0, 2.1, 1.9, 2.0, 2.0], [2.2, 2.3, 2.1, 2.2, 2.2], "within bound"),
    ("op_p50_ms", [2.0, 2.1, 1.9, 2.0, 2.0], [2.6, 2.7, 2.5, 2.6, 2.6], "worse"),
    ("op_p50_ms", [0.0] * 5, [0.0] * 5, "within bound"),
])
def test_summary_verdict_against_the_bound(name, parent, change, expected):
    summary = bench_pairs.summarise(runs("w", parent, change, name), METRICS, 1)
    assert summary["w"][name]["verdict"] == expected
    assert set(summary["w"]) == {name}


def test_summary_lines_print_medians_ratio_pairs_and_verdict():
    rows = [dict(ops, **p50) for ops, p50 in zip(
        runs("w", STEADY, [120, 121, 119, 120, 122], "ops_per_s"),
        runs("w", [2.0, 2.1, 1.9, 2.0, 2.0], [2.6, 2.7, 2.5, 2.6, 2.6], "op_p50_ms"))]
    rows += [dict(r, seed=2) for r in runs("w", [0.0] * 5, [0.0] * 5, "op_p50_ms")]
    summary = bench_pairs.summarise(rows, METRICS, 1)
    assert bench_pairs.summary_lines(summary) == [
        "w  ops_per_s  100 -> 120  (1.200x)  won 5/5  better",
        "w  op_p50_ms  2 -> 2.6  (1.300x)  won 0/5  worse",
        "w (seed 2)  op_p50_ms  0 -> 0  (n/a)  won 0/5  within bound",
    ]
