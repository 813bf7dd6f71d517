"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They run every workload at smoke size (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = "1"

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.load_zxr()
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)


def result(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_lists_what_the_benchmark_reports():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_and_repeats_its_counts(workload):
    untraced = bench(workload, 0)
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    out = result(untraced)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in untraced.stdout

    first, second = bench(workload, 1), bench(workload, 1)
    assert first.returncode == 0, first.stdout + first.stderr
    a, b = result(first), result(second)
    assert set(a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert a["attempted"] == b["attempted"] == out["attempted"]
    assert a["failed"] == b["failed"] == out["failed"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" or m["name"].endswith("_ratio")
              and m["name"] != "trace_overhead_ratio"]
    assert {k: a["metrics"][k]["value"] for k in counts} == \
        {k: b["metrics"][k]["value"] for k in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    workdir = HERE / "out" / f"selftest-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)

    def inputs(seed):
        return [(op.kind, op.label, op.expect)
                for op in workloads.WORKLOADS[workload](seed, 1.0, workdir)]
    try:
        assert inputs(5) == inputs(5)
    finally:
        shutil.rmtree(workdir)


def test_wrong_expected_verdict_fails_the_run(monkeypatch, capsys):
    build = workloads.WORKLOADS["graph-sweep"]

    def flipped(seed, budget_s, workdir):
        ops = build(seed, budget_s, workdir)
        ops[0].expect = not ops[0].expect
        return ops

    monkeypatch.setitem(workloads.WORKLOADS, "graph-sweep", flipped)
    code = run.main(["--workload", "graph-sweep", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1


def test_fails_without_the_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                              cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
