"""Alternating parent/change runs of the benchmark, summarised in BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --pr 15 --pairs 10 --seed 4242 --seconds 15 \\
        --workload rewrite-sweep

Each side runs in its own fresh copy of the files: the parent is HEAD,
exported with ``git archive``, which registers nothing in ``.git`` that a
killed run could leave behind; the change is the working tree as
``git add -A`` would commit it (tracked and untracked files, less
the ignored ones). Both copies live in one temporary directory (under
``$TMPDIR``) that is removed afterwards. Every run is one
``python3 perfbench/run.py --workload W --seed S --seconds T`` process; its
last output line is its result. Pair i runs the parent first when i is even
and the change first when i is odd, so neither side always gets the warmer
or the cooler machine.

The output holds:
- ``runs``: pair 0 of each workload at the file's seed (that of its first
  run), as each run printed it;
- ``all_runs``: the end-to-end metrics of every run;
- ``summary``: per workload (a seed other than the file's is named in the
  key) and end-to-end metric of ``BENCHMARK.json``, the parent's and the
  change's quartiles (inclusive method), the change's median over the
  parent's, the pairs the change won (strictly better in the metric's
  direction), whether the medians differ by more than the parent's
  interquartile range, and a ``verdict`` against the metric's ``bound``
  (a fraction of the parent's median):
  - ``better``: the change won at least nine tenths of the pairs and its
    median is better by more than the parent's interquartile range;
  - ``unresolved``: otherwise, when the parent's own runs spread (highest
    less lowest) wider than the bound and not every change run beats every
    parent run;
  - ``worse``: otherwise, when the change's median is worse than the
    parent's by more than the bound;
  - ``within bound``: every other case.

Once the file is written, the summary is printed too, one line per
workload and metric: the parent's median, the change's, their ratio, the
pairs the change won and the verdict.

``--append`` adds the new series to an existing file and recomputes its
summary. Exits 1 if any run reports ``correct: false`` or prints no result
(the file is still written), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_revision(rev: str, target: Path) -> None:
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], check=True,
                   input=git("archive", "--format=tar", rev))


def export_working_tree(target: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():   # a deleted, still-indexed file is left out
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run, or None if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr[-2000:])
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarise(all_runs: list[dict], metrics: list[dict], main_seed: int) -> dict:
    summary: dict = {}
    series = dict.fromkeys((r["workload"], r["seed"]) for r in all_runs)
    for workload, seed in series:
        key = workload if seed == main_seed else f"{workload} (seed {seed})"
        runs = [r for r in all_runs if (r["workload"], r["seed"]) == (workload, seed)]
        side = {(r["pair"], r["side"]): r for r in runs}
        summary[key] = {}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            # pairs in which both runs printed a result
            complete = sorted(p for p, s in side if s == "parent"
                              and name in side[p, s] and name in side.get((p, "change"), {}))
            if not complete:
                continue
            parent = [side[p, "parent"][name] for p in complete]
            change = [side[p, "change"][name] for p in complete]
            pq, cq = quartiles(parent), quartiles(change)
            won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            gain, limit = sign * (cq[1] - pq[1]), metric["bound"] * abs(pq[1])
            if won >= 0.9 * len(complete) and gain > pq[2] - pq[0]:
                verdict = "better"
            elif (max(parent) - min(parent) > limit
                  and not min(sign * c for c in change) > max(sign * p for p in parent)):
                verdict = "unresolved"
            else:
                verdict = "worse" if -gain > limit else "within bound"
            summary[key][name] = {
                "parent_q1_med_q3": pq,
                "change_q1_med_q3": cq,
                "change_over_parent": cq[1] / pq[1] if pq[1] else None,
                "change_won_pairs": won,
                "pairs": len(complete),
                "medians_differ_beyond_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
                "verdict": verdict,
            }
    return summary


def summary_lines(summary: dict) -> list[str]:
    """One line per (workload, metric): the parent's median, the change's,
    their ratio, the pairs the change won and the verdict."""
    lines = []
    for key, rows in summary.items():
        for name, row in rows.items():
            ratio = row["change_over_parent"]
            lines.append(f"{key}  {name}  {row['parent_q1_med_q3'][1]:.4g} -> "
                         f"{row['change_q1_med_q3'][1]:.4g}  "
                         f"({'n/a' if ratio is None else f'{ratio:.3f}x'})  won "
                         f"{row['change_won_pairs']}/{row['pairs']}  {row['verdict']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    p.add_argument("--workload", action="append",
                   help="repeat for several (default: every workload of BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--append", action="store_true",
                   help="add to an existing BENCH_<pr>.json instead of replacing it")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    if args.pairs < 1 or any(w not in known for w in workloads):
        p.error(f"--pairs must be >= 1 and every --workload one of {known}")
    base = git("rev-parse", "--verify", "HEAD").decode().strip()
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if args.append and out.exists() else None
    if doc is None:
        doc = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {args.seconds:g}",
            "note": "Made by tools/bench_pairs.py (its docstring says how). parent: "
                    f"HEAD = {base}; change: the working tree on top of it.",
            "environment": {"python": platform.python_version(),
                            "numpy": metadata.version("numpy"),
                            "cpus_usable": len(os.sched_getaffinity(0))},
            "runs": {"parent": {}, "change": {}},
            "all_runs": [],
        }
    main_seed = doc["all_runs"][0]["seed"] if doc["all_runs"] else args.seed
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_revision(base, checkouts["parent"])
        export_working_tree(checkouts["change"])
        for workload in workloads:
            # an appended series numbers its pairs after the ones on file
            first = 1 + max((r["pair"] for r in doc["all_runs"]
                             if (r["workload"], r["seed"]) == (workload, args.seed)),
                            default=-1)
            for pair in range(first, first + args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(checkouts[side], workload, args.seed, args.seconds)
                    row = {"workload": workload, "seed": args.seed,
                           "seconds": args.seconds, "pair": pair, "side": side,
                           "correct": False}
                    if result is not None:
                        row.update({k: result[k] for k in ("correct", "attempted", "failed")})
                        row.update({k: v["value"] for k, v in result["metrics"].items()})
                        if pair == 0 and args.seed == main_seed:
                            doc["runs"][side][workload] = result
                    failed |= row["correct"] is not True
                    doc["all_runs"].append(row)
                    print(json.dumps(row), flush=True)
    doc["summary"] = summarise(doc["all_runs"], bench["end_to_end"], main_seed)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary_lines(doc["summary"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
