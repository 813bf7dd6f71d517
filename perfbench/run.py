"""zxr benchmark: one checked, timed pass over a seeded workload.

Run from the repository root:

    python3 perfbench/run.py --workload graph-sweep --seed 1 --seconds 10 --trace 0

Workloads: graph-sweep, rewrite-sweep, proof-replay, rule-engine (see
workloads.py for what each stresses and why). ``--seconds`` sizes the pass:
it fixes how many inputs are generated, so a seed and a size always give the
same inputs and the same call counts. zxr is imported from ``src/`` next to
this directory; nothing is installed.

Each run is a fresh process: it imports zxr, builds its inputs, warms up on
inputs of a different seed, then times one pass. Every op's verdict is
compared with the answer known in advance. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps zxr's layers from outside (tracer.py),
reports the per-layer metrics and writes the spans to ``perfbench/out/``.

End-to-end times are scaled to one CPU speed. On a shared 2-core box the
speed a process gets switches between levels about 1.5x apart within
seconds, so raw times of identical runs spread by 15-30%. A fixed probe
(``probe``) is timed every 0.05 s between ops, and each op's time is
multiplied by PROBE_REFERENCE_S over the mean of the probe times just before
and after it; set-up time likewise, by a probe taken right after it. The
unscaled times are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A failed op is one that raised or returned a verdict other than the known
one; a wrong verdict also makes ``correct`` false and the exit code 1. A run
that cannot find the zxr sources exits with 1 and prints no result; bad
arguments exit with 2.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, the same on every commit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5           # setups per run: this one plus fresh processes
PROBE_EVERY_S = 0.05        # time a speed probe between ops this often
PROBE_REFERENCE_S = 0.00047  # the probe's time on an uncontended 2.0 GHz Xeon
OVERHEAD_SHARE = 3          # the traced run re-times 1/3 of its ops untraced
WARMUP_SEED_OFFSET = 2 ** 31

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ok_ratio", "ratio"))


def load_zxr() -> None:
    """Import zxr from this checkout's src/, never from anywhere else."""
    if not (SRC / "zxr" / "__init__.py").is_file():
        sys.exit(f"zxr sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import zxr
    if Path(zxr.__file__).resolve().parent != (SRC / "zxr").resolve():
        sys.exit(f"zxr imported from {zxr.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(numpy)}


def blas_threads(numpy) -> int | str:
    """Threads the OpenBLAS bundled with numpy will use, or 'unknown'."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def probe() -> float:
    """Seconds for a fixed slice of interpreter loop and small numpy
    contractions, the fastest of three tries.

    On a shared machine the CPU speed this process gets changes by up to
    half within seconds, and zxr's ops slow down with it. Op times are
    scaled by PROBE_REFERENCE_S over the probe times around them, so they
    read as at the uncontended speed.
    """
    import numpy as np
    clock = time.perf_counter
    eye = np.eye(2, dtype=complex)
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        a = np.ones((2, 2, 2), dtype=complex)
        for _ in range(40):
            a = np.tensordot(a, eye, axes=([0], [0]))
        best = min(best, clock() - t0)
    return best


def judge(op, verdict) -> str:
    if isinstance(verdict, Exception):
        return "error"
    return "ok" if verdict == op.expect else "wrong"


def run_untraced(op):
    try:
        return op.run()
    except Exception as exc:   # a failed op is counted, not fatal
        return exc


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[str, float, int]:
    """The highest of p90/p99/p99.9 with at least 10 samples beyond it
    (p90 when none has), with its value and the count beyond it."""
    ordered = sorted(latencies)
    best = None
    for name, q in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        value = percentile(ordered, q)
        beyond = sum(x > value for x in ordered)
        if best is None or beyond >= 10:
            best = (name, value, beyond)
    return best


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def report(lines: list[str], correct: bool, attempted: int, failed: int,
           metrics: dict[str, tuple[float, str]]) -> None:
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("graph-sweep", "rewrite-sweep", "proof-replay",
                            "rule-engine"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print it (used for the "
                        "repeated set-up measurement)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_start = time.perf_counter()
    load_zxr()
    import workloads
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        for op in workloads.warmup(args.workload, args.seed + WARMUP_SEED_OFFSET,
                                   workdir):
            run_untraced(op)
        setup_s = time.perf_counter() - setup_start
        setup_s *= PROBE_REFERENCE_S / probe()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            outcome = traced_pass(args, ops)
        else:
            outcome = timed_pass(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if outcome else 1


def describe(args, ops, verdicts) -> tuple[list[str], bool, int]:
    """Human-readable lines about the run and its failed ops."""
    env = environment()
    lines = [f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
             f"trace {args.trace}: {len(ops)} ops",
             "# " + " ".join(f"{k}={v}" for k, v in env.items())]
    failed = 0
    correct = True
    for op, verdict in zip(ops, verdicts):
        outcome = judge(op, verdict)
        if outcome == "ok":
            continue
        failed += 1
        correct &= outcome != "wrong"
        detail = (f"{type(verdict).__name__}: {verdict}" if outcome == "error"
                  else f"got {verdict!r}, expected {op.expect!r}")
        lines.append(f"# FAILED {outcome} {op.kind} {op.label}: {detail}")
    return lines, correct, failed


def timed_pass(args, ops, setup_s: float) -> bool:
    verdicts, latencies, windows = [], [], []
    clock = time.perf_counter
    probes = [probe()]
    last_probe = start = clock()
    for op in ops:
        t0 = clock()
        verdicts.append(run_untraced(op))
        t1 = clock()
        latencies.append(t1 - t0)
        windows.append(len(probes) - 1)
        if t1 - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = clock()
    wall = clock() - start
    probes.append(probe())
    # Each op is scaled by the mean of the probes just before and after it.
    scaled = [lat * 2 * PROBE_REFERENCE_S / (probes[w] + probes[w + 1])
              for lat, w in zip(latencies, windows)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_in_fresh_process(args)
                          for _ in range(SETUP_REPEATS - 1)]
    lines, correct, failed = describe(args, ops, verdicts)
    by_kind: dict[str, list[float]] = {}
    for op, seconds in zip(ops, scaled):
        by_kind.setdefault(op.kind, []).append(seconds)
    lines += [f"# {kind}: {len(ts)} ops, {sum(ts):.3f} s, p50 "
              f"{statistics.median(ts) * 1e3:.3f} ms" for kind, ts in by_kind.items()]
    tail_name, tail_s, beyond = tail(scaled)
    lines.append(f"# op_tail_ms is {tail_name} with {beyond} of {len(ops)} "
                 f"samples beyond it; setups {[round(s, 4) for s in setups]} s")
    lines.append(f"# unscaled: pass wall {wall:.3f} s, "
                 f"{len(ops) / sum(latencies):.3f} ops/s, "
                 f"p50 {statistics.median(latencies) * 1e3:.4f} ms, "
                 f"{tail_name} {tail(latencies)[1] * 1e3:.4f} ms; probe median "
                 f"{statistics.median(probes) * 1e3:.4f} ms over {len(probes)} probes")
    values = {"ops_per_s": len(ops) / sum(scaled),
              "op_p50_ms": statistics.median(scaled) * 1e3,
              "op_tail_ms": tail_s * 1e3,
              "setup_s": statistics.median(setups),
              "peak_rss_mib": peak_rss_mib,
              "ok_ratio": (len(ops) - failed) / len(ops)}
    report(lines, correct, len(ops), failed,
           {name: (values[name], unit) for name, unit in END_TO_END})
    return correct


def traced_pass(args, ops) -> bool:
    from tracer import PER_LAYER, Tracer
    tracer = Tracer()
    tracer.install()
    verdicts, durations = [], []
    try:
        start = time.perf_counter()
        for op in ops:
            verdict, seconds = tracer.call_op(op.kind, op.run)
            verdicts.append(verdict)
            durations.append(seconds)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    # Re-time the first third of the ops untraced for the overhead ratio.
    k = max(1, len(ops) // OVERHEAD_SHARE)
    start = time.perf_counter()
    for op in ops[:k]:
        run_untraced(op)
    overhead = sum(durations[:k]) / (time.perf_counter() - start)
    summary = tracer.summary(wall, overhead)
    lines, correct, failed = describe(args, ops, verdicts)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file, {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "pass_wall_s": wall,
                              "environment": environment(),
                              "span_fields": ["id", "parent", "op", "name",
                                              "t0", "t1", "tracer_s"],
                              "metrics": summary})
    lines.append(f"# traced pass wall {wall:.3f} s; {len(tracer.spans)} spans "
                 f"written to {spans_file.relative_to(ROOT)}")
    report(lines, correct, len(ops), failed,
           {name: (summary[name], unit) for name, unit in PER_LAYER})
    return correct


if __name__ == "__main__":
    sys.exit(main())
