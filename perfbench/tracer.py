"""Per-layer spans for zxr, recorded from outside the package.

``Tracer.install`` replaces the public functions of every layer module with
wrappers that record a span per call: span id, parent span id, op id, name,
start, end, and the time the tracer itself spent inside the span. Names that
other zxr modules bound with ``from .semantics import evaluate`` and the like
are replaced too, so calls between layers are seen. ``Diagram.check``,
``Diagram.copy`` and ``Diagram.iso_equal`` get spans; ``Diagram.degree`` and
``Diagram.neighbours`` are called so often that they are only counted.

Spans stay in memory until the pass ends. A span's self time is its
duration minus its children's durations and minus the tracer's own time in
it, such as hashing a diagram for ``repeat_ratio``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from zxr.diagram import BOUNDARY, SPIDERS

LAYERS = ("textio", "diagram", "semantics", "rules", "graphstate", "proofs",
          "lemmas", "axioms", "cli")

# Diagram methods with spans, by span name.
SPAN_METHODS = {"check": "diagram.check", "copy": "diagram.Diagram.copy",
                "iso_equal": "diagram.iso_equal"}
COUNTED_METHODS = ("degree", "neighbours")

# The span whose calls are the steps of each stepping span.
STEP_OF = {"rules.normalize": "rules.apply", "proofs.replay": "proofs.apply_step"}

SMALL_START_MAX = 16     # replay start diagrams with at most this many nodes
LARGE_START_MIN = 30     # and with at least this many

SPANNED = (
    ["textio.parse", "textio.serialize", "diagram.check", "diagram.Diagram.copy",
     "semantics.equal_up_to_scalar", "rules.apply", "proofs.apply_step"]
    + [f"graphstate.{f}" for f in ("graph_state", "fixpoint_lhs", "vdn_lhs",
                                   "local_complement", "check_fixpoint",
                                   "check_vdn")]
    + [f"lemmas.{f}" for f in ("fixpoint_script", "check_fixpoint_script",
                               "reduce_complete_bipartite",
                               "check_complete_bipartite", "reduce_even_cycle",
                               "check_even_cycle", "check_lc_implies_euler")]
    + ["axioms.independence_report", "cli.main"])

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = (
    [(f"{f}.{m}", u) for f in SPANNED for m, u in (("calls", "count"),
                                                   ("self_s", "s"))]
    + [("diagram.Diagram.degree.calls", "count"),
       ("diagram.Diagram.neighbours.calls", "count"),
       ("diagram.edge_scan_entries", "count"),
       ("diagram.iso_equal.calls", "count"), ("diagram.iso_equal.self_s", "s"),
       ("diagram.iso_equal.max_ms", "ms"),
       ("semantics.evaluate.calls", "count"), ("semantics.evaluate.self_s", "s"),
       ("semantics.evaluate.tensors_mean", "count"),
       ("semantics.evaluate.out_entries_max", "count"),
       ("semantics.evaluate.repeat_ratio", "ratio"),
       ("semantics.evaluate.clifford_ratio", "ratio"),
       ("rules.match_sites.calls", "count"), ("rules.match_sites.self_s", "s"),
       ("rules.match_sites.sites", "count"),
       ("rules.match_sites.hit_ratio", "ratio"),
       ("rules.normalize.calls", "count"), ("rules.normalize.self_s", "s"),
       ("rules.normalize.steps", "count"),
       ("proofs.replay.calls", "count"), ("proofs.replay.self_s", "s"),
       ("proofs.replay.steps", "count"),
       ("proofs.replay.ms_per_step.small", "ms"),
       ("proofs.replay.ms_per_step.large", "ms")]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace_overhead_ratio", "ratio")])


class Tracer:
    """Wraps zxr's layers and records spans while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent, op, name, t0, t1, tracer_s)
        self.facts: dict[int, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._op = 0
        self._seen_evaluations: set[int] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"zxr.{layer}") for layer in LAYERS}
        hooks = {"semantics.evaluate": (self._before_evaluate, self._after_evaluate),
                 "rules.match_sites": (None, self._after_match_sites),
                 "proofs.replay": (self._before_replay, None)}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = f"{layer}.{name}"
                    wrappers[obj] = self._spanned(span, obj, *hooks.get(span, (None, None)))
        for modname in [m for m in sys.modules if m == "zxr" or m.startswith("zxr.")]:
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        diagram_cls = mods["diagram"].Diagram
        for method, span in SPAN_METHODS.items():
            self._patch(diagram_cls, method,
                        self._spanned(span, getattr(diagram_cls, method)))
        for method in COUNTED_METHODS:
            self._patch(diagram_cls, method,
                        self._counted(f"diagram.Diagram.{method}.calls",
                                      getattr(diagram_cls, method)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _spanned(self, span: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            tracer_s = 0.0
            if before is not None:
                before(sid, args, kwargs)
                tracer_s = clock() - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self._op, span, t0, t1, tracer_s))
            if after is not None:
                after(sid, result)
            return result
        return wrapper

    def _counted(self, key: str, method: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(method)
        def wrapper(d, *args, **kwargs):
            counts[key] += 1
            counts["diagram.edge_scan_entries"] += d.edge_count()
            return method(d, *args, **kwargs)
        return wrapper

    # -- per-call facts -----------------------------------------------------------

    def _before_evaluate(self, sid: int, args: tuple, kwargs: dict) -> None:
        d = args[0]
        model_n = args[1] if len(args) > 1 else kwargs.get("model_n", 1)
        kinds = [(v, d.kind(v)) for v in d.nodes()]
        nodes = [(v, k, d.phase(v) if k in SPIDERS else None) for v, k in kinds]
        key = hash((model_n, d.inputs, d.outputs, tuple(nodes), tuple(d.edges())))
        repeat = key in self._seen_evaluations
        self._seen_evaluations.add(key)
        clifford = all(p.scaled(model_n).den <= 2 for _, _, p in nodes if p is not None)
        tensors = sum(1 for _, kind in kinds if kind != BOUNDARY)
        self.facts[sid] = [repeat, clifford, tensors]

    def _after_evaluate(self, sid: int, result: Any) -> None:
        self.facts[sid].append(result.size)

    def _after_match_sites(self, sid: int, result: Any) -> None:
        self.facts[sid] = [len(result)]

    def _before_replay(self, sid: int, args: tuple, kwargs: dict) -> None:
        start = args[1] if len(args) > 1 else kwargs["start"]
        self.facts[sid] = [start.node_count()]

    # -- ops ----------------------------------------------------------------------

    def call_op(self, kind: str, run: Callable[[], Any]) -> tuple[Any, float]:
        """Run one op under a root span; returns (verdict, seconds). The
        verdict is the exception instance if the op raised one."""
        self._op += 1
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            verdict = run()
        except Exception as exc:   # a failed op is counted, not fatal
            verdict = exc
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, self._op, f"op.{kind}", t0, t1, 0.0))
        return verdict, t1 - t0

    # -- results ------------------------------------------------------------------

    def summary(self, wall_s: float, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric, from the spans recorded so far."""
        child_s: dict[int, float] = defaultdict(float)
        name_of: dict[int, str] = {}
        for sid, parent, _, name, t0, t1, _ in self.spans:
            child_s[parent] += t1 - t0
            name_of[sid] = name
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        max_ms: dict[str, float] = defaultdict(float)
        for sid, parent, _, name, t0, t1, tracer_s in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_s[sid] - tracer_s
            max_ms[name] = max(max_ms[name], (t1 - t0) * 1e3)

        m: dict[str, float] = {}
        for f in SPANNED + ["diagram.iso_equal", "semantics.evaluate",
                            "rules.match_sites", "rules.normalize", "proofs.replay"]:
            m[f"{f}.calls"] = calls[f]
            m[f"{f}.self_s"] = self_s[f]
        m["diagram.iso_equal.max_ms"] = max_ms["diagram.iso_equal"]
        for key in ("diagram.Diagram.degree.calls", "diagram.Diagram.neighbours.calls",
                    "diagram.edge_scan_entries"):
            m[key] = self.counts[key]

        evals = [self.facts[span[0]] for span in self.spans
                 if span[3] == "semantics.evaluate"]
        n_eval = max(1, len(evals))
        m["semantics.evaluate.tensors_mean"] = sum(f[2] for f in evals) / n_eval
        m["semantics.evaluate.out_entries_max"] = max((f[3] for f in evals if len(f) > 3),
                                                      default=0)
        m["semantics.evaluate.repeat_ratio"] = sum(f[0] for f in evals) / n_eval
        m["semantics.evaluate.clifford_ratio"] = sum(f[1] for f in evals) / n_eval

        sites = [self.facts[span[0]][0] for span in self.spans
                 if span[3] == "rules.match_sites" and span[0] in self.facts]
        m["rules.match_sites.sites"] = sum(sites)
        m["rules.match_sites.hit_ratio"] = sum(s > 0 for s in sites) / max(1, len(sites))

        steps_in: dict[int, int] = defaultdict(int)   # steps per stepping span
        for _, parent, _, name, *_ in self.spans:
            if STEP_OF.get(name_of.get(parent)) == name:
                steps_in[parent] += 1
        for stepping in STEP_OF:
            m[f"{stepping}.steps"] = sum(n for p, n in steps_in.items()
                                         if name_of[p] == stepping)
        per_class = {"small": [0.0, 0], "large": [0.0, 0]}
        for sid, _, _, name, t0, t1, _ in self.spans:
            if name != "proofs.replay":
                continue
            size = self.facts[sid][0]
            cls = ("small" if size <= SMALL_START_MAX
                   else "large" if size >= LARGE_START_MIN else None)
            if cls:
                per_class[cls][0] += t1 - t0
                per_class[cls][1] += steps_in[sid]
        for cls, (secs, steps) in per_class.items():
            m[f"proofs.replay.ms_per_step.{cls}"] = secs * 1e3 / steps if steps else 0.0

        for layer in LAYERS:
            m[f"{layer}.self_share"] = sum(
                s for name, s in self_s.items() if name.startswith(layer + ".")) / wall_s
        m["trace.spans"] = len(self.spans)
        m["trace_overhead_ratio"] = overhead_ratio
        return m

    def write(self, path: Path, header: dict) -> None:
        """Write the header, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
