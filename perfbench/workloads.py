"""Seeded inputs and checked operations for the four benchmark workloads.

An op is one public call into zxr that reaches a verdict, paired with the
verdict known in advance. Every zxr function is looked up through its module
at call time, so the tracer's wrappers see the calls.

Each workload function takes a seed and a time budget in seconds and returns
the ops of one pass. The budget is turned into an input count with fixed
per-input cost estimates (measured once on a 2-core x86-64 box), never with
the clock, so the same seed and budget always give the same inputs and the
same call counts.

Why each workload exists:

- graph-sweep: graph-state fixpoint and local-complementation checks, the
  shape of acceptance criteria 04 and 05. Small all-Clifford diagrams, and
  each graph state is built and evaluated once per vertex, so an evaluation
  memo or a stabilizer oracle would show here.
- rewrite-sweep: every non-gated rule at every site of small random diagrams
  with non-Clifford phases, checked in models 1 and 2 (criterion 10). Its
  evaluations are all distinct and mostly non-Clifford, so a memo or an
  oracle should not move it.
- proof-replay: the shipped proof scripts through the command line plus the
  lemma and independence checks, the only workload where textio, cli, proofs
  and axioms do real work. Replay re-evaluates the whole diagram after every
  step, so a local step check would show here and not in graph-sweep.
- rule-engine: circuit-shaped diagrams of 60-125 nodes through match_sites,
  apply and normalize, plus iso_equal on positives and on symmetric
  negatives. The rule engine, the edge store and the isomorphism search
  dominate it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from zxr import (axioms, cli, diagram, graphstate, lemmas, proofs, rules,
                 semantics, textio)
from zxr.diagram import BOUNDARY, HBOX, Diagram, DiagramError, X, Z

# The rule ids are the CLI spellings; euler and euler-inv are gated off by
# default and need --enable-euler.
RULE_IDS = (
    "spider-fuse", "spider-split", "id-remove", "id-insert", "self-loop",
    "copy", "bialgebra", "pi-commute", "pi-state", "hopf", "h-cancel",
    "h-colour", "h-phase", "h-state", "euler", "euler-inv",
)
GATED_RULES = ("euler", "euler-inv")
NORMALIZE_RULES = ("spider-fuse", "self-loop", "id-remove", "hopf")
# Script steps that hold only in the standard model, or are hypotheses.
MODEL_SENSITIVE_STEPS = frozenset(
    ("euler", "euler-inv", "assume-lc-triangle", "cut-h-core",
     "cut-h-core-dual", "use-pi2-colour"))

# Phases in units of pi, as in the test suite's random diagrams.
PHASE_GRID = tuple(Fraction(p) for p in ("0", "1/2", "1", "3/2", "1/3", "2/5"))

# Seconds per input, used only to size a pass from its budget.
COST_GRAPH5 = 0.016      # one 5-vertex graph: every vertex, both checks
COST_GRAPH67 = 0.085     # one 6-7-vertex graph, likewise
GRAPH5_SHARE = 0.45      # share of the graph-sweep budget spent on 5 vertices
COST_RANDOM_DIAGRAM = 0.013
COST_SCRIPT = 0.019      # one generated normalize script through the CLI
COST_CIRCUIT = 0.36

FIXED_REPLAY_S = 2.3     # the shipped replays and lemma checks, together

# Input sizes follow fixed low-discrepancy schedules, the same for every seed:
# seeds change what the inputs are, not how much work they hold, so that
# runs with different seeds can be compared.


def schedule(i: int, dim: int = 0) -> float:
    """The i-th point in [0, 1) of an additive recurrence; any prefix of the
    sequence is spread evenly. ``dim`` selects an independent coordinate."""
    return (i * (0.6180339887498949, 0.7548776662466927)[dim]) % 1.0


def binomial_quantile(n: int, u: float) -> int:
    """The smallest k with P(Binomial(n, 1/2) <= k) > u."""
    total = 0
    for k in range(n + 1):
        total += math.comb(n, k)
        if total / 2 ** n > u:
            return k
    return n


@dataclass
class Op:
    """One checked call: ``run()`` returns the verdict, ``expect`` is the
    verdict known in advance."""

    kind: str
    label: str
    run: Callable[[], Any]
    expect: Any


# -- graph-sweep ------------------------------------------------------------------


def _labelled_graphs(labels: tuple[str, ...]) -> list[graphstate.SimpleGraph]:
    pairs = list(itertools.combinations(labels, 2))
    return [graphstate.SimpleGraph.build(
        labels, [p for i, p in enumerate(pairs) if mask >> i & 1])
        for mask in range(2 ** len(pairs))]


def _graph_ops(g: graphstate.SimpleGraph, rng: random.Random) -> list[Op]:
    ops = []
    name = f"{''.join(g.vertices)}:{sorted(map(sorted, g.edges))}"
    for u in g.vertices:
        ops.append(Op("fixpoint", f"{name}@{u}",
                      lambda g=g, u=u: graphstate.check_fixpoint(g, u), True))
        ops.append(Op("vdn", f"{name}@{u}",
                      lambda g=g, u=u: graphstate.check_vdn(g, u), True))
    # Local complementation at a vertex with two or more neighbours toggles
    # an edge, and distinct graphs have distinct graph states, so the witness
    # rotations must not give back |g> itself.
    degree = {v: sum(v in e for e in g.edges) for v in g.vertices}
    hubs = [v for v in g.vertices if degree[v] >= 2]
    if hubs:
        u = rng.choice(hubs)
        ops.append(Op("vdn-negative", f"{name}@{u}",
                      lambda g=g, u=u: semantics.diagrams_equal(
                          graphstate.vdn_lhs(g, u), graphstate.graph_state(g)),
                      False))
    return ops


def graph_sweep(seed: int, budget_s: float, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    graphs5 = _labelled_graphs(tuple("abcde"))
    rng.shuffle(graphs5)
    n5 = min(len(graphs5), max(1, round(budget_s * GRAPH5_SHARE / COST_GRAPH5)))
    n67 = max(1, round(budget_s * (1 - GRAPH5_SHARE) / COST_GRAPH67))
    graphs = graphs5[:n5] + _random_graphs(rng, n67)
    return [op for g in graphs for op in _graph_ops(g, rng)]


def _random_graphs(rng: random.Random, count: int) -> list[graphstate.SimpleGraph]:
    """Random 6- and 7-vertex graphs. The edge counts follow the binomial
    distribution of graphs with each edge present with probability 1/2."""
    graphs = []
    for i in range(count):
        verts = tuple("abcdefg")[:6 + i % 2]
        pairs = list(itertools.combinations(verts, 2))
        k = binomial_quantile(len(pairs), schedule(i))
        graphs.append(graphstate.SimpleGraph.build(verts, rng.sample(pairs, k)))
    return graphs


# -- rewrite-sweep ----------------------------------------------------------------


def random_diagram(rng: random.Random, i: int, max_nodes: int = 10) -> Diagram:
    """The i-th diagram in the shape of the test suite's random diagrams:
    1-7 spiders with grid phases, up to 3 more edges than spiders, some
    edges through H-boxes, parallel edges, self-loops, 0-3 boundaries and
    at most ``max_nodes`` nodes."""
    spiders = 1 + int(7 * schedule(i))
    edges = int((spiders + 4) * schedule(i, 1))
    boundaries = i % 4
    while True:
        d = Diagram()
        sp = [d.add_node(rng.choice((Z, X)), rng.choice(PHASE_GRID))
              for _ in range(spiders)]
        for _ in range(edges):
            d.add_edge(rng.choice(sp), rng.choice(sp))
        for u, v, _ in list(d.edges()):
            if u != v and rng.random() < 0.25:
                h = d.add_node(HBOX)
                d.remove_edge(u, v)
                d.add_edge(u, h)
                d.add_edge(h, v)
        ins, outs = [], []
        for _ in range(boundaries):
            b = d.add_node(BOUNDARY)
            d.add_edge(b, rng.choice(sp))
            (ins if rng.random() < 0.5 else outs).append(b)
        d.inputs, d.outputs = tuple(ins), tuple(outs)
        if d.node_count() <= max_nodes:
            return d.check()


def rewrite_all_sound(d: Diagram) -> bool:
    """Every non-gated rule at every site preserves the matrix up to scalar
    in models 1 and 2."""
    vals = {n: semantics.evaluate(d, n) for n in (1, 2)}
    for rule in RULE_IDS:
        if rule in GATED_RULES:
            continue
        for anchor in rules.match_sites(rule, d):
            out = rules.apply(rule, d, anchor)
            for n in (1, 2):
                if not semantics.equal_up_to_scalar(vals[n],
                                                    semantics.evaluate(out, n)):
                    return False
    return True


def rewrite_sweep(seed: int, budget_s: float, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    count = max(1, round(budget_s / COST_RANDOM_DIAGRAM))
    ops = []
    for i in range(count):
        d = random_diagram(rng, i)
        ops.append(Op("rewrite-sound", f"d{i}",
                      lambda d=d: rewrite_all_sound(d), True))
    return ops


# -- rule-engine ------------------------------------------------------------------


def circuit(rng: random.Random, wires: int, gates: int) -> Diagram:
    """A circuit-shaped diagram: phase spiders, H-boxes and CNOT-like Z-X
    pairs on ``wires`` wires, one input and one output per wire."""
    d = Diagram()
    ins = [d.add_node(BOUNDARY, name=f"in{k}") for k in range(wires)]
    ends = list(ins)
    for _ in range(gates):
        r = rng.random()
        if r < 0.45:
            k = rng.randrange(wires)
            v = d.add_node(rng.choice((Z, X)), rng.choice(PHASE_GRID))
            d.add_edge(ends[k], v)
            ends[k] = v
        elif r < 0.65:
            k = rng.randrange(wires)
            v = d.add_node(HBOX)
            d.add_edge(ends[k], v)
            ends[k] = v
        else:
            c, t = rng.sample(range(wires), 2)
            z, x = d.add_node(Z, 0), d.add_node(X, 0)
            d.add_edge(ends[c], z)
            d.add_edge(ends[t], x)
            d.add_edge(z, x)
            ends[c], ends[t] = z, x
    outs = [d.add_node(BOUNDARY, name=f"out{k}") for k in range(wires)]
    for e, o in zip(ends, outs):
        d.add_edge(e, o)
    d.inputs, d.outputs = tuple(ins), tuple(outs)
    return d.check()


def relabelled(d: Diagram, rng: random.Random) -> Diagram:
    """A copy of ``d`` with every node renamed, keeping the names' order.

    A random order is left out: the backtracking search in iso_equal then
    tries candidates far from the true mapping, and on these normal forms it
    did not finish within 100 s.
    """
    names = d.nodes()
    offset = rng.randrange(10 ** 5)
    ren = {v: f"m{offset + i:06d}" for i, v in enumerate(names)}
    out = Diagram()
    for v in names:
        out.add_node(d.kind(v), d.phase(v) if d.kind(v) in (Z, X) else None,
                     name=ren[v])
    for u, v, m in d.edges():
        out.add_edge(ren[u], ren[v], m)
    out.inputs = tuple(ren[b] for b in d.inputs)
    out.outputs = tuple(ren[b] for b in d.outputs)
    return out.check()


def closed_cycles(lengths: tuple[int, ...]) -> Diagram:
    """Disjoint closed alternating Z/X cycles of phase-0 spiders."""
    d = Diagram()
    for c, n in enumerate(lengths):
        for i in range(n):
            d.add_node(Z if i % 2 == 0 else X, 0, name=f"c{c}_{i}")
    for c, n in enumerate(lengths):
        for i in range(n):
            d.add_edge(f"c{c}_{i}", f"c{c}_{(i + 1) % n}")
    return d.check()


# A connected cycle against disjoint cycles with the same node labels: never
# isomorphic, and every node looks alike to a label-only search. C16 against
# C8+C8 is left out only for run length: it takes about 6 s.
ISO_NEGATIVES = ((8, (4, 4)), (12, (6, 6)), (12, (4, 8)), (12, (4, 4, 4)))


def rule_well_formed(rule: str, d: Diagram) -> bool:
    """match_sites for the rule and, unless it is gated, apply at every
    site; every result must pass check()."""
    for anchor in rules.match_sites(rule, d):
        if rule not in GATED_RULES:
            try:
                rules.apply(rule, d, anchor).check()
            except DiagramError:
                return False
    return True


def normal_form_ok(d: Diagram, rng: random.Random, store: dict) -> bool:
    """normalize, then check the post-condition and that the normal form is
    isomorphic to a relabelled copy of itself."""
    nf = rules.normalize(d)
    try:
        nf.check()
    except DiagramError:
        return False
    store["nf"] = nf
    if any(rules.match_sites(rule, nf) for rule in NORMALIZE_RULES):
        return False
    return diagram.iso_equal(nf, relabelled(nf, rng))


def rule_engine(seed: int, budget_s: float, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    count = max(1, round(budget_s / COST_CIRCUIT))
    ops = []
    for i in range(count):
        d = circuit(rng, 4 + i % 2, 40 + int(41 * schedule(i)))
        store: dict = {}
        iso_rng = random.Random(rng.getrandbits(64))
        for rule in RULE_IDS:
            ops.append(Op("rule-sites", f"c{i}:{rule}",
                          lambda r=rule, d=d: rule_well_formed(r, d), True))
        ops.append(Op("normalize", f"c{i}",
                      lambda d=d, s=store, r=iso_rng: normal_form_ok(d, r, s),
                      True))
        ops.append(Op("evaluate-pair", f"c{i}",
                      lambda d=d, s=store: semantics.equal_up_to_scalar(
                          semantics.evaluate(d), semantics.evaluate(s["nf"])),
                      True))
        n, parts = ISO_NEGATIVES[i % len(ISO_NEGATIVES)]
        a, b = closed_cycles((n,)), closed_cycles(parts)
        ops.append(Op("iso-negative", f"C{n}-vs-{parts}",
                      lambda a=a, b=b: diagram.iso_equal(a, b), False))
    return ops


# -- proof-replay -----------------------------------------------------------------


def _cli_replay(start: Path, script: Path, out: Path, euler: bool) -> int:
    argv = ["rewrite", str(start), "--script", str(script), "--check",
            "-o", str(out)]
    return cli.main((["--enable-euler"] if euler else []) + argv)


def _lc_replay_in_model_2(script, start) -> str:
    try:
        proofs.replay(script, start, euler_on=True, models=(1, 2))
    except proofs.ReplayError as exc:
        return ("model-sensitive" if exc.rule in MODEL_SENSITIVE_STEPS
                else f"failed at {exc.rule}")
    return "passed"


def _failing_axioms() -> list[tuple[int, str]]:
    return sorted((r["model_n"], r["axiom"])
                  for r in axioms.independence_report() if not r["holds"])


def generated_scripts(seed: int, count: int, workdir: Path) -> list[tuple[Path, Path]]:
    """Seeded circuits of 2-4 wires and 6-24 gates, each with the first
    2 + gates/4 steps of its normalize trace, written as a .zxd start
    diagram and a JSON-lines script.

    Circuits whose trace is shorter are redrawn (the longest of 50 draws is
    kept), so the scripted work depends on the schedule, not on the seed.
    """
    rng = random.Random(seed)
    files = []
    for i in range(count):
        gates = 6 + int(19 * schedule(i))
        steps = 2 + gates // 4
        best: tuple = (-1,)
        for _ in range(50):
            d = circuit(rng, 2 + i % 3, gates)
            trace: list = []
            rules.normalize(d, trace=trace)
            best = max(best, (len(trace), d, trace), key=lambda b: b[0])
            if len(trace) >= steps:
                break
        _, d, trace = best
        trace = trace[:steps]
        start = workdir / f"gen-{seed}-{i}.start.zxd"
        script = workdir / f"gen-{seed}-{i}.json"
        start.write_text(textio.serialize(d))
        script.write_text("".join(json.dumps({"rule": r, "anchor": list(a)}) + "\n"
                                  for r, a in trace))
        files.append((start, script))
    return files


def proof_replay(seed: int, budget_s: float, workdir: Path) -> list[Op]:
    proofs_dir = Path(__file__).resolve().parent.parent / "proofs"
    out = workdir / "replay-out.zxd"
    ops = []
    for script in sorted(proofs_dir.glob("*.json")):
        start = script.with_name(script.stem + ".start.zxd")
        ops.append(Op("cli-replay", script.stem,
                      lambda s=start, p=script: _cli_replay(s, p, out, True), 0))
    for n in (8, 10, 12):
        ops.append(Op("fixpoint-script", f"s{n}",
                      lambda n=n: lemmas.check_fixpoint_script(n), True))
    # K6,6 is left out only for run length: its replay takes about 60 s.
    ops.append(Op("complete-bipartite", "K5,5",
                  lambda: lemmas.check_complete_bipartite(5, 5), True))
    # check_even_cycle(7) and (8) hit a known defect (StopIteration from
    # reduce_even_cycle for C14 and larger); they stay in as failed ops.
    for n in (5, 6, 7, 8):
        ops.append(Op("even-cycle", f"C{2 * n}",
                      lambda n=n: lemmas.check_even_cycle(n), True))
    ops.append(Op("lc-implies-euler", "derivation",
                  lambda: lemmas.check_lc_implies_euler()["ok"], True))
    ops.append(Op("independence", "models 1-3", _failing_axioms, [(2, "euler")]))
    lc_script = proofs.ProofScript.from_json_lines(
        "lc-implies-euler", (proofs_dir / "lc-implies-euler.json").read_text())
    lc_start = textio.parse((proofs_dir / "lc-implies-euler.start.zxd").read_text())
    ops.append(Op("lc-model-2-negative", "lc-implies-euler",
                  lambda: _lc_replay_in_model_2(lc_script, lc_start),
                  "model-sensitive"))
    count = max(0, round((budget_s - FIXED_REPLAY_S) / COST_SCRIPT))
    for start, script in generated_scripts(seed, count, workdir):
        ops.append(Op("cli-replay-generated", script.stem,
                      lambda s=start, p=script: _cli_replay(s, p, out, False), 0))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[int, float, Path], list[Op]]] = {
    "graph-sweep": graph_sweep,
    "rewrite-sweep": rewrite_sweep,
    "proof-replay": proof_replay,
    "rule-engine": rule_engine,
}


def warmup(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Ops of the workload's shape on inputs the timed pass does not see.

    They fill zxr's tensor cache and load lazily imported code before timing
    starts. The 5-vertex graphs and the shipped scripts are a fixed set, so
    graph-sweep warms up on random 6-7-vertex graphs only and proof-replay
    on generated scripts only.
    """
    rng = random.Random(seed)
    if workload == "graph-sweep":
        return [op for g in _random_graphs(rng, 4) for op in _graph_ops(g, rng)]
    if workload == "proof-replay":
        out = workdir / "warmup-out.zxd"
        return [Op("cli-replay-generated", script.stem,
                   lambda s=start, p=script: _cli_replay(s, p, out, False), 0)
                for start, script in generated_scripts(seed, 3, workdir)]
    return WORKLOADS[workload](seed, 0.4, workdir)
