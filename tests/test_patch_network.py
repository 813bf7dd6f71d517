"""The network of a node set, read in place, against the network of its cut.

``Diagram.network(nodes)`` reads the sub-diagram on ``nodes`` without
building it. On every corpus below it must equal the network of
``reference_cut(d, nodes)`` (``conftest``), which builds that sub-diagram on
its own, exactly: the same factors in the same order, the same scale, index
tuples and boundary counts. Replay decides a step from two such reads, so
any difference would change which steps it contracts.
"""

import random
from pathlib import Path

import pytest

from conftest import circuit, random_diagram, reference_cut
from zxr import rules, semantics, shipped
from zxr.diagram import BOUNDARY, HALF_SQRT2, HBOX, X, Z, Diagram, DiagramError, chain
from zxr.proofs import ProofScript, replay
from zxr.textio import parse

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def assert_read_in_place(d, nodes):
    """The in-place read of nodes equals the read of their reference cut;
    returns it."""
    read = d.network(nodes)
    assert read == reference_cut(d, nodes).network(), (d, sorted(nodes))
    return read


def assert_steps_read_in_place(start, steps, euler_on=False):
    """Both sides of each step's patch read in place as their cuts read;
    returns how many steps had a patch."""
    current, patched = start, 0
    for rule, anchor in steps:
        nxt = rules.apply(rule, current, anchor, euler_on=euler_on)
        patch = nxt.changed_since(current)
        if patch is not None:
            assert_read_in_place(current, patch)
            assert_read_in_place(nxt, patch)
            patched += 1
        current = nxt
    return patched


def test_every_step_of_every_shipped_proof():
    for name in sorted(shipped.BUILDERS):
        start, script = shipped.load(PROOF_DIR, name)
        # every step has a patch
        assert assert_steps_read_in_place(start, script.steps, euler_on=True) == len(script.steps)


def test_every_step_of_generated_normalize_scripts():
    # circuits of 2-4 wires and 6-24 gates, each replayed along its own
    # normalize trace, as the proof-replay benchmark generates them
    rng, scripts, patched = random.Random(4242), 0, 0
    for i in range(300):
        d = circuit(rng, 2 + i % 3, 6 + i % 19)
        trace = []
        rules.normalize(d, trace=trace)
        scripts += bool(trace)
        patched += assert_steps_read_in_place(d, trace)
    assert scripts >= 290 and patched > 1000


def rich_diagram(rng):
    """``random_diagram`` of up to 7 or 14 spiders (names past n9 sort out of
    creation order) plus, each at random, the shapes it never draws:
    an H-box with both legs on one spider, a chain of 2-3 H-boxes between
    two spiders, a bare wire from an input to an output put first, and a
    closed cycle of 2-4 H-boxes."""
    d = random_diagram(rng, max_spiders=rng.choice((7, 14)), max_boundaries=6).copy()
    sp = d.spiders()
    if rng.random() < 0.5:
        d.add_edge(rng.choice(sp), d.add_node(HBOX), 2)
    if rng.random() < 0.5:
        chain(d, rng.choice(sp), rng.choice(sp), ["h"] * rng.randint(2, 3))
    if rng.random() < 0.4:
        i, o = d.add_node(BOUNDARY), d.add_node(BOUNDARY)
        d.add_edge(i, o)
        d.inputs, d.outputs = (i,) + d.inputs, (o,) + d.outputs
    if rng.random() < 0.3:
        ring = [d.add_node(HBOX) for _ in range(rng.randint(2, 4))]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            d.add_edge(a, b)
    return d.check()


def _leaves_twice(d, h, nodes):
    """Is h an H-box in nodes whose H chain leaves nodes at both ends, or
    whose two legs are on one node outside them?"""
    if h not in nodes or not d.has_node(h) or d.kind(h) != HBOX:
        return False
    ends = []
    for start in d._adj[h]:   # walk out each way while inside the H-boxes of nodes
        prev, cur = h, start
        while cur in nodes and d.kind(cur) == HBOX and cur != h:
            nb = d._adj[cur]
            prev, cur = cur, next(w for w in nb if w != prev) if len(nb) == 2 else next(iter(nb))
        ends.append(cur)
    if len(ends) == 1:   # both legs on one node
        return ends[0] not in nodes
    return all(e not in nodes for e in ends)


def test_random_node_sets_of_random_diagrams():
    rng, seen = random.Random(20261019), {"both legs out": 0, "chain out at both ends": 0}
    sets = 0
    for _ in range(300):
        d = rich_diagram(rng)
        names = d.nodes()
        for _ in range(4):
            nodes = rng.sample(names, rng.randint(0, len(names)))
            if rng.random() < 0.1:
                nodes.append("ghost")   # a name d lacks is ignored
            assert_read_in_place(d, nodes)
            sets += 1
            for h in nodes:
                if _leaves_twice(d, h, set(nodes)):
                    seen["both legs out" if len(d._adj[h]) == 1 else "chain out at both ends"] += 1
    assert sets >= 1000 and all(seen.values()), seen


@pytest.mark.parametrize("nodes", [["h"], ["h", "s"], ["h", "t"]])
def test_an_h_box_with_both_legs_on_one_node(nodes):
    d = parse("node s x 1/2\nnode t z\nnode h h\nout o\nedge s h\nedge s h\n"
              "edge s t\nedge t o\n")
    tensors, scale, shape, arity = assert_read_in_place(d, nodes)
    if nodes == ["h"]:   # two cut wires joined through H
        assert arity == (2, 0) and scale == HALF_SQRT2


@pytest.mark.parametrize("nodes", [["h1", "h2"], ["h1", "h2", "h3"], ["a", "h2"], ["h3"]])
def test_an_h_chain_that_leaves_the_set_at_both_ends(nodes):
    d = parse("node a z 1/4\nnode b x 1/2\nnode h1 h\nnode h2 h\nnode h3 h\nin i\nout o\n"
              "edge i a\nedge a h1\nedge h1 h2\nedge h2 h3\nedge h3 b\nedge b o\n")
    assert_read_in_place(d, nodes)


def test_neighbours_are_met_in_the_cuts_order_not_the_hosts():
    # m meets h2 before h1 in its host, but the cut adds m-h1 first (h1 < m
    # is added from h1's side), so its H factors are m-x, then m-y
    d = parse("node m z 1/4\nnode x z 1/2\nnode y z 1/3\nnode h1 h\nnode h2 h\nout o\n"
              "edge m h2\nedge h2 y\nedge m h1\nedge h1 x\nedge m o\n")
    _, _, shape, _ = assert_read_in_place(d, ["h1", "h2", "m", "x", "y"])
    assert shape[-2:] == ((0, 1), (0, 2))


def test_a_patch_holding_boundaries_out_of_sorted_order_keeps_their_order():
    d = Diagram()
    s = d.add_node(Z, "1/2", name="s")
    t = d.add_node(X, 0, name="t")
    d.add_edge(s, t)
    ins = [d.add_node(BOUNDARY, name=b) for b in ("i2", "i0", "i1")]
    outs = [d.add_node(BOUNDARY, name=b) for b in ("o1", "o2", "o0")]
    for b in ins + outs:
        d.add_edge(b, s if b < "i2" or b == "o0" else t)
    d.inputs, d.outputs = tuple(ins), tuple(outs)
    d.check()
    nodes = ["s", "o0", "i1", "o2", "i2"]
    p = reference_cut(d, nodes)
    assert p.inputs == ("i2", "i1") and p.outputs[-2:] == ("o2", "o0")
    assert len(p.outputs) == 4 + 2   # s-t, s-i0, o2-t and i2-t leave the set
    assert d._view(nodes)[-1] == ((0, 1, 2, 3, "o2", "o0"), ("i2", "i1"))
    assert assert_read_in_place(d, nodes)[3] == (6, 2)


def test_the_in_place_read_checks_its_host_first():
    d = parse("node a z\nnode b x\nout o\nedge a b\nedge b o\n")
    d.add_node(HBOX, name="h")   # logged, and an H-box of degree 0
    with pytest.raises(DiagramError, match="H-box 'h' must have degree 2"):
        d.network(["a"])


def _counting_contractions(monkeypatch):
    """Count the contractions of a network that no ``evaluate`` asked for:
    replay's contractions of a patch."""
    calls = []
    contract, evaluate = semantics._contract, semantics.evaluate

    def counting(net, model_n):
        calls.append(1)
        return contract(net, model_n)

    def evaluating(d, model_n=1):
        calls.append(-1)
        return evaluate(d, model_n)

    monkeypatch.setattr(semantics, "_contract", counting)
    monkeypatch.setattr(semantics, "evaluate", evaluating)
    return calls


def test_replay_contracts_just_the_patches_whose_network_changed(monkeypatch):
    loaded = [shipped.load(PROOF_DIR, name) for name in sorted(shipped.BUILDERS)]
    changed = steps = 0
    for current, script in loaded:
        for rule, anchor in script.steps:
            nxt = rules.apply(rule, current, anchor, euler_on=True)
            patch = nxt.changed_since(current)
            changed += not semantics._same(reference_cut(current, patch).network(),
                                           reference_cut(nxt, patch).network())
            steps, current = steps + 1, nxt
    contracted = _counting_contractions(monkeypatch)
    for start, script in loaded:
        replay(script, start, euler_on=True, models=(1,))
    assert sum(contracted) == 2 * changed and 0 < changed < steps / 2
    contracted.clear()
    fuse = parse("node a z 1/4\nnode b z 1/2\nin i\nout o\nedge i a\nedge a b\nedge b o\n")
    replay(ProofScript("fuse", [("spider-fuse", ("a", "b"))]), fuse, models=(1, 2, 3))
    assert contracted == []   # fusion keeps the network: decided in place
