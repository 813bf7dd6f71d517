"""Cross-module property tests tying rewriting to the semantics."""

import random

import pytest

from conftest import lc_orbit, random_diagram
from zxr import rules
from zxr.diagram import BOUNDARY, Diagram, X, Z, compose, iso_equal
from zxr.graphstate import (SimpleGraph, graph_state, local_complement,
                            star_graph, triangle, vdn_lhs)
from zxr.phase import HALF_PI, MINUS_HALF_PI
from zxr.proofs import ProofScript, replay
from zxr.semantics import diagrams_equal


def test_apply_is_local(rng):
    """A rewrite only deletes or relabels nodes in the anchor's
    1-neighbourhood (new nodes and reconnected edges aside)."""
    for _ in range(40):
        d = random_diagram(rng)
        for rule in rules.RULE_IDS:
            for anchor in rules.match_sites(rule, d)[:3]:
                out = rules.apply(rule, d, anchor, euler_on=True)
                zone = set(anchor)
                for v in anchor:
                    if d.has_node(v):
                        zone.update(d.neighbours(v))
                for v in d.nodes():
                    if not out.has_node(v):
                        assert v in zone, (rule, anchor, v)
                    elif v not in zone:
                        assert out.kind(v) == d.kind(v)
                        if d.kind(v) in (Z, X):
                            assert out.phase(v) == d.phase(v)


def test_normalize_strategy_independent(rng):
    """No confluence claim, but any exhaustive reduction order lands on a
    semantically equal diagram."""
    shuffle = random.Random(5)
    for _ in range(25):
        d = random_diagram(rng)
        deterministic = rules.normalize(d)
        current = d
        while True:
            options = [(rule, anchor)
                       for rule in ("spider-fuse", "self-loop", "id-remove", "hopf")
                       for anchor in rules.match_sites(rule, current)]
            if not options:
                break
            rule, anchor = shuffle.choice(options)
            current = rules.apply(rule, current, anchor)
        assert diagrams_equal(deterministic, current)


def _rotation_layer(g: SimpleGraph, u: str) -> Diagram:
    """The witness rotations for complementing at u, as an n-wire map."""
    d = Diagram()
    ins, outs = [], []
    for i, v in enumerate(g.vertices):
        bi = d.add_node(BOUNDARY, name=f"in{i}")
        bo = d.add_node(BOUNDARY, name=f"out{i}")
        if v == u:
            r = d.add_node(X, HALF_PI)
        elif frozenset((u, v)) in g.edges:
            r = d.add_node(Z, MINUS_HALF_PI)
        else:
            d.add_edge(bi, bo)
            ins.append(bi)
            outs.append(bo)
            continue
        d.add_edge(bi, r)
        d.add_edge(r, bo)
        ins.append(bi)
        outs.append(bo)
    d.inputs, d.outputs = tuple(ins), tuple(outs)
    return d.check()


@pytest.mark.parametrize("seed_graph", [triangle(), star_graph(4)])
def test_orbit_reachable_by_chained_witnesses(seed_graph):
    """Every orbit member's state is reached from the seed state by composing
    the witness rotations along the complementation path."""
    paths = {seed_graph: []}
    frontier = [seed_graph]
    while frontier:
        g = frontier.pop()
        for u in g.vertices:
            if not g.neighbours(u):
                continue
            nxt = local_complement(g, u)
            if nxt not in paths:
                paths[nxt] = paths[g] + [(g, u)]
                frontier.append(nxt)
    assert len(paths) == len(lc_orbit(seed_graph))
    for target, path in paths.items():
        state = graph_state(seed_graph)
        for g, u in path:
            state = compose(_rotation_layer(g, u), state)
        assert diagrams_equal(state, graph_state(target)), target


def test_hopf_derivation_replay():
    """The disconnection of a doubled opposite-colour edge, replayed as a
    script from the normalization trace."""
    lhs = Diagram()
    lhs.add_node(Z, 0, name="g")
    lhs.add_node(X, 0, name="x")
    lhs.add_edge("g", "x", 2)
    lhs.add_node(BOUNDARY, name="i")
    lhs.add_node(BOUNDARY, name="o")
    lhs.add_edge("i", "g")
    lhs.add_edge("x", "o")
    lhs.inputs, lhs.outputs = ("i",), ("o",)
    lhs.check()
    trace = []
    rhs = rules.normalize(lhs, trace=trace)
    script = ProofScript("hopf-derivation", trace)
    end = replay(script, lhs, models=(1, 2, 3))
    assert iso_equal(end, rhs)
    assert end.multiplicity("g", "x") == 0
    assert end.degree("g") == 1 and end.degree("x") == 1


def test_vdn_witness_diagram_matches_layer():
    g = triangle()
    layered = compose(_rotation_layer(g, "a"), graph_state(g))
    assert diagrams_equal(layered, vdn_lhs(g, "a"))


def hexagon_chain_eight() -> Diagram:
    """Two hexagonal faces sharing an edge, the confirmed equivalent of the
    alternating 8-cycle. The boundary assignment mixes colours: cycle input
    wires land alternately on red and green chain nodes."""
    d = Diagram()
    reds = {"t1": ("u1", "u2"), "t2": ("u2", "u3"),
            "l1": ("u1", "b1"), "l2": ("u2", "b1", "b2"), "l3": ("u3", "b2")}
    for g in ("u1", "u2", "u3", "b1", "b2"):
        d.add_node(Z, 0, name=g)
    for r, nbs in reds.items():
        d.add_node(X, 0, name=r)
        for g in nbs:
            d.add_edge(r, g)
    wired = [("in0", "t1"), ("in1", "u1"), ("in2", "t2"), ("in3", "u3"),
             ("out0", "l1"), ("out1", "b1"), ("out2", "l3"), ("out3", "b2")]
    for b, v in wired:
        d.add_node(BOUNDARY, name=b)
        d.add_edge(b, v)
    d.inputs = ("in0", "in1", "in2", "in3")
    d.outputs = ("out0", "out1", "out2", "out3")
    return d.check()


def test_eight_cycle_equals_hexagon_chain():
    """The 8-cycle and the hexagon chain denote the same map (at every model
    scale), and both are irreducible normal forms."""
    from zxr.lemmas import cycle_diagram, reduce_even_cycle

    c8 = cycle_diagram(4)
    hexes = hexagon_chain_eight()
    for n in (1, 2, 3):
        assert diagrams_equal(c8, hexes, n)
    assert iso_equal(rules.normalize(hexes), hexes)
    # the implemented reduction reaches a different, equally irreducible chain
    b = reduce_even_cycle(4)
    assert iso_equal(b.start, c8)
    reduced = b.diagram
    assert iso_equal(rules.normalize(reduced), reduced)
    assert diagrams_equal(reduced, hexes)
    assert not iso_equal(reduced, hexes)
