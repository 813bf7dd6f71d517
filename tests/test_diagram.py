import builtins
import copy
import itertools
import random
import re
import signal
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import circuit, random_diagram, reference_cut, tangled
from test_patch_check import whole_table_patch
from zxr import diagram, rules
from zxr.diagram import (BOUNDARY, HBOX, Diagram, DiagramError, X, Z,
                         attach_wires, canonical, chain, compose, dagger, empty, euler_chain,
                         generator, iso_equal, spider, tensor, wire)
from zxr.graphstate import SimpleGraph, all_graphs, graph_state, path_graph
from zxr.phase import Phase
from zxr.semantics import evaluate
from zxr.textio import parse, serialize


def test_generator_arities():
    cases = {
        "delta_z": (1, 2), "delta_z_dag": (2, 1),
        "eps_z": (1, 0), "eps_z_dag": (0, 1),
        "delta_x": (1, 2), "eps_x_dag": (0, 1),
        "h": (1, 1), "wire": (1, 1),
    }
    for kind, (n_in, n_out) in cases.items():
        d = generator(kind)
        assert (len(d.inputs), len(d.outputs)) == (n_in, n_out), kind


def test_eps_z_dag_shape():
    d = generator("eps_z_dag")
    assert len(d.inputs) == 0 and len(d.outputs) == 1
    (v,) = d.spiders()
    assert d.kind(v) == Z and d.phase(v).is_zero()


def test_wire_has_no_internal_node():
    d = generator("wire")
    assert d.spiders() == []


def test_phase_generator_requires_phase():
    g = generator("phase_x", Phase(1))
    (v,) = g.spiders()
    assert g.phase(v) == Phase(1)
    with pytest.raises(DiagramError):
        generator("phase_z")
    with pytest.raises(DiagramError):
        generator("delta_z", Phase(1))


def test_wire_and_h_carry_no_phase_and_unknown_generators_are_refused():
    for kind in ("wire", "h"):
        with pytest.raises(DiagramError, match=f"{kind} carries no phase"):
            generator(kind, 1)
    with pytest.raises(DiagramError, match="unknown generator 'bogus'"):
        generator("bogus")


def test_misused_nodes_and_edges_are_refused():
    with pytest.raises(DiagramError, match="not a spider colour: 'h'"):
        diagram.other_colour(HBOX)
    d = Diagram()
    with pytest.raises(DiagramError, match="h node cannot carry a phase"):
        d.add_node(HBOX, phase=1)
    a, b = d.add_node(Z, name="a"), d.add_node(BOUNDARY, name="b")
    with pytest.raises(DiagramError, match="edge endpoint missing: 'a'-'c'"):
        d.add_edge(a, "c")
    with pytest.raises(DiagramError, match="boundary 'b' has no wire"):
        d.boundary_partner(b)


def test_compose_arity_mismatch():
    with pytest.raises(DiagramError):
        compose(generator("delta_z"), generator("delta_z"))


def test_compose_wire_absorbs():
    assert iso_equal(compose(wire(), wire()), wire())


def test_tensor_unit():
    f = generator("phase_z", Phase(1, 2))
    assert iso_equal(tensor(empty(), f), f)
    two = tensor(wire(), wire())
    assert len(two.inputs) == 2 and len(two.outputs) == 2


def test_dagger_swaps_and_negates():
    assert iso_equal(dagger(generator("eps_z")), generator("eps_z_dag"))
    assert iso_equal(dagger(generator("h")), generator("h"))
    # conjugate-transpose of diag(1, e^{i pi/2}) is the 3pi/2 rotation
    assert iso_equal(dagger(generator("phase_z", Phase(1, 2))),
                     generator("phase_z", Phase(3, 2)))


def test_dagger_involution(rng):
    for _ in range(25):
        d = random_diagram(rng)
        assert iso_equal(dagger(dagger(d)), d)


def test_iso_reflexive(rng):
    for _ in range(25):
        d = random_diagram(rng)
        assert iso_equal(d, d.copy())


def test_iso_colour_differs():
    assert not iso_equal(generator("phase_z", Phase(1, 2)),
                         generator("phase_x", Phase(1, 2)))


def test_iso_permuted_internal_names():
    # two renderings of the same triangle-state shape with permuted ids
    from zxr.graphstate import graph_state, triangle

    a = graph_state(triangle())
    b = Diagram()
    for n in ("p", "q", "r"):
        b.add_node(Z, 0, name=n)
    boxes = [("p", "q"), ("q", "r"), ("p", "r")]
    for i, (u, v) in enumerate(boxes):
        h = b.add_node("h", name=f"box{i}")
        b.add_edge(u, h)
        b.add_edge(h, v)
    outs = []
    for n in ("p", "q", "r"):
        w = b.add_node(BOUNDARY, name=f"wire-{n}")
        b.add_edge(n, w)
        outs.append(w)
    b.outputs = tuple(outs)
    assert iso_equal(a, b.check())


def _brute_iso(a, b):
    """Reference isomorphism test: try every bijection that keeps the node
    labels (kind, phase, self-loops, input/output position) and compare edge
    multiplicities."""
    def labels(d):
        place = {v: ("in", i) for i, v in enumerate(d.inputs)}
        place.update((v, ("out", j)) for j, v in enumerate(d.outputs))
        return {v: (d.kind(v), d.phase(v) if d.kind(v) in (Z, X) else None,
                    d.self_loops(v), place.get(v)) for v in d.nodes()}

    la, lb = labels(a), labels(b)
    if Counter(la.values()) != Counter(lb.values()) or a.edge_count() != b.edge_count():
        return False
    groups = [([v for v in la if la[v] == lab], [v for v in lb if lb[v] == lab])
              for lab in set(la.values())]
    for images in itertools.product(*(itertools.permutations(ys) for _, ys in groups)):
        to_b = {u: v for (xs, _), ys in zip(groups, images) for u, v in zip(xs, ys)}
        if all(b.multiplicity(to_b[u], to_b[v]) == m for u, v, m in a.edges()):
            return True
    return False


def _relabelled(d, rng):
    """A copy of d built in a random order, its node names permuted."""
    ren = dict(zip(d.nodes(), rng.sample(d.nodes(), d.node_count())))
    out = Diagram()
    for v in rng.sample(d.nodes(), d.node_count()):
        out.add_node(d.kind(v), d.phase(v) if d.kind(v) in (Z, X) else None, name=ren[v])
    for u, v, m in d.edges():
        out.add_edge(ren[u], ren[v], m)
    out.inputs = tuple(ren[b] for b in d.inputs)
    out.outputs = tuple(ren[b] for b in d.outputs)
    return out.check()


def _cycles(*lengths):
    """Disjoint closed alternating Z/X cycles of phase-0 spiders."""
    d = Diagram()
    for n in lengths:
        ring = [d.add_node((Z, X)[i % 2], 0) for i in range(n)]
        for i in range(n):
            d.add_edge(ring[i], ring[(i + 1) % n])
    return d.check()


def test_iso_equal_agrees_with_brute_force():
    rng = random.Random(909)
    verdicts = Counter()
    for i in range(320):
        a = random_diagram(rng)
        b = _relabelled(a, rng)
        moves = [(u, v) for u, v, _ in b.edges()
                 if u != v and b.kind(u) in (Z, X) and b.kind(v) in (Z, X)]
        if i % 2 and moves:     # move one spider-spider edge
            b.remove_edge(*rng.choice(moves))
            spiders = b.spiders()
            b.add_edge(rng.choice(spiders), rng.choice(spiders))
        expected = _brute_iso(a, b)
        assert iso_equal(a, b) == expected, i
        verdicts[expected] += 1
    assert verdicts[True] >= 150 and verdicts[False] >= 50, verdicts
    # disconnected pairs, decided by their components or by the search
    pairs = [(_cycles(3, 3), _cycles(6)), (_cycles(4, 4), _cycles(8)),
             (_beside(0, 3, 3), _beside(0, 6)), (_beside(1, 2, 3), _beside(1, 5)),
             (_cycles(2, 4), _cycles(4, 2)), (_beside(1, 3, 3), _beside(1, 3, 3))]
    pairs += [(a, _relabelled(a, rng)) for a, _ in pairs]
    # bare boundary-to-boundary wires: two straight ones against two
    # crossed, two capped and a copy built in another order
    straight = _bare_wires(("in0", "out0"), ("in1", "out1"))
    pairs += [(straight, _bare_wires(("in0", "out1"), ("in1", "out0"))),
              (straight, _bare_wires(("in0", "in1"), ("out0", "out1"))),
              (straight, _relabelled(straight, rng))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert iso_equal(x, y) == _brute_iso(x, y), (x.edges(), y.edges())


def _bare_wires(*edges):
    """Inputs in0, in1 and outputs out0, out1 wired to each other by edges."""
    d = Diagram()
    for b in ("in0", "in1", "out0", "out1"):
        d.add_node(BOUNDARY, name=b)
    for u, v in edges:
        d.add_edge(u, v)
    d.inputs, d.outputs = ("in0", "in1"), ("out0", "out1")
    return d.check()


@pytest.mark.parametrize("n", [4, 6, 8])
def test_iso_symmetric_cycles(n):
    assert not iso_equal(_cycles(2 * n), _cycles(n, n))
    assert iso_equal(_cycles(2 * n), _relabelled(_cycles(2 * n), random.Random(n)))


def _cube():
    """The 3-cube graph on Z(0) spiders: cubic and bipartite."""
    d = Diagram()
    v = [d.add_node(Z, 0) for _ in range(8)]
    for i, bit in itertools.product(range(8), (1, 2, 4)):
        if i < i ^ bit:
            d.add_edge(v[i], v[i ^ bit])
    return d.check()


def _wagner():
    """The Wagner graph (an 8-ring and its 4 long diagonals) on Z(0)
    spiders: cubic, like the cube, but with 5-cycles."""
    d = Diagram()
    v = [d.add_node(Z, 0) for _ in range(8)]
    for i in range(8):
        d.add_edge(v[i], v[(i + 1) % 8])
    for i in range(4):
        d.add_edge(v[i], v[i + 4])
    return d.check()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6])
def test_iso_search_decides_components_alike_in_labels(k):
    # the cube and the Wagner graph have the same labels, node and edge
    # counts and degrees, so neither the component test nor refinement
    # tells them apart: the search has to individualise
    rings = _beside(0, *[4] * k)
    a, b = tensor(_cube(), rings), tensor(_wagner(), rings)
    with _deadline(2):
        assert not iso_equal(a, b) and not iso_equal(b, a)
        assert iso_equal(a, _relabelled(a, random.Random(k)))
        assert iso_equal(b, _relabelled(b, random.Random(k)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_iso_decides_interchangeable_components_alike_in_labels(k):
    # k cubes and the Wagner graph against k + 1 cubes (all Z(0)): every
    # component has the same labels, so the component test passes them,
    # and a pairwise search tried the cubes' pairings (17.6 s at k = 2)
    cubes = _cube()
    for _ in range(k - 1):
        cubes = tensor(cubes, _cube())
    a, b = tensor(cubes, _wagner()), tensor(cubes, _cube())
    with _deadline(2):
        assert not iso_equal(a, b) and not iso_equal(b, a)
        assert iso_equal(b, _relabelled(b, random.Random(k)))


def _plain(g):
    """A simple graph drawn as Z(0) spiders and plain edges, no boundary."""
    d = Diagram()
    for v in g.vertices:
        d.add_node(Z, 0, name=v)
    for e in g.edges:
        d.add_edge(*sorted(e))
    return d.check()


def test_certificates_count_the_graphs_up_to_isomorphism():
    # OEIS A000088; CI counts the 156 classes on 6 vertices
    counts = [len({canonical(_plain(g)) for g in all_graphs(tuple(f"v{i}" for i in range(n)))})
              for n in range(1, 6)]
    assert counts == [1, 2, 4, 11, 34]


def test_relabelling_keeps_the_certificate():
    rng = random.Random(52)
    ds = [random_diagram(rng) for _ in range(200)]
    ds += [tangled(d.copy(), rng) for d in ds]
    ds += [circuit(rng, rng.randint(2, 5), rng.randint(10, 60)) for _ in range(40)]
    ds += [graph_state(g) for n in range(1, 6)
           for g in all_graphs(tuple(f"v{i}" for i in range(n)))]
    for d in ds:
        assert canonical(_relabelled(d, rng)) == canonical(d), d.edges()


def _hub(prefix, legs, parts):
    """A Z(0) hub with ``legs`` equal pendant chains of parts ((colour,
    phase) each)."""
    d = Diagram()
    hub = d.add_node(Z, 0, name=f"{prefix}hub")
    for i in range(legs):
        chain(d, hub, None, parts, [f"{prefix}{i}.{j}" for j in range(len(parts))])
    return d.check()


def test_iso_decides_connected_symmetric_diagrams_at_once():
    # a cell of 2,400 twins taken one node a level took 32 s; the orders of
    # 8 equal pendant chains and the leaves of a 100-ring, tried without the
    # automorphisms that equal leaves give, 3.2 s and 1.6 s
    star, legs = _hub("s", 2400, [(X, 0)]), _hub("p", 8, [(X, 0), (Z, 1)])
    with _deadline(2):
        for d in (star, legs, _beside(0, 100)):
            assert iso_equal(d, _relabelled(d, random.Random(8)))


def test_iso_backtracks_past_a_failed_candidate():
    # colour refinement cannot tell C4 from C8: a's first node, on its C4,
    # is tried against b's C8 first, and only a later candidate fits
    a, b = _cycles(4, 8), _cycles(8, 4)
    assert iso_equal(a, b) and iso_equal(b, a)


def _isolated(prefix, phases):
    d = Diagram()
    for i, phase in enumerate(phases):
        d.add_node(Z, phase, name=f"{prefix}{i}")
    return d.check()


def test_iso_equal_on_600_isolated_spiders():
    # one twin class, fixed in one search level
    zeros = [0] * 600
    assert iso_equal(_isolated("s", zeros), _isolated("t", zeros))
    assert not iso_equal(_isolated("s", zeros), _isolated("t", zeros[1:] + [Phase(1, 2)]))


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")
    before = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, before)


def _beside(k, *lengths):
    """Z(0) rings of the given lengths beside k isolated Z(0) spiders."""
    d = Diagram()
    for n in lengths:
        ring = [d.add_node(Z, 0) for _ in range(n)]
        for i in range(n):
            d.add_edge(ring[i], ring[(i + 1) % n])
    for _ in range(k):
        d.add_node(Z, 0)
    return d.check()


@pytest.mark.parametrize("k", [3, 10])
def test_iso_negative_beside_isolated_twins_decides_at_once(k):
    # refinement cannot tell C4 + C4 + C4 from C8 + C4 (all Z(0)), and the k
    # isolated Z(0) spiders are the smallest cell: without twin pruning the
    # search tried all k! of their orders before failing on the cycles
    # (7.4 s at k = 6)
    a, b = _beside(k, 4, 4, 4), _beside(k, 8, 4)
    with _deadline(5):
        assert not iso_equal(a, b) and not iso_equal(b, a)
        assert iso_equal(a, _relabelled(a, random.Random(k)))


def test_iso_negative_of_interchangeable_rings_decides_by_components():
    # refinement cannot tell five C4 rings and a C8 from seven C4 rings (all
    # Z(0)); the search tried the rings' orders, 7.4-13.1 s, before the
    # components were compared
    a, b = _beside(0, 4, 4, 4, 4, 4, 8), _beside(0, *[4] * 7)
    with _deadline(2):
        assert not iso_equal(a, b) and not iso_equal(b, a)
        assert iso_equal(a, _relabelled(a, random.Random(7)))


def test_iso_fixes_a_whole_twin_class_in_one_step():
    # 2,400 isolated Z(0) spiders are one twin class: fixing one of them per
    # search level re-refined both diagrams 2,400 times (11 s each positive)
    zeros = [0] * 2400
    s, t = _isolated("s", zeros), _isolated("t", zeros)
    a, b = _beside(2400, 4, 4, 4), _beside(2400, 8, 4)
    a_moved = _relabelled(a, random.Random(1))
    with _deadline(2):
        assert iso_equal(s, t) and iso_equal(a, a_moved)
        assert not iso_equal(a, b) and not iso_equal(b, a)


def test_iso_tries_one_node_per_twin_class(monkeypatch):
    """The candidates of the search's first branch, one per twin class: a
    star's leaves, the opposite corners of a C4 and the corners of a clique
    or of one wing of a bowtie are twins, and a cell of one twin class is
    taken whole, with no branch; a C5's adjacent corners are not twins, nor
    two nodes whose neighbours differ only in multiplicity."""
    tried = []
    monkeypatch.setattr(diagram, "iter", lambda xs: builtins.iter(
        tried.append(list(xs)) or tried[-1]), raising=False)

    def first_branch(d):
        tried.clear()
        assert iso_equal(d, _relabelled(d, random.Random(1)))
        return len(tried[0]) if tried else 0

    def plain(*edges):
        return _plain(SimpleGraph.build(sorted(set("".join(edges))), edges))

    lopsided = parse("node p z\nnode q z\nnode w x\nnode y x\n"
                     "edge p w\nedge p y\nedge p y\nedge q w\nedge q w\nedge q y\n")
    assert first_branch(plain("ca", "cb", "cd")) == 0   # a star
    assert first_branch(plain("ab", "bc", "ca")) == 0   # a triangle
    assert first_branch(plain(*map("".join, itertools.combinations("abcd", 2)))) == 0
    assert first_branch(_cycles(4)) == 0   # Z and X corners: two cells, one class each
    assert first_branch(_beside(0, 4)) == 2
    assert first_branch(plain("ab", "ha", "hb", "cd", "hc", "hd")) == 2   # a bowtie
    assert first_branch(_beside(0, 5)) == 5
    assert first_branch(lopsided) == 2


def test_invariants_rejected():
    d = Diagram()
    h = d.add_node("h", name="h")
    d.add_edge(h, h)
    with pytest.raises(DiagramError):
        d.check()
    d2 = Diagram()
    b = d2.add_node(BOUNDARY, name="b")
    d2.inputs = ("b",)
    with pytest.raises(DiagramError):
        d2.check()  # boundary without its wire


def test_compose_tensor_preserve_invariants(rng):
    for _ in range(20):
        f = random_diagram(rng)
        g = random_diagram(rng)
        tensor(f, g).check()
        if len(f.inputs) == len(g.outputs):
            compose(f, g).check()


def test_compose_closes_glued_wires_into_a_loop():
    cap = parse("in a b\nedge a b\n")
    cup = parse("out a b\nedge a b\n")
    d = compose(cap, cup)
    assert (d.inputs, d.outputs, d.node_count(), d.edge_count()) == ((), (), 1, 1)
    (v,) = d.nodes()
    assert d.self_loops(v) == 1
    assert np.array_equal(evaluate(d), [[2]])


def test_created_since_lists_new_nodes_in_creation_order():
    d = Diagram()
    a = d.add_node(Z, 0)
    e = d.copy()
    made = [e.add_node(X, 0) for _ in range(11)] + [e.add_node(HBOX, name="b")]
    e.remove_node(made[3])
    del made[3]
    assert e.created_since(d) == made and "n10" in made
    assert d.created_since(e) == [] and a not in made


def test_node_ids_never_reused():
    d = Diagram()
    a = d.add_node(Z, 0)
    d.remove_node(a)
    b = d.add_node(Z, 0)
    assert a != b


def test_a_removed_id_is_not_handed_out_again_by_name():
    d = Diagram()
    a = d.add_node(Z, 0)
    d.remove_node(a)
    with pytest.raises(DiagramError):
        d.add_node(Z, 0, name=a)
    with pytest.raises(DiagramError):
        d.copy().add_node(X, 1, name=a)
    assert a not in d.nodes() and d.add_node(Z, 0) != a


def test_removed_ids_stay_refused_on_every_later_copy():
    d = Diagram()
    d.add_node(Z, 0, name="n0")
    d.add_node(Z, 0, name="n1")
    d.remove_node("n0")
    later = [d, d.copy(), d.copy().copy()]
    later[1].remove_node("n1")
    later.append(later[1].copy())
    for e in later:
        for v in ("n0", "n1"):
            with pytest.raises(DiagramError, match="is or was in use"):
                e.add_node(X, 1, name=v)
        assert e.fresh_id() == "n2"   # skips n0, removed, and n1, live or removed
    # compose and tensor rename the other side's nodes around removed ids
    gone = generator("h").copy()
    gone.add_node(Z, 0, name="x")
    gone.remove_node("x")
    w = Diagram()
    w.add_node(Z, 0, name="x")
    w = attach_wires(w, ["x"], ["x"])
    for both in (tensor(gone, w), compose(w, gone)):
        assert "x" not in both.nodes() and "x.0" in both.nodes()
        with pytest.raises(DiagramError, match="is or was in use"):
            both.add_node(Z, 0, name="x")


def assert_adjacency_matches_edge_list(d):
    """Every adjacency query agrees with a reference rebuilt from the
    diagram's edge list, one entry per parallel copy."""
    instances = [(u, v) for u, v, m in d.edges() for _ in range(m)]
    mult, deg, nbrs = Counter(), Counter(), {v: set() for v in d.nodes()}
    for u, v in instances:
        mult[u, v] += 1
        deg[u] += 1
        deg[v] += 1
        if u != v:
            mult[v, u] += 1
            nbrs[u].add(v)
            nbrs[v].add(u)
    assert d.edge_count() == len(instances)
    for u in d.nodes():
        assert d.degree(u) == deg[u], u
        assert d.neighbours(u) == sorted(nbrs[u]), u
        assert d.self_loops(u) == mult[u, u], u
        for v in d.nodes():
            assert d.multiplicity(u, v) == mult[u, v], (u, v)
    for b in d.boundary():
        assert [d.boundary_partner(b)] == d.neighbours(b), b
    kinds = list(d.kinds())
    assert sorted(v for v, _ in kinds) == d.nodes()
    assert all(d.kind(v) == k for v, k in kinds)
    for u in d.nodes():
        assert dict(d.around(u)) == {v: mult[u, v] for v in d.nodes() if mult[u, v]}, u


def test_adjacency_queries_match_edge_list(rng):
    for _ in range(40):
        d = random_diagram(rng)
        assert_adjacency_matches_edge_list(d)
        for rule in rules.RULE_IDS:
            if rules.RULES[rule].euler:
                continue
            for anchor in rules.match_sites(rule, d):
                assert_adjacency_matches_edge_list(rules.apply(rule, d, anchor))


def test_self_loop_counts_twice():
    d = Diagram()
    v = d.add_node(Z, 0)
    d.add_edge(v, v)
    assert (d.degree(v), d.self_loops(v), d.neighbours(v), d.edge_count()) == (2, 1, [], 1)
    d.add_edge(v, v)
    assert (d.degree(v), d.self_loops(v), d.edge_count()) == (4, 2, 2)
    d.remove_edge(v, v)
    assert (d.degree(v), d.self_loops(v), d.edge_count()) == (2, 1, 1)
    with pytest.raises(DiagramError):
        d.remove_node(v)   # its only edge is a self-loop
    d.remove_edge(v, v)
    assert (d.degree(v), d.edge_count()) == (0, 0)
    with pytest.raises(DiagramError):
        d.remove_edge(v, v)
    d.remove_node(v)
    assert d.node_count() == 0


def test_remove_missing_edge_raises():
    d = Diagram()
    a, b = d.add_node(Z, 0), d.add_node(X, 0)
    d.add_edge(a, b)
    with pytest.raises(DiagramError):
        d.remove_edge(a, b, 2)
    with pytest.raises(DiagramError):
        d.remove_edge(a, a)
    with pytest.raises(DiagramError):
        d.remove_edge(a, "missing")
    d.remove_edge(b, a)
    assert (d.multiplicity(a, b), d.degree(a), d.degree(b)) == (0, 0, 0)


def test_boundary_partner_on_wire():
    d = wire()
    assert d.boundary_partner("in0") == "out0"
    assert d.boundary_partner("out0") == "in0"


def test_set_kind_keeps_phase():
    d = generator("phase_z", Phase(1, 2))
    d.set_kind("g", X)
    assert (d.kind("g"), d.phase("g")) == (X, Phase(1, 2))
    assert iso_equal(d.check(), generator("phase_x", Phase(1, 2)))
    for name, colour in (("in0", X), ("g", HBOX)):
        with pytest.raises(DiagramError):
            d.set_kind(name, colour)
    with pytest.raises(DiagramError):
        generator("h").set_kind("g", Z)


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d._adj["g"].update(in0=2),      # one-sided
     "edge ('g', 'in0') is empty, dangling or one-sided"),
    (lambda d: d._adj["g"].update(g=0),        # zero multiplicity
     "edge ('g', 'g') is empty, dangling or one-sided"),
    (lambda d: d._adj["g"].update(ghost=1),    # dangling
     "edge ('g', 'ghost') is empty, dangling or one-sided"),
    (lambda d: d._adj.update(ghost={}),        # not a live node
     "edge store and node table list different nodes"),
], ids=[f"<lambda>{i}" for i in range(4)])   # by position, as pytest names a lambda
def test_check_rejects_corrupt_edge_store(corrupt, message):
    d = generator("phase_z", Phase(1, 2))
    corrupt(d)
    with pytest.raises(DiagramError, match=re.escape(message)):
        d.check()


def _unlisted_boundary(d):
    d.add_edge(d.add_node(BOUNDARY, name="b"), "g")


def _lopsided_hbox(d):
    d.add_edge(d.add_node(HBOX, name="h"), "g")


def _looped_hbox(d):
    h = d.add_node(HBOX, name="h")
    d.add_edge(h, h)


def _removed_input(d):
    d.remove_edge("in0", "g")
    d.remove_node("in0")


# one fault each: (edit, its message, whether ``checked`` reaches it)
NODE_FAULTS = {
    "unknown kind": (lambda d: d.add_node("q", name="q"), "unknown node kind 'q'", True),
    "spider without a phase": (lambda d: d._phase.pop("g"), "spider 'g' lacks a phase", False),
    "unlisted boundary": (_unlisted_boundary,
                          "boundary 'b' not listed in inputs/outputs", True),
    "boundary degree": (lambda d: d.add_edge("in0", "g"), "boundary 'in0' must have degree 1",
                        True),
    "H-box degree": (_lopsided_hbox, "H-box 'h' must have degree 2", True),
    "H-box self-loop": (_looped_hbox, "H-box 'h' has a self-loop", True),
    "listed non-boundary": (_removed_input, "listed boundary 'in0' is not a boundary node",
                            True),
    "listed non-boundary, reassigned": (lambda d: setattr(d, "outputs", ("out0", "g")),
                                        "listed boundary 'g' is not a boundary node", True),
    "overlapping inputs/outputs": (lambda d: setattr(d, "outputs", d.inputs),
                                   "inputs/outputs overlap or repeat", True),
    "node table and edge store": (lambda d: d._kind.update(ghost=X),
                                  "edge store and node table list different nodes", False),
}


@pytest.mark.parametrize("fault", NODE_FAULTS)
def test_check_names_each_node_fault(fault):
    """Each fault alone on a valid diagram, through ``check`` and, where a
    logged edit or a reassigned boundary list made it, through ``checked``
    after a full walk."""
    edit, message, logged = NODE_FAULTS[fault]
    d = generator("phase_z", Phase(1, 2))
    edit(d)
    with pytest.raises(DiagramError, match=f"^{re.escape(message)}$"):
        d.copy().check()
    if logged:
        with pytest.raises(DiagramError, match=f"^{re.escape(message)}$"):
            d.checked()


# -- the touch log and checked() ------------------------------------------------


def _public_edit(d: Diagram, rng: random.Random) -> None:
    """One random edit through Diagram's methods, valid or not; an edit the
    method refuses leaves d as it was."""
    nodes = d.nodes()
    if not nodes:
        d.add_node(rng.choice([Z, BOUNDARY]))
        return
    v, w = rng.choice(nodes), rng.choice(nodes)
    op = rng.randrange(8)
    try:
        if op == 0:
            d.add_node(rng.choice([Z, X, HBOX, BOUNDARY]))
        elif op == 1:
            d.add_edge(v, w)
        elif op == 2:
            d.remove_edge(v, w)
        elif op == 3:
            for u in d.neighbours(v) + [v]:
                d.remove_edge(v, u, d.multiplicity(v, u))
            d.remove_node(v)
        elif op == 4:
            d.set_phase(v, Phase(1, 2))
        elif op == 5:
            d.set_kind(v, rng.choice([Z, X]))
        elif op == 6:
            d.splice(v, w, rng.choice([Z, HBOX]))
        elif d.outputs and rng.random() < 0.5:
            d.outputs = d.outputs[:-1]
        else:
            d.inputs = d.inputs + (v,)
    except DiagramError:
        pass


def _rejects(validate) -> bool:
    try:
        validate()
    except DiagramError:
        return True
    return False


def test_checked_agrees_with_a_full_check_after_public_edits(rng):
    """Some edits follow a ``checked`` of the edits before them, some land
    on a copy taken between edits, and some on the source after a copy."""
    verdicts, copied = Counter(), 0
    for _ in range(2000):
        d = random_diagram(rng)
        for _ in range(rng.randint(1, 4)):
            r = rng.random()
            if r < 0.5:
                _rejects(d.checked)
            if r < 0.3:
                d = rng.choice((d, d.copy()))
                copied += 1
            _public_edit(d, rng)
        whole = _rejects(d.copy().check)
        assert _rejects(d.checked) == whole, d.edges()
        verdicts[whole] += 1
    assert verdicts[True] > 200 and verdicts[False] > 200 and copied > 500


def test_checked_walks_everything_after_the_boundary_is_reassigned():
    d = generator("phase_z", Phase(1, 2))
    d.outputs = ()
    with pytest.raises(DiagramError, match="'out0' not listed"):
        d.checked()


def test_checked_names_the_first_touched_fault():
    for first_wire in (True, False):
        d = spider(Z, 1, 1)
        if first_wire:
            d.add_edge("in0", "g")           # in0 now has degree 2
        h = d.add_node(HBOX)                 # an H-box with no wires
        if not first_wire:
            d.add_edge("in0", "g")
        bad = "boundary 'in0'" if first_wire else f"H-box {h!r}"
        with pytest.raises(DiagramError, match=bad):
            d.checked()


def test_checked_sees_a_rewrite_of_logged_nodes_after_a_check():
    e = spider(Z, 1, 1).copy()
    h = e.add_node(HBOX)
    e.add_edge(h, "g", 2)
    assert e.checked() is e and list(e.touched()) == [h, "g"]
    e.add_edge(h, "g")                    # both ends logged already
    with pytest.raises(DiagramError, match="H-box"):
        e.checked()


def test_copy_carries_its_own_touch_log(monkeypatch):
    d = spider(Z, 1, 1)
    h = d.add_node(HBOX)
    e = d.copy()
    assert list(e.touched()) == [] and list(d.touched()) == [h]
    e.remove_node(h)
    walks, full = [], Diagram.check
    monkeypatch.setattr(Diagram, "check", lambda self: walks.append(self) or full(self))
    # d's H-box was never checked, so the copy walks everything, once
    assert e.checked() is e and e.checked() is e and walks == [e]
    with pytest.raises(DiagramError, match="H-box"):
        d.checked()
    assert walks == [e]   # the source validates its own log
    clean = spider(Z, 1, 1)
    clean.copy().add_node(HBOX)
    assert clean.checked() is clean and list(clean.touched()) == []


# -- copies share neighbour maps until written --------------------------------


def _shared_base() -> Diagram:
    """A 1->1 diagram with a doubled edge, a self-loop and a lone scalar."""
    d = Diagram()
    for name, colour, phase in (("a", Z, Phase(1, 2)), ("b", X, 0),
                                ("c", Z, Phase(1, 4)), ("lone", Z, Phase(1))):
        d.add_node(colour, phase, name=name)
    d.add_edge("a", "b", 2)
    d.add_edge("b", "c")
    d.add_edge("a", "c")
    d.add_edge("c", "c")
    return attach_wires(d, ["a"], ["c"])


def _state(d: Diagram) -> tuple:
    """What an edit elsewhere must not move: the text, the edges, the next
    fresh id (drawn on a shallow clone, so d keeps its own counter and maps)
    and the matrix."""
    m = evaluate(d)
    return serialize(d), d.edges(), copy.copy(d).fresh_id(), m.shape, m.tobytes()


EDITS = {
    "add_edge": lambda d: d.add_edge("a", "b"),
    "remove_edge": lambda d: d.remove_edge("a", "b"),
    "remove_node": lambda d: d.remove_node("lone"),
    "splice": lambda d: d.splice("b", "c", HBOX),
    "substitute": lambda d: d.substitute(["b"], cut(d, ["b"]), ["b"] * 3),
    "set_phase": lambda d: d.set_phase("a", Phase(1)),
    "set_kind": lambda d: d.set_kind("b", Z),
}


@pytest.mark.parametrize("edited", ["copy", "source"])
@pytest.mark.parametrize("mutator", sorted(EDITS))
def test_an_edit_of_one_side_of_a_copy_leaves_the_other_alone(mutator, edited):
    source = _shared_base()
    dup = source.copy()
    written, other = (dup, source) if edited == "copy" else (source, dup)
    before = _state(other)
    EDITS[mutator](written)
    assert written.checked() is written
    assert _state(written) != before and _state(other) == before


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_sibling_copies_do_not_see_each_others_writes(order):
    source = _shared_base()
    sides = [source, source.copy(), source.copy()]
    for i in order:                       # the source and two siblings
        before = [_state(d) for d in sides]
        EDITS["add_edge"](sides[i])
        EDITS["remove_edge"](sides[i])
        sides[i].remove_edge("b", "c")
        assert sides[i].checked() is sides[i]
        assert [_state(d) for d in sides[:i] + sides[i + 1:]] == before[:i] + before[i + 1:]


def test_a_copy_of_a_copy_shares_and_unshares_the_same_way():
    source = _shared_base()
    first = source.copy()
    EDITS["add_edge"](first)              # first owns the maps of a and b now
    second = first.copy()
    sides = [source, first, second]
    for i, written in enumerate((first, second, source)):
        before = [_state(d) for d in sides]
        EDITS["add_edge"](written)
        EDITS["splice"](written)
        assert written.checked() is written
        assert [_state(d) for d in sides if d is not written] == [
            s for d, s in zip(sides, before) if d is not written]


def test_checks_see_the_written_copy_only():
    source = spider(Z, 1, 1)
    dup = source.copy()
    dup.add_edge("in0", "g")              # in0 now has degree 2, in dup only
    with pytest.raises(DiagramError, match="boundary 'in0'"):
        dup.checked()
    assert source.checked() is source and source.check() is source
    dup.remove_edge("in0", "g")
    assert dup.checked() is dup
    dup._adj["g"].update(ghost=1)         # a private write to a map dup owns
    assert dup.checked() is dup
    with pytest.raises(DiagramError, match="dangling"):
        dup.check()
    assert source.check() is source


def test_checked_does_not_see_a_private_write():
    d = generator("phase_z", Phase(1, 2))
    d._adj["g"].update(ghost=1)
    assert d.checked() is d
    with pytest.raises(DiagramError, match="dangling"):
        d.check()


def test_apply_rejects_a_malformed_rewrite(monkeypatch):
    rule = rules.RULES["h-cancel"]

    def rewrite_and_wire_a_boundary_twice(d, anchor):
        out = rule.rewrite(d, anchor)
        b = out.inputs[0]
        out.add_edge(b, out.boundary_partner(b))
        return out

    monkeypatch.setitem(rules.RULES, "h-cancel",
                        rule._replace(rewrite=rewrite_and_wire_a_boundary_twice))
    hh = compose(generator("h"), generator("h"))
    with pytest.raises(DiagramError, match="degree 1"):
        rules.apply("h-cancel", hh, rules.match_sites("h-cancel", hh)[0])


# -- wire edits ------------------------------------------------------------------


def test_splice_moves_one_copy_of_a_doubled_edge():
    d = Diagram()
    a, b = d.add_node(Z, 0), d.add_node(X, 0)
    d.add_edge(a, b, 2)
    v = d.splice(a, b, HBOX)
    assert d.multiplicity(a, b) == 1
    assert d.degree(v) == 2 and d.neighbours(v) == [a, b]
    assert d.edge_count() == 3


def test_chain_without_end_leaves_a_pendant_path():
    d = Diagram()
    p = d.add_node(Z, 0)
    made = chain(d, p, None, [(X, "1/2"), "h", (Z, 1)])
    assert made == ["n1", "n2", "n3"]
    assert [d.kind(v) for v in made] == [X, HBOX, Z]
    assert d.phase(made[0]) == Phase(1, 2) and d.phase(made[2]) == Phase(1)
    assert [d.degree(v) for v in [p] + made] == [1, 2, 2, 1]
    assert d.multiplicity(p, made[0]) == d.multiplicity(made[1], made[2]) == 1


def test_chain_without_parts_joins_the_ends():
    d = Diagram()
    p, q = d.add_node(Z, 0), d.add_node(X, 0)
    assert chain(d, p, q, []) == []
    assert d.multiplicity(p, q) == 1 and d.node_count() == 2


def test_attach_wires_names_boundaries_in_order():
    d = Diagram()
    a, b = d.add_node(Z, 0, name="a"), d.add_node(X, 0, name="b")
    d.add_edge(a, b)
    assert attach_wires(d, [b, a], [a, a, b]) is d
    assert d.inputs == ("in0", "in1")
    assert d.outputs == ("out0", "out1", "out2")
    assert [d.boundary_partner(w) for w in d.boundary()] == [b, a, a, a, b]
    assert all(d.kind(w) == BOUNDARY for w in d.boundary())


# -- cuts ----------------------------------------------------------------------


def cut(d, nodes):
    """The sub-diagram on nodes (``reference_cut``), whose network the
    in-place read of nodes must be."""
    p = reference_cut(d, nodes)
    assert d.network(nodes) == p.network()
    return p


def test_cut_turns_parallel_edges_into_one_wire_each():
    d = Diagram()
    a, o = d.add_node(Z, "1/2", name="a"), d.add_node(X, 0, name="o")
    d.add_edge(a, o, 2)
    attach_wires(d, [a], [o])
    p = cut(d, [a, "in0"])
    assert p.inputs == ("in0",) and len(p.outputs) == 2
    assert [p.boundary_partner(w) for w in p.outputs] == [a, a]
    assert np.allclose(evaluate(p), evaluate(spider(Z, 1, 2, Phase(1, 2))))


def test_cut_orders_wires_by_outside_then_inside_end():
    d = Diagram()
    a, b, o, q = (d.add_node(Z, 0, name=v) for v in "aboq")
    for u, v in ((a, q), (b, o), (a, o)):
        d.add_edge(u, v)
    p = cut(d, [b, a])
    assert p.inputs == ()
    assert [p.boundary_partner(w) for w in p.outputs] == [a, b, a]


def test_cut_keeps_boundaries_after_the_cut_wires_with_fresh_ids():
    d = Diagram()
    n0 = d.add_node(Z, "1/2", name="n0")
    attach_wires(d, [n0], [n0])
    p = cut(d, [n0, "out0"]).check()
    assert p.inputs == () and p.outputs == ("n1", "out0")
    assert p.boundary_partner("n1") == n0
    assert np.allclose(evaluate(p).reshape(2, 2), evaluate(d))


def test_cut_keeps_a_self_loop_inside():
    d = Diagram()
    s, t = d.add_node(Z, 1, name="s"), d.add_node(X, 0, name="t")
    d.add_edge(s, s)
    d.add_edge(s, t)
    p = cut(d, [s]).check()
    assert (p.self_loops(s), p.degree(s), len(p.outputs)) == (1, 3, 1)


def test_cut_of_nothing_is_the_empty_diagram():
    d = generator("phase_z", Phase(1, 2))
    for nodes in ([], ["ghost"]):
        p = cut(d, nodes).check()
        assert p.node_count() == 0 and p.boundary() == ()
        assert np.allclose(evaluate(p), [[1]])


# -- substitution -----------------------------------------------------------------


def _cut_ports(p):
    """The inside end of each wire of a cut, in cut order."""
    return [p.boundary_partner(b) for b in p.boundary()]


def test_substitute_is_the_inverse_of_cut():
    rng = random.Random(20240817)
    for _ in range(320):
        d = random_diagram(rng)
        inner = [v for v in d.nodes() if d.kind(v) != BOUNDARY]
        nodes = rng.sample(inner, rng.randint(0, len(inner)))
        p = cut(d, nodes)
        e = d.copy()
        assert e.substitute(nodes, p, _cut_ports(p)) is e
        assert iso_equal(e.checked(), d) and iso_equal(e.check(), d)
        assert e.node_count() == d.node_count() and set(nodes).isdisjoint(e.nodes())


def test_substitute_refuses_ports_that_miss_or_repeat_a_wire():
    d = generator("phase_z", Phase(1, 2))
    p = cut(d, ["g"])
    for ports in ([], ["g"], ["g", "g", "g"], ["g", "in0"], ["in0", "out0"]):
        with pytest.raises(DiagramError, match="outside"):
            d.copy().substitute(["g"], p, ports)
    with pytest.raises(DiagramError, match="outside"):
        d.copy().substitute(["ghost"], empty(), [])


def test_substitute_bare_wire_on_one_node_leaves_a_self_loop():
    d = Diagram()
    s, w = d.add_node(Z, 0, name="s"), d.add_node(X, "1/2", name="w")
    d.add_edge(s, w, 2)
    attach_wires(d, [w], [])
    d.substitute([s], wire(), [s, s]).checked()
    assert d.nodes() == ["in0", "w"] and d.self_loops(w) == 1


def test_substitute_edits_are_seen_by_checked():
    d = Diagram()
    s, h = d.add_node(Z, 0, name="s"), d.add_node(HBOX, name="h")
    d.add_edge(s, h, 2)
    d.check().substitute([s], wire(), [s, s])
    with pytest.raises(DiagramError, match="self-loop"):
        d.checked()


def test_substitute_keeps_the_nodes_keep_names():
    """A kept node keeps its id, self-loop and phase (its row sets that),
    and, named in ports, gives its other edges up as outside wires, one to
    each port."""
    d = parse("node k z 1/4\nnode w x\nin i\nout o\n"
              "edge i k\nedge k k\nedge k w\nedge w o\n")
    rhs = Diagram()
    chain(rhs, rhs.add_node(Z, "1/2", name="k"), None, [(X, "1/2")], ["x"])
    attach_wires(rhs, ["x"], ["k"])
    d.substitute([], rhs, ["k", "k"], {"k": "k"})
    assert d.phase("k") == Phase(1, 4) and d.self_loops("k") == 1
    assert iso_equal(d.checked(), parse("node k z 1/4\nnode x x 1/2\nnode w x\nin i\nout o\n"
                                        "edge i x\nedge x k\nedge k k\nedge k w\nedge w o\n"))


def test_substitute_lets_two_kept_ports_trade_wires():
    """Two kept ports each give up their outside wire, rhs's edge between
    them stays, and a kept spider takes rhs's colour: an H-box and a spider
    swap places on their wire."""
    d = parse("node h h\nnode s z 1/4\nin i\nout o\nedge i h\nedge h s\nedge s o\n")
    rhs = Diagram()
    chain(rhs, rhs.add_node(X, 0, name="b"), None, ["h"], ["a"])
    attach_wires(rhs, ["b"], ["a"])
    d.substitute([], rhs, ["h", "s"], {"a": "h", "b": "s"})
    assert serialize(d.checked()) == ("node h h\nnode s x 1/4\nin i\nout o\n"
                                      "edge h o\nedge h s\nedge i s\n")


@pytest.mark.parametrize("nodes, keep", [
    ([], {"k": "k", "u": "u"}),   # two kept ports would both take their k-u edge
    (["u"], {"k": "u"}),          # a kept node inside the set
    ([], {"k": "k", "u": "k"}),   # two rhs nodes onto one
    ([], {"v": "k"}),             # no rhs node of that name
    ([], {"k": "nowhere"}),       # no such node
])
def test_substitute_refuses_a_keep_it_cannot_honour(nodes, keep):
    d = parse("node k z\nnode u z\nin i\nout o\nedge i k\nedge k u\nedge u o\n")
    rhs = Diagram()
    rhs.add_node(Z, 0, name="k")
    rhs.add_node(Z, 0, name="u")
    attach_wires(rhs, ["k", "k"], ["u", "u"])
    before = serialize(d)
    with pytest.raises(DiagramError, match="keep"):
        d.substitute(nodes, rhs, ["k", "k", "u", "u"], keep)
    assert serialize(d) == before


def test_substitute_makes_rhs_nodes_in_its_creation_order():
    d = generator("h")
    made = d.copy().substitute(["g"], euler_chain(), ["g", "g"]).created_since(d)
    assert made == ["n0", "n1", "n2"]
    assert iso_equal(d.substitute(["g"], euler_chain(), ["g", "g"]), euler_chain())


def test_changed_since_covers_rewired_edges_greedily():
    d = Diagram()
    for v in "abcd":
        d.add_node(Z, 0, name=v)
    d.add_edge("a", "b")
    d.add_edge("c", "d")
    e = d.check().copy()
    e.remove_edge("a", "b")
    e.remove_edge("c", "d")
    e.add_edge("a", "c")
    e.add_edge("b", "d")
    e.checked()
    # every degree is kept; a and then d cover the four changed edges
    assert e.changed_since(d) == whole_table_patch(d, e) == ["a", "d"]
    e.set_phase("b", 1)
    assert e.changed_since(d) == ["b", "c"]


def test_changed_since_sees_an_edit_after_the_last_walk():
    d = parse("node a z\nnode b z\nnode c z\nedge a b\nedge b c\n")
    e = d.copy()
    e.set_phase("a", 1)
    e.checked()
    e.set_phase("c", 1)   # logged, not yet walked
    assert e.changed_since(d) == whole_table_patch(e, d) == ["a", "c"]


def test_changed_since_sees_an_edit_before_the_last_walk():
    d = parse("node a z\nnode b z\nnode c z\nedge a b\nedge b c\n")
    e = d.copy()
    e.set_phase("a", 1)
    e.checked()
    e.set_phase("c", 1)
    e.checked()   # walks c alone; a stays in the record
    assert list(e.touched()) == ["a", "c"]
    assert e.changed_since(d) == whole_table_patch(e, d) == ["a", "c"]
    # a full check keeps the log: it still names every write since the copy
    e.check()
    e.set_phase("b", 1)
    e.checked()
    assert list(e.touched()) == ["a", "c", "b"]
    assert e.changed_since(d) == whole_table_patch(e, d) == ["a", "b", "c"]
    f = e.copy()
    f.set_phase("b", 0)
    assert f.changed_since(e) == whole_table_patch(f, e) == ["b"]


def test_a_copys_source_keeps_its_log():
    d = parse("node a z\nnode b z\nnode c z\nin i\nout o\n"
              "edge i a\nedge a b\nedge b c\nedge c o\n")
    e = d.copy()
    e.set_phase("a", 1)
    e.add_edge("a", "c")
    f = e.copy()
    assert list(e.touched()) == ["a", "c"] and list(f.touched()) == []
    # the source writes its logged maps in place; the copy does not see it
    e.add_edge("a", "c")
    e.remove_edge("b", "c")
    e.add_edge("b", "b")
    assert list(e.touched()) == ["a", "c", "b"]
    assert (f.multiplicity("a", "c"), f.multiplicity("b", "c"), f.self_loops("b")) == (1, 1, 0)
    assert e.checked().changed_since(d) == whole_table_patch(e, d) == ["a", "b", "c"]
    f.remove_edge("a", "c")
    assert (e.multiplicity("a", "c"), f.multiplicity("a", "c")) == (2, 0)
    assert list(f.checked().touched()) == ["a", "c"]
    # a never-copied source starts its log at its first copy
    assert d.touched() is not None and list(d.touched()) == []
    d.set_phase("b", 1)
    assert list(d.touched()) == ["b"] and e.phase("b") == Phase(0)


def test_memo_is_kept_until_an_edit_and_handed_to_copies():
    reads = []

    def read(d):
        reads.append(d)
        return d.edge_count()

    d = spider(Z, 1, 1, "1/3")
    assert d.memo(read) == d.memo(read) == 2 and reads == [d]
    e = d.copy()
    assert e.memo(read) == 2 and reads == [d]   # the copy is the same diagram
    e.add_edge("g", "g")
    assert e.memo(read) == 3 and reads == [d, e]
    assert d.memo(read) == 2 and reads == [d, e]

    def swap(d):
        d.inputs, d.outputs = d.outputs, d.inputs

    for edit in (lambda d: d.set_phase("g", 1), lambda d: d.set_kind("g", X), swap):
        f = d.copy()
        f.memo(read)
        edit(f)
        before = len(reads)
        f.memo(read)
        assert len(reads) == before + 1
    # an evaluation reads the edited diagram, not the kept read of its source
    g = spider(Z, 1, 1, "1/2")
    m = evaluate(g)
    h = g.copy()
    h.set_phase("g", 1)
    assert np.allclose(evaluate(h), np.diag([1, -1])) and np.allclose(evaluate(g), m)


def test_wires_walk_h_chains_loops_and_closed_cycles():
    text = ("node a z\nnode b x 1/2\nnode h1 h\nnode h2 h\nnode h3 h\nin i\nout o\n"
            "edge i a\nedge a h1\nedge h1 h2\nedge h2 b\nedge b h3\nedge b h3\n"
            "edge a a\nedge b o\n")
    cycle = "node c1 h\nnode c2 h\nnode c3 h\nedge c1 c2\nedge c2 c3\nedge c3 c1\n"
    # i-a is plain, so i reads class {a, i} (index 1) by identity; a-h1-h2-b,
    # b-h3-b and b-o pass an odd number of colour changes: one H factor
    # between the classes, pi on b's phase for the H loop, and o read
    # through H by class {b}, which takes its own index 2 for the H factor;
    # class {a, i}, of phase 0, needs no tensor
    tensors, scale, shape, arity = parse(text).network()
    assert tensors == ((2, 0b10, (1, 2, True)), None)
    assert shape == ((2, 0), (1, 2)) and arity == (1, 1)
    assert scale == 0.5 * diagram.HALF_SQRT2   # three H wires, no spider short of legs
    # a closed cycle of three H-boxes, which no wire reaches, is tr(H^3) = 0
    assert parse(text + cycle).network() == (tensors, 0.0, shape, arity)



class CountedTuple(tuple):
    """A tuple that counts the passes over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_a_patch_read_without_a_boundary_node_reads_no_boundary_tuple():
    d = graph_state(path_graph(f"v{i}" for i in range(20)))
    d.outputs = CountedTuple(d.outputs)
    d.check()
    d.outputs.passes = 0
    patch = {"v:v5", "h:v5:v6", "v:v6"}
    read = d.network(patch)
    assert d.outputs.passes == 0
    assert read == reference_cut(d, patch).network()
    with_wire, d.outputs.passes = {"v:v5", "w:v5"}, 0
    read = d.network(with_wire)
    assert d.outputs.passes == 1   # a boundary node: its outputs are filtered
    assert read == reference_cut(d, with_wire).network()
