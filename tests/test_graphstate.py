import gc
import hashlib
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apply_single, cz_diagram, graph_state_vector, lc_orbit,
                      proportional, rx_mat, rz_mat)
from zxr import graphstate
from zxr.graphstate import (GraphError, SimpleGraph, all_graphs, check_fixpoint,
                            check_vdn, complete_graph, fixpoint_lhs, graph_state,
                            local_complement, path_graph, star_graph, triangle,
                            vdn_lhs)
from zxr.diagram import Z
from zxr.phase import HALF_PI, PI
from zxr.semantics import diagrams_equal, evaluate, matrices_equal
from zxr.textio import parse_edges, serialize, serialize_edges


def small_graphs(max_vertices=4):
    labels = "abcdef"
    for size in range(1, max_vertices + 1):
        yield from all_graphs(tuple(labels[:size]))


graph_strategy = st.builds(
    lambda size, mask: _graph_from_mask(size, mask),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2 ** 10 - 1))


def _graph_from_mask(size, mask):
    labels = tuple("abcde"[:size])
    pairs = list(itertools.combinations(labels, 2))
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return SimpleGraph.build(labels, edges)


def test_cz_matrix():
    got = evaluate(cz_diagram())
    assert proportional(got, np.diag([1, 1, 1, -1]).astype(complex))


def test_cz_self_inverse():
    from zxr.diagram import compose
    twice = compose(cz_diagram(), cz_diagram())
    assert proportional(evaluate(twice), np.eye(4, dtype=complex))


def test_cz_symmetric():
    m = evaluate(cz_diagram())
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[(b << 1) | a, (a << 1) | b] = 1
    assert proportional(swap @ m @ swap, m)


def test_empty_graph_is_plus_states():
    g = SimpleGraph.build("ab")
    got = evaluate(graph_state(g))
    want = np.ones((4, 1), dtype=complex) / 2
    assert proportional(got, want)


def test_graph_state_matches_oracle_small():
    for g in small_graphs(4):
        assert proportional(evaluate(graph_state(g)), graph_state_vector(g)), g


def test_local_complement_examples():
    t = triangle()
    for u in t.vertices:
        lc = local_complement(t, u)
        assert len(lc.edges) == 2
        assert all(u in set(e) for e in lc.edges)
    s4 = star_graph(4)
    assert local_complement(s4, "c") == complete_graph(s4.vertices)


@given(graph_strategy, st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_local_complement_involution(g, ui):
    u = g.vertices[ui % len(g.vertices)]
    before = {e for e in g.edges if u in e}
    lc = local_complement(g, u)
    assert {e for e in lc.edges if u in e} == before
    assert local_complement(lc, u) == g


def test_unknown_vertex():
    with pytest.raises(GraphError):
        local_complement(triangle(), "zz")
    with pytest.raises(GraphError):
        fixpoint_lhs(triangle(), "zz")


def test_malformed_graphs_are_refused():
    with pytest.raises(GraphError, match="repeated vertex label"):
        SimpleGraph.build(["a", "b", "a"])
    with pytest.raises(GraphError, match="not a simple edge"):
        SimpleGraph(("a", "b", "c"), frozenset([frozenset("abc")]))
    with pytest.raises(GraphError, match="edge endpoint not a vertex"):
        SimpleGraph.build(["a", "b"], [("a", "z")])
    with pytest.raises(GraphError, match="a star needs at least one vertex"):
        star_graph(0)


def _scanned_neighbours(g, u):
    """``SimpleGraph.neighbours`` as it was: a scan of every vertex."""
    if u not in g.vertices:
        raise GraphError(f"unknown vertex {u!r}")
    return tuple(v for v in g.vertices if v != u and frozenset((u, v)) in g.edges)


def test_neighbours_are_the_scan_of_every_vertex():
    # every graph on up to 5 vertices, labels out of sorted order, then the
    # seeded G(1000, 4/1000)
    graphs = [g for n in range(1, 6) for g in all_graphs(tuple("caebd"[:n]))]
    rng, verts = random.Random(4242), [f"v{i}" for i in range(1000)]
    graphs.append(SimpleGraph.build(verts, [e for e in itertools.combinations(verts, 2)
                                            if rng.random() < 4 / 1000]))
    for g in graphs:
        assert [g.neighbours(u) for u in g.vertices] == [
            _scanned_neighbours(g, u) for u in g.vertices], g
        twin = SimpleGraph(g.vertices, g.edges)   # the map is no field
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
    for g in (graphs[0], graphs[-1]):
        with pytest.raises(GraphError, match="unknown vertex 'zz'"):
            g.neighbours("zz")


def test_label_with_colon_is_refused():
    # node ids join labels with ':', so edges a-b:c and a:b-c would both
    # name their H-box h:a:b:c
    g = SimpleGraph.build(["a", "b:c", "a:b", "c"], [("a", "b:c"), ("a:b", "c")])
    with pytest.raises(GraphError, match="'b:c' contains ':'"):
        graph_state(g)
    with pytest.raises(GraphError, match="'b:c' contains ':'"):
        fixpoint_lhs(g, "a")


def test_fixpoint_isolated_vertex():
    g = SimpleGraph.build("a")
    lhs = fixpoint_lhs(g, "a")
    assert diagrams_equal(lhs, graph_state(g))


def test_fixpoint_matches_rotation_oracle():
    for g in [triangle(), star_graph(4), path_graph("abcd")]:
        for u in g.vertices:
            nv = len(g.vertices)
            idx = {v: i for i, v in enumerate(g.vertices)}
            vec = graph_state_vector(g)
            vec = apply_single(rx_mat(np.pi), idx[u], nv, vec)
            for w in g.neighbours(u):
                vec = apply_single(rz_mat(np.pi), idx[w], nv, vec)
            assert proportional(evaluate(fixpoint_lhs(g, u)), vec)
            assert check_fixpoint(g, u)


def test_vdn_triangle_and_star():
    assert check_vdn(triangle(), "a")
    assert check_vdn(star_graph(4), "c")
    # the star at its centre reaches the complete graph
    lhs = vdn_lhs(star_graph(4), "c")
    want = graph_state(complete_graph(star_graph(4).vertices))
    assert diagrams_equal(lhs, want)


def test_fixpoint_and_vdn_exhaustive_to_four():
    for g in small_graphs(4):
        for u in g.vertices:
            assert check_fixpoint(g, u), (g, u)
            assert check_vdn(g, u), (g, u)


CHECKS = ((check_fixpoint, fixpoint_lhs, (PI, PI), lambda g, u: g),
          (check_vdn, vdn_lhs, (graphstate.LC_VERTEX_PHASE,
                                graphstate.LC_NEIGHBOUR_PHASE), local_complement))


def test_checks_agree_with_uncached_form_cold_and_warm():
    # cold: every composed matrix against its whole-diagram evaluation, and
    # every verdict against diagrams_equal on the diagram just evaluated, its
    # network read once; warm: the memoised pieces give the same bits
    graphstate._small_states.cache_clear()
    graphstate._rotation_matrix.cache_clear()
    cold = {}
    for g in all_graphs(tuple("abcde")):
        assert np.array_equal(graphstate._state(g)[0],
                              evaluate(graph_state(g)))
        for u in g.vertices:
            for i, (check, lhs, phases, target) in enumerate(CHECKS):
                got = graphstate._rotated_matrix(
                    g, graphstate._rotations(g, u, *phases))
                d = lhs(g, u)
                assert np.abs(got - evaluate(d)).max() <= 1e-12, (g, u, lhs)
                verdict = check(g, u)
                assert verdict == diagrams_equal(
                    d, graph_state(target(g, u))), (g, u, lhs)
                cold[g, u, i] = got, verdict
    assert len(cold) == 2 * 5120
    for (g, u, i), (got, verdict) in cold.items():
        check, _, phases, _ = CHECKS[i]
        assert np.array_equal(graphstate._rotated_matrix(
            g, graphstate._rotations(g, u, *phases)), got)
        assert check(g, u) == verdict
    assert graphstate._small_states.cache_info().hits > 0
    assert graphstate._rotation_matrix.cache_info().misses == 4


def test_checks_agree_with_state_vector_oracle(rng):
    # seeded 6-7-vertex graphs, beyond the exhaustive sweep
    for _ in range(12):
        verts = tuple("abcdefg"[:rng.choice((6, 7))])
        g = SimpleGraph.build(verts, [e for e in itertools.combinations(verts, 2)
                                      if rng.random() < 0.5])
        idx = {v: i for i, v in enumerate(verts)}
        for u in verts:
            for check, _, (at_u, at_nb), target in CHECKS:
                vec = graph_state_vector(g)
                vec = apply_single(rx_mat(at_u.num / at_u.den * np.pi), idx[u],
                                   len(verts), vec)
                for w in g.neighbours(u):
                    vec = apply_single(rz_mat(at_nb.num / at_nb.den * np.pi), idx[w],
                                       len(verts), vec)
                got = graphstate._rotated_matrix(
                    g, graphstate._rotations(g, u, at_u, at_nb))
                assert proportional(got, vec), (g, u, check)
                assert check(g, u) == proportional(
                    vec, graph_state_vector(target(g, u))), (g, u, check)


@pytest.mark.parametrize("check", [check_fixpoint, check_vdn])
def test_checks_refuse_an_unknown_vertex(check):
    with pytest.raises(GraphError):
        check(triangle(), "zz")


@pytest.mark.parametrize("vertices, cap, what", [
    ("a", 2, "rotation"), ("abc", 4, "graph state")])
def test_warm_checks_still_test_the_entry_cap(monkeypatch, vertices, cap, what):
    # one vertex: the 2-entry state fits cap 2 and each rotation's 4 entries
    # do not; three: the 8-entry state does not fit cap 4. The memoised
    # matrices must not let a check slip under a lowered cap
    from zxr import semantics
    g = complete_graph(vertices)
    assert check_fixpoint(g, "a") and check_vdn(g, "a")   # warms both memos
    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", cap)
    for check in (check_fixpoint, check_vdn):
        with pytest.raises(semantics.ResourceLimit, match=what):
            check(g, "a")


def test_checks_compare_states_over_their_modulus():
    # |K_12>'s 4,096 entries all have modulus 2^-33, under TOL: compared as
    # they are, any two 66-edge states read as equal zero matrices
    g = complete_graph([f"v{i}" for i in range(12)])
    less = SimpleGraph.build(g.vertices, (tuple(e) for e in sorted(g.edges, key=sorted)[1:]))
    (state, scale), (other, other_scale) = graphstate._state(g), graphstate._state(less)
    assert not matrices_equal(state, scale, other, other_scale)
    assert check_fixpoint(g, "v0") and check_vdn(g, "v0")
    wrong = graphstate._rotated_matrix(g, graphstate._rotations(g, "v0", PI, HALF_PI))
    assert not matrices_equal(wrong, scale, state, scale)


@pytest.mark.parametrize("m", range(11, 15))
def test_vdn_holds_when_the_complement_changes_the_scale(m, monkeypatch):
    # LC at the centre of S_m adds (m-1)(m-2)/2 edges and LC at a vertex of
    # K_m removes as many, so |g> and |LC(g, u)> have scales 2^((m-1)(m-2)/4)
    # apart; each side is read over its own
    cases = ((star_graph(m), "c"), (complete_graph([f"v{i}" for i in range(m)]), "v0"))
    for g, u in cases:
        assert check_vdn(g, u), (g, u)
        assert diagrams_equal(vdn_lhs(g, u), graph_state(local_complement(g, u)))
    if m == 13:   # a wrong witness is still refused
        monkeypatch.setattr(graphstate, "LC_NEIGHBOUR_PHASE", HALF_PI)
        assert not any(check_vdn(g, u) for g, u in cases)


def test_vdn_witness_holds_in_model_one_only():
    p3 = path_graph("abc")
    lhs, rhs = vdn_lhs(p3, "b"), graph_state(local_complement(p3, "b"))
    assert diagrams_equal(lhs, rhs, 1) and not diagrams_equal(lhs, rhs, 2)


def test_cached_state_matrix_is_read_only():
    m = graphstate._state(triangle())[0]
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 99
    assert np.array_equal(graphstate._state(triangle())[0],
                          evaluate(graph_state(triangle())))


def test_state_matrix_cache_keys_on_vertex_order():
    # same edge, different vertex (and so wire) order: separate entries
    g = SimpleGraph.build("abc", [("a", "b")])
    h = SimpleGraph.build("acb", [("a", "b")])
    graphstate._small_states.cache_clear()
    mg, mh = graphstate._state(g)[0], graphstate._state(h)[0]
    assert graphstate._small_states.cache_info().currsize == 2
    assert not np.array_equal(mg, mh)
    assert np.array_equal(mg, evaluate(graph_state(g)))
    assert np.array_equal(mh, evaluate(graph_state(h)))


def test_orbit_examples():
    orbit = lc_orbit(triangle())
    assert triangle() in orbit
    assert any(len(g.edges) == 2 for g in orbit)
    lone = SimpleGraph.build("abc")
    assert lc_orbit(lone) == {lone}
    assert complete_graph(star_graph(4).vertices) in lc_orbit(star_graph(4))


def test_orbit_members_reachable_semantically():
    # chain the witness rotations along an orbit path
    g = star_graph(3)
    for u in g.vertices:
        h = local_complement(g, u)
        assert diagrams_equal(vdn_lhs(g, u), graph_state(h))
        for w in h.vertices:
            assert check_vdn(h, w)


def test_graph_state_normal_form():
    # fixed by normalize whenever no vertex has exactly one neighbour
    # (a lone-neighbour dot is a removable identity)
    from zxr.rules import normalize
    cycle4 = SimpleGraph.build("abcd", [("a", "b"), ("b", "c"),
                                        ("c", "d"), ("a", "d")])
    for g in [triangle(), cycle4, complete_graph("abcd"), SimpleGraph.build("ab")]:
        d = graph_state(g)
        assert normalize(d).iso_equal(d)
    leafy = normalize(graph_state(star_graph(3)))
    assert diagrams_equal(leafy, graph_state(star_graph(3)))


def test_edges_io_round_trip():
    g = triangle()
    text = serialize_edges(g.vertices, g.edges)
    verts, edges = parse_edges(text)
    assert SimpleGraph(verts, edges) == g


# sha256 over serialize() and the next fresh id of graph_state(g), then
# fixpoint_lhs(g, u) and vdn_lhs(g, u) for each u, for every labelled graph
# on abcde in all_graphs order
GRAPH_STATE_DIGEST = "79126a01c4d07ba81838aa5d7f93b2cfae508dad50cdc4df50c72a6ceebe866f"


def test_graph_state_builds_are_pinned():
    h = hashlib.sha256()
    for g in all_graphs(tuple("abcde")):
        built = [graph_state(g)] + [f(g, u) for u in g.vertices
                                    for f in (fixpoint_lhs, vdn_lhs)]
        for d in built:
            h.update(serialize(d).encode())
            h.update(d.fresh_id().encode())
    assert h.hexdigest() == GRAPH_STATE_DIGEST


def test_mutating_a_returned_graph_state_leaves_later_calls_alone():
    g = path_graph("abc")
    first = graph_state(g)
    text, m = serialize(first), evaluate(first)
    first.add_node(Z, PI)
    first.set_phase("v:b", HALF_PI)
    again = graph_state(g)
    assert serialize(again) == text
    assert np.array_equal(evaluate(again), m)
    assert not np.array_equal(evaluate(first), m)
    assert again.fresh_id() == graph_state(g).fresh_id()
    assert all(check_fixpoint(g, u) and check_vdn(g, u) for u in g.vertices)


def test_vdn_sweep_evaluates_each_graph_state_once():
    graphstate._small_states.cache_clear()
    for g in all_graphs(tuple("abcde")):
        for u in g.vertices:
            assert check_vdn(g, u), (g, u)
    assert graphstate._small_states.cache_info().misses == 1024


def test_sweeping_one_graph_builds_each_graph_state_once():
    g = SimpleGraph.build("abcde", [("a", "b"), ("b", "c"), ("c", "d"),
                                    ("d", "e"), ("b", "d"), ("a", "e")])
    graphstate._small_states.cache_clear()
    graphstate._built_state.cache_clear()
    for u in g.vertices:
        assert check_fixpoint(g, u) and check_vdn(g, u)
    distinct = {g} | {local_complement(g, u) for u in g.vertices}
    assert graphstate._built_state.cache_info().misses == len(distinct)


def test_states_over_the_cached_size_are_kept_two_at_a_time():
    # 2^14 entries each, over MAX_CACHED_ENTRIES: a path on 14 vertices
    # with one chord, 12 ways
    verts = [f"v{i}" for i in range(14)]
    kept = []
    for k in range(2, 14):
        g = SimpleGraph.build(verts, list(zip(verts, verts[1:])) + [(verts[0], verts[k])])
        assert check_fixpoint(g, verts[k])
        kept.append(weakref.ref(graphstate._state(g)[0]))
    gc.collect()
    assert sum(ref() is not None for ref in kept) <= 2


@pytest.mark.parametrize("g", [complete_graph([f"v{i}" for i in range(14)]),
                               star_graph(14)])
def test_vertex_sweep_over_a_large_graph_evaluates_each_state_once(g, monkeypatch):
    graphstate._large_states.cache_clear()
    evaluated = []

    def counted(d, *args):
        if len(d.outputs) == len(g.vertices):
            evaluated.append(serialize(d))
        return evaluate(d, *args)

    monkeypatch.setattr(graphstate, "evaluate", counted)
    for u in g.vertices:
        assert check_fixpoint(g, u) and check_vdn(g, u)
    distinct = {g} | {local_complement(g, u) for u in g.vertices}
    assert len(evaluated) == len(set(evaluated)) == len(distinct)
