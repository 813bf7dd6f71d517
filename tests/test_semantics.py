import random
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import (H_MAT, SQRT2, dense, graph_state_vector, proportional, random_diagram,
                      reference_cut, rz_mat)
import zxr
from zxr import axioms, cli, lemmas, proofs, rules, semantics, shipped
from zxr.diagram import HALF_SQRT2, Diagram, X, Z, compose, dagger, generator, iso_equal, spider, tensor, wire
from zxr.graphstate import (SimpleGraph, complete_graph, fixpoint_lhs, graph_state,
                            local_complement, path_graph, star_graph, triangle, vdn_lhs)
from zxr.phase import Phase
from zxr.proofs import replay
from zxr.semantics import ResourceLimit, equal_up_to_scalar, evaluate, scalar_fit
from zxr.textio import parse, serialize_edges

# frozen interpretation table (hand-typed, independent of the evaluator)
TABLE = {
    "eps_z_dag": np.array([[1], [1]]) / SQRT2,
    "eps_x_dag": np.array([[1], [0]]),
    "eps_z": np.array([[1, 1]]) / SQRT2,
    "eps_x": np.array([[1, 0]]),
    "delta_z_dag": np.array([[1, 0, 0, 0], [0, 0, 0, 1]]),
    "delta_x_dag": np.array([[1, 0, 0, 1], [0, 1, 1, 0]]) / SQRT2,
    "h": H_MAT,
}


def test_generator_table_exact():
    for kind, want in TABLE.items():
        got = evaluate(generator(kind))
        assert np.abs(got - want).max() < 1e-12, kind


def test_delta_generators_are_adjoints():
    for colour in ("z", "x"):
        got = evaluate(generator(f"delta_{colour}"))
        want = TABLE[f"delta_{colour}_dag"].conj().T
        assert np.abs(got - want).max() < 1e-12


def test_phase_generators():
    for p in (Phase(0), Phase(1, 2), Phase(1), Phase(1, 3)):
        z = evaluate(generator("phase_z", p))
        assert np.abs(z - rz_mat(p.num / p.den * np.pi)).max() < 1e-12
        x = evaluate(generator("phase_x", p))
        assert np.abs(x - H_MAT @ rz_mat(p.num / p.den * np.pi) @ H_MAT).max() < 1e-12


def test_pauli_phases():
    assert np.abs(evaluate(generator("phase_x", Phase(1)))
                  - np.array([[0, 1], [1, 0]])).max() < 1e-12
    assert np.abs(evaluate(generator("phase_z", Phase(1)))
                  - np.diag([1, -1])).max() < 1e-12


def test_hh_is_identity():
    hh = compose(generator("h"), generator("h"))
    assert equal_up_to_scalar(evaluate(hh), np.eye(2))


def test_triangle_state_signs():
    # entries proportional to (-1)^(x1 x2 + x2 x3 + x1 x3)
    want = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=complex).reshape(-1, 1)
    got = evaluate(graph_state(triangle()))
    assert equal_up_to_scalar(got, want)
    assert proportional(got, graph_state_vector(triangle()))


def test_functoriality(rng):
    for _ in range(40):
        f = random_diagram(rng)
        g = random_diagram(rng)
        assert np.abs(evaluate(tensor(f, g))
                      - np.kron(evaluate(f), evaluate(g))).max() < 1e-9
        assert np.abs(evaluate(dagger(f))
                      - evaluate(f).conj().T).max() < 1e-9
        if len(f.inputs) == len(g.outputs):
            assert np.abs(evaluate(compose(f, g))
                          - evaluate(f) @ evaluate(g)).max() < 1e-9


def test_deformation_soundness(rng):
    # serialization round-trips are isomorphic renamings; values are equal
    from zxr.textio import parse, serialize
    for _ in range(20):
        d = random_diagram(rng)
        e = parse(serialize(d))
        assert iso_equal(d, e)
        assert equal_up_to_scalar(evaluate(d), evaluate(e))


def test_scaled_models_multiply_phases():
    g = generator("phase_z", Phase(1, 3))
    assert np.abs(evaluate(g, 2) - rz_mat(2 * np.pi / 3)).max() < 1e-12
    assert np.abs(evaluate(g, 3) - rz_mat(np.pi)).max() < 1e-12
    # phase-free generators are untouched
    assert np.abs(evaluate(generator("h"), 3) - H_MAT).max() < 1e-12


def test_equal_up_to_scalar_properties():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    lam = 2.7 * np.exp(1j * np.pi / 7)
    assert equal_up_to_scalar(a, lam * a)
    assert equal_up_to_scalar(lam * a, a)
    assert equal_up_to_scalar(a, a)
    z = np.zeros_like(a)
    assert equal_up_to_scalar(z, z)
    assert not equal_up_to_scalar(a, z)
    assert not equal_up_to_scalar(z, a)
    with pytest.raises(ValueError):
        equal_up_to_scalar(a, np.eye(4, dtype=complex))


def test_equal_up_to_scalar_tolerance_boundary():
    # the one tolerance: an entrywise error of half of it passes, twice fails
    eye, ones = np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex)
    assert equal_up_to_scalar(eye, eye + 0.5 * semantics.TOL * ones)
    assert not equal_up_to_scalar(eye, eye + 2 * semantics.TOL * ones)


def test_two_empty_matrices_are_equal():
    empty = np.zeros((1, 0), dtype=complex)
    assert semantics.matrices_equal(empty, 1.0, empty.copy(), 0.5)


def test_scalar_fit_rejects_mismatched_shapes():
    # it used to broadcast (2, 1) against (1, 2) and fit over a 2x2 array
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 1\) vs \(1, 2\)"):
        scalar_fit(np.ones((2, 1)), np.ones((1, 2)))


def test_scalar_fit_reports_residual():
    a = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, residual = scalar_fit(a, b)
    assert residual > 0.5


def test_resource_limit(monkeypatch):
    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2)
    d = graph_state(SimpleGraph.build("abcde"))
    with pytest.raises(ResourceLimit):
        evaluate(d)


def test_empty_diagram_is_the_unit_scalar():
    from zxr.diagram import empty
    assert evaluate(empty()).shape == (1, 1)
    assert abs(evaluate(empty())[0, 0] - 1) < 1e-12


def test_tensor_of_two_states():
    t = tensor(generator("eps_z_dag"), generator("eps_x_dag"))
    assert len(t.inputs) == 0 and len(t.outputs) == 2
    want = np.kron(np.array([[1], [1]]) / SQRT2, np.array([[1], [0]]))
    assert np.abs(evaluate(t) - want).max() < 1e-12


def test_evaluate_result_shares_no_memory_with_cached_tensors():
    h = evaluate(generator("h"))
    h[0, 0] = 99
    assert np.abs(evaluate(generator("h")) - H_MAT).max() < 1e-12
    d = spider(Z, 1, 1, "1/2")
    m = evaluate(d)
    m *= 0
    assert np.abs(evaluate(d) - rz_mat(np.pi / 2)).max() < 1e-12
    assert not semantics._H_PLUS.flags.writeable
    hits = semantics._small_factors.cache_info().hits
    assert not semantics._small_factors(2, 0, 1, 2).flags.writeable   # d's class tensor
    assert semantics._small_factors.cache_info().hits == hits + 1
    for fresh in (evaluate(generator("h")), evaluate(graph_state(triangle())), m):
        assert fresh.flags.writeable
    # boundary-to-boundary edges: one class of two boundaries, whose tensor
    # is the result itself, so it must come back as a copy
    swap = np.eye(4)[[0, 2, 1, 3]]
    for d, want in ((wire(), np.eye(2)), (tensor(wire(), wire()), np.eye(4)),
                    (parse("in i0 i1\nout o0 o1\nedge i0 o1\nedge i1 o0\n"), swap)):
        m = evaluate(d)
        assert np.array_equal(m, want)
        m[:] = 7
        assert np.array_equal(evaluate(d), want)


@pytest.fixture
def empty_memos():
    """The class-tensor and matrix memos, emptied for the rest of the test."""
    semantics._small_factors.cache_clear()
    semantics._small_results.cache_clear()


def test_spider_tensors_are_shared_read_only(empty_memos):
    # a Z spider with a self-loop: the loop is an identity wire within its
    # class, so the cache holds the class's two-leg tensor, read-only and
    # reused by the next call; each result is fresh
    d = spider(Z, 1, 1, "1/3")
    v = d.spiders()[0]
    d.add_edge(v, v)
    want = evaluate(spider(Z, 1, 1, "1/3"))
    m = evaluate(d.check())
    assert semantics._small_factors.cache_info().currsize == 1   # both share it
    key = (2, 0, 1, 3)   # (axes, hmask, phase num, phase den)
    t = semantics._small_factors(*key)
    assert semantics._small_factors.cache_info()[:2] == (1, 1)   # (hits, misses)
    assert not t.flags.writeable
    assert np.array_equal(t, semantics._factor(*key))
    assert proportional(m, want)
    m[:] = 0
    semantics._small_results.cache_clear()
    assert proportional(evaluate(d), want)
    assert semantics._small_factors(*key) is t
    assert semantics._small_factors.cache_info().misses == 1


def test_cache_keeps_no_class_tensor_over_its_bound(empty_memos):
    # a spider's class tensor over MAX_CACHED_ENTRIES is built for its call
    # and dropped, so large spiders do not pile up in the cache
    for k in (1, 3):
        big = spider(Z, 0, 14, Phase(1, k))   # one class tensor of 2^14 entries
        m = evaluate(big)
        assert np.isclose(m[-1, 0] / m[0, 0], np.exp(1j * np.pi / k))
        assert np.array_equal(evaluate(big), m)
    assert semantics._small_factors.cache_info()[:2] == (0, 0)   # (hits, misses)
    evaluate(spider(Z, 0, 11, Phase(1, 4)))   # 2^11 entries: kept
    assert semantics._small_factors.cache_info().currsize == 1
    semantics._small_factors(11, 0, 1, 4)
    assert semantics._small_factors.cache_info()[:2] == (1, 1)


def test_cache_keeps_at_most_1024_class_tensors(empty_memos):
    # one small spider in 1,100 phases: 1,100 class tensors, the oldest dropped
    for k in range(1, 1101):
        evaluate(spider(Z, 0, 3, Phase(k, 4001)))
    info = semantics._small_factors.cache_info()
    assert info.misses == 1100 and info.currsize <= info.maxsize == 1024


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _recorded_pairs(run):
    """Every ``diagrams_equal`` call made while ``run()`` runs, through
    ``semantics`` or ``proofs``, as (f, g, model_n, verdict)."""
    pairs = []
    equal_ = semantics.diagrams_equal

    def recording(f, g, model_n=1):
        verdict = equal_(f, g, model_n)
        pairs.append((f, g, model_n, verdict))
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        for owner in (semantics, proofs):
            mp.setattr(owner, "diagrams_equal", recording)
        run()
    return pairs


def _plan_of(d):
    """d's contraction plan, (steps, peak, bytes), as ``_contract`` makes it."""
    _, _, shape, (outs, ins) = d.memo(Diagram.network)
    return semantics._plan(outs + ins, shape)


def _replay_shipped(models_of=lambda script: (1,)):
    """Step through every shipped proof and compare, in each model, each
    step's two cuts of its patch (``changed_since``, ``reference_cut``),
    then the whole diagrams where the cuts are not found equal: the pairs
    replay compares, the cuts as the networks it reads in place and
    contracts when they differ."""
    for name in sorted(shipped.BUILDERS):
        current, script = shipped.load(PROOF_DIR, name)
        for rule, anchor in script.steps:
            nxt = rules.apply(rule, current, anchor, euler_on=True)
            patch = nxt.changed_since(current)
            cuts = None if patch is None else (reference_cut(current, patch),
                                               reference_cut(nxt, patch))
            for n in models_of(script):
                try:
                    if cuts and semantics.diagrams_equal(*cuts, n):
                        continue
                except ResourceLimit:
                    pass
                assert semantics.diagrams_equal(current, nxt, n)
            current = nxt


def test_resource_limit_fires_before_any_contraction(monkeypatch, empty_memos):
    built = _counting(monkeypatch, semantics, "_factor")   # over the memo's bound
    cached = semantics._small_factors.cache_info
    contracted = _counting(monkeypatch, np, "einsum")
    # the 30 legs of one spider are one class tensor of 2^30 entries over
    # the cap: it must not be built
    big = spider(Z, 0, 30)
    with pytest.raises(ResourceLimit, match=r"2\^30 entries"):
        evaluate(big)
    d = graph_state(path_graph("abcdef"))   # factors of 4 entries, result 2^6
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "MAX_INTERMEDIATE", 2 ** 4)
        with pytest.raises(ResourceLimit):
            evaluate(d)
        with pytest.raises(ResourceLimit):
            evaluate(spider(X, 1, 4, "1/4"))   # one tensor of 2^5 entries
    assert built == [] and cached().misses == 0 and contracted == []
    evaluate(d)
    evaluate(spider(X, 1, 4, "1/4"))
    assert contracted and cached().misses
    evaluate(spider(X, 1, 12))
    assert built


def test_byte_budget_fires_before_any_allocation(monkeypatch, empty_memos):
    contracted = _counting(monkeypatch, np, "einsum")
    d = graph_state(path_graph("abcdef"))
    _, peak, nbytes = _plan_of(d)
    assert 2 ** peak <= semantics.MAX_INTERMEDIATE
    monkeypatch.setattr(semantics, "MAX_BYTES", nbytes - 1)
    with pytest.raises(ResourceLimit, match="byte budget"):
        evaluate(d)
    assert contracted == []
    monkeypatch.setattr(semantics, "MAX_BYTES", nbytes)
    assert proportional(evaluate(d), graph_state_vector(path_graph("abcdef")))
    assert contracted
    # the count covers the result and its copy: 2^6 entries of 16 bytes each
    assert nbytes >= 2 * 16 * 2 ** 6


def test_complete_graph_states_plan_peak_two_to_the_m():
    # one index per spider: the only intermediates are sub-products of the
    # 2^m-entry result, even past einsum's operand limit (K_12 has 66 H factors)
    for m in range(2, 21):
        g = SimpleGraph.build([f"v{i}" for i in range(m)],
                              [(f"v{i}", f"v{j}") for i in range(m) for j in range(i)])
        d = graph_state(g)
        steps, peak, _ = _plan_of(d)
        assert peak == m, m
        assert all(s.count(",") < semantics.MAX_OPERANDS for _, s in steps)
        got = evaluate(d)
        got /= np.abs(got).max()   # (1/sqrt2)^66 puts K_12's entries under TOL
        if m <= 12:
            want = graph_state_vector(g)
        else:   # the brute-force oracle is too slow here; |K_m> is
            # (-1)^C(|x|, 2) up to scalar, |x| the number of ones in x
            ones = sum(np.arange(2 ** m) >> k & 1 for k in range(m))
            want = (-1.0) ** (ones * (ones - 1) // 2)
        assert proportional(got, want.reshape(-1, 1)), m


# -- equality at any scale --------------------------------------------------------
# 1/sqrt2 per H-box takes K_12's entries to 2^-33, under TOL: compared as they
# are, any two such matrices read as equal zero matrices.


def test_complete_graph_less_an_edge_is_another_state(tmp_path, capsys):
    vs = [f"v{i}" for i in range(12)]
    edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    graphs = [SimpleGraph.build(vs, es) for es in (edges, edges[1:])]
    k, less = (graph_state(g) for g in graphs)
    assert semantics.diagrams_equal(k, k) and not semantics.diagrams_equal(k, less)
    # equal_up_to_scalar's zero test is absolute: it reads both as zero, so
    # it is no diagram verdict, and the package no longer exports it
    assert equal_up_to_scalar(evaluate(k), evaluate(less))
    assert not hasattr(zxr, "equal_up_to_scalar") and "equal_up_to_scalar" not in zxr.__all__
    files = []
    for i, g in enumerate(graphs):
        (tmp_path / f"{i}.edges").write_text(serialize_edges(g.vertices, g.edges))
        files.append(str(tmp_path / f"{i}.zxd"))
        assert cli.main(["graph-state", str(tmp_path / f"{i}.edges"), "-o", files[-1]]) == 0
    assert cli.main(["check-equal", files[0], files[0]]) == 0
    assert cli.main(["check-equal", *files]) == 1
    assert "equal=False" in capsys.readouterr().out


def test_model_n_below_one_is_a_value_error():
    d = generator("h")
    with pytest.raises(ValueError, match="model_n must be >= 1"):
        evaluate(d, 0)
    with pytest.raises(ValueError, match="model_n must be >= 1"):
        semantics.diagrams_equal(d, d, 0)


def test_equal_networks_and_their_replay_refuse_model_zero():
    # the model is tested before equal networks are decided, else a replay
    # whose every step keeps its patch's network would pass in model 0
    net = generator("h").memo(Diagram.network)
    with pytest.raises(ValueError, match="model_n must be >= 1"):
        semantics.networks_equal(net, net, 0)
    start, script = shipped.load(PROOF_DIR, "fixpoint-s2")
    with pytest.raises(ValueError, match="model_n must be >= 1"):
        replay(script, start, models=(0,))


def test_rays_tell_a_zero_from_a_small_matrix():
    # s, an X effect after a Z state, is 1/sqrt2; |+> and |-> stay apart
    # under any power of it, and a zero stays zero
    s = compose(generator("eps_x"), generator("eps_z_dag"))
    plus, minus = spider(Z, 0, 1), spider(Z, 0, 1, "1")
    for k in (16, 64):
        a, b = plus, minus
        for _ in range(k):
            a, b = tensor(a, s), tensor(b, s)
        assert semantics.diagrams_equal(a, a) and not semantics.diagrams_equal(a, b)
    zero = spider(Z, 0, 0, "1")   # 1 + e^{i*pi}: float noise, not exactly 0
    assert 0 < np.abs(evaluate(zero)).max() <= semantics.TOL
    assert semantics.diagrams_equal(zero, tensor(zero, zero))
    assert not semantics.diagrams_equal(zero, s)
    # a closed cycle of three H-boxes is tr(H^3) = 0: its scale is zero
    cycle = parse("node c1 h\nnode c2 h\nnode c3 h\nin i\nout o\nedge i o\n"
                  "edge c1 c2\nedge c2 c3\nedge c3 c1\n")
    assert not evaluate(cycle).any() and cycle.memo(Diagram.network)[1] == 0
    assert semantics.diagrams_equal(cycle, compose(cycle, generator("h")))
    assert not semantics.diagrams_equal(cycle, wire())


# -- the plan cache and the matrix memo --------------------------------------------
# evaluate keeps the last MEMO_SIZE contracted matrices, keyed on everything the
# contraction reads, so a diagram whose network repeats (a spider-fuse or
# h-colour result, a patch before and after its step) is contracted once.


@pytest.fixture
def memo():
    """The matrix memo, emptied for the rest of the test."""
    semantics._small_results.cache_clear()
    return semantics._small_results


def _memo_key(d, model_n=1):
    """d's key in the matrix memo, as ``_contract`` passes it."""
    tensors, scale, _, (outs, ins) = d.memo(Diagram.network)
    return tensors, scale, _plan_of(d)[0], outs, ins, model_n


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_plan_cache_gives_bit_identical_matrices(monkeypatch, memo, rng):
    # a cold result (plan cached, memo emptied) equals, bit for bit, the
    # memo's hit and a result planned afresh
    contracted = _counting(monkeypatch, np, "einsum")
    corpus = [random_diagram(rng) for _ in range(60)]
    for d in corpus:
        for model_n in (1, 2, 3):
            memo.cache_clear()
            cold = evaluate(d, model_n)
            calls = len(contracted)
            assert _same_bits(evaluate(d, model_n), cold)
            assert len(contracted) == calls   # a hit contracts nothing
            semantics._plan.cache_clear()
            d.check()   # empties the diagram's memo of its network too
            memo.cache_clear()
            assert _same_bits(evaluate(d, model_n), cold)
    assert contracted
    assert semantics._plan.cache_info().maxsize <= 16


def test_resource_limit_checked_on_a_cached_plan(monkeypatch):
    d = graph_state(path_graph("abcdef"))   # factors of 4 entries, result 2^6
    evaluate(d)   # keeps the network and its plan on d
    contracted = _counting(monkeypatch, np, "einsum")
    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2 ** 4)
    with pytest.raises(ResourceLimit, match="intermediate tensor"):
        evaluate(d)
    d.check()   # empties d's memo, so the plan comes from the cache
    hits = semantics._plan.cache_info().hits
    with pytest.raises(ResourceLimit, match="intermediate tensor"):
        evaluate(d)
    assert semantics._plan.cache_info().hits == hits + 1
    assert contracted == []


def test_cached_plan_holds_no_mutable_lists():
    def immutable(x):
        if isinstance(x, tuple):
            return all(immutable(y) for y in x)
        return isinstance(x, (int, str))

    # free indices 0-2; 3, 4 and 5 a chain to eliminate; a loner on 2
    shape = ((0, 3), (3, 4), (4, 5, 1), (5,), (2,))
    plan = semantics._plan(3, shape)
    assert immutable(plan)
    assert semantics._plan(3, shape) is plan
    steps, peak, nbytes = plan
    assert len(steps) == 4 and peak == 3 and nbytes > 0
    assert steps[-1][1].endswith("->abc")


def test_memo_hits_in_shipped_replays_are_bit_identical_to_cold_results(monkeypatch, memo):
    # replay decides equal networks without evaluating, so both sides of
    # every pair it compares are evaluated here, in its order: a step that
    # leaves its patch's network as it was hits the memo on the second side
    pairs = _recorded_pairs(lambda: _replay_shipped(
        lambda script: (1, 2, 3) if script.euler_free() else (1,)))
    memo.cache_clear()
    contracted = _counting(monkeypatch, np, "einsum")
    seen = [(d, model_n, evaluate(d, model_n)) for f, g, model_n, _ in pairs for d in (f, g)]
    assert len(contracted) < len(seen) / 2   # most evaluations were hits
    for d, model_n, warm in seen:
        memo.cache_clear()
        assert _same_bits(evaluate(d, model_n), warm)


def test_memo_hit_is_a_fresh_writable_copy(memo):
    d = graph_state(triangle())
    first = evaluate(d)
    kept = memo(*_memo_key(d))
    assert memo.cache_info()[:2] == (1, 1)   # (hits, misses)
    assert not kept.flags.writeable and not np.shares_memory(first, kept)
    want = first.copy()
    first[:] = 7
    hit = evaluate(d)
    assert memo.cache_info()[:2] == (2, 1) and memo(*_memo_key(d)) is kept
    assert hit.flags.writeable and not np.shares_memory(hit, kept)
    assert _same_bits(hit, want)
    hit[:] = 7
    assert _same_bits(evaluate(d), want)


def test_resource_limits_fire_on_a_memo_hit(monkeypatch, memo):
    d = graph_state(path_graph("abcdef"))
    want = evaluate(d)
    assert memo.cache_info().currsize == 1
    _, peak, nbytes = _plan_of(d)
    contracted = _counting(monkeypatch, np, "einsum")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "MAX_INTERMEDIATE", 2 ** peak - 1)
        with pytest.raises(ResourceLimit, match="intermediate tensor"):
            evaluate(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "MAX_BYTES", nbytes - 1)
        with pytest.raises(ResourceLimit, match="byte budget"):
            evaluate(d)
    assert _same_bits(evaluate(d), want) and contracted == []
    assert memo.cache_info()[:2] == (1, 1)   # (hits, misses)


def test_memo_keeps_its_size_and_drops_the_least_recently_used(memo):
    states = [spider(Z, 0, 1, Phase(j, 128)) for j in range(semantics.MEMO_SIZE + 1)]
    for d in states[:-1]:
        evaluate(d)
    assert memo.cache_info()[1:] == (64, semantics.MEMO_SIZE, 64)   # misses, maxsize, currsize
    evaluate(states[0])   # a hit: now the most recently used
    evaluate(states[-1])   # a miss: drops states[1]
    assert memo.cache_info()[:2] == (1, 65) and memo.cache_info().currsize == 64
    evaluate(states[0])
    assert memo.cache_info()[:2] == (2, 65)   # states[0] kept
    evaluate(states[1])
    assert memo.cache_info()[:2] == (2, 66)   # states[1] dropped


def test_memo_keeps_no_matrix_over_its_bound(memo):
    big = spider(Z, 0, 12)   # 2^12 entries
    assert np.array_equal(evaluate(big), evaluate(big))
    assert memo.cache_info()[1] == memo.cache_info().currsize == 0
    small = spider(Z, 0, 11)   # 2^11 entries: kept
    evaluate(small)
    assert memo.cache_info().currsize == 1
    assert memo(*_memo_key(small)).size == semantics.MAX_CACHED_ENTRIES


def test_colour_change_and_fusion_results_hit_the_memo(monkeypatch, memo):
    # the network already reads b with H on its legs in either colour, and
    # fuses a and c: both rewrites leave it as it is
    d = parse("node a z 1/4\nnode b x 1/2\nnode c z 1/3\nin i\nout o p\n"
              "edge i a\nedge a b\nedge b o\nedge a c\nedge c p\n")
    want = evaluate(d)
    contracted = _counting(monkeypatch, np, "einsum")
    for rule, anchor in (("h-colour", ("b",)), ("spider-fuse", ("a", "c"))):
        out = rules.apply(rule, d, anchor)
        assert _same_bits(evaluate(out), want)
    assert contracted == []
    memo.cache_clear()
    assert _same_bits(evaluate(out), want) and contracted


# -- differential check against the generator table ------------------------------
# ``dense`` (conftest) contracts the whole diagram in one einsum over one label
# per edge, read from the generator table alone: none of evaluate's network,
# plan, memos or held-out scale. evaluate must agree with it within 1e-12
# entrywise, and equal_up_to_scalar must give the same verdicts on both one's
# matrices.

AGREE = 1e-12


def _assert_matches_reference(d, model_n=1):
    got = evaluate(d, model_n)
    want = dense(d, model_n)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= AGREE
    return got, want


def _assert_same_verdicts(pairs):
    """Each pair is ((got, want), (got, want)): both evaluators' matrices of
    two diagrams."""
    verdicts = [equal_up_to_scalar(a[0], b[0]) for a, b in pairs]
    assert verdicts == [equal_up_to_scalar(a[1], b[1]) for a, b in pairs]
    return verdicts


def test_reference_refuses_a_diagram_past_einsums_labels():
    # one label per edge: 53 output wires are one too many, refused before
    # any tensor is built
    with pytest.raises(ValueError, match="53 einsum labels"):
        dense(spider(Z, 0, 53))


def test_planner_matches_reference_on_random_diagrams(rng):
    pairs = []
    for _ in range(60):
        d = random_diagram(rng)
        pairs.append(tuple(_assert_matches_reference(d, model_n) for model_n in (1, 2)))
    verdicts = _assert_same_verdicts(pairs)
    assert True in verdicts and False in verdicts


def test_planner_matches_reference_on_graph_sweeps():
    rng = random.Random(5)
    pairs = []
    for nv in (5, 6):
        labels = [f"q{i}" for i in range(nv)]
        for _ in range(4):
            g = SimpleGraph.build(labels, [(a, b) for i, a in enumerate(labels)
                                           for b in labels[i + 1:]
                                           if rng.random() < 0.5])
            u = rng.choice(labels)
            state = _assert_matches_reference(graph_state(g))
            pairs.append((_assert_matches_reference(fixpoint_lhs(g, u)), state))
            pairs.append((_assert_matches_reference(vdn_lhs(g, u)), state))
    verdicts = _assert_same_verdicts(pairs)
    assert True in verdicts and False in verdicts


def test_planner_matches_reference_on_disconnected_and_wires():
    disconnected = tensor(tensor(generator("eps_z_dag"), generator("h")),
                          tensor(spider(Z, 2, 1, "1/3"), generator("eps_x")))
    through_wire = tensor(wire(), compose(generator("h"), generator("phase_x", "1/2")))
    # closed cycles of k H-boxes beside a spider: tr(H^k), 2 or 0
    cycles = [parse("node s z 1/3\nout o\nedge s o\n"
                    + "".join(f"node c{i} h\nedge c{i} c{(i + 1) % k}\n" for i in range(k)))
              for k in (2, 3, 4)]
    # an X spider holding both legs of one H-box: a pi on the spider
    h_loop = parse("node x x 1/4\nnode h h\nin i\nout o\n"
                   "edge i x\nedge x o\nedge x h\nedge x h\n")
    # boundary-to-boundary wires through 0, 1 and 2 H-boxes: I, H and HH = I
    bare = [wire(), generator("h"), compose(generator("h"), generator("h"))]
    for d in (disconnected, through_wire, tensor(through_wire, disconnected),
              *cycles, h_loop, *bare):
        _assert_same_verdicts([(_assert_matches_reference(d),
                                _assert_matches_reference(d, 2))])


def test_paper_claims_hold_under_the_generator_table():
    # the three claims decided by dense and proportional alone: Euler is the
    # one axiom that fails, in model 2 alone; Euler <=> local complementation
    # holds where Euler does; the fixpoint property holds in every model
    fails = {(n, name) for n in (1, 2, 3) for name, instances in axioms.AXIOM_SCHEMAS.items()
             if not all(proportional(dense(lhs, n), dense(rhs, n)) for lhs, rhs in instances())}
    assert fails == {(r["model_n"], r["axiom"]) for r in axioms.independence_report()
                     if not r["holds"]} == {(2, "euler")}
    for deriv in (lemmas.triangle_lc(), lemmas.derive_euler_from_lc()):
        assert [proportional(dense(deriv.start, n), dense(deriv.end, n))
                for n in (1, 2, 3)] == [True, False, True]
    for g, u in ((star_graph(4), "c"), (path_graph("abcd"), "b"),
                 (complete_graph("abcd"), "a")):
        deriv = lemmas.fixpoint(g, u)
        assert all(proportional(dense(deriv.start, n), dense(deriv.end, n))
                   for n in (1, 2, 3)), (g, u)


PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def _assert_evaluations_match_reference(run, at_least):
    """Both sides of every ``diagrams_equal`` call made while ``run()`` runs,
    at least ``at_least`` diagrams, evaluate in the call's model as the
    reference does, and the call's verdict, decided from the networks or
    evaluated, is the reference's ``equal_up_to_scalar`` verdict; returns
    those."""
    pairs = _recorded_pairs(run)
    assert 2 * len(pairs) >= at_least
    verdicts = _assert_same_verdicts([(_assert_matches_reference(f, n),
                                       _assert_matches_reference(g, n))
                                      for f, g, n, _ in pairs])
    assert verdicts == [verdict for _, _, _, verdict in pairs]
    return verdicts


def test_plans_match_reference_on_random_diagrams(rng):
    def run():
        for _ in range(120):
            d = random_diagram(rng)
            semantics.diagrams_equal(d, dagger(dagger(d)), rng.choice((1, 2)))
    assert set(_assert_evaluations_match_reference(run, 240)) == {True}


def test_plans_match_reference_on_graph_states():
    gen = random.Random(7)
    labels = [f"q{i}" for i in range(5)]

    def run():
        for _ in range(24):
            g = SimpleGraph.build(labels, [(a, b) for i, a in enumerate(labels)
                                           for b in labels[i + 1:] if gen.random() < 0.5])
            u = gen.choice(labels)
            for lhs in (fixpoint_lhs(g, u), vdn_lhs(g, u)):
                semantics.diagrams_equal(lhs, graph_state(g))
    verdicts = _assert_evaluations_match_reference(run, 96)
    assert True in verdicts and False in verdicts


def test_plans_match_reference_on_shipped_proofs():
    loaded = [shipped.load(PROOF_DIR, name) for name in sorted(shipped.BUILDERS)]

    def starts():
        for start, _ in loaded:
            semantics.diagrams_equal(start, start)

    assert set(_assert_evaluations_match_reference(starts, len(loaded))) == {True}
    _assert_evaluations_match_reference(_replay_shipped, 100)


# -- pairs decided from their networks ----------------------------------------------
# diagrams_equal returns True on equal networks with scales both nonzero or
# both zero, building no factor; every verdict it gives must still be dense's.


def _h_cycle(k):
    """A closed cycle of k H-boxes, and nothing else: tr(H^k)."""
    return parse("".join(f"node c{i} h\nedge c{i} c{(i + 1) % k}\n" for i in range(k)))


def test_fuse_over_the_cap_replays_in_models_one_and_two():
    # one Z spider of 27 outputs and one of 3: each patch has 2^30 entries,
    # but fusing them leaves the network as it was
    outs = [f"o{i}" for i in range(30)]
    start = parse("node a z 1/4\nnode b z 1/2\nout " + " ".join(outs) + "\nedge a b\n"
                  + "".join(f"edge {'a' if i < 27 else 'b'} {o}\n" for i, o in enumerate(outs)))
    script = proofs.ProofScript("fuse", [("spider-fuse", ("a", "b"))])
    with pytest.raises(ResourceLimit):
        evaluate(start)
    end = replay(script, start, models=(1, 2))
    assert [end.phase(v) for v in end.spiders()] == [Phase(3, 4)]


def test_closed_h_cycles_against_the_empty_diagram(monkeypatch):
    # C_3 and the empty diagram share the empty network, with scales 0 and 1:
    # the scale guard sends them to evaluation, which tells 0 from 1
    empty = parse("")
    evaluated = _counting(monkeypatch, semantics, "_contract")
    for n in (1, 2):
        assert not semantics.diagrams_equal(_h_cycle(3), empty, n)
        assert not semantics.diagrams_equal(empty, _h_cycle(3), n)
        assert len(evaluated) == 4 * n
        assert semantics.diagrams_equal(_h_cycle(3), _h_cycle(5), n)
        assert semantics.diagrams_equal(_h_cycle(2), empty, n)   # scale 2
        assert len(evaluated) == 4 * n   # both decided from the networks
    assert not proportional(dense(_h_cycle(3)), dense(empty))
    assert proportional(dense(_h_cycle(2)), dense(empty))


def test_equal_networks_on_other_boundary_counts_are_not_decided():
    # one spider, two free legs: outputs then inputs give the same network,
    # but a 2x2 and a 4x1 matrix are not compared
    bent = parse("node s z 1/4\nin i\nout o\nedge i s\nedge s o\n")
    cup = parse("node s z 1/4\nout o p\nedge s o\nedge s p\n")
    (*bent_net, bent_arity), (*cup_net, cup_arity) = (
        d.memo(Diagram.network) for d in (bent, cup))
    assert bent_net == cup_net and (bent_arity, cup_arity) == ((1, 1), (2, 0))
    with pytest.raises(ValueError, match="shape mismatch"):
        semantics.diagrams_equal(bent, cup)


def _past_the_labels():
    """Z(1/4) and Z(1/2) joined through one H-box, 30 outputs each: 60
    indices, past einsum's 52 labels, so no plan exists."""
    outs = [f"{v}{i}" for v in "ab" for i in range(30)]
    return parse("node a z 1/4\nnode b z 1/2\nnode h h\nedge a h\nedge h b\nout "
                 + " ".join(outs) + "\n" + "".join(f"edge {o[0]} {o}\n" for o in outs))


def test_equal_networks_past_einsums_labels_are_decided(monkeypatch):
    d = _past_the_labels()
    planned = _counting(monkeypatch, semantics, "_plan")
    assert semantics._same(d.memo(Diagram.network), d.copy().memo(Diagram.network))
    assert semantics.network_scale(d) == HALF_SQRT2
    assert semantics.diagrams_equal(d, d.copy())
    assert planned == []   # the network alone decides: no plan is read
    with pytest.raises(ResourceLimit, match=r"2\^59 or more entries"):
        evaluate(d)
    assert planned


def test_equal_factors_wired_otherwise_are_not_decided():
    # the cycles a-b-c-d-a and a-c-b-d-a share their factors, but not their
    # index tuples (a path's end vertices are identity spiders, which join
    # their wires, so paths no longer make this case)
    vs = ("a", "b", "c", "d")
    f, g = (graph_state(SimpleGraph.build(vs, list(zip(cycle, cycle[1:] + cycle[:1]))))
            for cycle in ("abcd", "acbd"))
    (f_tensors, _, f_shape, _), (g_tensors, _, g_shape, _) = (
        d.memo(Diagram.network) for d in (f, g))
    assert f_tensors == g_tensors and f_shape != g_shape
    assert not semantics.diagrams_equal(f, g)
    assert not proportional(dense(f), dense(g))


# An identity spider (Z or X, phase 0, two legs, no self-loop) is the plain
# wire in every model: the network walks through it, so a diagram with one
# has the network of the diagram without it.

def _assert_one_network(with_identity, without):
    assert with_identity.network() == without.network()
    for n in (1, 2):
        _assert_matches_reference(with_identity, n)
        _assert_matches_reference(without, n)


def test_z_identity_between_x_spiders_is_the_wire():
    # X(1/4) -- Z(0) -- X(1/2): two H wires at the Z spider, which cancel
    _assert_one_network(
        parse("node a x 1/4\nnode m z\nnode b x 1/2\nin i\nout o p\n"
              "edge i a\nedge a m\nedge m b\nedge b o\nedge a p\n"),
        parse("node a x 1/4\nnode b x 1/2\nin i\nout o p\n"
              "edge i a\nedge a b\nedge b o\nedge a p\n"))


def test_x_identity_between_z_spiders_is_the_wire():
    _assert_one_network(
        parse("node a z 1/3\nnode m x\nnode b z\nin i\nout o\n"
              "edge i a\nedge a m\nedge m b\nedge b o\n"),
        parse("node a z 1/3\nnode b z\nin i\nout o\nedge i a\nedge a b\nedge b o\n"))


def test_identity_between_boundaries_is_the_bare_wire():
    for colour in "zx":
        _assert_one_network(parse(f"node m {colour}\nin i\nout o\nedge i m\nedge m o\n"),
                            parse("in i\nout o\nedge i o\n"))


def test_ring_of_identities_and_h_boxes_is_a_trace_of_h():
    # Z(0) and X(0) spiders between k H-boxes close no wire: tr(H^k)
    for k in (1, 2, 3, 4):
        ring = [v for j in range(k) for v in (f"{'zx'[j % 2]}{j}", f"h{j}")]
        text = "".join(f"node {v} {v[0]}\n" for v in ring)
        text += "".join(f"edge {a} {b}\n" for a, b in zip(ring, ring[1:] + ring[:1]))
        d = parse(text)
        _assert_one_network(d, _h_cycle(k if k > 1 else 3))   # no H-box has a self-loop
        assert evaluate(d).tolist() == [[0.0 if k % 2 else 2.0]]
    # two identity spiders joined by both their legs: tr(I) = 2, as C_2
    _assert_one_network(parse("node a z\nnode b x\nedge a b\nedge a b\n"), _h_cycle(2))


def _rule_pairs(d):
    """d against the result of every rule, Euler-strength ones too, at every
    site, and against its double dagger."""
    yield d, dagger(dagger(d))
    for rule in rules.RULE_IDS:
        for anchor in rules.match_sites(rule, d):
            yield d, rules.apply(rule, d, anchor, euler_on=True)


def _graph_sweep_pairs():
    gen = random.Random(11)
    for nv in (5, 6):
        labels = [f"q{i}" for i in range(nv)]
        for _ in range(4):
            g = SimpleGraph.build(labels, [(a, b) for i, a in enumerate(labels)
                                           for b in labels[i + 1:] if gen.random() < 0.5])
            u = gen.choice(labels)
            state = graph_state(g)
            yield fixpoint_lhs(g, u), state
            yield vdn_lhs(g, u), graph_state(local_complement(g, u))
            yield vdn_lhs(g, u), state
            yield state, graph_state(g)


def test_every_verdict_decided_or_evaluated_is_the_dense_one(monkeypatch, rng):
    evaluated = _counting(monkeypatch, semantics, "_contract")
    corpora = {"random": [p for _ in range(30) for p in _rule_pairs(random_diagram(rng))],
               "graph sweep": list(_graph_sweep_pairs()),
               "replay": [(f, g) for f, g, _, _ in _recorded_pairs(_replay_shipped)]}
    for corpus, pairs in corpora.items():
        verdicts, decided = set(), 0
        for f, g in pairs:
            for n in (1, 2, 3):
                calls = len(evaluated)
                verdict = semantics.diagrams_equal(f, g, n)
                decided += len(evaluated) == calls
                assert verdict == proportional(dense(f, n), dense(g, n)), (corpus, n)
                verdicts.add(verdict)
        assert verdicts == {True, False} and decided, corpus


# -- equality verdicts against their predecessor ------------------------------------
# ``_reference_equal_up_to_scalar`` is equal_up_to_scalar as it stood before it
# took |b| once, kept verbatim (TOL read from semantics).


def _reference_equal_up_to_scalar(a: np.ndarray, b: np.ndarray) -> bool:
    TOL = semantics.TOL
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    amax = float(np.abs(a).max()) if a.size else 0.0
    bmax = float(np.abs(b).max()) if b.size else 0.0
    if amax <= TOL and bmax <= TOL:
        return True
    if amax <= TOL or bmax <= TOL:
        return False
    pivot = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    lam = a[pivot] / b[pivot]
    if abs(lam) <= TOL:
        return False
    return bool(np.abs(a - lam * b).max() <= TOL)


def _same_verdict(a, b):
    try:
        want = _reference_equal_up_to_scalar(a, b)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            equal_up_to_scalar(a, b)
        return None
    assert equal_up_to_scalar(a, b) is want, (a, b)
    return want


def _hand_cases():
    tol, eps = semantics.TOL, 1e-12
    z = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    yield z, z
    yield z, eye
    yield eye, z
    yield np.zeros((1, 1)), np.zeros((1, 1))
    for near in (tol - eps, tol, tol + eps):
        small = np.full((2, 2), near, dtype=complex)
        yield small, z
        yield z, small
        yield small, small
        yield small, eye
        yield eye, small
        yield eye + small, eye
        bumped = eye.copy()
        bumped[0, 1] = near
        yield bumped, eye
        yield eye, bumped
        yield 3j * bumped, eye
    # tied maxima of |b| at different positions, and a perturbed a
    for b in (np.array([[1, -1], [1j, 0.5]]), np.array([[0.5, 1j], [1, -1]]),
              np.array([[-1j, 0], [0, 1]]), np.ones((2, 4)) * np.exp(0.3j)):
        for d in (0.0, 0.5 * tol, 1.5 * tol, 3 * tol):
            for pos in np.ndindex(b.shape):
                a = (2 - 1j) * b
                a[pos] += d
                yield a, b
                yield b, a
    # two errors, where the pivot among tied maxima decides the verdict
    b = np.array([[1, 1], [0.5, 0.5]], dtype=complex)
    for p, q in ((0, 1), (1, 0), (0, 2), (1, 2), (2, 3)):
        for dp, dq in ((0.8 * tol, 1.2 * tol), (1.2 * tol, 0.8 * tol), (0.5 * tol, 0.9 * tol)):
            a = (2 - 1j) * b
            a.flat[p] += dp
            a.flat[q] += dq
            yield a, b
    # empty and zero-dimensional arrays
    for shape in ((0,), (0, 2), (2, 0), (0, 0)):
        yield np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    yield np.array(2 + 1j), np.array(1j)
    yield np.array(0j), np.array(1j)
    # NaN and infinite entries, in a, in b, in both
    for bad in (np.nan, complex(np.nan, 1), complex(1, np.nan), np.inf, complex(np.inf, np.nan)):
        x = eye.copy()
        x[1, 0] = bad
        yield x, eye
        yield eye, x
        yield x, x
        yield x * 0, x
    # shape mismatches raise with the same message
    yield np.ones((2, 1)), np.ones((1, 2))
    yield np.ones(4), np.ones((4, 1))


def test_equal_up_to_scalar_matches_reference_on_hand_cases():
    with np.errstate(invalid="ignore"):   # the NaN cases
        verdicts = [_same_verdict(a, b) for a, b in _hand_cases()]
    assert verdicts.count(True) and verdicts.count(False) and verdicts.count(None)


def test_equal_up_to_scalar_matches_reference_on_evaluated_pairs(rng):
    by_shape = defaultdict(list)
    pairs = []
    while len(pairs) < 2000:
        d = random_diagram(rng)
        one, two = evaluate(d, 1), evaluate(d, 2)
        pairs += [(one, two), (two, one), (one, (0.5 - 2j) * one)]
        for m in (one, two):
            for other in by_shape[m.shape][-3:]:
                pairs.append((m, other))
            by_shape[m.shape].append(m)
    verdicts = Counter(_same_verdict(a, b) for a, b in pairs[:2000])
    assert verdicts[True] > 100 and verdicts[False] > 100


# -- identical arrays ----------------------------------------------------------------
# Two arrays of one dtype and the same bytes, largest entry finite, are equal
# with no fit; every other pair keeps the reference's verdict.


def test_identical_finite_arrays_are_equal_at_every_magnitude():
    # the fitted lambda is one ulp off 1, and TOL is absolute: past 1e7 a fit
    # would call some of these unequal to their own copies
    rng = np.random.default_rng(41)
    for e in range(13):
        for _ in range(100):
            a = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 10.0 ** e
            assert equal_up_to_scalar(a, a.copy()), (e, a)


def test_pairs_not_decided_by_their_bytes_keep_the_reference_verdict():
    # identical arrays holding NaN or inf are fitted, as before
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, complex(np.nan, 1), np.inf, -np.inf, complex(1, np.inf),
                    complex(np.inf, np.nan)):
            x = np.array([[1, 2j], [bad, 0.5]])
            assert _same_verdict(x, x) is False
            assert _same_verdict(x, x.copy()) is False
        real = np.array([1.0, np.inf])
        assert _same_verdict(real, real.copy()) is False
    # one set of bytes under two dtypes
    f = np.array([1.0, 2.0])
    assert _same_verdict(f.view(np.int64), f) is False
    assert _same_verdict(f, f.view(np.int64)) is False
    # signed zeros differ in their bytes and are both zero
    for z in (np.zeros((2, 2)), np.zeros((2, 2), dtype=complex)):
        assert _same_verdict(z, -z) is True
        assert _same_verdict(-z, z) is True
