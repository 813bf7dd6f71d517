import heapq
import random
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import H_MAT, SQRT2, graph_state_vector, proportional, random_diagram, rz_mat
from zxr import axioms, semantics, shipped
from zxr.diagram import Z, compose, dagger, generator, iso_equal, spider, tensor, wire
from zxr.graphstate import (SimpleGraph, fixpoint_lhs, graph_state, path_graph,
                            triangle, vdn_lhs)
from zxr.phase import Phase
from zxr.proofs import replay
from zxr.semantics import (H_MATRIX, ResourceLimit, Step, equal_up_to_scalar, evaluate,
                           scalar_fit)

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
        assert np.abs(z - rz_mat(p.radians())).max() < 1e-12
        x = evaluate(generator("phase_x", p))
        assert np.abs(x - H_MAT @ rz_mat(p.radians()) @ H_MAT).max() < 1e-12


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
    assert not H_MATRIX.flags.writeable
    assert not any(t.flags.writeable for t in semantics._SPIDER_TENSORS.values())
    for fresh in (evaluate(generator("h")), evaluate(graph_state(triangle())), m):
        assert fresh.flags.writeable
    # boundary-to-boundary edges take the identity-splice path
    swap = np.eye(4)[[0, 2, 1, 3]]
    for d, want in ((wire(), np.eye(2)), (tensor(wire(), wire()), np.eye(4)),
                    (axioms._swap_diagram(), swap)):
        m = evaluate(d)
        assert np.array_equal(m, want)
        m[:] = 7
        assert np.array_equal(evaluate(d), want)


def test_spider_tensors_are_shared_read_only(monkeypatch):
    # a Z spider with a self-loop: the cache holds its untraced degree-4
    # tensor, read-only and reused by the next call; each result is fresh
    monkeypatch.setattr(semantics, "_SPIDER_TENSORS", {})
    d = spider(Z, 1, 1, "1/3")
    v = d.spiders()[0]
    d.add_edge(v, v)
    want = evaluate(spider(Z, 1, 1, "1/3"))
    m = evaluate(d.check())
    key = (Z, 4, 1, 3, 1)
    t = semantics._SPIDER_TENSORS[key]
    assert not t.flags.writeable
    assert np.array_equal(t, semantics._spider_tensor(Z, 4, Phase(1, 3), 1))
    assert proportional(m, want)
    m[:] = 0
    assert proportional(evaluate(d), want)
    assert semantics._SPIDER_TENSORS[key] is t


def test_resource_limit_fires_before_any_contraction(monkeypatch):
    calls = []
    original = semantics._contract_pair

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(semantics, "_contract_pair", counting)
    d = graph_state(path_graph("abcdef"))   # node tensors fit in 2^4 entries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "MAX_INTERMEDIATE", 2 ** 4)
        with pytest.raises(ResourceLimit):
            evaluate(d)
    assert calls == []
    evaluate(d)
    assert calls


# -- the plan cache ------------------------------------------------------------------


def test_plan_cache_gives_bit_identical_matrices(rng):
    corpus = [random_diagram(rng) for _ in range(60)]
    for d in corpus:
        for model_n in (1, 2, 3):
            warm = evaluate(d, model_n)
            assert np.array_equal(evaluate(d, model_n), warm)
            semantics._plan.cache_clear()
            assert np.array_equal(evaluate(d, model_n), warm)
    assert semantics._plan.cache_info().maxsize <= 16


def test_resource_limit_checked_on_a_cached_plan(monkeypatch):
    d = graph_state(path_graph("abcdef"))   # node tensors fit in 2^4 entries
    evaluate(d)
    hits = semantics._plan.cache_info().hits
    calls = []
    original = semantics._contract_pair

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(semantics, "_contract_pair", counting)
    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2 ** 4)
    with pytest.raises(ResourceLimit, match="intermediate tensor"):
        evaluate(d)
    assert semantics._plan.cache_info().hits == hits + 1
    assert calls == []


def test_cached_plan_holds_no_mutable_lists():
    def immutable(x):
        if isinstance(x, tuple):
            return all(immutable(y) for y in x)
        return isinstance(x, int)

    shape = ((0, 1), (1, 2), (2, 3, 0), (4,), (5,))   # a ring and two loners
    plan = semantics._plan(shape)
    assert immutable(plan)
    assert semantics._plan(shape) is plan
    steps, final = plan
    assert len(steps) == len(shape) - 1
    assert sorted(final) == [3, 4, 5]


# -- differential check of the planner ---------------------------------------------
# The pairwise contraction loop as it stood before the planner indexed tensors
# by shared variable (greedy scan over all pairs, np.tensordot). evaluate must
# reproduce its matrices bit for bit.


def _reference_contract_pair(a, b):
    ta, la = a
    tb, lb = b
    shared = [v for v in la if v in lb]
    axes_a = [la.index(v) for v in shared]
    axes_b = [lb.index(v) for v in shared]
    tc = np.tensordot(ta, tb, axes=(axes_a, axes_b))
    lc = [v for v in la if v not in shared] + [v for v in lb if v not in shared]
    return tc, lc


def _reference_contract_all(tensors, free):
    if not tensors:
        return np.array(1.0 + 0j), []
    work = list(tensors)
    while len(work) > 1:
        best = None
        for i in range(len(work)):
            li = set(work[i][1])
            for j in range(i + 1, len(work)):
                shared = li & set(work[j][1])
                if not shared:
                    continue
                out_legs = len(li) + len(work[j][1]) - 2 * len(shared)
                if best is None or out_legs < best[0]:
                    best = (out_legs, i, j)
        if best is None:
            # disconnected components: outer product of the two smallest
            work.sort(key=lambda t: t[0].size)
            best = (len(work[0][1]) + len(work[1][1]), 0, 1)
        out_legs, i, j = best
        if 2 ** out_legs > semantics.MAX_INTERMEDIATE:
            raise ResourceLimit(
                f"intermediate tensor with 2^{out_legs} entries exceeds the cap")
        merged = _reference_contract_pair(work[i], work[j])
        work = [w for k, w in enumerate(work) if k not in (i, j)] + [merged]
    return work[0]


def _assert_matches_reference(d, model_n=1):
    got = evaluate(d, model_n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_contract_all",
                   lambda tensors: _reference_contract_all(tensors, set()))
        want = evaluate(d, model_n)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_planner_matches_reference_on_random_diagrams(rng):
    for _ in range(60):
        d = random_diagram(rng)
        for model_n in (1, 2):
            _assert_matches_reference(d, model_n)


def test_planner_matches_reference_on_graph_sweeps():
    rng = random.Random(5)
    for nv in (5, 6):
        labels = [f"q{i}" for i in range(nv)]
        for _ in range(4):
            g = SimpleGraph.build(labels, [(a, b) for i, a in enumerate(labels)
                                           for b in labels[i + 1:]
                                           if rng.random() < 0.5])
            u = rng.choice(labels)
            _assert_matches_reference(fixpoint_lhs(g, u))
            _assert_matches_reference(vdn_lhs(g, u))


def test_planner_matches_reference_on_disconnected_and_wires():
    disconnected = tensor(tensor(generator("eps_z_dag"), generator("h")),
                          tensor(spider(Z, 2, 1, "1/3"), generator("eps_x")))
    through_wire = tensor(wire(), compose(generator("h"), generator("phase_x", "1/2")))
    for d in (disconnected, through_wire, tensor(through_wire, disconnected)):
        _assert_matches_reference(d)
        _assert_matches_reference(d, 2)


# -- the planner against its predecessor ------------------------------------------
# ``_reference_plan`` is the planner as it stood before its per-merge work was
# cut (Counter/defaultdict holders, positions by list.index), kept verbatim.
# ``_plan`` must give the same steps and final legs on every shape evaluate
# hands it.

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def _reference_plan(shape):
    legs = [list(ls) for ls in shape]
    holders: dict[int, list[int]] = defaultdict(list)
    for t, ls in enumerate(legs):
        for var in ls:
            holders[var].append(t)
    shared = Counter(tuple(ts) for ts in holders.values() if len(ts) == 2)
    heap = [(len(legs[a]) + len(legs[b]) - 2 * k, a, b)
            for (a, b), k in shared.items()]
    heapq.heapify(heap)
    alive = [True] * len(legs)
    steps: list[Step] = []

    def merge(a: int, b: int) -> list[int]:
        la, lb = legs[a], legs[b]
        common = [v for v in la if v in lb]
        axes_a = [la.index(v) for v in common]
        axes_b = [lb.index(v) for v in common]
        keep_a = [i for i, v in enumerate(la) if v not in common]
        keep_b = [i for i, v in enumerate(lb) if v not in common]
        lc = [la[i] for i in keep_a] + [lb[i] for i in keep_b]
        k = 1 << len(common)
        steps.append((a, b, tuple(keep_a + axes_a), tuple(axes_b + keep_b),
                      (1 << len(keep_a), k), (k, 1 << len(keep_b)), len(lc)))
        legs.append(lc)
        alive[a] = alive[b] = False
        alive.append(True)
        return lc

    while heap:
        _, a, b = heapq.heappop(heap)
        if not (alive[a] and alive[b]):
            continue
        lc = merge(a, b)
        c = len(legs) - 1
        counts: dict[int, int] = {}
        for var in lc:
            ts = holders[var]
            if len(ts) == 2:
                other = ts[1] if ts[0] == a or ts[0] == b else ts[0]
                holders[var] = [other, c]
                counts[other] = counts.get(other, 0) + 1
        for other, k in counts.items():
            heapq.heappush(heap, (len(legs[other]) + len(lc) - 2 * k, other, c))

    # disconnected components: no pair shares a variable, and no merge can
    # create one, so the rest is outer products of the two smallest
    work = [t for t, live in enumerate(alive) if live]
    while len(work) > 1:
        work.sort(key=lambda t: len(legs[t]))
        merge(work[0], work[1])
        work = work[2:] + [len(legs) - 1]
    return tuple(steps), tuple(legs[-1])


def _recorded_shapes(run):
    """The distinct leg structures evaluate plans for while ``run()`` runs."""
    shapes = []
    real = semantics._plan

    def recording(shape):
        shapes.append(shape)
        return real(shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_plan", recording)
        run()
    return list(dict.fromkeys(shapes))


def _assert_plans_match_reference(run, at_least):
    shapes = _recorded_shapes(run)
    assert len(shapes) >= at_least
    for shape in shapes:
        assert semantics._plan(shape) == _reference_plan(shape), shape


def test_plans_match_reference_on_random_diagrams(rng):
    def run():
        for _ in range(120):
            evaluate(random_diagram(rng))
    _assert_plans_match_reference(run, 100)


def test_plans_match_reference_on_graph_states():
    gen = random.Random(7)
    labels = [f"q{i}" for i in range(5)]

    def run():
        for _ in range(24):
            g = SimpleGraph.build(labels, [(a, b) for i, a in enumerate(labels)
                                           for b in labels[i + 1:] if gen.random() < 0.5])
            u = gen.choice(labels)
            for d in (graph_state(g), fixpoint_lhs(g, u), vdn_lhs(g, u)):
                evaluate(d)
    _assert_plans_match_reference(run, 40)


def test_plans_match_reference_on_shipped_proofs():
    loaded = [shipped.load(PROOF_DIR, name) for name in sorted(shipped.BUILDERS)]

    def starts():
        for start, _ in loaded:
            evaluate(start)

    def patch_cuts():
        for start, script in loaded:
            replay(script, start, euler_on=True, models=(1,))
    _assert_plans_match_reference(starts, len(loaded) // 2)
    _assert_plans_match_reference(patch_cuts, 50)


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
