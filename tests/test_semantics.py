import random

import numpy as np
import pytest

from conftest import H_MAT, SQRT2, graph_state_vector, proportional, random_diagram, rz_mat
from zxr import semantics
from zxr.diagram import Z, compose, dagger, generator, iso_equal, spider, tensor, wire
from zxr.graphstate import (SimpleGraph, fixpoint_lhs, graph_state, path_graph,
                            triangle, vdn_lhs)
from zxr.phase import Phase
from zxr.semantics import (H_MATRIX, ResourceLimit, equal_up_to_scalar, evaluate,
                           node_tensor, scalar_fit)

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


def test_scalar_fit_reports_residual():
    a = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, residual = scalar_fit(a, b)
    assert residual > 0.5


def test_resource_limit():
    d = graph_state(SimpleGraph.build("abcde"))
    with pytest.raises(ResourceLimit):
        evaluate(d, max_entries=2)


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
    assert not node_tensor(d, d.spiders()[0], 1).flags.writeable
    for fresh in (evaluate(generator("h")), evaluate(graph_state(triangle()))):
        assert fresh.flags.writeable


def test_resource_limit_fires_before_any_contraction(monkeypatch):
    calls = []
    original = semantics._contract_pair

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(semantics, "_contract_pair", counting)
    d = graph_state(path_graph("abcdef"))   # node tensors fit in 2^4 entries
    with pytest.raises(ResourceLimit):
        evaluate(d, max_entries=2 ** 4)
    assert calls == []
    evaluate(d)
    assert calls


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


def _reference_contract_all(tensors, free, max_entries):
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
        if 2 ** out_legs > max_entries:
            raise ResourceLimit(
                f"intermediate tensor with 2^{out_legs} entries exceeds the cap")
        merged = _reference_contract_pair(work[i], work[j])
        work = [w for k, w in enumerate(work) if k not in (i, j)] + [merged]
    return work[0]


def _assert_matches_reference(d, model_n=1):
    got = evaluate(d, model_n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_contract_all",
                   lambda tensors, max_entries:
                   _reference_contract_all(tensors, set(), max_entries))
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
