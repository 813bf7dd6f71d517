"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute expected values by brute force (state-vector
manipulation, parity formulas, local-complementation orbits) without going
through the diagram evaluator, so the two paths check each other; ``dense``,
the generator table contracted in one einsum, is the evaluator's differential
reference.
``reference_cut`` builds the sub-diagram on a node set, which
``Diagram.network(nodes)`` reads in place.
``steps_reached`` is the dependency walk over the derivations of
``zxr.lemmas``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from string import ascii_letters   # einsum's labels

import numpy as np
import pytest

from zxr import lemmas
from zxr.diagram import BOUNDARY, HBOX, Diagram, X, Z, attach_wires, chain
from zxr.graphstate import SimpleGraph, local_complement
from zxr.phase import Phase

GRID = [Phase(0), Phase(1, 2), Phase(1), Phase(3, 2), Phase(1, 3), Phase(2, 5)]

SQRT2 = np.sqrt(2.0)
H_MAT = np.array([[1, 1], [1, -1]]) / SQRT2


def rz_mat(angle: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * angle)]])


def rx_mat(angle: float) -> np.ndarray:
    return H_MAT @ rz_mat(angle) @ H_MAT


def dense(d: Diagram, model_n: int = 1) -> np.ndarray:
    """The diagram's matrix from the generator table alone, in one einsum
    over its public views, sharing nothing with ``zxr.semantics``. Each
    parallel copy of an edge is one label, and a self-loop's label is taken
    twice by its spider (a trace). A Z spider of degree k is 1 on its all-0
    corner and e^{i*pi*n*alpha} on its all-1 corner, times
    (1/sqrt2)^max(0, 2 - k); an X spider is that with H on every axis; an
    H-box is H; a wire between two boundaries is the identity, on a fresh
    label. Rows are the outputs, columns the inputs, big-endian."""
    legs: dict[str, list[int]] = {v: [] for v in d.nodes()}
    operands, labels, count = [np.ones(())], [[]], 0   # the unit, for a diagram of no node
    for u, v, m in d.edges():
        for _ in range(m):
            legs[u].append(count)
            if d.kind(u) == BOUNDARY == d.kind(v):
                operands.append(np.eye(2))
                labels.append((count, count + 1))
                count += 1
            legs[v].append(count)
            count += 1
    if count > len(ascii_letters):
        raise ValueError(f"dense needs {count} einsum labels; einsum has {len(ascii_letters)}")
    for v, ls in legs.items():
        kind, k = d.kind(v), len(ls)
        if kind == HBOX:
            t = H_MAT
        elif kind in (Z, X):
            t, p = np.zeros((2,) * k, dtype=complex), d.phase(v)
            t[(0,) * k] += 1
            t[(1,) * k] += np.exp(1j * np.pi * float(model_n * Fraction(p.num, p.den) % 2))
            t *= SQRT2 ** -max(0, 2 - k)
            if kind == X:
                for axis in range(k):
                    t = np.moveaxis(np.tensordot(H_MAT, t, (1, axis)), 0, axis)
        else:
            continue
        operands.append(t)
        labels.append(ls)

    def word(ls):
        return "".join(ascii_letters[i] for i in ls)

    free = word(legs[b][0] for b in d.outputs + d.inputs)
    m = np.einsum(",".join(map(word, labels)) + "->" + free, *operands, optimize=True)
    return m.reshape(2 ** len(d.outputs), 2 ** len(d.inputs))


def reference_cut(self, nodes):
    """The sub-diagram on the given nodes (those self lacks are ignored).
    Each edge leaving the set becomes an output wire, one per parallel
    copy, ordered by (outside endpoint, inside endpoint), with fresh ids;
    the set's own inputs and outputs stay boundaries, its outputs after the
    cut wires. It is ``Diagram.cut`` as it was before the in-place read,
    kept verbatim bar its name."""
    inside = sorted(v for v in set(nodes) if v in self._kind)
    keep = set(inside)
    p = Diagram()
    for v in inside:
        p.add_node(self._kind[v], self._phase.get(v), name=v)
    cut = []
    for v in inside:
        for w, m in self._adj[v].items():
            if w not in keep:
                cut += [(w, v)] * m
            elif v <= w:
                p.add_edge(v, w, m)
    wires = []
    for _, v in sorted(cut):
        wires.append(p.add_node(BOUNDARY))
        p.add_edge(wires[-1], v)
    p.inputs = tuple(b for b in self.inputs if b in keep)
    p.outputs = tuple(wires) + tuple(b for b in self.outputs if b in keep)
    return p


def graph_state_vector(g: SimpleGraph) -> np.ndarray:
    """Brute-force |g>: controlled-Z product applied to the uniform state."""
    nv = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    vec = np.ones(2 ** nv, dtype=complex) / np.sqrt(2 ** nv)
    for e in g.edges:
        u, v = tuple(e)
        i, j = idx[u], idx[v]
        for x in range(2 ** nv):
            if (x >> (nv - 1 - i)) & 1 and (x >> (nv - 1 - j)) & 1:
                vec[x] = -vec[x]
    return vec.reshape(-1, 1)


def cz_diagram() -> Diagram:
    """The controlled-Z map: two green spiders joined through an H-box."""
    d = Diagram()
    a = d.add_node(Z, name="a")
    b = d.add_node(Z, name="b")
    chain(d, a, b, ["h"], ["h"])
    return attach_wires(d, [a, b], [a, b])


def lc_orbit(g: SimpleGraph) -> set[SimpleGraph]:
    """Closure of {g} under local complementation at every vertex, on
    labelled graphs: every member shares g's vertex order and wire order."""
    seen = {g}
    frontier = [g]
    while frontier:
        cur = frontier.pop()
        for u in cur.vertices:
            if not cur.neighbours(u):
                continue
            nxt = local_complement(cur, u)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def apply_single(mat: np.ndarray, qubit: int, nqubits: int,
                 vec: np.ndarray) -> np.ndarray:
    t = vec.reshape([2] * nqubits)
    t = np.tensordot(mat, t, axes=([1], [qubit]))
    t = np.moveaxis(t, 0, qubit)
    return t.reshape(-1, 1)


def proportional(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    na, nb = np.abs(a).max(), np.abs(b).max()
    if na < tol or nb < tol:
        return na < tol and nb < tol
    lam = np.vdot(b, a) / np.vdot(b, b)
    return bool(np.abs(a - lam * b).max() <= tol)


def bipartite_oracle(m: int, n: int) -> np.ndarray:
    """The complete-bipartite map: every input bit must equal the parity of
    the output bits."""
    out = np.zeros((2 ** n, 2 ** m))
    for y in range(2 ** n):
        parity = bin(y).count("1") % 2
        x = (2 ** m - 1) if parity else 0
        out[y, x] = 1.0
    return out


def cycle_oracle(n: int) -> np.ndarray:
    """The alternating-cycle map: x_i must equal y_{i-1} xor y_i."""
    out = np.zeros((2 ** n, 2 ** n))
    for y in range(2 ** n):
        ybits = [(y >> (n - 1 - j)) & 1 for j in range(n)]
        x = 0
        for i in range(n):
            xi = ybits[i] ^ ybits[(i - 1) % n]
            x = (x << 1) | xi
        out[y, x] = 1.0
    return out


def random_diagram(rng: random.Random, max_spiders: int = 7,
                   max_boundaries: int = 4) -> Diagram:
    """A random valid diagram: spiders with grid phases, sprinkled H-boxes,
    parallel edges and occasional self-loops."""
    d = Diagram()
    ns = rng.randint(1, max_spiders)
    sp = [d.add_node(rng.choice([Z, X]), rng.choice(GRID)) for _ in range(ns)]
    drawn = []
    for _ in range(rng.randint(0, ns + 3)):
        u, v = rng.choice(sp), rng.choice(sp)
        d.add_edge(u, v)
        drawn.append((u, v) if u <= v else (v, u))
    for u, v in dict.fromkeys(drawn):   # distinct pairs, first-drawn order
        if u != v and rng.random() < 0.25:
            h = d.add_node(HBOX)
            d.remove_edge(u, v)
            d.add_edge(u, h)
            d.add_edge(h, v)
    ins, outs = [], []
    for _ in range(rng.randint(0, max_boundaries)):
        b = d.add_node(BOUNDARY)
        d.add_edge(b, rng.choice(sp))
        (ins if rng.random() < 0.5 else outs).append(b)
    d.inputs, d.outputs = tuple(ins), tuple(outs)
    return d.check()


def tangled(d: Diagram, rng: random.Random) -> Diagram:
    """d with two extra wires per spider, between random spiders:
    parallel edges, self-loops and new Z-X squares."""
    sp = d.spiders()
    for _ in range(2 * len(sp)):
        d.add_edge(rng.choice(sp), rng.choice(sp))
    return d.check()


def circuit(rng: random.Random, wires: int, gates: int) -> Diagram:
    """A circuit-shaped diagram: grid-phase spiders, H-boxes and Z-X
    (CNOT-like) pairs on ``wires`` wires, one input and one output per
    wire."""
    d = Diagram()
    ins = [d.add_node(BOUNDARY, name=f"in{k}") for k in range(wires)]
    ends = list(ins)
    for _ in range(gates):
        r = rng.random()
        if r < 0.65:
            k = rng.randrange(wires)
            v = (d.add_node(rng.choice([Z, X]), rng.choice(GRID)) if r < 0.45
                 else d.add_node(HBOX))
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


# The derivations that establish each lemma step (a script-only step of
# rules.RULES that stands for a derived equation).
LEMMA_DERIVATIONS = {
    "cut-h-core": lambda: [lemmas.lc_apply()],
    "cut-h-core-dual": lambda: [lemmas.swap_core()[1]],
    "use-pi2-colour": lambda: list(lemmas.pi2_colour_change()),
    "hub2": lambda: list(lemmas.hub2()),
}


def steps_reached(deriv: lemmas.Derivation, through: tuple = ()) -> set[str]:
    """Every step the derivation uses, each lemma step expanded into the
    derivations that establish it; ValueError on a lemma step that depends
    on itself."""
    reached = set()
    for rule in dict.fromkeys(rule for rule, _ in deriv.script.steps):
        reached.add(rule)
        if rule in through:
            raise ValueError(" -> ".join(through + (rule,)) + " is a cycle")
        for lemma in LEMMA_DERIVATIONS.get(rule, list)():
            reached |= steps_reached(lemma, through + (rule,))
    return reached


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
