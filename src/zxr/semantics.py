"""Dense-matrix interpretation of diagrams, with the phase-scaling model family.

A diagram with n inputs and m outputs evaluates to a 2^m x 2^n complex matrix.
Row indices encode the ordered outputs big-endian (first output wire is the
most significant bit); columns encode inputs the same way. Under model n > 1
every spider phase alpha is read as n*alpha; n = 1 is the standard
interpretation.
"""

from __future__ import annotations

import cmath
import heapq
import math
from collections import Counter, defaultdict
from functools import lru_cache

import numpy as np

from .diagram import BOUNDARY, HBOX, Diagram, X
from .phase import Phase

MAX_INTERMEDIATE = 2 ** 26

HALF_SQRT2 = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[HALF_SQRT2, HALF_SQRT2], [HALF_SQRT2, -HALF_SQRT2]],
                    dtype=complex)
H_MATRIX.flags.writeable = False


class ResourceLimit(RuntimeError):
    """A contraction intermediate exceeded the configured entry cap."""


@lru_cache(maxsize=None)
def _spider_tensor(colour: str, degree: int, phase: Phase,
                   model_n: int) -> np.ndarray:
    """Read-only tensor of one spider node, symmetric in its legs.

    The Z tensor has 1 at the all-zero corner and e^{i*n*alpha} at the all-one
    corner, scaled by (1/sqrt2)^max(0, 2-degree) so that every generator of
    the interpretation table is reproduced exactly. The X tensor conjugates
    every leg by H.
    """
    scaled = phase.scaled(model_n)
    amp = cmath.exp(1j * math.pi * scaled.num / scaled.den)
    scale = HALF_SQRT2 ** max(0, 2 - degree)
    if degree == 0:
        t = np.array((1.0 + amp) * 0.5, dtype=complex)
    else:
        t = np.zeros((2,) * degree, dtype=complex)
        t[(0,) * degree] = scale
        t[(1,) * degree] = scale * amp
    if colour == X:
        for axis in range(degree):
            t = np.tensordot(H_MATRIX, t, axes=([1], [axis]))
            t = np.moveaxis(t, 0, axis)
    t.flags.writeable = False
    return t


def node_tensor(d: Diagram, v: str, model_n: int) -> np.ndarray:
    """The read-only tensor of node ``v``, shared by every call with the same
    colour, degree, phase and model."""
    kind = d.kind(v)
    if kind == HBOX:
        return H_MATRIX
    return _spider_tensor(kind, d.degree(v), d.phase(v), model_n)


def evaluate(d: Diagram, model_n: int = 1,
             max_entries: int = MAX_INTERMEDIATE) -> np.ndarray:
    """Contract the diagram's tensor network into its matrix.

    The contraction order is greedy: each step contracts the pair of tensors
    that share a variable and whose result has the fewest legs, ties going to
    the pair that comes first in the work list (node tensors in node order,
    each merged tensor appended at the end). Tensors are indexed by shared
    variable, so a step costs no scan over all pairs. When no pair shares a
    variable, the work list is stably sorted by size and the first two are
    joined by an outer product. The whole order is planned from the leg lists
    first, and ResourceLimit is raised before any contraction if a node or any
    planned intermediate would exceed ``max_entries`` complex entries. The
    result is a fresh array that shares no memory with the cached node
    tensors.
    """
    d.check()
    if model_n < 1:
        raise ValueError("model_n must be >= 1")

    # one variable per edge instance; legs per node in variable order, a
    # self-loop contributing two legs
    node_legs: dict[str, list[int]] = {v: [] for v in d.nodes()}
    loops: dict[str, list[int]] = {}
    instances = d.edge_instances()
    for var, (u, v, _) in enumerate(instances):
        node_legs[u].append(var)
        node_legs[v].append(var)
        if u == v:
            loops.setdefault(u, []).append(var)

    tensors: list[tuple[np.ndarray, list[int]]] = []
    for v, legs in node_legs.items():
        if d.kind(v) == BOUNDARY:
            continue
        if 2 ** len(legs) > max_entries:
            raise ResourceLimit(f"node {v!r} alone needs 2^{len(legs)} entries")
        t = node_tensor(d, v, model_n)
        # trace out self-loop variables inside the node tensor
        for var in loops.get(v, ()):
            i = legs.index(var)
            j = legs.index(var, i + 1)
            t = np.trace(t, axis1=i, axis2=j)
            del legs[j], legs[i]
        tensors.append((t, legs))

    # free legs in boundary order: outputs then inputs
    free: list[int] = []
    free_count: dict[int, int] = {}
    for b in d.outputs + d.inputs:
        var = node_legs[b][0]
        free.append(var)
        free_count[var] = free_count.get(var, 0) + 1

    # a boundary-boundary edge exposes one variable twice: splice in an
    # identity tensor so every variable has at most two occurrences
    next_var = len(instances)
    for i, var in enumerate(free):
        if free_count.get(var, 0) == 2:
            ident = np.eye(2, dtype=complex)
            tensors.append((ident, [var, next_var]))
            free_count[var] -= 1
            free[i] = next_var
            next_var += 1

    t, legs = _contract_all(tensors, max_entries)

    # assemble output axes in boundary order
    t = np.transpose(t, [legs.index(var) for var in free]) if legs else t.reshape(())
    m, n = len(d.outputs), len(d.inputs)
    out = t.reshape((2 ** m, 2 ** n))
    # a read-only result is a view of a cached node tensor
    return out if out.flags.writeable else out.copy()


Step = tuple[int, int, list[int], list[int], tuple[int, int], tuple[int, int], int]


def _plan(legs: list[list[int]]) -> list[Step]:
    """The greedy pairwise contraction order over tensors with leg lists
    ``legs``; see ``evaluate``.

    Each step (a, b, perm_a, perm_b, shape_a, shape_b, out_legs) contracts
    tensor a with tensor b into a new tensor numbered len(legs), whose leg
    list is appended to ``legs``. Every variable is held by at most two
    tensors, and a tensor's number orders it in the work list, so the
    smallest heap key (out_legs, a, b) over pairs that share a variable is
    the greedy choice.
    """
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
        steps.append((a, b, keep_a + axes_a, axes_b + keep_b,
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
    return steps


def _contract_all(tensors: list[tuple[np.ndarray, list[int]]],
                  max_entries: int) -> tuple[np.ndarray, list[int]]:
    if not tensors:
        return np.array(1.0 + 0j), []
    legs = [ls for _, ls in tensors]
    steps = _plan(legs)
    for step in steps:
        if 2 ** step[-1] > max_entries:
            raise ResourceLimit(
                f"intermediate tensor with 2^{step[-1]} entries exceeds the cap")
    work: list[np.ndarray | None] = [t for t, _ in tensors]
    for a, b, perm_a, perm_b, shape_a, shape_b, out_legs in steps:
        work.append(_contract_pair(work[a], work[b], perm_a, perm_b,
                                   shape_a, shape_b, out_legs))
        work[a] = work[b] = None
    return work[-1], legs[-1]


def _contract_pair(ta: np.ndarray, tb: np.ndarray, perm_a: list[int],
                   perm_b: list[int], shape_a: tuple[int, int],
                   shape_b: tuple[int, int], out_legs: int) -> np.ndarray:
    """np.tensordot's own transpose, reshape, dot, reshape sequence, with the
    axes worked out in advance: the same floating-point operations."""
    at = ta.transpose(perm_a).reshape(shape_a)
    bt = tb.transpose(perm_b).reshape(shape_b)
    return np.dot(at, bt).reshape((2,) * out_legs)


# -- scalar-equivalence --------------------------------------------------------


def scalar_fit(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Least-squares lambda minimizing |a - lambda*b|, and the max residual."""
    denom = np.vdot(b, b)
    lam = complex(np.vdot(b, a) / denom) if abs(denom) > 0 else 0j
    residual = float(np.abs(a - lam * b).max()) if a.size else 0.0
    return lam, residual


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff a = lambda*b for some nonzero lambda, entrywise within tol.

    lambda is pivoted on the largest-magnitude entry of b. Two zero matrices
    are equal; a zero and a nonzero matrix are not.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    amax = float(np.abs(a).max()) if a.size else 0.0
    bmax = float(np.abs(b).max()) if b.size else 0.0
    if amax <= tol and bmax <= tol:
        return True
    if amax <= tol or bmax <= tol:
        return False
    pivot = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    lam = a[pivot] / b[pivot]
    if abs(lam) <= tol:
        return False
    return bool(np.abs(a - lam * b).max() <= tol)


def diagrams_equal(f: Diagram, g: Diagram, model_n: int = 1,
                   tol: float = 1e-9) -> bool:
    return equal_up_to_scalar(evaluate(f, model_n), evaluate(g, model_n), tol)
