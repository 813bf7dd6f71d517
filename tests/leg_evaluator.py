"""The per-leg dense evaluator, kept verbatim as a differential reference.

This is ``zxr.semantics.evaluate`` as it stood before it took one index per
spider: one variable per edge end, a 2^d tensor per spider of degree d, and
a greedy pairwise contraction. ``leg_lists`` is the ``Diagram.legs`` method
it read the diagram with. Only the imports, that function's name and its
call in ``evaluate`` differ from the original. Tests compare the current
evaluator with it entrywise.
"""

from __future__ import annotations

import cmath
import heapq
import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from zxr.diagram import BOUNDARY, HBOX, Diagram, X
from zxr.phase import Phase


def leg_lists(self: Diagram) -> tuple[list[tuple[str, str, Optional[Phase], list[int],
                                           Sequence[int]]], int]:
    """The diagram as a tensor network, read in one pass over the edge store.

    One variable per parallel copy of each edge, numbered in ``edges()``
    order. Returns every node in name order as (name, kind, phase or
    None, legs, loops), and the number of variables. ``legs`` is a fresh
    list of the node's variables in increasing order, each self-loop's
    variable twice side by side; ``loops`` lists the self-loop variables.
    """
    kind_of, phase_of, adj = self._kind, self._phase, self._adj
    names = sorted(kind_of)
    legs: dict[str, list[int]] = {v: [] for v in names}
    rows = []
    var = 0
    for u in names:
        lu, nb, loops = legs[u], adj[u], ()
        for w in (nb if len(nb) == 1 else sorted(nb)):
            if w < u:
                continue
            m = nb[w]
            if w == u:
                loops = range(var, var + m)
                for x in loops:
                    lu += (x, x)
            elif m == 1:
                lu.append(var)
                legs[w].append(var)
            else:
                lw = legs[w]
                for x in range(var, var + m):
                    lu.append(x)
                    lw.append(x)
            var += m
        rows.append((u, kind_of[u], phase_of.get(u), lu, loops))
    return rows, var


MAX_INTERMEDIATE = 2 ** 26

TOL = 1e-9  # entrywise, absolute; read by equal_up_to_scalar alone

HALF_SQRT2 = 1.0 / math.sqrt(2.0)

H_MATRIX = np.array([[HALF_SQRT2, HALF_SQRT2], [HALF_SQRT2, -HALF_SQRT2]],
                    dtype=complex)
H_MATRIX.flags.writeable = False


class ResourceLimit(RuntimeError):
    """A contraction intermediate exceeded the configured entry cap."""


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


# spider tensors by (colour, degree, phase num, phase den, model): plain
# ints and strings, so a lookup hashes no Phase
_SPIDER_TENSORS: dict[tuple[str, int, int, int, int], np.ndarray] = {}


def evaluate(d: Diagram, model_n: int = 1) -> np.ndarray:
    """Contract the diagram's tensor network into its matrix.

    ``Diagram.legs`` reads the diagram in one pass: a variable per parallel
    copy of each edge, and every node's kind, phase and legs. A spider's
    tensor depends on its colour, degree (its leg count), phase and the
    model alone, and is shared by every node and call with the same four,
    looked up by them as plain ints and strings (H-boxes share
    ``H_MATRIX``); self-loops are traced out of it per call. The
    contraction order is greedy: each step contracts the pair of tensors
    that share a variable and whose result has the fewest legs, ties going
    to the pair that comes first in the work list (node tensors in node
    order, each merged tensor appended at the end). Tensors are indexed by shared
    variable, so a step costs no scan over all pairs. When no pair shares a
    variable, the work list is stably sorted by size and the first two are
    joined by an outer product. The whole order is planned from the leg
    lists first (``_plan``), and ResourceLimit is raised before any
    contraction if a node or any planned intermediate would exceed
    ``MAX_INTERMEDIATE`` complex entries. A plan depends on the leg lists
    alone, so it is reused by the next evaluations of the same leg
    structure (a small LRU cache), such as one diagram in two models; the
    cap is tested on every call all the same. The result is a fresh array
    that shares no memory with the cached node tensors.
    """
    d.checked()
    if model_n < 1:
        raise ValueError("model_n must be >= 1")

    nodes, next_var = leg_lists(d)
    tensors: list[tuple[np.ndarray, list[int]]] = []
    boundary_var: dict[str, int] = {}
    for v, kind, phase, legs, loops in nodes:
        if kind == BOUNDARY:
            boundary_var[v] = legs[0]
            continue
        if 2 ** len(legs) > MAX_INTERMEDIATE:
            raise ResourceLimit(f"node {v!r} alone needs 2^{len(legs)} entries")
        if kind == HBOX:
            tensors.append((H_MATRIX, legs))
            continue
        key = (kind, len(legs), phase.num, phase.den, model_n)
        t = _SPIDER_TENSORS.get(key)
        if t is None:
            t = _SPIDER_TENSORS[key] = _spider_tensor(kind, len(legs), phase,
                                                      model_n)
        # trace out self-loop variables inside the node tensor; each one's
        # two legs sit side by side
        for var in loops:
            i = legs.index(var)
            t = np.trace(t, axis1=i, axis2=i + 1)
            del legs[i:i + 2]
        tensors.append((t, legs))

    # free legs in boundary order: outputs then inputs. A boundary-boundary
    # edge exposes one variable twice; at its second occurrence splice in an
    # identity tensor, so every variable has at most two occurrences
    free: list[int] = []
    for b in d.outputs + d.inputs:
        var = boundary_var[b]
        if var in free:
            tensors.append((np.eye(2, dtype=complex), [var, next_var]))
            var, next_var = next_var, next_var + 1
        free.append(var)

    t, legs = _contract_all(tensors)

    # assemble output axes in boundary order
    t = np.transpose(t, [legs.index(var) for var in free]) if legs else t.reshape(())
    m, n = len(d.outputs), len(d.inputs)
    out = t.reshape((2 ** m, 2 ** n))
    # a read-only result is a view of a cached node tensor
    return out if out.flags.writeable else out.copy()


Step = tuple[int, int, tuple[int, ...], tuple[int, ...], tuple[int, int],
             tuple[int, int], int]


@lru_cache(maxsize=16)
def _plan(shape: tuple[tuple[int, ...], ...]
          ) -> tuple[tuple[Step, ...], tuple[int, ...]]:
    """The greedy pairwise contraction order over tensors with leg lists
    ``shape``, and the leg list of the final tensor; see ``evaluate``.

    Each step (a, b, perm_a, perm_b, shape_a, shape_b, out_legs) contracts
    tensor a with tensor b into a new tensor numbered after every tensor
    before it. Every variable is held by at most two tensors, recorded in a
    two-slot list per variable (-1 for an empty slot), and a tensor's number
    orders it in the work list, so the smallest heap key (out_legs, a, b)
    over pairs that share a variable is the greedy choice. A merge walks a's
    legs once, finding each shared one's position in b as it goes, then
    b's legs once for the ones it keeps; the merged tensor's still-shared
    variables name the neighbours it gets heap entries for. The result is
    immutable, because the cache hands it to every caller with the same
    ``shape``.
    """
    legs = [list(ls) for ls in shape]
    holders: dict[int, list[int]] = {}
    for t, ls in enumerate(legs):
        for var in ls:
            h = holders.get(var)
            if h is None:
                holders[var] = [t, -1]
            else:
                h[1] = t
    shared: dict[tuple[int, int], int] = {}
    for a, b in holders.values():
        if b >= 0:
            shared[a, b] = shared.get((a, b), 0) + 1
    heap = [(len(legs[a]) + len(legs[b]) - 2 * k, a, b)
            for (a, b), k in shared.items()]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    alive = [True] * len(legs)
    steps: list[Step] = []

    def merge(a: int, b: int) -> list[int]:
        la, lb = legs[a], legs[b]
        keep_a, axes_a, axes_b, lc = [], [], [], []
        for i, var in enumerate(la):
            if var in lb:
                axes_a.append(i)
                axes_b.append(lb.index(var))
            else:
                keep_a.append(i)
                lc.append(var)
        keep_b = [j for j, var in enumerate(lb) if var not in la]
        lc += [lb[j] for j in keep_b]
        k = 1 << len(axes_a)
        steps.append((a, b, tuple(keep_a + axes_a), tuple(axes_b + keep_b),
                      (1 << len(keep_a), k), (k, 1 << len(keep_b)), len(lc)))
        legs.append(lc)
        alive[a] = alive[b] = False
        alive.append(True)
        return lc

    while heap:
        _, a, b = pop(heap)
        if not (alive[a] and alive[b]):
            continue
        lc = merge(a, b)
        c, n = len(legs) - 1, len(lc)
        counts: dict[int, int] = {}
        for var in lc:
            h = holders[var]
            if h[1] >= 0:
                if h[0] == a or h[0] == b:
                    h[0], other = c, h[1]
                else:
                    h[1], other = c, h[0]
                counts[other] = counts.get(other, 0) + 1
        for other, k in counts.items():
            push(heap, (len(legs[other]) + n - 2 * k, other, c))

    # disconnected components: no pair shares a variable, and no merge can
    # create one, so the rest is outer products of the two smallest
    work = [t for t, live in enumerate(alive) if live]
    while len(work) > 1:
        work.sort(key=lambda t: len(legs[t]))
        merge(work[0], work[1])
        work = work[2:] + [len(legs) - 1]
    return tuple(steps), tuple(legs[-1])


def _contract_all(tensors: list[tuple[np.ndarray, list[int]]]
                  ) -> tuple[np.ndarray, tuple[int, ...]]:
    if not tensors:
        return np.array(1.0 + 0j), ()
    steps, legs = _plan(tuple([tuple(ls) for _, ls in tensors]))
    for step in steps:
        if 2 ** step[-1] > MAX_INTERMEDIATE:
            raise ResourceLimit(
                f"intermediate tensor with 2^{step[-1]} entries exceeds the cap")
    work: list[np.ndarray | None] = [t for t, _ in tensors]
    for a, b, perm_a, perm_b, shape_a, shape_b, out_legs in steps:
        work.append(_contract_pair(work[a], work[b], perm_a, perm_b,
                                   shape_a, shape_b, out_legs))
        work[a] = work[b] = None
    return work[-1], legs


def _contract_pair(ta: np.ndarray, tb: np.ndarray, perm_a: tuple[int, ...],
                   perm_b: tuple[int, ...], shape_a: tuple[int, int],
                   shape_b: tuple[int, int], out_legs: int) -> np.ndarray:
    """np.tensordot's own transpose, reshape, dot, reshape sequence, with the
    axes worked out in advance: the same floating-point operations."""
    at = ta.transpose(perm_a).reshape(shape_a)
    bt = tb.transpose(perm_b).reshape(shape_b)
    return np.dot(at, bt).reshape((2,) * out_legs)
