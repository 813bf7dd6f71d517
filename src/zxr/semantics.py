"""Dense-matrix interpretation of diagrams, with the phase-scaling model family.

A diagram with n inputs and m outputs evaluates to a 2^m x 2^n complex matrix.
Row indices encode the ordered outputs big-endian (first output wire is the
most significant bit); columns encode inputs the same way. Under model n > 1
every spider phase alpha is read as n*alpha; n = 1 is the standard
interpretation.

``evaluate`` contracts a network with one index per spider, not one per edge
end: contraction with hyperedges (Gray & Kourtis, Quantum 5, 410, 2021). A Z
spider's index is in the Z basis and an X spider's in the X basis, so a wire
from end p to end q through k H-boxes is H^(e_p + k + e_q mod 2), with e = 1
at an X end and 0 at a Z spider or a boundary: the identity or H. Spiders
joined by identity wires share one index (spider fusion, which is exact).
Every 1/sqrt2 is kept out of the contraction in one scalar, and diagrams are
compared with zero decided against it (``matrices_equal``), so 1/sqrt2 per
H-box cannot take a nonzero diagram under TOL.

Because the network absorbs spider fusion, identity wires and H colour
changes, the rewrites that do only that leave it as it was, and a sweep
that evaluates a diagram before and after each rewrite meets the same
network again. So ``evaluate``
keeps its last ``MEMO_SIZE`` results of at most ``MAX_CACHED_ENTRIES``
entries (``_MATRICES``, least recently used out first), keyed on everything
the contraction reads: the factors, the scale, the plan's steps, the output
shape and the model. Equal keys run the same float operations, so a result
from the memo is bit-identical to a contraction.

``diagrams_equal`` needs no matrix at all when the two networks are equal:
the same factors and plan steps on the same boundary counts run the same
contraction in every model, so the two matrices are one matrix M times each
side's scale. If the scales are both nonzero or both zero, the two are equal
up to a nonzero scalar whatever M is (two zero matrices count as equal), and
the pair is decided from the networks alone, even when M is over the entry
cap. One zero scale (a closed cycle of an odd number of H-boxes) beside a
nonzero one is not decided so: that side is zero, the other is zero only if
M is. Every other pair is evaluated and compared by ``matrices_equal``.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
from collections import OrderedDict

import numpy as np

from .diagram import BOUNDARY, Diagram, X
from .phase import reduced

MAX_INTERMEDIATE = 2 ** 26
MAX_BYTES = 2 ** 32   # held at once: factors twice, intermediates, result twice
MAX_CACHED_ENTRIES = 2 ** 11   # the largest class tensor the benchmark workloads use
MEMO_SIZE = 64   # contracted matrices kept (``_MATRICES``)
MAX_OPERANDS = 32   # einsum's operand limit under numpy 1.x (numpy 2: 64)
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"   # einsum's labels

TOL = 1e-9  # entrywise, absolute; read by equal_up_to_scalar and matrices_equal alone

HALF_SQRT2 = 1.0 / math.sqrt(2.0)
_H_PLUS = np.array([[1, 1], [1, -1]], dtype=complex)   # sqrt2*H, as evaluated
_H_PLUS.flags.writeable = False


class ResourceLimit(RuntimeError):
    """An evaluation would exceed the entry cap or the byte budget."""


def _factor(axes: int, hmask: int, num: int, den: int) -> np.ndarray:
    """Read-only tensor of one class: the sum over x in {0, 1} of amp(x)
    times, per axis i, |x> or, where bit i of ``hmask`` is set, row x of
    sqrt2*H; amp = [1, e^{i*pi*num/den}]."""
    t = np.zeros((2,) * axes, dtype=complex)
    for x, amp in ((0, 1.0), (1, cmath.exp(1j * math.pi * num / den))):
        rows = [_H_PLUS[x] if hmask >> i & 1 else np.eye(2)[x] for i in range(axes)]
        t += functools.reduce(np.multiply.outer, rows, np.array(amp, dtype=complex))
    t.flags.writeable = False
    return t


# class tensors by (axes, hmask, num, den), the phase num/den in lowest terms
# (``reduced``), of at most MAX_CACHED_ENTRIES entries
_FACTORS: dict[tuple[int, int, int, int], np.ndarray] = {}


def _network(d: Diagram) -> tuple:
    """The diagram as (tensors, scale, plan), in every model, building no
    array: factor i is sqrt2*H (tensors[i] None) or a class tensor (axes,
    hmask, (num, den, h)), contracted by ``_plan`` over their index tuples;
    indices 0..free-1 are the boundaries, outputs then inputs. Identity
    wires merge their ends into classes (union-find), with their spiders'
    phase sum, read n times over in model n, plus pi if h: an odd number of
    H wires within the class. A boundary on an H wire is an H-read leg of
    the class at its other end; other H wires are H factors between classes.
    A class's index is its first identity-read leg, or, if H factors hold it
    or it has no legs, its own on the tensor's first axis, or it is summed
    in the tensor; a tensor [1, 1] on an index H factors hold is left out.
    ``scale`` is 1/sqrt2 per H wire, (1/sqrt2)^max(0, 2 - degree) per
    spider, and tr(H^k) per closed cycle of k H-boxes."""
    ends, at, wires, cycles = d.wires()
    root = list(range(len(ends)))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    xs = [kind == X for kind, _, _ in ends]
    h_wires = []
    for p, q, k in wires:
        if (k + xs[p] + xs[q]) % 2:
            h_wires.append((p, q))
        else:
            root[find(q)] = find(p)
    half = len(h_wires)   # the power of 1/sqrt2 in the scalar
    phase: dict[int, tuple[int, int]] = {}
    for v, (_, ph, degree) in enumerate(ends):
        r = root[v] = find(v)
        if ph is not None:
            half += max(0, 2 - degree)
            num, den = phase.get(r, (0, 1))
            phase[r] = reduced(num * ph.den + ph.num * den, den * ph.den)
    pairs, h_read, loops = [], {}, set()   # h_read: boundary -> class reading it
    for p, q in h_wires:
        if ends[p][0] == BOUNDARY:
            h_read[p] = root[q]
        elif ends[q][0] == BOUNDARY:
            h_read[q] = root[p]
        elif root[p] == root[q]:
            loops ^= {root[p]}
        else:
            pairs.append((root[p], root[q]))
    held = {r for pair in pairs for r in pair}

    free = d.outputs + d.inputs
    legs: dict[int, list[int]] = {}
    hmask: dict[int, int] = {}
    for i, b in enumerate(free):
        r = h_read.get(at[b], -1)
        c = root[at[b]] if r < 0 else r
        ls = legs.setdefault(c, [])
        hmask[c] = hmask.get(c, 0) | (r >= 0) << len(ls)
        ls.append(i)
    index: dict[int, int] = {}   # class -> its index
    shape, tensors, own = [], [], len(free)
    for r in list(legs) + [r for r in phase if r not in legs]:
        ls, mask = legs.get(r, []), hmask.get(r, 0)
        cp = (*phase.get(r, (0, 1)), r in loops)
        if mask + 1 == 1 << len(ls) and (r in held or not ls):   # no identity-read leg
            index[r], own = own, own + 1
            ls, mask = [index[r]] + ls, mask << 1
        elif r in held:
            index[r] = ls[(~mask & (mask + 1)).bit_length() - 1]
        if len(ls) > 1 or cp != (0, 1, False) or r not in held:
            shape.append(tuple(ls))
            tensors.append((len(ls), mask, cp))
    for p, q in pairs:
        shape.append(tuple(sorted((index[p], index[q]))))
        tensors.append(None)
    scale = 0.5 ** (half // 2) * (HALF_SQRT2 if half % 2 else 1.0)
    scale *= math.prod(0.0 if k % 2 else 2.0 for k in cycles)
    return tuple(tensors), scale, _plan(len(free), tuple(shape))


# read-only contracted matrices by (tensors, scale, steps, shape, model_n),
# least recently used first (see the module docstring)
_MATRICES: OrderedDict[tuple, np.ndarray] = OrderedDict()


def evaluate(d: Diagram, model_n: int = 1) -> np.ndarray:
    """Contract the diagram's network into its matrix, a fresh array. The
    network and plan are read once per diagram (``Diagram.memo``). On every
    call, ResourceLimit is raised before any factor is built or contracted
    if a factor or planned intermediate would exceed ``MAX_INTERMEDIATE``
    entries, or what is held at once ``MAX_BYTES`` bytes. Past those tests,
    a network already contracted in model n is copied from ``_MATRICES``
    (see the module docstring), which keeps a read-only copy of each new
    result of up to ``MAX_CACHED_ENTRIES`` entries. Class tensors of that
    size are shared read-only through ``_FACTORS``, keyed by their phase in
    model n."""
    if model_n < 1:
        raise ValueError("model_n must be >= 1")
    tensors, scale, (steps, peak, nbytes) = d.memo(_network)
    if 2 ** peak > MAX_INTERMEDIATE:
        raise ResourceLimit(f"intermediate tensor with 2^{peak} entries exceeds the cap")
    if nbytes > MAX_BYTES:
        raise ResourceLimit(f"{nbytes} bytes held at once exceed the byte budget")
    shape = (2 ** len(d.outputs), 2 ** len(d.inputs))
    memo_key = (tensors, scale, steps, shape, model_n)
    kept = _MATRICES.get(memo_key)
    if kept is not None:
        _MATRICES.move_to_end(memo_key)
        return kept.copy()
    work: list[np.ndarray | None] = []
    for f in tensors:
        if f is not None:
            axes, hmask, (num, den, h) = f
            if model_n > 1 or h:
                num, den = reduced(model_n * num + h * den, den)
            key = (axes, hmask, num, den)
            f = _FACTORS.get(key)
            if f is None:
                f = _factor(*key)
                if f.size <= MAX_CACHED_ENTRIES:   # else built for this call alone
                    _FACTORS[key] = f
        work.append(_H_PLUS if f is None else f)
    for pos, subscripts in steps:
        operands = [work[p] for p in pos]
        for p in pos:
            work[p] = None
        work.append(np.einsum(subscripts, *operands))
    out = (work[-1] if work else np.ones((), dtype=complex)).reshape(shape)
    out = out if steps and scale == 1.0 else out * scale   # a lone factor may be cached
    if out.size <= MAX_CACHED_ENTRIES:
        kept = _MATRICES[memo_key] = out.copy()
        kept.flags.writeable = False
        if len(_MATRICES) > MEMO_SIZE:
            _MATRICES.popitem(last=False)
    return out


@functools.lru_cache(maxsize=16)
def _plan(free: int, shape: tuple[tuple[int, ...], ...]
          ) -> tuple[tuple[tuple[tuple[int, ...], str], ...], int, int]:
    """The einsum steps that contract factors with index tuples ``shape``
    into one tensor over indices 0..free-1; the largest index count of a
    factor or an intermediate; the bytes held at once. A step (positions,
    subscripts) reads the factors, then each step's result. Other indices
    are eliminated greedily, fewest indices left first, then lowest, from a
    heap, each multiplying its holders; the rest are multiplied in order of
    their largest index, past ``MAX_OPERANDS`` folding the first two first.
    Immutable: the cache shares it."""
    legs, steps, alive = list(shape), [], set(range(len(shape)))
    holders: dict[int, set[int]] = {}
    for f, ls in enumerate(legs):
        for i in ls:
            holders.setdefault(i, set()).add(f)
    peak = max(map(len, legs), default=0)
    live = held = 2 * sum(1 << len(ls) for ls in legs)

    def emit(fs: list[int], out: tuple[int, ...]) -> int:
        nonlocal peak, live, held
        labels = sorted(set().union(*(legs[f] for f in fs)))
        if len(labels) > len(_LETTERS):
            raise ResourceLimit(f"intermediate tensor with 2^{len(labels) - 1} "
                                "or more entries exceeds the cap")
        letter = dict(zip(labels, _LETTERS))
        steps.append((tuple(fs), ",".join("".join(map(letter.get, legs[f])) for f in fs)
                      + "->" + "".join(map(letter.get, out))))
        peak = max(peak, len(out))
        held = max(held, live + (1 << len(out)))
        live += (1 << len(out)) - sum(1 << len(legs[f]) for f in fs)
        alive.difference_update(fs)
        alive.add(len(legs))
        legs.append(out)
        return len(legs) - 1

    def product(fs: list[int], out: tuple[int, ...]) -> int:
        while len(fs) > MAX_OPERANDS:
            fs = [emit(fs[:2], tuple(sorted({*legs[fs[0]], *legs[fs[1]]})))] + fs[2:]
        return emit(fs, out)

    def cost(i: int) -> int:
        return len(set().union(*(legs[f] for f in holders[i]))) - 1

    now = {i: cost(i) for i in holders if i >= free}
    heap = sorted((c, i) for i, c in now.items())   # a sorted list is a heap
    while heap:
        c, i = heapq.heappop(heap)
        if now.get(i) != c:
            continue
        del now[i]
        fs = sorted(holders.pop(i))
        out = tuple(sorted(set().union(*(legs[f] for f in fs)) - {i}))
        g = product(fs, out)
        for j in out:
            holders[j] = holders[j].difference(fs) | {g}
            if j >= free:   # held by g alone, it leaves g's other indices
                now[j] = len(out) - 1 if len(holders[j]) == 1 else cost(j)
                heapq.heappush(heap, (now[j], j))
    rest = sorted(alive, key=lambda f: (max(legs[f], default=-1), f))
    if len(rest) > 1 or (rest and legs[rest[0]] != tuple(range(free))):
        product(rest, tuple(range(free)))
    return tuple(steps), peak, 16 * max(held, live + (1 << free))


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def scalar_fit(a: np.ndarray, b: np.ndarray) -> tuple[complex, float]:
    """Least-squares lambda minimizing |a - lambda*b|, and the max residual."""
    _same_shape(a, b)
    denom = np.vdot(b, b)
    lam = complex(np.vdot(b, a) / denom) if abs(denom) > 0 else 0j
    residual = float(np.abs(a - lam * b).max()) if a.size else 0.0
    return lam, residual


def _peak(x: np.ndarray) -> tuple[int, float]:
    """The flat index and value of the largest |x| entry, the first among
    equals (or a NaN, as ``np.abs(x).max()`` finds)."""
    m = np.abs(x)
    i = int(m.argmax())
    return i, float(m.flat[i])


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a = lambda*b for some nonzero lambda, entrywise within TOL,
    lambda pivoted on b's largest entry (``_peak``). Two zero matrices, empty
    ones included, are equal; a zero and a nonzero matrix are not."""
    _same_shape(a, b)
    if not b.size:
        return True
    amax = _peak(a)[1]
    pivot, bmax = _peak(b)
    if amax <= TOL or bmax <= TOL:
        return amax <= TOL and bmax <= TOL
    return _proportional(a, b, pivot)


def _proportional(a: np.ndarray, b: np.ndarray, pivot: int) -> bool:
    """Is a within TOL of lambda*b, lambda = a/b at ``pivot``, b's largest
    entry, and |lambda| over TOL? Neither matrix may be zero."""
    lam = a.flat[pivot] / b.flat[pivot]
    if abs(lam) <= TOL:
        return False
    return _peak(a - lam * b)[1] <= TOL


def network_scale(d: Diagram) -> float:
    """The scalar held out of d's contraction (``_network``)."""
    return d.memo(_network)[1]


def matrices_equal(a: np.ndarray, a_scale: float, b: np.ndarray, b_scale: float) -> bool:
    """The one equality rule: are a and b, of scales a_scale and b_scale
    (``network_scale``), equal up to a nonzero scalar? ``equal_up_to_scalar``
    of each over its largest entry, or of zero where that is within TOL times
    its scale: over its scale a matrix sums unit-modulus products, so TOL
    tells a zero from float noise at any scale (K_12's entries are 2^-33).
    One ``_peak`` per matrix both decides zero and forms its ray, whose
    largest entry, modulus 1, is at the same index."""
    _same_shape(a, b)
    if not b.size:
        return True
    (_, a_top), (pivot, b_top) = _peak(a), _peak(b)
    a_zero, b_zero = a_top <= TOL * a_scale, b_top <= TOL * b_scale
    if a_zero or b_zero:
        return a_zero and b_zero
    return _proportional(a / a_top, b / b_top, pivot)


def diagrams_equal(f: Diagram, g: Diagram, model_n: int = 1) -> bool:
    """Are f and g equal up to a nonzero scalar in model n? Their networks
    are read first: equal factors and plan steps on the same boundary counts
    run the same contraction in every model, so if their scales are both
    nonzero or both zero the answer is True, with no factor built and no
    entry cap read (see the module docstring). Otherwise f, then g, is
    evaluated and compared by ``matrices_equal``."""
    if model_n < 1:
        raise ValueError("model_n must be >= 1")
    f_tensors, f_scale, (f_steps, _, _) = f.memo(_network)
    g_tensors, g_scale, (g_steps, _, _) = g.memo(_network)
    if (f_tensors == g_tensors and f_steps == g_steps and (f_scale == 0) == (g_scale == 0)
            and (len(f.outputs), len(f.inputs)) == (len(g.outputs), len(g.inputs))):
        return True
    return matrices_equal(evaluate(f, model_n), f_scale, evaluate(g, model_n), g_scale)
