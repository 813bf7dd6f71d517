"""Dense-matrix interpretation of diagrams, with the phase-scaling model family.

A diagram with n inputs and m outputs evaluates to a 2^m x 2^n complex matrix.
Row indices encode the ordered outputs big-endian (first output wire is the
most significant bit); columns encode inputs the same way. Under model n > 1
every spider phase alpha is read as n*alpha; n = 1 is the standard
interpretation.

``evaluate`` contracts the diagram's hyperedge tensor network
(``Diagram.network``), one index per class of fused spiders. Every 1/sqrt2
is kept out of the contraction in the network's scale, and diagrams are
compared with zero decided against it (``matrices_equal``), so 1/sqrt2 per
H-box cannot take a nonzero diagram under TOL.

Because the network absorbs spider fusion, identity wires, identity spiders
(phase 0, two legs) and H colour changes, the rewrites that do only that
leave it as it was, and a sweep that evaluates a diagram before and after
each rewrite meets the same network again. So the contraction behind
``evaluate`` (``_contract``) keeps its last ``MEMO_SIZE`` results of at most
``MAX_CACHED_ENTRIES`` entries in an ``lru_cache`` (``_small_results``),
keyed on everything the contraction reads: the factors, the scale, the
plan's steps, the boundary counts and the model. Equal keys run the same
float operations, so a result from the memo is bit-identical to a
contraction. Class tensors of at most ``MAX_CACHED_ENTRIES`` entries share
another, of 1,024 entries (``_small_factors``). A result's or a tensor's
size is known before it is built, so the larger ones are built for their
call alone and never enter a memo; ``cache_info()`` counts each memo's hits.

Two equal networks (``_same``) decide a pair with no matrix at all: the
same factors on the same index tuples and boundary counts run the same
contraction in every model (the plan is made from those alone), so the two
matrices are one matrix M times each side's scale. If the scales are both
nonzero or both zero, the two are equal up to a nonzero scalar whatever M
is (two zero matrices count as equal), and the pair is decided from the
networks alone, even when M is over the entry cap or einsum has too few
labels to plan it. ``diagrams_equal`` asks it first, and so does
``compare``, which gives ``zxr check-equal`` the same verdict and a scalar
fit from one contraction of each side, so check-equal decides such a pair
over the cap. ``proofs.replay`` reads a step's patch in place from both
diagrams, as two networks, and asks the same of them (``networks_equal``);
two that differ are contracted as they are, with no sub-diagram built
(``_contract``). One zero scale (a closed cycle of an odd number of
H-boxes) beside a nonzero one is not decided so: that side is zero, the
other is zero only if M is. Every other pair is evaluated and compared by
``matrices_equal``, the one equality rule; ``equal_up_to_scalar`` is that
rule at unit scale, for the benchmark's checks on matrices with no scale.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math

import numpy as np

from .diagram import Diagram
from .phase import reduced

MAX_INTERMEDIATE = 2 ** 26
MAX_BYTES = 2 ** 32   # held at once: factors twice, intermediates, result twice
MAX_CACHED_ENTRIES = 2 ** 11   # the largest class tensor the benchmark workloads use
MEMO_SIZE = 64   # contracted matrices kept (``_small_results``)
MAX_OPERANDS = 32   # einsum's operand limit under numpy 1.x (numpy 2: 64)
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"   # einsum's labels

TOL = 1e-9  # entrywise, on a matrix over its scale; read by matrices_equal alone

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
_small_factors = functools.lru_cache(maxsize=1024)(_factor)


def evaluate(d: Diagram, model_n: int = 1) -> np.ndarray:
    """Contract the diagram's network, read once per diagram
    (``Diagram.memo``), into its matrix, a fresh array (``_contract``)."""
    return _contract(d.memo(Diagram.network), model_n)


def _contract(net: tuple, model_n: int) -> np.ndarray:
    """The matrix of a network (``Diagram.network``) in model n, a fresh array.
    ResourceLimit is raised before any factor is built or contracted if the
    plan (``_plan``) has a factor or intermediate over ``MAX_INTERMEDIATE``
    entries, holds over ``MAX_BYTES`` bytes at once, or needs more than
    einsum's labels in a step. Past those tests, a result of up to
    ``MAX_CACHED_ENTRIES`` entries is copied from ``_small_results`` (see
    the module docstring); a larger one is contracted for this call alone."""
    if model_n < 1:
        raise ValueError("model_n must be >= 1")
    tensors, scale, legs, (outs, ins) = net
    steps, peak, nbytes = _plan(outs + ins, legs)
    if 2 ** peak > MAX_INTERMEDIATE:
        raise ResourceLimit(f"intermediate tensor with 2^{peak} entries exceeds the cap")
    if nbytes > MAX_BYTES:
        raise ResourceLimit(f"{nbytes} bytes held at once exceed the byte budget")
    if 2 ** (outs + ins) > MAX_CACHED_ENTRIES:
        return _run(tensors, scale, steps, outs, ins, model_n)
    return _small_results(tensors, scale, steps, outs, ins, model_n).copy()


def _run(tensors: tuple, scale: float, steps: tuple, outs: int, ins: int,
         model_n: int) -> np.ndarray:
    """Build the class tensors in model n and run the plan's steps: a fresh
    2^outs x 2^ins array."""
    work: list[np.ndarray | None] = []
    for f in tensors:
        if f is not None:
            axes, hmask, (num, den, h) = f
            if model_n > 1 or h:
                num, den = reduced(model_n * num + h * den, den)
            small = 2 ** axes <= MAX_CACHED_ENTRIES   # else built for this call alone
            f = (_small_factors if small else _factor)(axes, hmask, num, den)
        work.append(_H_PLUS if f is None else f)
    for pos, subscripts in steps:
        operands = [work[p] for p in pos]
        for p in pos:
            work[p] = None
        work.append(np.einsum(subscripts, *operands))
    out = (work[-1] if work else np.ones((), dtype=complex)).reshape(2 ** outs, 2 ** ins)
    return out if steps and scale == 1.0 else out * scale   # a lone factor may be cached


@functools.lru_cache(maxsize=MEMO_SIZE)
def _small_results(*key) -> np.ndarray:
    """``_run``'s result, read-only: ``_contract`` hands out copies."""
    out = _run(*key)
    out.flags.writeable = False
    return out


def _bits(m: int) -> list[int]:
    """The set bits of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
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
    A factor's index set and an index's holder set are int bitmasks.
    Raises ResourceLimit if a step needs more than einsum's 52 labels.
    Immutable: the cache shares it."""
    legs, steps = list(shape), []
    masks, holders, live = [], {}, 0
    for f, ls in enumerate(legs):
        m = 0
        for i in ls:
            m |= 1 << i
            holders[i] = holders.get(i, 0) | 1 << f
        masks.append(m)
        live += 2 << len(ls)
    alive, held = (1 << len(legs)) - 1, live
    peak = max(map(len, legs), default=0)

    def emit(fs: list[int], drop: int = 0) -> int:
        """Multiply factors fs into one over their indices less ``drop``."""
        nonlocal peak, live, held, alive
        while len(fs) > MAX_OPERANDS:
            fs = [emit(fs[:2])] + fs[2:]
        union = gone = 0
        for f in fs:
            union |= masks[f]
            gone += 1 << len(legs[f])
            alive &= ~(1 << f)
        labels = _bits(union)
        if len(labels) > len(_LETTERS):
            raise ResourceLimit(f"intermediate tensor with 2^{len(labels) - 1} "
                                "or more entries exceeds the cap")
        letter = dict(zip(labels, _LETTERS))
        if drop:
            labels.remove(drop.bit_length() - 1)
        out = tuple(labels)
        steps.append((tuple(fs), ",".join(["".join(map(letter.get, legs[f])) for f in fs])
                      + "->" + "".join(map(letter.get, out))))
        size = 1 << len(out)
        if len(out) > peak:
            peak = len(out)
        if live + size > held:
            held = live + size
        live += size - gone
        alive |= 1 << len(legs)
        legs.append(out)
        masks.append(union & ~drop)
        return len(legs) - 1

    def cost(i: int) -> int:
        union = 0
        for f in _bits(holders[i]):
            union |= masks[f]
        return union.bit_count() - 1

    now = {}
    for i in holders:
        if i >= free:
            now[i] = cost(i)
    heap = sorted(zip(now.values(), now))   # (cost, index); a sorted list is a heap
    while heap:
        c, i = heapq.heappop(heap)
        if now.get(i) != c:
            continue
        del now[i]
        fs_mask = holders.pop(i)
        g = emit(_bits(fs_mask), 1 << i)
        out = legs[g]
        for j in out:
            hj = holders[j] = holders[j] & ~fs_mask | 1 << g
            if j >= free:   # held by g alone, it leaves g's other indices
                now[j] = len(out) - 1 if hj & (hj - 1) == 0 else cost(j)
                heapq.heappush(heap, (now[j], j))
    rest = sorted(_bits(alive), key=lambda f: (masks[f].bit_length() - 1, f))
    if len(rest) > 1 or (rest and legs[rest[0]] != tuple(range(free))):
        emit(rest)
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
    """``matrices_equal`` at unit scale, the rule for two arrays that carry
    no scale: its zero test is absolute, its nonzero test compares rays.
    Arrays of one dtype and the same bytes, largest entry finite, are equal
    at once. Compare diagrams with ``diagrams_equal``, which decides zero
    against each network's scale."""
    _same_shape(a, b)
    if (b.size and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            and math.isfinite(_peak(a)[1])):
        return True
    return matrices_equal(a, 1.0, b, 1.0)


def network_scale(d: Diagram) -> float:
    """The scalar held out of d's contraction (``Diagram.network``)."""
    return d.memo(Diagram.network)[1]


def matrices_equal(a: np.ndarray, a_scale: float, b: np.ndarray, b_scale: float) -> bool:
    """The one equality rule: are a and b, of scales a_scale and b_scale
    (``network_scale``), equal up to a nonzero scalar? Each is zero where its
    largest entry is within TOL times its scale: over its scale a matrix
    sums unit-modulus products, so TOL tells a zero from float noise at any
    scale (K_12's entries are 2^-33). Two zero matrices, empty ones
    included, are equal; a zero and a nonzero one are not. Two nonzero ones
    are equal where their rays, each over its largest entry, are within TOL
    entrywise of lambda times the other, lambda their ratio at b's largest
    entry (``_peak``). A ray's largest entry has modulus 1, so a lambda
    within TOL of 0 leaves a residual near 1."""
    _same_shape(a, b)
    if not b.size:
        return True
    (_, a_top), (pivot, b_top) = _peak(a), _peak(b)
    a_zero, b_zero = a_top <= TOL * a_scale, b_top <= TOL * b_scale
    if a_zero or b_zero:
        return a_zero and b_zero
    a, b = a / a_top, b / b_top
    return _peak(a - a.flat[pivot] / b.flat[pivot] * b)[1] <= TOL


def _same(f_net: tuple, g_net: tuple) -> bool:
    """Do two networks (``Diagram.network``) have equal factors on equal
    index tuples and boundary counts, and scales both nonzero or both zero?"""
    f_tensors, f_scale, f_shape, f_arity = f_net
    g_tensors, g_scale, g_shape, g_arity = g_net
    return (f_tensors == g_tensors and f_shape == g_shape
            and (f_scale == 0) == (g_scale == 0) and f_arity == g_arity)


def networks_equal(f_net: tuple, g_net: tuple, model_n: int) -> bool:
    """Are two networks (``Diagram.network``) equal up to a nonzero scalar
    in model n? True at once when they are the same (``_same``); otherwise
    each is contracted (``_contract``) and compared by ``matrices_equal``."""
    if model_n < 1:
        raise ValueError("model_n must be >= 1")
    return _same(f_net, g_net) or matrices_equal(
        _contract(f_net, model_n), f_net[1], _contract(g_net, model_n), g_net[1])


def diagrams_equal(f: Diagram, g: Diagram, model_n: int = 1) -> bool:
    """Are f and g equal up to a nonzero scalar in model n? Their networks,
    each read once per diagram (``Diagram.memo``), decide: the same ones at
    once, others contracted, f's first (``networks_equal``)."""
    return networks_equal(f.memo(Diagram.network), g.memo(Diagram.network), model_n)


def compare(f: Diagram, g: Diagram, model_n: int = 1) -> tuple[bool, complex, float]:
    """``diagrams_equal``'s verdict on f and g in model n, with lambda and
    the max residual of f's matrix against g's (``scalar_fit``), each side
    contracted once. Over the entry cap only equal networks (``_same``) are
    decided, with no matrix: one matrix times each side's scale, so lambda
    is the ratio of the scales and the residual 0. Any other pair over the
    cap raises ResourceLimit, as ``diagrams_equal`` does."""
    f_net, g_net = f.memo(Diagram.network), g.memo(Diagram.network)
    same = _same(f_net, g_net)
    try:
        a, b = evaluate(f, model_n), evaluate(g, model_n)
    except ResourceLimit:
        if not same:
            raise
        return True, complex(f_net[1] / g_net[1]) if g_net[1] else 0j, 0.0
    return same or matrices_equal(a, f_net[1], b, g_net[1]), *scalar_fit(a, b)
