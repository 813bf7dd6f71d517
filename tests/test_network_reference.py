"""The network read and the planner against their predecessors.

``reference_wires`` is the walk of ``Diagram.network`` as it stood before
the read became one pass: every end and every wire listed, to be merged
into classes by ``reference_network``, the network layout of that time.
``reference_plan`` is ``semantics._plan`` before its index and holder sets
became int bitmasks. All three are kept verbatim, bar their names and
reference_network's last line, which returns its index tuples where it
returned their plan, as ``Diagram.network`` now does.

The new read also walks through identity spiders (Z or X, phase 0, two legs,
no self-loop) as through H-boxes, adding nothing to a wire's parity; the old
read kept each as an end. Since H.H = I, such a spider is two H-boxes in
series, and ``identities_as_h_pairs`` rewrites it so, the H-box on each leg
in the spider's place in its node table and in that leg's neighbour map. On
every diagram of the corpora below, the new read of a diagram gives the
(tensors, scale, shape) the old read gives of it so rewritten, and the new
planner equal (steps, peak, bytes) or the same ResourceLimit, so matrices
and memo keys are those of the old code on the rewritten diagram.
"""

import heapq
import itertools
import math
import random
from pathlib import Path
from typing import Optional

from conftest import circuit, random_diagram, reference_cut
from zxr import rules, semantics, shipped
from zxr.diagram import BOUNDARY, HALF_SQRT2, HBOX, SPIDERS, Diagram, X, _across
from zxr.graphstate import all_graphs, complete_graph, fixpoint_lhs, graph_state, vdn_lhs
from zxr.phase import Phase, reduced
from zxr.semantics import _LETTERS, MAX_OPERANDS, ResourceLimit
from zxr.textio import parse

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def reference_wires(d: Diagram) -> tuple[list[tuple[str, Optional[Phase], int]], dict[str, int],
                            list[tuple[int, int, int]], list[int]]:
    """The diagram as wires between ends, read in one pass over the edge store.

    An end is a spider or a boundary; a wire runs from end p to end q
    through k >= 0 H-boxes. Returns every end in node-table order as
    (kind, phase or None, degree), each end's position in that list by
    name, every wire once as (p, q, k) by position, one per parallel
    copy, and the length of each closed cycle of H-boxes, which no wire
    reaches.
    """
    kind_of, phase_of, adj = d._kind, d._phase, d._adj
    at = {v: i for i, v in enumerate(v for v, k in kind_of.items() if k != HBOX)}
    ends, wires, cycles, seen = [], [], [], set()
    for p, i in at.items():
        nb = adj[p]
        ends.append((kind_of[p], phase_of.get(p), sum(nb.values()) + nb.get(p, 0)))
        for q, m in nb.items():
            j = at.get(q)
            if j is not None:
                if i <= j:
                    wires += [(i, j, 0)] * m
                continue
            for _ in range(m):
                if q in seen:
                    break
                prev, cur, k = p, q, 0
                while cur not in at:
                    seen.add(cur)
                    k += 1
                    prev, cur = cur, _across(adj[cur], prev)
                wires.append((i, at[cur], k))
    if len(seen) + len(at) < len(kind_of):
        for h in kind_of:
            if h not in at and h not in seen:
                prev, cur, k = None, h, 0
                while cur != h or not k:
                    seen.add(cur)
                    k += 1
                    prev, cur = cur, _across(adj[cur], prev)
                cycles.append(k)
    return ends, at, wires, cycles


def reference_network(d: Diagram) -> tuple:
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
    ends, at, wires, cycles = reference_wires(d)
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
    return tuple(tensors), scale, tuple(shape)


def reference_plan(free: int, shape: tuple[tuple[int, ...], ...]
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


def plan_or_limit(plan, free, shape):
    try:
        return plan(free, shape)
    except ResourceLimit as exc:
        return str(exc)


def identities_as_h_pairs(d: Diagram) -> Diagram:
    """d with each identity spider (Z or X, phase 0, two legs, no self-loop)
    replaced by two H-boxes in series, named after it: ``s.0`` on its first
    leg and ``s.1`` on its second, in its neighbour map's order. They take
    its place in the node table, and each takes its place in the neighbour
    map of the node on its leg. Of two identity spiders joined by both their
    legs, leg i meets leg i."""
    kind_of, phase_of, adj = d._kind, d._phase, d._adj
    legs = {}
    for v, k in kind_of.items():
        ends = [w for w, m in adj[v].items() for _ in range(m)]
        if k in SPIDERS and not phase_of[v].num and len(ends) == 2 and v not in ends:
            legs[v] = ends

    def facing(w: str, v: str) -> list[str]:
        """What v's legs to w meet: w, or w's H-boxes on them."""
        if w not in legs:
            return [w]
        return [f"{w}.{i}" for i, u in enumerate(legs[w]) if u == v]

    e = Diagram()
    e.inputs, e.outputs = d.inputs, d.outputs
    for v, k in kind_of.items():
        if v not in legs:
            e._kind[v] = k
            if v in phase_of:
                e._phase[v] = phase_of[v]
            e._adj[v] = {}
            for w, m in adj[v].items():
                for u in facing(w, v):
                    e._adj[v][u] = m if u == w else 1
            continue
        h = (f"{v}.0", f"{v}.1")
        assert not kind_of.keys() & set(h)
        a, b = (ends[i % len(ends)] for i, ends in enumerate(facing(w, v) for w in legs[v]))
        e._kind[h[0]] = e._kind[h[1]] = HBOX
        e._adj[h[0]], e._adj[h[1]] = {a: 1, h[1]: 1}, {h[0]: 1, b: 1}
    return e


def assert_same_as_reference(diagrams):
    """Each diagram's network equals the reference's of the diagram with its
    identity spiders as H-box pairs (``identities_as_h_pairs``), and so does
    the plan of its index tuples, each distinct one once; returns how many
    diagrams were compared."""
    count, planned = 0, set()
    for d in diagrams:
        tensors, scale, shape, _ = d.network()
        assert (tensors, scale, shape) == reference_network(identities_as_h_pairs(d)), d
        free = len(d.outputs) + len(d.inputs)
        if (free, shape) not in planned:
            planned.add((free, shape))
            assert (plan_or_limit(semantics._plan, free, shape)
                    == plan_or_limit(reference_plan, free, shape)), d
        count += 1
    return count


def replayed_diagrams():
    """Every whole diagram of the shipped replays, then both sides' cut of
    each step's patch."""
    for name in sorted(shipped.BUILDERS):
        current, script = shipped.load(PROOF_DIR, name)
        yield current
        for rule, anchor in script.steps:
            nxt = rules.apply(rule, current, anchor, euler_on=True)
            yield nxt
            patch = nxt.changed_since(current)
            if patch is not None:
                yield reference_cut(current, patch)
                yield reference_cut(nxt, patch)
            current = nxt


def _h_loop(k, colour):
    """A spider of the given colour whose self-loop runs through k H-boxes."""
    path = ["s"] + [f"h{i}" for i in range(k)] + ["s"]
    return parse(f"node s {colour} 1/3\n" + "".join(f"node h{i} h\n" for i in range(k))
                 + "".join(f"edge {a} {b}\n" for a, b in zip(path, path[1:])))


def hand_cases():
    # closed cycles of H-boxes, alone and beside a wire
    for k in (2, 3, 4):
        ring = "".join(f"node c{j} h\nedge c{j} c{(j + 1) % k}\n" for j in range(k))
        yield parse(ring)
        yield parse(ring + "in i\nout o\nedge i o\n")
    # a spider's self-loop through 1-4 H-boxes, Z and X
    for k in (1, 2, 3, 4):
        for colour in "zx":
            yield _h_loop(k, colour)
    # boundary to boundary through 0-2 H-boxes, beside a spider
    for k in (0, 1, 2):
        hs = [f"h{j}" for j in range(k)]
        path = ["i"] + hs + ["o"]
        yield parse("".join(f"node {h} h\n" for h in hs) + "node s x 1/2\nin i\nout o p\n"
                    + "".join(f"edge {a} {b}\n" for a, b in zip(path, path[1:]))
                    + "edge s p\n")
        yield parse("".join(f"node {h} h\n" for h in hs) + "in i\nout o\n"
                    + "".join(f"edge {a} {b}\n" for a, b in zip(path, path[1:])))
    # an X spider holding both legs of one H-box, with a boundary on it
    yield parse("node s x 1/4\nnode h h\nin i\nedge s h\nedge s h\nedge i s\n")
    # parallel H-edges and parallel plain edges between two spiders
    for a, b in itertools.product("zx", repeat=2):
        for m in (1, 2, 3):
            hs = [f"h{j}" for j in range(m)]
            yield parse(f"node a {a} 1/2\nnode b {b} 1/3\n" + "".join(
                f"node {h} h\nedge a {h}\nedge {h} b\n" for h in hs)
                + "out o\nedge a o\n" + "edge a b\n" * m)
    # 60 outputs: the plan is refused past einsum's labels, with one message
    outs = [f"{v}{i}" for v in "ab" for i in range(30)]
    yield parse("node a z 1/4\nnode b z 1/2\nnode h h\nedge a h\nedge h b\nout "
                + " ".join(outs) + "\n" + "".join(f"edge {o[0]} {o}\n" for o in outs))
    # spider self-loops, plain, beside phase-free spiders of degree 0 and 1
    for colour in "zx":
        yield parse(f"node s {colour} 1\nnode t {colour}\nnode u z\nedge s s\nedge s s\n"
                    "edge s t\nin i\nedge i s\n")
    # identity spiders: both legs on one spider, on one H-box, on each other
    yield parse("node s x 1/4\nnode m z\nin i\nedge s m\nedge s m\nedge i s\n")
    yield parse("node m x\nnode h h\nedge m h\nedge m h\n")
    yield parse("node a z\nnode b x\nedge a b\nedge a b\nin i\nout o\nedge i o\n")
    # boundary to boundary through identities and H-boxes, and a ring of them
    yield parse("node a z\nnode g h\nnode b x\nnode k h\nnode c z\nnode s z 1/2\nin i\n"
                "out o p\nedge i a\nedge a g\nedge g b\nedge b k\nedge k c\nedge c o\n"
                "edge s p\n")
    yield parse("node a z\nnode g h\nnode b x\nnode k h\nedge a g\nedge g b\nedge b k\n"
                "edge k a\n")


def test_hand_cases_match_the_reference():
    assert assert_same_as_reference(hand_cases()) == 41


def test_random_diagrams_match_the_reference():
    rng = random.Random(4242)
    assert assert_same_as_reference(random_diagram(rng) for _ in range(400)) == 400
    assert assert_same_as_reference(random_diagram(rng, max_spiders=14, max_boundaries=8)
                                    for _ in range(200)) == 200


def test_five_vertex_graph_states_match_the_reference():
    labels = tuple("abcde")

    def diagrams():
        for g in all_graphs(labels):
            yield graph_state(g)
            for u in labels:
                yield fixpoint_lhs(g, u)
                yield vdn_lhs(g, u)

    assert assert_same_as_reference(diagrams()) == 2 ** 10 * 11


def test_circuits_match_the_reference():
    rng = random.Random(7)
    assert assert_same_as_reference(
        circuit(rng, rng.randint(2, 5), rng.randint(40, 80)) for _ in range(40)) == 40


def test_shipped_replays_match_the_reference():
    assert assert_same_as_reference(replayed_diagrams()) > 400


def test_complete_graph_past_the_operand_limit_matches_the_reference():
    # K_12's 66 H factors make the last product fold past MAX_OPERANDS
    k12 = graph_state(complete_graph([f"v{i}" for i in range(12)]))
    assert len(k12.network()[0]) > MAX_OPERANDS
    assert assert_same_as_reference([k12]) == 1
