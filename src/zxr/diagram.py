"""Open multigraphs of Z/X spiders, H-boxes and ordered boundaries.

Diagrams are value-like: every operation returns a new diagram and callers
never mutate a diagram they did not just create. Node ids are opaque strings
and are never reused within one diagram's lifetime, so rewrite anchors stay
stable across unrelated edits. A diagram keeps one edit log, the names
written since its copy or first check (``Diagram.touched``), from which a
rewrite step is validated and its patch and new nodes are read.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import groupby
from operator import itemgetter
from typing import Callable, ItemsView, Iterable, KeysView, Optional, Sequence, TypeVar

from .phase import HALF_PI, MINUS_HALF_PI, Phase, PhaseLike, ZERO, reduced

Z = "z"
X = "x"
HBOX = "h"
BOUNDARY = "b"

SPIDERS = (Z, X)

HALF_SQRT2 = 1.0 / math.sqrt(2.0)


T = TypeVar("T")


class DiagramError(ValueError):
    """A structural invariant of a diagram was violated."""


def other_colour(colour: str) -> str:
    if colour == Z:
        return X
    if colour == X:
        return Z
    raise DiagramError(f"not a spider colour: {colour!r}")


def is_token(name: str) -> bool:
    """Can the text formats (.zxd, .edges) write name as one token: is it
    nonempty, without whitespace or '#'?"""
    return "#" not in name and name.split() == [name]


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _across(nb: dict[str, int], prev: Optional[str]) -> str:
    """The neighbour a two-legged node's wire (an H-box's or an identity
    spider's) leaves by, having come in from prev."""
    if len(nb) == 1:   # both legs on one node
        for w in nb:
            return w
    a, b = nb
    return b if a == prev else a


class Diagram:
    """A finite undirected open multigraph over spiders, H-boxes and boundaries.

    The only edge store is the symmetric incidence map ``_adj``: node ->
    {neighbour: multiplicity > 0}. A self-loop on v is stored once, as
    ``_adj[v][v]``, and counts twice towards ``degree(v)``. Adjacency queries
    cost O(deg), ``remove_node`` and ``edge_count`` (a running total) O(1),
    and ``check`` O(V+E).

    Every mutator touches the nodes it writes (``_touch``): ``add_node``,
    ``remove_node``, ``set_phase`` and ``set_kind`` the node, ``add_edge``
    and ``remove_edge`` both ends (``splice`` and ``substitute`` go through
    them). Once a diagram has a log (``_log``, from its first ``copy`` or
    ``check``; a copy's starts empty), a name's first touch logs it, removed
    names included, and gives the diagram its own copy of the name's
    neighbour map. The log is the one record of edits, so a step costs what
    it touched: a copy shares the neighbour maps its source has not logged
    (``copy`` costs O(V) dict copies at C speed and a copy of the removed
    ids, and neither side sees the other's edits); ``checked`` validates
    the logged names; and ``changed_since`` reads replay's patch from it,
    ``rules.normalize`` its site sets, and ``created_since`` the nodes
    made, in creation order.

    Every invariant of ``check`` is local to one node or one edge, and the
    mutators keep the edge store symmetric, so a diagram valid at some point
    since its log started, and changed since only through these methods, is
    valid exactly when its logged nodes are. ``check`` makes such a point,
    and so does the ``copy`` of a diagram without unchecked edits; any other
    copy is walked whole by its first ``checked``. A write to a private
    field is not logged: ``check`` sees it, nothing that reads the log does,
    and a write into a shared map reaches every diagram that shares it.

    ``memo(read)`` keeps ``read(self)`` until the next touch, within the
    same limit; ``_memo`` None (no kept reads) marks edits ``checked`` has
    not seen. ``copy`` hands the kept reads to the copy.
    """

    def __init__(self) -> None:
        self._kind: dict[str, str] = {}
        self._phase: dict[str, Phase] = {}
        self._adj: dict[str, dict[str, int]] = {}
        # names written since the copy or first check, in first-touch order
        self._log: Optional[dict[str, None]] = None
        self._n_edges = 0
        self.inputs: tuple[str, ...] = ()
        self.outputs: tuple[str, ...] = ()
        self._fresh = 0
        self._removed: set[str] = set()   # removed ids; see ``_taken``
        self._bounds: Optional[tuple] = None   # (inputs, outputs) at the last full check
        self._memo: Optional[dict] = None   # reads kept by ``memo``; None: edits unchecked

    # -- construction ------------------------------------------------------

    def copy(self) -> "Diagram":
        """The same diagram with an empty log (see the class docstring). It
        keeps self's reads and validation unless self has edits ``checked``
        has not seen; then its first ``checked`` walks everything."""
        d = Diagram()
        d._kind = dict(self._kind)
        d._phase = dict(self._phase)
        adj = d._adj = dict(self._adj)   # neighbour maps shared until written
        log = self._log = {} if self._log is None else self._log
        adj.update((v, dict(adj[v])) for v in log if v in adj)   # written in place by self
        d._log = {}
        d._n_edges = self._n_edges
        d.inputs = self.inputs
        d.outputs = self.outputs
        d._fresh = self._fresh
        d._removed = set(self._removed)
        if self._memo is not None:   # valid until the copy changes too
            d._bounds, d._memo = self._bounds, dict(self._memo)
        return d

    def _taken(self, name: str) -> bool:
        """Whether the id is live or was removed: ids are never reused."""
        return name in self._kind or name in self._removed

    def fresh_id(self) -> str:
        while True:
            name = f"n{self._fresh}"
            self._fresh += 1
            if not self._taken(name):
                return name

    def add_node(self, kind: str, phase: Optional[PhaseLike] = None,
                 name: Optional[str] = None) -> str:
        if name is None:
            name = self.fresh_id()
        elif not is_token(name):   # .zxd could not write it
            raise DiagramError(f"node id {name!r} is empty or holds whitespace or '#'")
        if self._taken(name):
            raise DiagramError(f"node id {name!r} is or was in use")
        if kind in SPIDERS:
            self._phase[name] = Phase.coerce(phase) if phase is not None else ZERO
        elif phase is not None:
            raise DiagramError(f"{kind} node cannot carry a phase")
        self._kind[name] = kind
        self._touch(name)   # before its map exists: a new map is not copied
        self._adj[name] = {}
        return name

    def _touch(self, *names: str) -> None:
        """Drop the kept reads; log each name's first write and copy its
        neighbour map (see the class docstring)."""
        self._memo = None
        log, adj = self._log, self._adj
        if log is not None:
            for v in names:
                if v not in log:
                    log[v] = None
                    if v in adj:
                        adj[v] = dict(adj[v])

    def add_edge(self, u: str, v: str, times: int = 1) -> None:
        if times <= 0:
            return
        if u not in self._kind or v not in self._kind:
            raise DiagramError(f"edge endpoint missing: {u!r}-{v!r}")
        log = self._log
        if log is not None and (u not in log or v not in log):
            self._touch(u, v)   # a logged name's map is self's own already
        self._memo = None
        self._adj[u][v] = self._adj[v][u] = self._adj[u].get(v, 0) + times
        self._n_edges += times

    def remove_edge(self, u: str, v: str, times: int = 1) -> None:
        if times <= 0:
            return
        m = self._adj.get(u, {}).get(v, 0) - times
        if m < 0:
            raise DiagramError(f"no such edge {_edge_key(u, v)}")
        log = self._log
        if log is not None and (u not in log or v not in log):
            self._touch(u, v)   # a logged name's map is self's own already
        self._memo = None
        self._n_edges -= times
        self._adj[u][v] = self._adj[v][u] = m
        if not m:
            del self._adj[u][v]
            self._adj[v].pop(u, None)   # already gone if u == v

    def remove_node(self, name: str) -> None:
        if self._adj[name]:
            raise DiagramError(f"cannot remove wired node {name!r}")
        del self._adj[name]
        del self._kind[name]
        self._phase.pop(name, None)
        self._removed.add(name)
        self._touch(name)

    def splice(self, u: str, v: str, kind: str,
               phase: Optional[PhaseLike] = None) -> str:
        """Put a new node on one u-v wire; returns its id."""
        self.remove_edge(u, v)
        w = self.add_node(kind, phase)
        self.add_edge(u, w)
        self.add_edge(w, v)
        return w

    def set_phase(self, name: str, phase: PhaseLike) -> None:
        if self._kind.get(name) not in SPIDERS:
            raise DiagramError(f"{name!r} is not a spider")
        self._phase[name] = Phase.coerce(phase)
        self._touch(name)

    def set_kind(self, name: str, colour: str) -> None:
        """Recolour a spider; its phase and wires stay."""
        if self._kind.get(name) not in SPIDERS or colour not in SPIDERS:
            raise DiagramError(f"cannot make {name!r} a {colour!r} spider")
        self._kind[name] = colour
        self._touch(name)

    # -- views -------------------------------------------------------------

    def kind(self, name: str) -> str:
        return self._kind[name]

    def phase(self, name: str) -> Phase:
        return self._phase[name]

    def nodes(self) -> list[str]:
        return sorted(self._kind)

    def has_node(self, name: str) -> bool:
        return name in self._kind

    def spiders(self) -> list[str]:
        return [v for v in self.nodes() if self._kind[v] in SPIDERS]

    def kinds(self) -> ItemsView[str, str]:
        """Each node once with its kind, in creation order (unsorted)."""
        return self._kind.items()

    def edges(self) -> list[tuple[str, str, int]]:
        """Distinct edges (u <= v) with multiplicities, in sorted order."""
        return sorted((u, v, m) for u, nb in self._adj.items()
                      for v, m in nb.items() if u <= v)

    def network(self, nodes: Optional[Iterable[str]] = None) -> tuple:
        """The diagram as a hyperedge tensor network (Gray & Kourtis, Quantum
        5, 410, 2021): (tensors, scale, shape, (outputs, inputs) count), the
        same in every model, read in one pass over the edge store, building
        no array and planning nothing.

        An end is a boundary or a spider, bar identity spiders (Z or X,
        phase 0, two legs, no self-loop), each the plain wire in every
        model. A wire runs from end p to end q through k >= 0 H-boxes and
        any identity spiders, which the walk passes as it passes an H-box
        but which add nothing to k. A Z spider's index is in the Z basis and
        an X spider's in the X basis, so the wire is H^(e_p + k + e_q mod
        2), with e = 1 at an X end and 0 at a Z spider or a boundary: a
        plain wire (the identity) or an H wire. Ends joined by plain wires
        are one class (spider fusion, which is exact), merged as the walk
        meets the wire. So a rewrite that only adds or removes an identity
        spider leaves the network as it was, but for the order of its H
        factors, which follows the adjacency order.

        Factor i is sqrt2*H (tensors[i] None) or a class tensor (axes,
        hmask, (num, den, h)) over the indices shape[i]; indices 0..free-1
        are the boundaries, outputs then inputs. A class tensor holds its
        spiders' phase sum num/den (``reduced``), read n times over in model
        n, plus pi if h: an odd number of H wires within the class. A
        boundary on an H wire is an H-read leg of the class at its other
        end; other H wires are H factors between classes. A class's index is
        its first identity-read leg, or, if H factors hold it or it has no
        legs, its own on the tensor's first axis, or it is summed in the
        tensor; a tensor [1, 1] on an index H factors hold is left out.
        ``scale``, every 1/sqrt2 kept out of the contraction, is 1/sqrt2 per
        H wire, (1/sqrt2)^max(0, 2 - degree) per spider, and tr(H^k) per
        closed cycle of k H-boxes and any identity spiders, which no wire
        reaches.

        Given ``nodes``, it first checks self (``checked``), then reads the
        sub-diagram on them (``_view``) in place, by the same walk.
        """
        if nodes is None:
            kind_of, adj, outs, ins = self._kind, self._adj, self.outputs, self.inputs
        else:
            kind_of, adj, (outs, ins) = self.checked()._view(nodes)
        phase_of = self._phase
        at: dict = {}
        for v, k in kind_of.items():
            if k == HBOX:
                continue
            if k != BOUNDARY and not phase_of[v].num:   # an identity spider?
                nb = adj[v]
                if len(nb) < 3 and sum(nb.values()) == 2 and v not in nb:
                    continue
            at[v] = len(at)
        cls = list(range(len(at)))
        h_wires, seen, short, trace = [], set(), 0, 1.0
        for p, i in at.items():
            nb = adj[p]
            xp = kind_of[p] == X
            if len(nb) < 2 and p in phase_of:   # else two legs at least
                short += max(0, 2 - sum(nb.values()) - nb.get(p, 0))
            for q, m in nb.items():
                j = at.get(q)
                if j is None:   # an H-box: walk its chain, once
                    if q in seen:
                        continue
                    prev, cur, k, m = p, q, 0, 1
                    while j is None:
                        seen.add(cur)
                        k += kind_of[cur] == HBOX
                        prev, cur = cur, _across(adj[cur], prev)
                        j = at.get(cur)
                    k += xp + (kind_of[cur] == X)
                elif i < j:
                    k = xp + (kind_of[q] == X)
                else:   # taken from the other end, or a plain self-loop
                    continue
                if k & 1:
                    h_wires += [(i, j)] * m
                    continue
                a = i
                while cls[a] != a:
                    cls[a] = a = cls[cls[a]]
                while cls[j] != j:
                    cls[j] = j = cls[cls[j]]
                cls[j] = a
        phases: dict[int, tuple[int, int]] = {}
        for v, i in at.items():
            r = i
            while cls[r] != r:
                r = cls[r]
            cls[i] = r
            ph = phase_of.get(v)
            if ph is None:
                continue
            if r not in phases:
                phases[r] = (ph.num, ph.den)
            elif ph.num:
                num, den = phases[r]
                phases[r] = reduced(num * ph.den + ph.num * den, den * ph.den)
        if len(seen) + len(at) < len(kind_of):
            for h in kind_of:
                if h not in at and h not in seen:
                    prev, cur, k = None, h, 0
                    while cur != h or prev is None:
                        seen.add(cur)
                        k += kind_of[cur] == HBOX
                        prev, cur = cur, _across(adj[cur], prev)
                    trace *= 0.0 if k % 2 else 2.0   # tr(H^k)
        # the classes laid out as factors
        free = outs + ins
        bound = set(map(at.__getitem__, free))
        h_read: dict[int, int] = {}   # boundary -> class reading it
        pairs, loops, held = [], set(), set()
        for p, q in h_wires:
            if p in bound:
                h_read[p] = cls[q]
            elif q in bound:
                h_read[q] = cls[p]
            elif cls[p] == cls[q]:
                loops ^= {cls[p]}
            else:
                pairs.append((cls[p], cls[q]))
                held.update(pairs[-1])
        legs: dict[int, list[int]] = {}
        hmask: dict[int, int] = {}
        for i, b in enumerate(free):
            r = h_read.get(at[b], -1)
            c = cls[at[b]] if r < 0 else r
            ls = legs.setdefault(c, [])
            hmask[c] = hmask.get(c, 0) | (r >= 0) << len(ls)
            ls.append(i)
        index: dict[int, int] = {}   # class -> its index
        shape, tensors, own = [], [], len(free)
        for r in legs | phases:   # legs' classes, then the other spiders' in order
            ls, mask = legs.get(r, []), hmask.get(r, 0)
            cp = (*phases.get(r, (0, 1)), r in loops)
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
        half = len(h_wires) + short   # the power of 1/sqrt2 in the scalar
        scale = 0.5 ** (half // 2) * (HALF_SQRT2 if half % 2 else 1.0) * trace
        return tuple(tensors), scale, tuple(shape), (len(outs), len(ins))

    def _view(self, nodes: Iterable[str]) -> tuple[dict, dict, tuple[tuple, tuple]]:
        """The sub-diagram on ``nodes`` as plain dicts: its node table, edge
        store and (outputs, inputs). Its nodes are those of ``nodes`` that
        self has, sorted, then one boundary wire per parallel copy of each
        edge leaving them, named 0, 1, ... in order of (outside end, inside
        end; every generator is symmetric in its legs, so their order at one
        outside node does not matter). Each node's neighbours are in the
        order a pass over the sorted nodes, each over its edges in self's
        order, first meets them, its boundary wires last. Only the set's own
        edges are read, and self's inputs and outputs only when the set
        holds a boundary node."""
        kind_of, adj = self._kind, self._adj
        inside = sorted(v for v in set(nodes) if v in kind_of)
        kinds = {v: kind_of[v] for v in inside}
        view: dict = {v: {} for v in inside}
        ins = outs = ()
        if BOUNDARY in kinds.values():
            ins = tuple(b for b in self.inputs if b in view)
            outs = tuple(b for b in self.outputs if b in view)
        leaving = []
        for v in inside:
            nb = view[v]
            for w, m in adj[v].items():
                if w not in kinds:
                    leaving += [(w, v)] * m
                elif v <= w:
                    nb[w] = view[w][v] = m
        for c, (_, v) in enumerate(sorted(leaving)):
            kinds[c] = BOUNDARY
            view[c] = {v: 1}
            view[v][c] = 1
        return kinds, view, (tuple(range(len(leaving))) + outs, ins)

    def created_since(self, earlier: "Diagram") -> list[str]:
        """The nodes made since self was copied from ``earlier`` (as for
        ``changed_since``), in creation order: the log's new names, as a
        node's first touch is its ``add_node``. O(touched); none without a log."""
        kind_of, was = self._kind, earlier._kind
        return [v for v in self._log or () if v in kind_of and v not in was]

    def changed_since(self, earlier: "Diagram") -> Optional[list[str]]:
        """The patch of an edit from ``earlier`` to self, sorted, or None.

        It holds every node created or removed, or whose kind, phase or
        degree changed, plus a greedy cover of the edges whose multiplicity
        changed: the node covering the most uncovered ones first, ties to
        the lower degree, then the name. Every node and edge outside the
        patch is the same on both sides, so each side is one context
        composed with its own sub-diagram on the patch (``network(patch)``).

        It reads only the names in ``touched``, so it costs O(touched): self
        must be ``earlier``'s copy, edited since through the mutators, as
        ``rules.apply`` returns it. It is None without a log, and when the
        inputs or outputs differ, which no patch covers. It has
        ``checked``'s one limit, a write to a private field.
        """
        touched = self.touched()
        if touched is None or (self.inputs, self.outputs) != (earlier.inputs,
                                                              earlier.outputs):
            return None
        patch, rewired = set(), []
        for v in touched:
            if (self._kind.get(v), self._phase.get(v)) != (earlier._kind.get(v),
                                                           earlier._phase.get(v)):
                patch.add(v)
            elif self._adj.get(v) != earlier._adj.get(v):
                if self.degree(v) != earlier.degree(v):
                    patch.add(v)
                else:
                    rewired.append(v)
        uncovered = set()
        for u in rewired:
            now, was = self._adj[u], earlier._adj[u]
            uncovered.update(_edge_key(u, w) for w in now.keys() | was.keys()
                             if w not in patch and now.get(w) != was.get(w))
        while uncovered:
            hits = Counter(v for e in uncovered for v in set(e))
            best = min(hits, key=lambda v: (-hits[v], self.degree(v), v))
            patch.add(best)
            uncovered = {e for e in uncovered if best not in e}
        return sorted(patch)

    def substitute(self, nodes: Iterable[str], rhs: "Diagram", ports: Sequence[str],
                   keep: Optional[dict[str, str]] = None) -> "Diagram":
        """Swap the nodes for a copy of the open diagram rhs; returns self.
        A node's outside wires are its edges leaving the set, in neighbour
        order, one per parallel copy. rhs's i-th boundary (inputs, then
        outputs) takes the next outside wire of ports[i]; a bare wire of rhs
        joins its two outside ends. rhs's other nodes get fresh ids in rhs's
        creation order, bar those ``keep`` maps by name to nodes of self
        outside the set: these stay, each taking rhs's kind but keeping its
        phase, and rhs's edges among them are taken to be there. A kept
        node's edges to the set go with it; each kept node ports names gives
        up its other edges as outside wires, bar self-loops and rhs's edges
        among kept nodes. Raises DiagramError unless keep maps rhs nodes to
        distinct nodes outside the set, no two kept ports would take one
        edge, and ports takes every outside wire of the set and of the kept
        ports exactly once. rhs is read once (``_gluing``, kept by ``memo``)
        and never written."""
        inside = set(nodes)
        bound, made_from, inner, partners = rhs.memo(_gluing)
        held: dict[int, str] = {}
        moved: list[str] = []
        skip = inside
        if keep:
            held = {i: keep[v] for i, (v, _, _) in enumerate(made_from) if v in keep}
            stay = set(held.values())
            moved = sorted(stay.intersection(ports))
            if (len(stay) != len(keep)
                    or not all(self.has_node(v) and v not in inside for v in stay)):
                raise DiagramError(f"keep {keep} is not rhs nodes onto distinct nodes "
                                   "outside the set")
            skip = inside | stay
            shared = Counter({(held[i], held[j]): m for i, j, m in inner
                              if i in held and j in held})
            inner = tuple(e for e in inner if not {e[0], e[1]} <= held.keys())
        ends = {v: [w for w, m in sorted(self._adj[v].items()) if w not in skip
                    for _ in range(m)] for v in inside if v in self._kind}
        for v in moved:
            ends[v] = [w for w, m in sorted(self._adj[v].items()) if w not in inside
                       and w != v for _ in range(m - shared[v, w] - shared[w, v])]
            if not set(moved).isdisjoint(ends[v]):
                raise DiagramError(f"keep {keep} gives one edge to two kept ports")
        if (len(ends) != len(inside) + len(moved) or len(ports) != len(bound)
                or sorted(ports) != [v for v in sorted(ends) for _ in ends[v]]):
            raise DiagramError(f"ports {tuple(ports)} miss or repeat an outside wire")
        wires = {v: iter(e) for v, e in ends.items()}
        outer = {b: next(wires[v]) for b, v in zip(bound, ports)}
        for v in sorted(inside):
            for w, m in list(self._adj[v].items()):
                self.remove_edge(v, w, m)
            self.remove_node(v)
        for v in moved:
            for w in ends[v]:
                self.remove_edge(v, w)
        made = [held[i] if i in held else self.add_node(k, phase)
                for i, (_, k, phase) in enumerate(made_from)]
        for i, v in held.items():
            if made_from[i][1] != self._kind[v]:
                self.set_kind(v, made_from[i][1])
        for i, j, m in inner:
            self.add_edge(made[i], made[j], m)
        for b, w in zip(bound, partners):
            if isinstance(w, int):
                self.add_edge(made[w], outer[b])
            elif b < w:   # a bare wire, joined once
                self.add_edge(outer[b], outer[w])
        return self

    def multiplicity(self, u: str, v: str) -> int:
        return self._adj.get(u, {}).get(v, 0)

    def degree(self, name: str) -> int:
        nb = self._adj.get(name, {})
        return sum(nb.values()) + nb.get(name, 0)

    def neighbours(self, name: str) -> list[str]:
        """Distinct neighbouring nodes (self excluded), sorted."""
        nb = self._adj.get(name, {})
        out = sorted(nb)
        if name in nb:
            out.remove(name)
        return out

    def around(self, name: str) -> ItemsView[str, int]:
        """(neighbour, multiplicity) for each distinct neighbour, a self-loop
        included as (name, loops), in edge-store order (unsorted)."""
        return self._adj.get(name, {}).items()

    def self_loops(self, name: str) -> int:
        return self._adj.get(name, {}).get(name, 0)

    def boundary(self) -> tuple[str, ...]:
        return self.inputs + self.outputs

    def boundary_partner(self, b: str) -> str:
        """The unique node a boundary is wired to (may be another boundary)."""
        for w in self._adj.get(b, ()):
            return w
        raise DiagramError(f"boundary {b!r} has no wire")

    def node_count(self) -> int:
        return len(self._kind)

    def edge_count(self) -> int:
        return self._n_edges

    # -- invariants ----------------------------------------------------------

    def check(self) -> "Diagram":
        """Validate every structural invariant; returns self for chaining.

        Always a full O(V+E) walk, so it also sees writes to private fields.
        On success it starts the log of a diagram without one, and keeps an
        existing log.
        """
        bset = set(self.inputs) | set(self.outputs)
        if len(self.inputs) + len(self.outputs) != len(bset):
            raise DiagramError("inputs/outputs overlap or repeat")
        if self._adj.keys() != self._kind.keys():
            raise DiagramError("edge store and node table list different nodes")
        self._check_at(self._kind.items(), bset, self.inputs + self.outputs)
        if self._log is None:
            self._log = {}
        self._bounds, self._memo = (self.inputs, self.outputs), {}
        return self

    def checked(self) -> "Diagram":
        """Validate the logged nodes if anything was written since the last
        check; returns self. Walks everything, through ``check``, when the
        diagram never passed one, is the copy of a diagram with unchecked
        edits, or had its inputs/outputs reassigned since. A fault is
        reported at the first-logged node. The class docstring says why this
        equals a full walk, and its one limit."""
        if self._bounds != (self.inputs, self.outputs):   # None: not checked yet
            return self.check()
        if self._memo is None:
            kind_of, adj, log = self._kind, self._adj, self._log
            for v in log:
                if (v in kind_of) != (v in adj):
                    raise DiagramError("edge store and node table list different nodes")
            bset = set(self.inputs) | set(self.outputs)
            self._check_at([(v, kind_of[v]) for v in log if v in kind_of], bset,
                           [b for b in log if b in bset])
            self._memo = {}
        return self

    def touched(self) -> Optional[KeysView[str]]:
        """The log: the names written since the diagram's copy or first
        check, in first-touch order, or None without one (see the class
        docstring)."""
        return None if self._log is None else self._log.keys()

    def memo(self, read: Callable[["Diagram"], T]) -> T:
        """``read(self)`` after ``checked``, computed once and kept until the
        next touch (see the class docstring). ``read`` must not edit the
        diagram; every caller shares its result, so it should be
        immutable."""
        memo = self.checked()._memo
        value = memo.get(read, memo)   # the memo itself: no read returns it
        if value is memo:
            value = memo[read] = read(self)
        return value

    def _check_at(self, pairs: Iterable[tuple[str, str]], bset: set[str],
                  listed: Iterable[str]) -> None:
        """The per-node tests, then that each of ``listed`` is a boundary
        node, then the edge tests, over live (node, kind) ``pairs`` (iterated
        twice)."""
        kind_of, phase_of, adj = self._kind, self._phase, self._adj
        for name, kind in pairs:
            if kind == Z or kind == X:
                if name not in phase_of:
                    raise DiagramError(f"spider {name!r} lacks a phase")
            elif kind == BOUNDARY:
                if name not in bset:
                    raise DiagramError(f"boundary {name!r} not listed in inputs/outputs")
                nb = adj[name]
                if sum(nb.values()) + nb.get(name, 0) != 1:
                    raise DiagramError(f"boundary {name!r} must have degree 1")
            elif kind == HBOX:
                nb = adj[name]
                if sum(nb.values()) + nb.get(name, 0) != 2:
                    raise DiagramError(f"H-box {name!r} must have degree 2")
                if nb.get(name):
                    raise DiagramError(f"H-box {name!r} has a self-loop")
            else:
                raise DiagramError(f"unknown node kind {kind!r}")
        for b in listed:
            if kind_of.get(b) != BOUNDARY:
                raise DiagramError(f"listed boundary {b!r} is not a boundary node")
        for u, _ in pairs:
            for v, m in adj[u].items():
                try:
                    if m > 0 and adj[v][u] == m:
                        continue
                except KeyError:   # dangling, or one-sided
                    pass
                raise DiagramError(f"edge {_edge_key(u, v)} is empty, dangling or one-sided")

    # -- equality ------------------------------------------------------------

    def iso_equal(self, other: "Diagram") -> bool:
        """Label- and multiplicity-preserving isomorphism, boundaries index-wise."""
        return iso_equal(self, other)

    def __repr__(self) -> str:
        return (f"Diagram({len(self.inputs)}->{len(self.outputs)}, "
                f"{self.node_count()} nodes, {self.edge_count()} edges)")


# -- wire edits ---------------------------------------------------------------


def chain(d: Diagram, p: str, q: Optional[str], parts: Sequence,
          names: Optional[Sequence[str]] = None) -> list[str]:
    """Add a path of new nodes from p to q, or ending on its last node when q
    is None; each part is (colour, phase) or "h". Returns the new ids in path
    order, which is also their creation order."""
    made, prev = [], p
    for i, part in enumerate(parts):
        name = names[i] if names else None
        v = d.add_node(HBOX, name=name) if part == "h" else d.add_node(*part, name=name)
        d.add_edge(prev, v)
        made.append(v)
        prev = v
    if q is not None:
        d.add_edge(prev, q)
    return made


def _gluing(rhs: Diagram) -> tuple:
    """What ``substitute`` reads of its right-hand side: its boundary; the
    (name, kind, phase) of every other node, in creation order; the edges
    among those, (i, j, multiplicity) by that order, in ``_adj`` order; and
    each boundary's partner, by that order or, for a bare wire, by name."""
    bound = rhs.boundary()
    made = [v for v, k in rhs._kind.items() if k != BOUNDARY]
    at = {v: i for i, v in enumerate(made)}
    return (bound, tuple((v, rhs._kind[v], rhs._phase.get(v)) for v in made),
            tuple((at[u], at[v], m) for u in made for v, m in rhs._adj[u].items()
                  if v in at and u <= v),
            tuple(at.get(w, w) for w in map(rhs.boundary_partner, bound)))


def attach_wires(d: Diagram, ins_to: Sequence[str], outs_to: Sequence[str]) -> Diagram:
    """Wire a new boundary in<i> to each ins_to[i] and out<j> to each
    outs_to[j], make them d's inputs and outputs, and return d checked."""
    def wired(name: str, v: str) -> str:
        d.add_edge(d.add_node(BOUNDARY, name=name), v)
        return name
    d.inputs = tuple(wired(f"in{i}", v) for i, v in enumerate(ins_to))
    d.outputs = tuple(wired(f"out{j}", v) for j, v in enumerate(outs_to))
    return d.check()


# -- generators --------------------------------------------------------------


def empty() -> Diagram:
    return Diagram().check()


def wire() -> Diagram:
    return rotation_chain([])


def generator(kind: str, phase: Optional[PhaseLike] = None) -> Diagram:
    """One-node diagram for a named generator.

    `kind` is one of delta_z, delta_z_dag, eps_z, eps_z_dag, phase_z, the same
    with x in place of z, plus h and wire. A phase argument is accepted
    exactly for phase_z / phase_x.
    """
    if kind == "wire":
        if phase is not None:
            raise DiagramError("wire carries no phase")
        return wire()
    if kind == "h":
        if phase is not None:
            raise DiagramError("h carries no phase")
        return _single_node(HBOX, None, 1, 1)
    name = kind
    dag = name.endswith("_dag")
    if dag:
        name = name[:-4]
    base, _, colour = name.rpartition("_")
    if colour not in SPIDERS or base not in ("delta", "eps", "phase") or (dag and base == "phase"):
        raise DiagramError(f"unknown generator {kind!r}")
    n_in, n_out = {"delta": (1, 2), "eps": (1, 0), "phase": (1, 1)}[base]
    if dag:
        n_in, n_out = n_out, n_in
    if base == "phase":
        if phase is None:
            raise DiagramError(f"{kind} requires a phase")
    elif phase is not None:
        raise DiagramError(f"{kind} carries no phase")
    return _single_node(colour, phase, n_in, n_out)


def _single_node(kind: str, phase: Optional[PhaseLike], n_in: int, n_out: int) -> Diagram:
    d = Diagram()
    v = d.add_node(kind, phase, name="g")
    return attach_wires(d, [v] * n_in, [v] * n_out)


def spider(colour: str, n_in: int, n_out: int, phase: PhaseLike = 0) -> Diagram:
    """A single spider of the given colour and arity."""
    return _single_node(colour, phase, n_in, n_out)


def rotation_chain(parts: Sequence) -> Diagram:
    """A 1-in/1-out chain of nodes c0, c1, ...; each part is (colour, phase)
    or "h"."""
    d = Diagram()
    a = d.add_node(BOUNDARY, name="in0")
    b = d.add_node(BOUNDARY, name="out0")
    chain(d, a, b, parts, [f"c{i}" for i in range(len(parts))])
    d.inputs, d.outputs = (a,), (b,)
    return d.check()


def h_wire() -> Diagram:
    return rotation_chain(["h"])


def euler_chain(first: str = Z) -> Diagram:
    second = other_colour(first)
    return rotation_chain([(first, MINUS_HALF_PI), (second, MINUS_HALF_PI),
                           (first, MINUS_HALF_PI)])


def h_core() -> Diagram:
    """The core that ``lemmas.lc_apply`` derives for H: Z(-pi/2) -- X(0) --
    Z(-pi/2), the X spider carrying a pendant H -- X(pi/2)."""
    d = rotation_chain([(Z, MINUS_HALF_PI), (X, 0), (Z, MINUS_HALF_PI)])
    chain(d, "c1", None, ["h", (X, HALF_PI)])
    return d.check()


def h_core_dual() -> Diagram:
    """Its colour swap, which ``lemmas.swap_core`` derives: X(-pi/2) -- Z(0)
    -- X(-pi/2), the Z spider carrying a pendant X(pi/2) state."""
    d = rotation_chain([(X, MINUS_HALF_PI), (Z, 0), (X, MINUS_HALF_PI)])
    chain(d, "c1", None, [(X, HALF_PI)])
    return d.check()


# -- composition --------------------------------------------------------------


def _merged_namespace(f: Diagram, g: Diagram) -> tuple[Diagram, dict[str, str]]:
    """Copy of f extended with g's nodes/edges; returns the rename map for g."""
    d = f.copy()
    rename: dict[str, str] = {}
    for v in g.nodes():
        name = v
        k = 0
        while d._taken(name):
            name = f"{v}.{k}"
            k += 1
        rename[v] = name
        d.add_node(g.kind(v), g.phase(v) if g.kind(v) in SPIDERS else None, name=name)
    for u, v, m in g.edges():
        d.add_edge(rename[u], rename[v], m)
    return d, rename


def tensor(f: Diagram, g: Diagram) -> Diagram:
    """Side-by-side juxtaposition; f's wires come first."""
    d, rename = _merged_namespace(f, g)
    d.inputs = f.inputs + tuple(rename[b] for b in g.inputs)
    d.outputs = f.outputs + tuple(rename[b] for b in g.outputs)
    return d.check()


def compose(f: Diagram, g: Diagram) -> Diagram:
    """f after g: glue output i of g to input i of f."""
    if len(g.outputs) != len(f.inputs):
        raise DiagramError(
            f"arity mismatch: g has {len(g.outputs)} outputs, f has {len(f.inputs)} inputs")
    d, rename = _merged_namespace(g, f)
    glue = [(g.outputs[i], rename[f.inputs[i]]) for i in range(len(f.inputs))]
    d.inputs = g.inputs
    d.outputs = tuple(rename[b] for b in f.outputs)
    for bg, bf in glue:
        u = d.boundary_partner(bg)
        d.remove_edge(bg, u)
        if u == bf:
            # two directly glued wires close into a loop: keep its value (2)
            # as a phase-0 spider with a self-loop
            loop = d.add_node(Z, 0)
            d.add_edge(loop, loop)
        else:
            v = d.boundary_partner(bf)
            d.remove_edge(bf, v)
            d.add_edge(u, v)
        d.remove_node(bg)
        d.remove_node(bf)
    return d.check()


def dagger(f: Diagram) -> Diagram:
    """Swap inputs and outputs (order kept) and negate every spider phase."""
    d = f.copy()
    d.inputs, d.outputs = f.outputs, f.inputs
    for v in d.spiders():
        d.set_phase(v, -d.phase(v))
    return d.check()


# -- isomorphism ---------------------------------------------------------------


def _parts(d: Diagram) -> tuple:
    """d's connected components, each (labels, neighbour maps) by node index:
    a label is (kind, phase num, den, self-loops, place: i at input i, ~j at
    output j, else 0); a map takes each other neighbour to its multiplicity."""
    kind_of, phase_of, adj = d._kind, d._phase, d._adj
    place = {v: i for i, v in enumerate(d.inputs)}
    place.update((v, ~j) for j, v in enumerate(d.outputs))
    parts, seen = [], set()
    for s in kind_of:
        if s not in seen:
            part, at = [s], {s: 0}
            for v in part:   # grows as it is read
                for w in adj[v]:
                    if w not in at:
                        at[w] = len(part)
                        part.append(w)
            seen.update(part)
            labels = [(kind_of[v], p.num, p.den, adj[v].get(v, 0), place.get(v, 0))
                      for v, p in zip(part, [phase_of.get(v, ZERO) for v in part])]
            parts.append((labels, [{at[w]: m for w, m in adj[v].items() if w != v}
                                   for v in part]))
    return tuple(parts)


def _split(colour: list, c: int, nodes: Iterable[int], key: Callable, cells: dict) -> bool:
    """Split cell c, nodes in key order: a run of one key takes its first
    place from c as colour, and a run of several is a cell. Did c split?"""
    keyed = sorted([(key(v), v) for v in nodes])
    for _, run in groupby(keyed, itemgetter(0)):
        vs = [v for _, v in run]
        for v in vs:
            colour[v] = c
        if len(vs) > 1:
            cells[c] = vs
        c += len(vs)
    return len(vs) < len(keyed)


def _certificate(labels: list, nbrs: list) -> tuple:
    """One component's certificate: its sorted labels, and its edges by place
    in the least leaf of a search by colour refinement and individualisation
    (McKay & Piperno, Practical graph isomorphism, II). A colour is a place
    in key order (``_split``), so none depends on a node name: the labels,
    then a node's sorted (neighbour colour, multiplicity) list, cells in
    colour order, until none splits. The smallest cell of several nodes
    (then the least colour) is taken whole if it is one twin class (nodes
    whose neighbour maps, apart from each other, are equal), else it
    branches once per class, its node first. A leaf equal to the least
    gives an automorphism; a branch skips the orbit of the nodes it tried
    under those that fix its path."""
    n, best, autos, branches = len(labels), None, [], []
    colour, cells, path = [0] * n, {}, ()
    _split(colour, 0, range(n), labels.__getitem__, cells)
    while True:
        split = True
        while split:   # refine until no cell splits
            split, was, cells = False, cells, {}
            for c in sorted(was):
                split |= _split(colour, c, was[c], lambda v: tuple(
                    sorted([(colour[w], m) for w, m in nbrs[v].items()])), cells)
        if cells:
            c = min(cells, key=lambda c: (len(cells[c]), c))
            vs = cells[c]
            twins = [v for i, v in enumerate(vs) if not any(
                {**nbrs[v], v: 0, t: 0} == {**nbrs[t], v: 0, t: 0} for t in vs[:i])]
            if len(twins) == 1:
                _split(colour, c, cells.pop(c), int, cells)
                continue
            branches.append((colour, cells, c, path, iter(twins), []))
        else:
            leaf = tuple(sorted([(c, colour[w], m) for v, c in enumerate(colour)
                                 for w, m in nbrs[v].items() if c < colour[w]]))
            if best is None or leaf < best:
                best, at = leaf, sorted(range(n), key=colour.__getitem__)
            elif leaf == best:   # u -> the least leaf's node at u's place
                autos.append([at[c] for c in colour])
        while branches:   # the deepest open branch's next candidate
            parent, held, c, path, candidates, tried = branches[-1]
            fixing = [g for g in autos if all(g[u] == u for u in path)]
            orbit, grow = set(tried), list(tried)
            for u in grow:   # grows as it is read
                grow += (new := {g[u] for g in fixing} - orbit)
                orbit |= new
            v = next((v for v in candidates if v not in orbit), None)
            if v is not None:
                tried.append(v)
                colour, cells, path = parent[:], dict(held), path + (v,)
                _split(colour, c, cells.pop(c), v.__ne__, cells)
                break
            branches.pop()
        else:
            return tuple(sorted(labels)), best


def canonical(d: Diagram) -> tuple:
    """d's components' certificates, sorted: equal exactly for diagrams
    isomorphic as ``iso_equal`` asks, which keeps it through ``Diagram.memo``."""
    return tuple(sorted(_certificate(*part) for part in d.memo(_parts)))


def iso_equal(a: Diagram, b: Diagram) -> bool:
    """Label- and multiplicity-preserving isomorphism, boundaries index-wise:
    equal counts, equal multisets of the components' sorted labels (each
    maps onto one with its labels), then equal certificates (``canonical``)."""
    if (len(a.inputs), len(a.outputs), a.node_count(), a.edge_count()) != (
            len(b.inputs), len(b.outputs), b.node_count(), b.edge_count()):
        return False
    return (sorted(sorted(x) for x, _ in a.memo(_parts))
            == sorted(sorted(x) for x, _ in b.memo(_parts))
            and a.memo(canonical) == b.memo(canonical))
