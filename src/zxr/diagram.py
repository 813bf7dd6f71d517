"""Open multigraphs of Z/X spiders, H-boxes and ordered boundaries.

Diagrams are value-like: every operation returns a new diagram and callers
never mutate a diagram they did not just create. Node ids are opaque strings
and are never reused within one diagram's lifetime, so rewrite anchors stay
stable across unrelated edits.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .phase import HALF_PI, MINUS_HALF_PI, Phase, PhaseLike, ZERO

Z = "z"
X = "x"
HBOX = "h"
BOUNDARY = "b"

SPIDERS = (Z, X)


T = TypeVar("T")


class DiagramError(ValueError):
    """A structural invariant of a diagram was violated."""


def other_colour(colour: str) -> str:
    if colour == Z:
        return X
    if colour == X:
        return Z
    raise DiagramError(f"not a spider colour: {colour!r}")


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _across(nb: dict[str, int], prev: Optional[str]) -> str:
    """The neighbour an H-box's wire leaves by, having come in from prev."""
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

    ``copy`` costs O(V) dict and set copies at C speed: the copy shares each
    node's neighbour map ``_adj[v]`` with its source. Only a diagram that
    owns a map writes it. A diagram that was never copied owns them all;
    ``copy`` gives the source and the copy each a new, empty record of owned
    maps (``_own``), ``add_node`` makes an owned map, and ``add_edge`` and
    ``remove_edge`` take a private copy of a shared map the first time they
    write it. So a rewrite of a copy costs what it writes, and neither side
    sees the other's edits.

    After a successful ``check`` every mutator logs the nodes it touched, in
    first-touch order: ``add_node``, ``remove_node``, ``set_phase`` and
    ``set_kind`` the node, ``add_edge`` and ``remove_edge`` both ends
    (``splice`` goes through them). ``checked`` re-validates only the logged
    nodes, so it costs O(touched) instead of O(V+E). Every invariant of
    ``check`` is local to one node or one edge, and the mutators keep the
    edge store symmetric, so a diagram that passed a full walk and has since
    changed only through these methods is valid exactly when its touched
    nodes are. A write to a private field is not logged: ``check`` sees it,
    ``checked`` does not. It also skips the copy on first write, so a write
    into a shared neighbour map reaches every diagram that shares it.

    ``memo(read)`` keeps ``read(self)`` until ``checked`` next walks
    anything, which it does after any logged edit, so a kept read is of the
    diagram as it now is, within the same limit. ``copy`` hands the kept
    reads to the copy, which is the same diagram until one side changes.
    """

    def __init__(self) -> None:
        self._kind: dict[str, str] = {}
        self._phase: dict[str, Phase] = {}
        self._adj: dict[str, dict[str, int]] = {}
        # the nodes whose neighbour map this diagram owns; None: all of them
        self._own: Optional[set[str]] = None
        self._n_edges = 0
        self.inputs: tuple[str, ...] = ()
        self.outputs: tuple[str, ...] = ()
        self._fresh = 0
        self._used: set[str] = set()   # ids are never reused, even after removal
        # touched names (a dict, for first-touch order) since the last
        # successful check; None until the first one
        self._dirty: Optional[dict[str, None]] = None
        self._bounds: tuple = ((), ())   # (inputs, outputs) at the last full check
        self._memo: dict = {}   # reads kept by ``memo`` until the next check walk

    # -- construction ------------------------------------------------------

    def copy(self) -> "Diagram":
        d = Diagram()
        d._kind = dict(self._kind)
        d._phase = dict(self._phase)
        d._adj = dict(self._adj)   # neighbour maps shared until written
        self._own, d._own = set(), set()
        d._n_edges = self._n_edges
        d.inputs = self.inputs
        d.outputs = self.outputs
        d._fresh = self._fresh
        d._used = set(self._used)
        d._dirty = None if self._dirty is None else dict(self._dirty)
        d._bounds = self._bounds
        d._memo = dict(self._memo)   # valid until the copy changes too
        return d

    def fresh_id(self) -> str:
        while True:
            name = f"n{self._fresh}"
            self._fresh += 1
            if name not in self._used:
                return name

    def add_node(self, kind: str, phase: Optional[PhaseLike] = None,
                 name: Optional[str] = None) -> str:
        if name is None:
            name = self.fresh_id()
        elif "#" in name or name.split() != [name]:   # .zxd could not write it
            raise DiagramError(f"node id {name!r} is empty or holds whitespace or '#'")
        if name in self._used:
            raise DiagramError(f"node id {name!r} is or was in use")
        self._used.add(name)
        if kind in SPIDERS:
            self._phase[name] = Phase.coerce(phase) if phase is not None else ZERO
        elif phase is not None:
            raise DiagramError(f"{kind} node cannot carry a phase")
        self._kind[name] = kind
        self._adj[name] = {}
        if self._own is not None:
            self._own.add(name)
        if self._dirty is not None:
            self._dirty[name] = None
        return name

    def _unshare(self, u: str, v: str) -> None:
        """Own the neighbour maps of u and v, copying each one still shared."""
        own, adj = self._own, self._adj
        for w in (u, v):
            if w not in own:
                adj[w] = dict(adj[w])
                own.add(w)

    def add_edge(self, u: str, v: str, times: int = 1) -> None:
        if times <= 0:
            return
        if u not in self._kind or v not in self._kind:
            raise DiagramError(f"edge endpoint missing: {u!r}-{v!r}")
        own = self._own
        if own is not None and (u not in own or v not in own):
            self._unshare(u, v)
        self._adj[u][v] = self._adj[v][u] = self._adj[u].get(v, 0) + times
        self._n_edges += times
        if self._dirty is not None:
            self._dirty[u] = self._dirty[v] = None

    def remove_edge(self, u: str, v: str, times: int = 1) -> None:
        if times <= 0:
            return
        m = self._adj.get(u, {}).get(v, 0) - times
        if m < 0:
            raise DiagramError(f"no such edge {_edge_key(u, v)}")
        own = self._own
        if own is not None and (u not in own or v not in own):
            self._unshare(u, v)
        self._n_edges -= times
        self._adj[u][v] = self._adj[v][u] = m
        if not m:
            del self._adj[u][v]
            self._adj[v].pop(u, None)   # already gone if u == v
        if self._dirty is not None:
            self._dirty[u] = self._dirty[v] = None

    def remove_node(self, name: str) -> None:
        if self._adj[name]:
            raise DiagramError(f"cannot remove wired node {name!r}")
        del self._adj[name]
        del self._kind[name]
        self._phase.pop(name, None)
        if self._dirty is not None:
            self._dirty[name] = None

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
        if self._dirty is not None:
            self._dirty[name] = None

    def set_kind(self, name: str, colour: str) -> None:
        """Recolour a spider; its phase and wires stay."""
        if self._kind.get(name) not in SPIDERS or colour not in SPIDERS:
            raise DiagramError(f"cannot make {name!r} a {colour!r} spider")
        self._kind[name] = colour
        if self._dirty is not None:
            self._dirty[name] = None

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

    def edges(self) -> list[tuple[str, str, int]]:
        """Distinct edges (u <= v) with multiplicities, in sorted order."""
        return sorted((u, v, m) for u, nb in self._adj.items()
                      for v, m in nb.items() if u <= v)

    def wires(self) -> tuple[list[tuple[str, Optional[Phase], int]], dict[str, int],
                             list[tuple[int, int, int]], list[int]]:
        """The diagram as wires between ends, read in one pass over the edge store.

        An end is a spider or a boundary; a wire runs from end p to end q
        through k >= 0 H-boxes. Returns every end in node-table order as
        (kind, phase or None, degree), each end's position in that list by
        name, every wire once as (p, q, k) by position, one per parallel
        copy, and the length of each closed cycle of H-boxes, which no wire
        reaches.
        """
        kind_of, phase_of, adj = self._kind, self._phase, self._adj
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

    def created_since(self, earlier: "Diagram") -> list[str]:
        """Nodes that ``earlier`` lacks, in creation order (``copy`` keeps it)."""
        return [v for v in self._kind if v not in earlier._kind]

    def changed_since(self, earlier: "Diagram") -> list[str]:
        """The patch of an edit from ``earlier`` to self, sorted.

        It holds every node created or removed, or whose kind, phase or
        degree changed, plus a greedy cover of the edges whose multiplicity
        changed: the node covering the most uncovered ones first, ties to
        the lower degree, then the name. Every node and edge outside the
        patch is the same on both sides, so each side is one context
        composed with its own ``cut`` of the patch.
        """
        patch, rewired = set(), []
        for v in self._kind.keys() | earlier._kind.keys():
            if (self._kind.get(v), self._phase.get(v)) != (earlier._kind.get(v),
                                                           earlier._phase.get(v)):
                patch.add(v)
            elif self._adj[v] != earlier._adj[v]:
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

    def cut(self, nodes: Iterable[str]) -> "Diagram":
        """The sub-diagram on the given nodes (those self lacks are ignored).

        Each edge leaving the set becomes an output wire, one per parallel
        copy, ordered by (outside endpoint, inside endpoint); the set's own
        inputs and outputs stay boundaries, its outputs after the cut wires.
        Every generator is symmetric in its legs, so the order among wires
        that meet one outside node does not matter. The cut wires take the
        sub-diagram's own fresh ids, which no kept id can clash with.
        """
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

    def substitute(self, nodes: Iterable[str], rhs: "Diagram",
                   ports: Sequence[str]) -> "Diagram":
        """Swap the nodes for a copy of the open diagram rhs, the inverse of
        ``cut``; returns self. A node's outside wires are its edges leaving
        the set, in neighbour order, one per parallel copy. rhs's i-th
        boundary (inputs, then outputs) takes the next outside wire of
        ports[i]; a bare wire of rhs joins its two outside ends. rhs's other
        nodes get fresh ids in rhs's creation order. Raises DiagramError
        unless ports takes every outside wire exactly once. rhs is read once
        (``_gluing``, kept by ``memo``) and never written."""
        inside = set(nodes)
        ends = {v: [w for w, m in sorted(self._adj[v].items()) if w not in inside
                    for _ in range(m)] for v in inside if v in self._kind}
        bound, made_from, inner, partners = rhs.memo(_gluing)
        if (len(ends) != len(inside) or len(ports) != len(bound)
                or sorted(ports) != [v for v in sorted(ends) for _ in ends[v]]):
            raise DiagramError(f"ports {tuple(ports)} miss or repeat an outside wire")
        wires = {v: iter(e) for v, e in ends.items()}
        outer = {b: next(wires[v]) for b, v in zip(bound, ports)}
        for v in sorted(inside):
            for w, m in list(self._adj[v].items()):
                self.remove_edge(v, w, m)
            self.remove_node(v)
        made = [self.add_node(k, phase) for k, phase in made_from]
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
        return sorted(w for w in self._adj.get(name, ()) if w != name)

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
        On success it empties the touch log that ``checked`` reads.
        """
        bset = set(self.inputs) | set(self.outputs)
        if len(self.inputs) + len(self.outputs) != len(bset):
            raise DiagramError("inputs/outputs overlap or repeat")
        if self._adj.keys() != self._kind.keys():
            raise DiagramError("edge store and node table list different nodes")
        self._check_at(self._kind, bset, self.inputs + self.outputs)
        self._dirty, self._bounds = {}, (self.inputs, self.outputs)
        self._memo = {}
        return self

    def checked(self) -> "Diagram":
        """Validate only the nodes touched since the last ``check``; returns
        self. Walks everything, through ``check``, when the diagram never
        passed one or its inputs/outputs were reassigned since. A fault is
        reported at the first-touched node. The class docstring says why
        this equals a full walk, and its one limit."""
        if self._dirty is None or self._bounds != (self.inputs, self.outputs):
            return self.check()
        if self._dirty:
            kind_of, adj = self._kind, self._adj
            for v in self._dirty:
                if (v in kind_of) != (v in adj):
                    raise DiagramError("edge store and node table list different nodes")
            bset = set(self.inputs) | set(self.outputs)
            self._check_at([v for v in self._dirty if v in kind_of], bset,
                           [b for b in self._dirty if b in bset])
            self._dirty, self._memo = {}, {}
        return self

    def memo(self, read: Callable[["Diagram"], T]) -> T:
        """``read(self)`` after ``checked``, computed once and kept until
        ``checked`` next walks (see the class docstring). ``read`` must not
        edit the diagram; every caller shares its result, so it should be
        immutable."""
        self.checked()
        try:
            return self._memo[read]
        except KeyError:
            value = self._memo[read] = read(self)
            return value

    def _check_at(self, nodes: Iterable[str], bset: set[str],
                  listed: Iterable[str]) -> None:
        """The per-node tests, then that each of ``listed`` is a boundary
        node, then the edge tests, over live ``nodes`` (iterated twice)."""
        kind_of, adj = self._kind, self._adj
        for name in nodes:
            kind = kind_of[name]
            if kind in SPIDERS:
                if name not in self._phase:
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
        for u in nodes:
            for v, m in adj[u].items():
                if m <= 0 or v not in adj or adj[v].get(u) != m:
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
    (kind, phase) of every other node, in creation order; the edges among
    those, (i, j, multiplicity) by that order, in ``_adj`` order; and each
    boundary's partner, by that order or, for a bare wire, by name."""
    bound = rhs.boundary()
    made = [v for v, k in rhs._kind.items() if k != BOUNDARY]
    at = {v: i for i, v in enumerate(made)}
    return (bound, tuple((rhs._kind[v], rhs._phase.get(v)) for v in made),
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
        while name in d._used:
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


def iso_equal(a: Diagram, b: Diagram) -> bool:
    """Label- and multiplicity-preserving isomorphism, boundaries index-wise.

    Colour refinement of both diagrams at once, individualising a node of the
    smallest non-singleton cell against each candidate (McKay & Piperno,
    Practical graph isomorphism, II). A node starts as (kind, phase,
    self-loops, boundary index); each round adds the sorted (neighbour
    colour, multiplicity) list. Colour ids are shared by both diagrams, so a
    colour count that differs rejects at once.
    """
    if (len(a.inputs), len(a.outputs), a.node_count(), a.edge_count()) != (
            len(b.inputs), len(b.outputs), b.node_count(), b.edge_count()):
        return False
    n = a.node_count()
    names, start, nbrs = [], [], []
    for d in (a, b):
        at = {v: len(names) + i for i, v in enumerate(d.nodes())}
        place = {v: i for i, v in enumerate(d.boundary())}
        for v in d.nodes():
            names.append(v)
            start.append((d._kind[v], d._phase.get(v), d.self_loops(v), place.get(v, -1)))
            nbrs.append([(at[w], m) for w, m in d._adj[v].items() if w != v])

    def search(colour: list) -> bool:
        cells = len(set(colour))
        while True:   # refine until no cell splits
            ids: dict = {}
            colour = [ids.setdefault((c, tuple(sorted((colour[w], m) for w, m in nb))), len(ids))
                      for c, nb in zip(colour, nbrs)]
            if Counter(colour[:n]) != Counter(colour[n:]):
                return False
            if len(ids) == cells:
                break
            cells = len(ids)
        sizes = Counter(colour[:n])
        if len(sizes) == n:   # all cells singletons: the mapping is fixed
            image = dict(zip(colour[n:], names[n:]))
            to_b = {v: image[c] for v, c in zip(names[:n], colour)}
            return all(b.multiplicity(to_b[u], to_b[v]) == m for u, v, m in a.edges())
        _, cell = min((k, c) for c, k in sizes.items() if k > 1)
        u = colour.index(cell)
        return any(search([cells if w in (u, v) else c for w, c in enumerate(colour)])
                   for v in range(n, 2 * n) if colour[v] == cell)

    return search(start)
