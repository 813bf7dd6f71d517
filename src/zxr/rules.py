"""Anchored rewrite rules and the terminating normalization strategy.

Rule ids (also the CLI spellings):

    spider-fuse   merge two adjacent same-colour spiders, adding phases
    spider-split  split a spider; anchor (s, v1, ..., vk) moves the edges
                  towards v1..vk onto a fresh phase-0 spider linked to s
    id-remove     delete a phase-0 degree-2 spider, joining its wires
    id-insert     insert a phase-0 degree-2 spider on an edge (u, v); its
                  colour is opposite to u's when u is a spider, else Z
    self-loop     drop one self-loop from a spider
    copy          copy a 0/pi basis state through an opposite-colour spider
    bialgebra     collapse a phase-0 complete bipartite square to the
                  two-spider path
    pi-commute    push a degree-2 pi spider through an opposite-colour
                  phase-0 spider, onto all its other legs
    pi-state      absorb an adjacent opposite-colour degree-2 spider into a
                  0/pi basis state
    hopf          delete a pair of parallel edges between opposite colours
    h-cancel      delete two adjacent H-boxes, joining their wires
    h-colour      flip a spider's colour, toggling H on every incident edge
    h-phase       slide a degree<=2 spider through an adjacent H-box,
                  flipping its colour
    h-state       like h-phase for the phase-0 degree-1 state
    euler         replace an H-box by the -pi/2, -pi/2, -pi/2 rotation chain
    euler-inv     replace such a chain by an H-box

Script-only steps, used by proof scripts. ``apply`` accepts them, but they
are not in ``RULE_IDS`` and take no part in ``match_sites``, ``normalize``
or the CLI's ``--rule``:

    assume-lc-triangle   the local-complementation equation on a triangle,
                         taken as a hypothesis (it FAILS in the scaled model
                         n=2, which is the point of the countermodel)
    cut-h-core           substitute an H-box by the core derived from the
                         hypothesis earlier in the same check
    cut-h-core-dual      its colour swap, likewise derived before use
    use-pi2-colour       absorb a -pi/2 / +pi/2 opposite-colour pendant
                         state into a spider (the pi/2 colour-change lemma)
    hub2                 replace a degree-2 X(-pi/2) spider between Z
                         spiders by an H-box, adding pi/2 to both
    bialgebra-expand     the bialgebra equation right-to-left (a pair
                         becomes a complete bipartite square)

A step has *Euler strength* when it holds in the standard model but can fail
in a scaled model n > 1, where every other rule holds: the Euler decomposition
of H (euler, euler-inv), which the other rules cannot derive, and the script
steps but bialgebra-expand, which assume or use an equation equivalent to it.
They set ``Rule.euler``; ``apply`` refuses them unless ``euler_on=True``, and
``proofs.replay`` checks only the standard model when a script uses one.

A rule whose two sides are open patterns is an equation row, read by
``_equation`` from the (lhs, rhs) pairs it keeps as ``Rule.pairs``. A row's
kept nodes stay, taking rhs's kind and edges among them, and the row alone
sets a kept spider's phase: a signed sum of matched phases (spider-fuse's
a: a's plus b's) plus rhs's less lhs's; one guard keeps a bare-wire rhs
from closing an H self-loop; a row that removes, adds and recolours no node
(hopf, self-loop, spider-fuse) calls no ``substitute``; and a !-box (copy,
pi-commute, spider-fuse) repeats one pattern on every leg of a spider of
any degree. Three rules are written by hand: spider-split (its anchor
chooses the legs), h-colour (two !-boxes) and id-insert (its new node's
colour follows u's kind).

Every rule is one ``Rule`` in ``RULES``. ``apply`` first refuses an anchor
that is not ``arity`` distinct node ids; ``check(d, anchor)`` is then the
rest of the left-hand-side condition (kinds, phases, degrees and
multiplicities), returning the match or None, and ``apply`` hands that match
to ``rewrite``, so one application matches once. A hand-written rule's match
is its anchor, a row's its host nodes and glue. ``match_sites`` keeps the
candidate anchors that match, so the condition is written once.

Every anchor is a tuple of node ids. A rule's candidates come from one pass
over the edge store (``Diagram.kinds`` and ``Diagram.around``), in creation
order and unsorted; only ``match_sites`` reads them, and it sorts the sites
it keeps, so occurrences are listed deterministically. For the expansion
rules (spider-split, id-insert, euler-inv) the listing is the canonical
subset while ``apply`` accepts any structurally valid anchor.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .diagram import (BOUNDARY, HBOX, SPIDERS, Diagram, X, Z, attach_wires, chain, empty,
                      euler_chain, h_core, h_core_dual, h_wire, other_colour,
                      rotation_chain, spider, wire)
from .phase import HALF_PI, MINUS_HALF_PI, PI, ZERO, Phase

Anchor = tuple[str, ...]


class RuleError(ValueError):
    """Anchor does not match the rule, or a gated rule is disabled."""


class Rule(NamedTuple):
    """One rewrite rule: where to look, what must hold, what to do.

    ``arity`` is the anchor length (None: any from 1 up), ``candidates``
    lists anchors worth checking, unsorted, for ``match_sites`` to sort
    (None for a script-only step), ``check`` is the left-hand-side condition
    on an anchor of distinct existing nodes, returning the match or None,
    and ``rewrite`` turns a fresh copy of a matching diagram into the
    right-hand side, given the match ``check`` returned (a hand-written
    rule's is its anchor). ``euler`` marks
    Euler strength, and ``pairs`` holds an equation row's (lhs, rhs)
    patterns (empty for a rule written by hand), with the lhs nodes whose
    phase (``free``) or legs (``legs``) are any and whether lhs's last
    output is a !-box (``box``): what ``axioms`` reads to draw its instances.
    """

    name: str
    arity: Optional[int]
    candidates: Optional[Callable[[Diagram], Iterable[Anchor]]]
    check: Callable[[Diagram, Anchor], object]
    rewrite: Callable[[Diagram, object], Diagram]
    euler: bool = False
    pairs: tuple[tuple[Diagram, Diagram], ...] = ()
    free: tuple[str, ...] = ()
    legs: tuple[str, ...] = ()
    box: bool = False


# -- node tests and candidate generators ------------------------------------------


def _is_spider(d: Diagram, v: str) -> bool:
    return d.kind(v) in SPIDERS


def _is_hbox(d: Diagram, v: str) -> bool:
    return d.kind(v) == HBOX


def _basis_state(d: Diagram, v: str) -> bool:
    """Degree-1 spider with phase 0 or pi."""
    return (d.degree(v) == 1 and _is_spider(d, v)
            and d.phase(v) in (ZERO, PI))


def _pi_wire(d: Diagram, r: str) -> bool:
    """Degree-2 pi spider without self-loops."""
    return (d.degree(r) == 2 and _is_spider(d, r) and d.phase(r) == PI
            and not d.self_loops(r))


def _spiders(d: Diagram) -> list[Anchor]:
    return [(s,) for s, k in d.kinds() if k in SPIDERS]


def _nodes(d: Diagram) -> list[Anchor]:
    return [(v,) for v, _ in d.kinds()]


def _edges(d: Diagram) -> list[Anchor]:
    """Each non-loop edge once, as (u, v) with u < v."""
    return [(u, v) for u, _ in d.kinds() for v, _ in d.around(u) if u < v]


def _adjacent(d: Diagram) -> list[Anchor]:
    """Each non-loop edge in both orders."""
    return [(u, v) for u, _ in d.kinds() for v, _ in d.around(u) if u != v]


def _looped(d: Diagram) -> list[Anchor]:
    """Each node with a self-loop: only a spider can hold one."""
    return [(v,) for v, _ in d.kinds() if d.self_loops(v)]


def _parallel(d: Diagram) -> list[Anchor]:
    """Each edge of multiplicity 2 or more once, as (u, v) with u < v."""
    return [(u, v) for u, _ in d.kinds() for v, m in d.around(u) if m > 1 and u < v]


def _h_pairs(d: Diagram) -> list[Anchor]:
    """Each edge between two H-boxes once, as (u, v) with u < v."""
    return [(u, v) for u, k in d.kinds() if k == HBOX
            for v, _ in d.around(u) if u < v and d.kind(v) == HBOX]


def _h_states(d: Diagram) -> list[Anchor]:
    """(h, s) for each H-box h and degree-1 spider s beside it."""
    return [(h, s) for h, k in d.kinds() if k == HBOX
            for s, _ in d.around(h) if d.degree(s) == 1 and _is_spider(d, s)]


def _led_by(lead: Callable[[Diagram, str], bool]) -> Callable[[Diagram], list[Anchor]]:
    """Candidates (u, v), v a neighbour of u, for each node u that passes
    lead: the test that the rule's check applies to its first node."""
    def candidates(d: Diagram) -> list[Anchor]:
        return [(u, v) for u, _ in d.kinds() if lead(d, u)
                for v, _ in d.around(u) if v != u]
    return candidates


def _bialgebra_candidates(d: Diagram) -> Iterable[Anchor]:
    """(a1, a2, b1, b2) for same-colour spiders a1 < a2 and two of their
    shared opposite-colour spider neighbours b1 < b2, found by a two-hop
    walk from each a1 (through each such neighbour g to each a2 beyond it),
    so the cost is O(S * deg^2), not one test per pair of spiders."""
    for a1, colour in d.kinds():
        if colour not in SPIDERS:
            continue
        across = other_colour(colour)
        shared: dict[str, list[str]] = {}
        for g, _ in d.around(a1):
            if d.kind(g) == across:
                for a2, _ in d.around(g):
                    if a2 > a1 and d.kind(a2) == colour:
                        shared.setdefault(a2, []).append(g)
        for a2, gs in shared.items():
            for b1, b2 in combinations(gs, 2):
                yield (a1, a2, b1, b2) if b1 < b2 else (a1, a2, b2, b1)


def _euler_inv_candidates(d: Diagram) -> Iterable[Anchor]:
    for (s2,) in _spiders(d):
        nbs = d.neighbours(s2)
        if len(nbs) == 2:
            yield (nbs[0], s2, nbs[1])


# -- equation rows: rules whose two sides are open patterns -------------------------


def _bipartite(colour: str, k: int) -> Diagram:
    """k phase-0 spiders of the colour, each joined to k of the other; the
    first k hold two input wires, the others two outputs."""
    d = Diagram()
    a = [d.add_node(colour, 0) for _ in range(k)]
    b = [d.add_node(other_colour(colour), 0) for _ in range(k)]
    for u, v in product(a, b):
        d.add_edge(u, v)
    return attach_wires(d, a * (2 // k), b * (2 // k))


def _drop(colours: Sequence[str], times: int) -> tuple[Diagram, Diagram]:
    """hopf and self-loop: the phase-0 spiders a, b of the colours (a alone
    for one colour) lose the `times` edges between a and the last of them."""
    lhs, rhs = Diagram(), Diagram()
    for d in (lhs, rhs):
        names = [d.add_node(c, 0, name=v) for c, v in zip(colours, "ab")]
    lhs.add_edge("a", names[-1], times)
    return lhs.check(), rhs.check()


def _state(colour: str, phase: Phase, across: str) -> tuple[Diagram, Diagram]:
    """pi-state, copy and spider-fuse: the spider a of the colour and phase
    absorbs the phase-0 spider b of the colour across on its wire, copies
    onto b's box or takes it."""
    lhs, rhs = Diagram(), Diagram()
    chain(lhs, lhs.add_node(colour, phase, name="a"), None, [(across, 0)], ["b"])
    rhs.add_node(colour, phase, name="a")
    return attach_wires(lhs, [], ["b"]), attach_wires(rhs, [], ["a"])


def _pi_commute(colour: str) -> tuple[Diagram, Diagram]:
    """pi-commute: the pi spider a of the colour, on a wire of the phase-0
    spider b of the other, passes onto b's boxed leg."""
    lhs, rhs = Diagram(), Diagram()
    chain(lhs, lhs.add_node(colour, PI, name="a"), None, [(other_colour(colour), 0)], ["b"])
    chain(rhs, rhs.add_node(other_colour(colour), 0, name="b"), None, [(colour, PI)], ["a"])
    return attach_wires(lhs, ["a"], ["b"]), attach_wires(rhs, ["b"], ["a"])


def _h_slide(colour: str, legs: int) -> tuple[Diagram, Diagram]:
    """h-phase and h-state: the phase-0 spider b of the colour, with one or
    two legs, one on the H-box a, passes through a, flipping its colour."""
    lhs, rhs = Diagram(), Diagram()
    chain(lhs, lhs.add_node(HBOX, name="a"), None, [(colour, 0)], ["b"])
    b = rhs.add_node(other_colour(colour), 0, name="b")
    chain(rhs, b, None, ["h"] * (legs - 1), ["a"])
    wires, back = ["a", "b"][:legs], ["b", "a"][:legs]
    return (attach_wires(lhs, wires[:-1], wires[-1:]),
            attach_wires(rhs, back[:-1], back[-1:]))


def _h_loop() -> Diagram:
    """h-cancel's closed pair: two H-boxes joined by both their wires."""
    d = Diagram()
    d.add_edge(d.add_node(HBOX, name="c0"), d.add_node(HBOX, name="c1"), 2)
    return d.check()


def _pendant(colour: str, phase: Phase) -> tuple[Diagram, Diagram]:
    """use-pi2-colour: a absorbs its pendant b of the phase, gaining minus it."""
    lhs, rhs = Diagram(), Diagram()
    a = lhs.add_node(colour, 0, name="a")
    chain(lhs, a, None, [(other_colour(colour), phase)], ["b"])
    rhs.add_node(colour, -phase, name="a")
    return lhs.check(), rhs.check()


def _lc_triangle() -> tuple[Diagram, Diagram]:
    """assume-lc-triangle: the b-c H-edge of the triangle goes, b and c gain
    -pi/2, and X(pi/2) lands on the wire of a, the vertex complemented."""
    lhs, rhs = Diagram(), Diagram()
    for d, phase, boxes in ((lhs, ZERO, ("ab", "ac", "bc")),
                            (rhs, MINUS_HALF_PI, ("ab", "ac"))):
        for v, p in zip("abc", (ZERO, phase, phase)):
            d.add_node(Z, p, name=v)
        for box in boxes:
            chain(d, box[0], box[1], ["h"], [box])
    chain(rhs, "a", None, [(X, HALF_PI)], ["x"])
    return attach_wires(lhs, ["a"], []), attach_wires(rhs, ["x"], [])


def _hub2() -> tuple[Diagram, Diagram]:
    """hub2: a - X(-pi/2) - c becomes a - H - c, a and c gaining pi/2."""
    lhs, rhs = Diagram(), Diagram()
    for d, phase, middle in ((lhs, ZERO, (X, MINUS_HALF_PI)), (rhs, HALF_PI, "h")):
        a, c = d.add_node(Z, phase, name="a"), d.add_node(Z, phase, name="c")
        chain(d, a, c, [middle], ["b"])
    return lhs.check(), rhs.check()


_WIRE, _EMPTY, _H = wire(), empty(), h_wire()
_MANY = float("inf")   # no upper bound on a multiplicity
# the bialgebra equation, one row per colour of the square's first corner
_SQUARE = [(_bipartite(c, 2), _bipartite(other_colour(c), 1)) for c in SPIDERS]
_STATES = [_state(c, p, other_colour(c)) for c in SPIDERS for p in (ZERO, PI)]


def _fits(d: Diagram, anchor: Anchor, test: tuple) -> bool:
    """Does the anchor pass a row's test: its (i, kind)s, (i, degree)s,
    (i, phase)s and (i, j, least, most) multiplicities? Plain loops: a
    check is called per candidate, and a generator costs more than the test."""
    kinds, degrees, phases, edges = test
    for i, k in kinds:
        if d.kind(anchor[i]) != k:
            return False
    for i, n in degrees:
        if d.degree(anchor[i]) != n:
            return False
    for i, p in phases:
        if d.phase(anchor[i]) != p:
            return False
    for i, j, least, most in edges:
        if not least <= d.multiplicity(anchor[i], anchor[j]) <= most:
            return False
    return True


def _equation(name: str, candidates: Optional[Callable[[Diagram], Iterable[Anchor]]],
              pairs: Sequence[tuple[Diagram, Diagram]], euler: bool = False,
              keep: Sequence[str] = (), free: Sequence[str] = (),
              legs: Sequence[str] = (), box: bool = False, sums: Optional[dict] = None) -> Rule:
    """The rule rewriting each open pattern lhs to its rhs, one row per pair,
    keyed by the kinds of its anchor's first and last nodes. lhs's H-boxes
    between spiders are H-edges, its other non-boundary nodes the anchor, in
    name order. A node named in keep or free that rhs holds too is kept: it
    stays, with its id, takes rhs's kind, and its edges to kept nodes
    (self-loops included) become rhs's. Its phase, if a spider, becomes the
    signed sum of the matched phases sums names for it ("-" before a name
    subtracts; by default its own, spider-fuse's a ("a", "b")) plus rhs's
    less lhs's; one table holds a row's sums, all read from the host before
    any is set. A node matches its kind, phase (any if in free) and degree
    (any if in legs: free legs, for a kept node); the edges among the anchor
    are lhs's, but at least lhs's between kept nodes one of which has free
    legs, and each H-edge's spiders share just one H-box. A row whose rhs is
    a bare wire refuses a match whose two outside wire ends are one H-box,
    which the wire would close into an H self-loop. The check returns the
    match, the host nodes and the row's glue, or None; the rewrite takes
    that match, so it matches nothing again, shifts the kept nodes' edges
    and substitutes rhs for the nodes not kept, rhs's i-th boundary taking
    a wire of the node lhs's i-th boundary is on; substitute takes only a
    kept node's kind and wiring. A still row, which removes, adds and
    recolours no node, calls no substitute: decided here, once.

    With box, lhs's last output is a !-box (Kissinger, Merry & Soloviev,
    arXiv:1204.6695): the one leg there of its spider, of any degree, stands
    for each edge end of it that lhs's other edges do not hold, bar those at
    nodes rhs drops (its self-loops' too, unless rhs keeps it). rhs's new
    nodes are the box, on rhs's last output. The spider stays through the
    substitution, then gives each end, in sorted neighbour order and one
    parallel copy at a time, to a fresh copy of the box (a self-loop's two
    ends to two copies joined by its edge), and goes unless rhs keeps it.
    A box of no nodes merges the spider into the kept node on rhs's last
    output: the ends at host nodes (parallel edges to it, the spider's
    self-loops) go first, each becoming its self-loop; a box of nodes takes
    the self-loops last."""
    rows: dict[tuple[str, str], list] = {}
    sizes = set()
    for lhs, rhs in pairs:
        bound = lhs.boundary()
        inner = [v for v in lhs.nodes() if v not in bound]
        boxes = [v for v in inner if _is_hbox(lhs, v)
                 and all(_is_spider(lhs, w) for w in lhs.neighbours(v))]
        nodes = [v for v in inner if v not in boxes]
        sizes.add(len(nodes))
        hub = box and lhs.boundary_partner(lhs.outputs[-1])   # the box's spider
        kept = [v for v in inner if v in {*keep, *free} and rhs.has_node(v) or v == hub]
        at = {v: i for i, v in enumerate(nodes + boxes)}
        glue, gone, repeat = rhs.copy(), hub and not rhs.has_node(hub), None
        if box:   # repeat: the spider, one copy's nodes and edges, its leg's end, gone
            made = [v for v, k in rhs.kinds() if k != BOUNDARY and v not in kept]
            index = {v: at[v] for v in kept} | {v: len(at) + i for i, v in enumerate(made)}
            repeat = (at[hub], tuple((k, rhs.phase(v) if k in SPIDERS else None)
                                     for v, k in rhs.kinds() if v in made),
                      tuple((index[w], index[v], m) for v in made for w, m in rhs.around(v)
                            if w in index and (w in kept or index[v] <= index[w])),
                      index[rhs.boundary_partner(rhs.outputs[-1])], gone)
            bound, glue = bound[:-1], boxed(rhs, 0, made)
            if gone:   # it stays until its legs are copied
                glue.add_node(lhs.kind(hub), name=hub)
        phases = []   # (i, j, minus, ((j, minus), ...), turn): spider i's sum, first term apart
        for v in [v for v in kept if rhs.has_node(v) and _is_spider(lhs, v)]:
            terms = tuple((at[w.lstrip("-")], w[0] == "-") for w in (sums or {}).get(v, (v,)))
            turn = rhs.phase(v) - lhs.phase(v)
            if terms != ((at[v], False),) or not turn.is_zero():   # else it keeps its phase
                phases.append((at[v], *terms[0], terms[1:], None if turn.is_zero() else turn))
        still = (len(kept) == len(inner) == glue.node_count()
                 and all(glue.kind(v) == lhs.kind(v) for v in kept))
        held, loose = set(kept), set(legs)   # loose: kept nodes with free legs
        edges = [(i, j, lhs.multiplicity(u, v),
                  {u, v} <= held and bool({u, v} & loose) or u == v == hub and gone)
                 for i, u in enumerate(nodes) for j, v in enumerate(nodes[i:], i)]
        shift = [(at[u], at[v], rhs.multiplicity(u, v) - lhs.multiplicity(u, v))
                 for i, u in enumerate(kept) for v in kept[i:]]
        rows.setdefault((lhs.kind(nodes[0]), lhs.kind(nodes[-1])), []).append((
            (tuple((i, lhs.kind(v)) for i, v in enumerate(nodes[1:-1], 1)),
             tuple((i, lhs.degree(v)) for i, v in enumerate(nodes) if v not in legs and v != hub),
             tuple((i, lhs.phase(v)) for i, v in enumerate(nodes)
                   if v not in free and not _is_hbox(lhs, v)),
             tuple((i, j, m, _MANY if least else m) for i, j, m, least in edges
                   if m or not least)),
            tuple(tuple(at[w] for w in lhs.neighbours(h)) for h in boxes),
            rhs.node_count() == len(rhs.boundary()) == 2,
            (None if still else glue.check(),
             tuple(at[v] for v in nodes + boxes if v not in kept),
             tuple(at[lhs.boundary_partner(b)] for b in bound),
             tuple((v, at[v]) for v in kept), tuple(e for e in shift if e[2]), repeat,
             tuple(phases))))
    (arity,) = sizes   # every row's anchor has one length

    def match(d: Diagram, anchor: Anchor) -> Optional[tuple]:
        for test, boxes, bare, glue in rows.get((d.kind(anchor[0]), d.kind(anchor[-1])), ()):
            if not _fits(d, anchor, test):
                continue
            if bare:
                ends = {w for v in anchor for w, _ in d.around(v)}.difference(anchor)
                if len(ends) == 1 and d.kind(*ends) == HBOX:
                    continue
            if not boxes:
                return anchor, glue
            found = [[w for w in d.neighbours(anchor[i]) if d.kind(w) == HBOX
                      and d.multiplicity(w, anchor[j]) == 1] for i, j in boxes]
            if all(len(h) == 1 for h in found):
                return anchor + tuple(h for h, in found), glue
        return None

    def rewrite(d: Diagram, found: tuple) -> Diagram:   # found: match's result
        host, (rhs, removed, ports, held, shift, repeat, phases) = found
        turned = []   # each kept spider's sum, all read before any is set
        for i, j, minus, rest, turn in phases:   # from the first term: no Phase for a zero turn
            p = -d.phase(host[j]) if minus else d.phase(host[j])
            for j, minus in rest:
                p = p - d.phase(host[j]) if minus else p + d.phase(host[j])
            turned.append((host[i], p if turn is None else p + turn))
        for v, p in turned:
            d.set_phase(v, p)
        for i, j, k in shift:   # kept nodes' edges among them become rhs's
            d.add_edge(host[i], host[j], k)      # a no-op unless k > 0
            d.remove_edge(host[i], host[j], -k)  # a no-op unless k < 0
        if repeat:   # the box's edge ends, read before the substitution
            hub, made, edges, end, gone = repeat
            hub, cut = host[hub], [host[i] for i in removed]
            ends = sorted((e for e in d.around(hub) if e[0] not in cut),   # ends at host
                          key=lambda e: ((e[0] in host) == bool(made), e[0]))   # nodes: a merge's first
        if rhs is not None:   # not a still row
            d.substitute([host[i] for i in removed], rhs, [host[i] for i in ports],
                         {v: host[i] for v, i in held})
        if not repeat:
            return d

        def stamp() -> str:   # one copy of the box; returns its leg's end
            if not made:   # a merge's copy is the kept node alone
                return host[end]
            names = host + tuple(d.add_node(k, p) for k, p in made)
            for i, j, m in edges:
                d.add_edge(names[i], names[j], m)
            return names[end]

        for w, m in ends:   # a self-loop's two ends become two joined copies
            d.remove_edge(hub, w, m)
            for _ in range(m):
                d.add_edge(stamp(), stamp() if w == hub else w)
        if gone:
            d.remove_node(hub)
        return d

    return Rule(name, arity, candidates, match, rewrite, euler, tuple(pairs),
                tuple(free), tuple(legs), box)


def boxed(d: Diagram, copies: int, drop: Sequence[str] = (),
          wired: Sequence[str] = ()) -> Diagram:
    """d less the nodes in drop, with the leg on its last output drawn
    ``copies`` times and one more input on each node in wired: a box row's
    lhs with its box drawn that many times."""
    out = Diagram()
    for v, k in d.kinds():
        if k != BOUNDARY and v not in drop:
            out.add_node(k, d.phase(v) if k in SPIDERS else None, name=v)
    for u, v, m in d.edges():
        if out.has_node(u) and out.has_node(v):
            out.add_edge(u, v, m)
    ins, outs = ([d.boundary_partner(b) for b in side] for side in (d.inputs, d.outputs))
    return attach_wires(out, ins + list(wired), outs[:-1] + outs[-1:] * copies)


# -- the rules ----------------------------------------------------------------------


def _check_spider_split(d: Diagram, anchor: Anchor) -> Optional[Anchor]:
    s, moved = anchor[0], anchor[1:]
    return anchor if _is_spider(d, s) and all(d.multiplicity(s, v) for v in moved) else None


def _rewrite_spider_split(d: Diagram, anchor: Anchor) -> Diagram:
    s, moved = anchor[0], anchor[1:]
    fresh = d.add_node(d.kind(s), ZERO)
    for v in moved:
        m = d.multiplicity(s, v)
        d.remove_edge(s, v, m)
        d.add_edge(fresh, v, m)
    d.add_edge(s, fresh)
    return d


def _check_id_insert(d: Diagram, anchor: Anchor) -> Optional[Anchor]:
    return anchor if d.multiplicity(*anchor) >= 1 else None


def _rewrite_id_insert(d: Diagram, anchor: Anchor) -> Diagram:
    u, v = anchor
    d.splice(u, v, other_colour(d.kind(u)) if _is_spider(d, u) else Z)
    return d


def _check_h_colour(d: Diagram, anchor: Anchor) -> Optional[Anchor]:
    return anchor if _is_spider(d, anchor[0]) else None


def _rewrite_h_colour(d: Diagram, anchor: Anchor) -> Diagram:
    (s,) = anchor
    for w in list(d.neighbours(s)):
        if d.kind(w) == HBOX:
            if d.multiplicity(s, w) == 2:
                continue  # box has both ends on s: toggles cancel pairwise
            d.substitute((w,), _WIRE, (w, w))
        else:
            for _ in range(d.multiplicity(s, w)):
                d.splice(s, w, HBOX)
    # self-loops are invariant: the two inserted boxes would cancel
    d.set_kind(s, other_colour(d.kind(s)))
    return d


# -- the table ------------------------------------------------------------------------

RULES: dict[str, Rule] = {r.name: r for r in (
    _equation("spider-fuse", _edges, [_state(c, ZERO, c) for c in SPIDERS],
              free=("a", "b"), legs=("a",), box=True, sums={"a": ("a", "b")}),
    Rule("spider-split", None, _spiders, _check_spider_split, _rewrite_spider_split),
    _equation("id-remove", _spiders, [(spider(c, 1, 1), _WIRE) for c in SPIDERS]),
    Rule("id-insert", 2, _adjacent, _check_id_insert, _rewrite_id_insert),
    _equation("self-loop", _looped, [_drop((c,), 1) for c in SPIDERS],
              free=("a",), legs=("a",)),
    _equation("copy", _led_by(_basis_state), _STATES, free=("b",), box=True),
    _equation("bialgebra", _bialgebra_candidates, _SQUARE),
    _equation("pi-commute", _led_by(_pi_wire), [_pi_commute(c) for c in SPIDERS],
              keep=("b",), box=True),
    _equation("pi-state", _led_by(_basis_state), _STATES, keep=("a",), free=("b",)),
    _equation("hopf", _parallel, [_drop((c, other_colour(c)), 2) for c in SPIDERS],
              free=("a", "b"), legs=("a", "b")),
    _equation("h-cancel", _h_pairs,   # a closed pair is a scalar
              [(rotation_chain(["h", "h"]), _WIRE), (_h_loop(), _EMPTY)]),
    Rule("h-colour", 1, _spiders, _check_h_colour, _rewrite_h_colour),
    _equation("h-phase", _led_by(_is_hbox),
              [_h_slide(c, n) for c in SPIDERS for n in (1, 2)],
              keep=("a", "b"), free=("b",)),
    _equation("h-state", _h_states, [_h_slide(c, 1) for c in SPIDERS], keep=("b",)),
    _equation("euler", _nodes, [(_H, euler_chain())], euler=True),
    _equation("euler-inv", _euler_inv_candidates,
              [(euler_chain(c), _H) for c in SPIDERS], euler=True),
    _equation("assume-lc-triangle", None, [_lc_triangle()], euler=True,
              keep=("a", "b", "c", "ab", "ac"), legs=("b", "c")),
    _equation("cut-h-core", None, [(_H, h_core())], euler=True),
    _equation("cut-h-core-dual", None, [(_H, h_core_dual())], euler=True),
    _equation("use-pi2-colour", None, [_pendant(c, p) for c in SPIDERS
                                       for p in (MINUS_HALF_PI, HALF_PI)],
              euler=True, free=("a",), legs=("a",)),
    _equation("hub2", None, [_hub2()], euler=True, free=("a", "c"), legs=("a", "c")),
    _equation("bialgebra-expand", None, [(rhs, lhs) for lhs, rhs in _SQUARE]),
)}

RULE_IDS = tuple(name for name, r in RULES.items() if r.candidates is not None)


def match_sites(rule: str, d: Diagram) -> list[Anchor]:
    """All anchors where the rule's left-hand side occurs, sorted."""
    r = RULES.get(rule)
    if r is None or r.candidates is None:
        raise RuleError(f"unknown rule {rule!r}")
    return sorted({a for a in r.candidates(d) if r.check(d, a)})


def apply(rule: str, d: Diagram, anchor: Sequence[str],
          euler_on: bool = False) -> Diagram:
    """Apply the rule or script step at the anchor, returning the rewritten
    diagram. Euler-strength steps need ``euler_on=True``."""
    r = RULES.get(rule)
    if r is None:
        raise RuleError(f"unknown rule {rule!r}")
    if r.euler and not euler_on:
        raise RuleError(f"{rule} is gated off (pass euler_on=True to enable)")
    anchor = tuple(anchor)
    shaped = len(anchor) == r.arity if r.arity else len(anchor) >= 1
    found = (shaped and len(set(anchor)) == len(anchor)
             and all(d.has_node(v) for v in anchor) and r.check(d, anchor))
    if not found:
        raise RuleError(f"{rule} does not match at {anchor}")
    return r.rewrite(d.copy(), found).checked()


# -- normalization ------------------------------------------------------------------


def _edges_at(d: Diagram, v: str) -> list[Anchor]:
    """The ``_edges`` candidates that hold v."""
    return [(v, w) if v < w else (w, v) for w in d.neighbours(v)]


def _spider_at(d: Diagram, v: str) -> list[Anchor]:
    """The ``_spiders`` candidate that holds v."""
    return [(v,)] if _is_spider(d, v) else []


def _spiders_by(d: Diagram, v: str) -> list[Anchor]:
    """The ``_spiders`` candidates at v and one hop from it: id-remove's
    condition reads its anchor's neighbour's kind."""
    return [(w,) for w in (v, *d.neighbours(v)) if _is_spider(d, w)]


# the normalize rules in priority order, each with the candidates whose
# verdict a step can change by touching a node
_NORMALIZE = {"spider-fuse": _edges_at, "self-loop": _spider_at,
              "id-remove": _spiders_by, "hopf": _edges_at}


def normalize(d: Diagram, trace: list[tuple[str, Anchor]] | None = None) -> Diagram:
    """Exhaustively fuse, drop loops, remove identities and apply Hopf.

    Deterministic: always the lexicographically smallest anchor of the
    highest-priority applicable rule. Each step strictly decreases
    (node count, edge count), so this terminates.

    Each rule's sites are kept in a set, filled by one ``match_sites`` scan
    the first time the rule is consulted. After a step (through ``apply``)
    the sets drop the anchors that hold a node the step touched
    (``Diagram.touched``, the log of the copy ``apply`` made) and re-check
    the candidates at each touched node still there, so a step costs what
    it touched, not a scan of every rule.
    """
    sites: dict[str, set[Anchor]] = {}
    current = d
    while True:
        measure = (current.node_count(), current.edge_count())
        for rule in _NORMALIZE:
            if rule not in sites:
                sites[rule] = set(match_sites(rule, current))
            if sites[rule]:
                anchor = min(sites[rule])
                break
        else:
            return current
        current = apply(rule, current, anchor)
        if trace is not None:
            trace.append((rule, anchor))
        if not (current.node_count(), current.edge_count()) < measure:
            raise RuntimeError("normalization step failed to decrease the measure")
        touched = current.touched()
        live = [v for v in touched if current.has_node(v)]
        for rule, found in sites.items():
            again = {a for v in live for a in _NORMALIZE[rule](current, v)}
            found.difference_update([a for a in found
                                     if a in again or not touched.isdisjoint(a)])
            found.update(a for a in again if RULES[rule].check(current, a))
