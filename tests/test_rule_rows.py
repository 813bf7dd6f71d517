"""hopf, self-loop, h-phase, h-state, pi-state, id-remove and h-cancel as
equation rows of ``rules``, copy and pi-commute as rows with a !-box, and
spider-fuse as a row with a !-box and a phase sum.

Each rule had a hand-written check and rewrite. They are kept here verbatim
as the reference: on every ordered anchor of the rule's arity over the
corpus below, the row gives the reference's verdict, and on every match the
same result, node ids included, the same next fresh id, the same new nodes
in creation order and the same patch. The last test builds, and does not
register, a row whose kept spider's phase is a negative sum.
"""

import itertools
import random
from collections import Counter
from typing import Optional

from conftest import circuit, random_diagram, tangled
from zxr import lemmas, rules, shipped
from zxr.axioms import PHASE_GRID
from zxr.diagram import (BOUNDARY, HBOX, SPIDERS, Diagram, empty, iso_equal,
                         Z, other_colour, wire)
from zxr.graphstate import all_graphs, graph_state
from zxr.phase import PI, ZERO, Phase
from zxr.rules import Anchor
from zxr.semantics import compare, diagrams_equal
from zxr.textio import parse, serialize

_WIRE, _EMPTY = wire(), empty()


def _is_spider(d: Diagram, v: str) -> bool:
    return d.kind(v) in SPIDERS


def _is_hbox(d: Diagram, v: str) -> bool:
    return d.kind(v) == HBOX


def _basis_state(d: Diagram, v: str) -> bool:
    """Degree-1 spider with phase 0 or pi."""
    return (d.degree(v) == 1 and _is_spider(d, v)
            and d.phase(v) in (ZERO, PI))


def _far_end(d: Diagram, v: str, skip: str) -> str:
    """The first neighbour of v other than skip."""
    return next(w for w in d.neighbours(v) if w != skip)


def _check_spider_fuse(d: Diagram, anchor: Anchor) -> Optional[Anchor]:
    u, v = anchor
    return (anchor if _is_spider(d, u) and d.kind(v) == d.kind(u)
            and d.multiplicity(u, v) >= 1 else None)


def _rewrite_spider_fuse(d: Diagram, anchor: Anchor) -> Diagram:
    u, v = anchor
    k = d.multiplicity(u, v)
    vloops = d.self_loops(v)
    d.remove_edge(u, v, k)
    d.add_edge(u, u, k - 1)              # surplus parallel edges become loops
    d.add_edge(u, u, vloops)
    d.remove_edge(v, v, vloops)
    for w in d.neighbours(v):
        m = d.multiplicity(v, w)
        d.remove_edge(v, w, m)
        d.add_edge(u, w, m)
    d.set_phase(u, d.phase(u) + d.phase(v))
    d.remove_node(v)
    return d


def _check_id_remove(d, anchor):
    (s,) = anchor
    if not (d.degree(s) == 2 and _is_spider(d, s) and d.phase(s) == ZERO
            and not d.self_loops(s)):
        return False
    nbs = d.neighbours(s)
    # removing s must not create an H self-loop
    return not (len(nbs) == 1 and d.kind(nbs[0]) == HBOX)


def _check_self_loop(d, anchor):
    return d.self_loops(anchor[0]) >= 1 and _is_spider(d, anchor[0])


def _rewrite_self_loop(d, anchor):
    d.remove_edge(anchor[0], anchor[0])
    return d


def _check_copy(d, anchor):
    state, s = anchor
    return (_basis_state(d, state) and _is_spider(d, s)
            and d.kind(s) != d.kind(state) and d.multiplicity(state, s) == 1)


def _stamp_states(d, s, colour, phase):
    """Delete spider s, placing a fresh (colour, phase) state on each of its
    remaining edge ends."""
    for w in list(d.neighbours(s)):
        m = d.multiplicity(s, w)
        d.remove_edge(s, w, m)
        for _ in range(m):
            fresh = d.add_node(colour, phase)
            d.add_edge(fresh, w)
    loops = d.self_loops(s)
    for _ in range(loops):
        d.remove_edge(s, s)
        f1 = d.add_node(colour, phase)
        f2 = d.add_node(colour, phase)
        d.add_edge(f1, f2)
    d.remove_node(s)


def _rewrite_copy(d, anchor):
    state, s = anchor
    colour, phase = d.kind(state), d.phase(state)
    d.remove_edge(state, s)
    d.remove_node(state)
    _stamp_states(d, s, colour, phase)
    return d


def _pi_wire(d, r):
    """Degree-2 pi spider without self-loops."""
    return (d.degree(r) == 2 and _is_spider(d, r) and d.phase(r) == PI
            and not d.self_loops(r))


def _check_pi_commute(d, anchor):
    r, s = anchor
    return (anchor if _pi_wire(d, r) and _is_spider(d, s) and d.kind(s) != d.kind(r)
            and d.phase(s) == ZERO and not d.self_loops(s)
            and d.multiplicity(r, s) == 1 else None)


def _rewrite_pi_commute(d, anchor):
    r, s = anchor
    colour = d.kind(r)
    # pi nodes go onto every leg of s except the one the pi came through
    legs = [(w, d.multiplicity(s, w)) for w in d.neighbours(s) if w != r]
    d.substitute((r,), _WIRE, (r, r))
    for w, m in legs:
        for _ in range(m):
            d.splice(s, w, colour, PI)
    return d


def _check_pi_state(d, anchor):
    return (_check_copy(d, anchor) and d.degree(anchor[1]) == 2
            and not d.self_loops(anchor[1]))


def _check_hopf(d, anchor):
    u, v = anchor
    return (d.multiplicity(u, v) >= 2 and _is_spider(d, u)
            and _is_spider(d, v) and d.kind(u) != d.kind(v))


def _rewrite_hopf(d, anchor):
    d.remove_edge(*anchor, 2)
    return d


def _check_h_cancel(d, anchor):
    h1, h2 = anchor
    if not (_is_hbox(d, h1) and _is_hbox(d, h2) and d.multiplicity(h1, h2) >= 1):
        return False
    if d.multiplicity(h1, h2) == 2:
        return True
    a, b = _far_end(d, h1, h2), _far_end(d, h2, h1)
    # joining the outer wires must not close a loop on a third H-box
    return not (a == b and d.kind(a) == HBOX)


def _check_h_phase(d, anchor):
    h, s = anchor
    return (_is_hbox(d, h) and _is_spider(d, s) and d.multiplicity(h, s) == 1
            and not d.self_loops(s) and d.degree(s) in (1, 2))


def _rewrite_h_phase(d, anchor):
    h, s = anchor
    if d.degree(s) == 1:
        # state form: absorb the box
        d.substitute((h,), _WIRE, (h, h))
    else:
        far_h, far_s = _far_end(d, h, s), _far_end(d, s, h)
        d.remove_edge(s, far_s)
        d.remove_edge(h, far_h)
        d.add_edge(h, far_s)
        d.add_edge(s, far_h)
    d.set_kind(s, other_colour(d.kind(s)))
    return d


def _check_h_state(d, anchor):
    return (_check_h_phase(d, anchor) and d.degree(anchor[1]) == 1
            and d.phase(anchor[1]) == ZERO)


REFERENCE = {
    "spider-fuse": (2, _check_spider_fuse, _rewrite_spider_fuse),
    "copy": (2, _check_copy, _rewrite_copy),
    "pi-commute": (2, _check_pi_commute, _rewrite_pi_commute),
    "id-remove": (1, _check_id_remove, lambda d, a: d.substitute(a, _WIRE, a * 2)),
    "self-loop": (1, _check_self_loop, _rewrite_self_loop),
    "pi-state": (2, _check_pi_state,
                 lambda d, a: d.substitute(a[1:], _WIRE, a[1:] * 2)),
    "hopf": (2, _check_hopf, _rewrite_hopf),
    "h-cancel": (2, _check_h_cancel,   # a closed pair is a scalar
                 lambda d, a: (d.substitute(a, _EMPTY, ()) if d.multiplicity(*a) == 2
                               else d.substitute(a, _WIRE, a))),
    "h-phase": (2, _check_h_phase, _rewrite_h_phase),
    "h-state": (2, _check_h_state, _rewrite_h_phase),
}

# sites the random corpus seldom holds: the H self-loop either guard
# refuses (an identity spider or an H-H chain between the two wires of one
# H-box) and allows (between those of a spider), closed H-H pairs, chains
# of three boxes, Hopf pairs of three parallel edges beside self-loops, and
# H-boxes sliding past spiders of every colour, phase and degree
_ODD = [
    "node s z\nnode h h\nedge s h\nedge s h\n",
    "node s x\nnode t z 1/2\nout o\nedge s t\nedge s t\nedge t o\n",
    "node a h\nnode b h\nnode c h\nedge a b\nedge b c\nedge c a\n",
    "node a h\nnode b h\nedge a b\nedge a b\n",
    "node s z 1/3\nnode a h\nnode b h\nedge s a\nedge a b\nedge b s\n",
    "node a h\nnode b h\nnode c h\nin i\nout o\n"
    "edge i a\nedge a b\nedge b c\nedge c o\n",
    "node a z\nnode b x 1/2\nout o\nedge a b\nedge a b\nedge a b\nedge a a\n"
    "edge b b\nedge b o\n",
] + [
    f"node h h\nnode s {c} {p}\nnode t {k}\nin i\nout o\nedge i h\nedge h s\n"
    + ("edge s t\nedge t o\n" if legs == 2 else "edge t o\nedge t t\n")
    for c, k, p, legs in itertools.product("zx", "zx", ("0", "1", "1/4"), (1, 2))
] + [
    f"node a {c} {p}\nnode b {k} 1/4\nout o\nedge a b\n" + tail + extra
    for c, k, p, tail, extra in itertools.product(
        "zx", "zx", ("0", "1", "1/2"), ("edge b o\n", "node h h\nedge b h\nedge h o\n",
                                      "node t z 1/3\nedge b t\nedge t o\nedge t t\n"),
        ("", "edge b b\n", "edge a b\n"))
]


# spider-fuse's sites: a and b joined by k = 1-3 parallel edges, a
# self-loop on either or both, and b's other legs on a boundary, an H-box
# and an opposite-colour spider
_FUSING = [
    f"node a {c} 1/3\nnode b {c} 1/4\nnode h h\nnode t {o} 1/2\nin i\nout o p q\n"
    "edge i a\nedge b o\nedge b h\nedge h p\nedge b t\nedge t q\n" + "edge a b\n" * k + loops
    for c, o in ("zx", "xz") for k in (1, 2, 3)
    for loops in ("", "edge a a\n", "edge b b\n", "edge a a\nedge b b\n")
]


# the leg kinds a planted spider s gets beyond its lead, each with the
# degree it adds: a boundary, an H-box on a boundary, a self-loop, and a
# doubled leg to a spider on a boundary
_LEGS = {"out": 1, "h": 1, "loop": 2, "double": 2}


def _planted(colour, lead, state, phase, legs):
    """The spider s of the colour and phase, joined to t, of the other
    colour and the state's phase: t is a state ("state"), a wire to an
    input ("wire") or joined twice to s ("pair"); s gets the legs."""
    d = Diagram()
    s = d.add_node(colour, phase, name="s")
    t = d.add_node(other_colour(colour), state, name="t")
    d.add_edge(s, t, 2 if lead == "pair" else 1)
    if lead == "wire":
        d.add_edge(t, d.add_node(BOUNDARY, name="i"))
        d.inputs = ("i",)
    for k, leg in enumerate(legs):
        if leg == "loop":
            d.add_edge(s, s)
            continue
        end = d.add_node(BOUNDARY, name=f"o{k}")
        d.outputs += (end,)
        if leg == "out":
            d.add_edge(s, end)
            continue
        w = d.add_node(HBOX if leg == "h" else colour, name=f"w{k}")
        d.add_edge(s, w, 1 if leg == "h" else 2)
        d.add_edge(w, end)
    return d.check()


def _intermediates(deriv):
    """Every diagram a derivation's replay passes through."""
    d = deriv.start
    yield d
    for rule, anchor in deriv.script.steps:
        d = rules.apply(rule, d, anchor, euler_on=True)
        yield d


def _corpus():
    rng = random.Random(20241020)
    for _ in range(400):
        d = random_diagram(rng)
        yield d
        yield tangled(d.copy(), rng)
    for i in range(6):
        d = circuit(rng, 2 + i % 3, 12 + 4 * i)
        yield d
        yield tangled(d.copy(), rng)
    yield from (graph_state(g) for g in all_graphs(tuple("abcd")))
    yield from map(parse, _ODD + _FUSING)
    derivs = [shipped.BUILDERS[f"fixpoint-s{n}"]() for n in range(1, 7)]
    derivs += [lemmas.fixpoint(g, "a") for g in all_graphs(tuple("abc"))]
    for deriv in derivs + list(lemmas.lc_implies_euler().values()):
        yield from _intermediates(deriv)
    for size in range(4):
        for legs in itertools.combinations_with_replacement(_LEGS, size):
            if sum(map(_LEGS.get, legs)) <= 3:
                yield from itertools.starmap(_planted, itertools.product(
                    SPIDERS, ("state", "wire", "pair"), (ZERO, PI), (ZERO, "1/4"),
                    [legs]))


def test_moved_rows_agree_with_the_hand_written_rules():
    matched, fused = Counter(), set()
    for d in _corpus():
        for rule, (arity, check, rewrite) in REFERENCE.items():
            row = rules.RULES[rule]
            for anchor in itertools.permutations(d.nodes(), arity):
                verdict = bool(check(d, anchor))
                assert bool(row.check(d, anchor)) == verdict, (rule, anchor,
                                                               serialize(d))
                if not verdict:
                    continue
                matched[rule] += 1
                if rule == "spider-fuse":   # k, loops on a and on b, b's neighbour kinds
                    u, v = anchor
                    fused.add((d.multiplicity(u, v), d.self_loops(u) > 0, d.self_loops(v) > 0))
                    fused.update(d.kind(w) for w in d.neighbours(v))
                out = rules.apply(rule, d, anchor)
                ref = rewrite(d.copy(), anchor).checked()
                assert serialize(out) == serialize(ref), (rule, anchor)
                assert out.created_since(d) == ref.created_since(d), (rule, anchor)
                assert out.changed_since(d) == ref.changed_since(d), (rule, anchor)
                assert out.fresh_id() == ref.fresh_id(), (rule, anchor)
    assert all(matched[rule] >= 15 for rule in REFERENCE), matched
    assert fused >= {*itertools.product((1, 2, 3), (False, True), (False, True)),
                     BOUNDARY, HBOX, *SPIDERS}, fused


# the rows whose lhs's last output is a !-box
BOX_ROWS = ("copy", "pi-commute", "spider-fuse")


def test_every_row_is_an_equation():
    """Each row's own two sides are equal in the standard model, and in
    models 1-3 when the row has no Euler strength. A box row's rewrite of
    its lhs with the box drawn 0-3 times, its free phases nonzero, is equal
    to that lhs too, and with it drawn once is the row's rhs."""
    rows = [r for r in rules.RULES.values() if r.pairs]
    assert len(rows) == 19
    assert sorted(r.name for r in rows if r.box) == sorted(BOX_ROWS)
    for r in rows:
        models = (1,) if r.euler else (1, 2, 3)
        for lhs, rhs in r.pairs:
            for n in models:
                assert diagrams_equal(lhs, rhs, n), (r.name, serialize(lhs), n)
            if r.name not in BOX_ROWS:
                continue
            assert iso_equal(rules.apply(r.name, lhs, ("a", "b")), rhs), r.name
            for copies in range(4):
                drawn = rules.boxed(lhs, copies)
                for k, v in enumerate(r.free):   # nonzero; fuse's closed pair is no zero
                    drawn.set_phase(v, Phase(1, 3 + k))
                out = rules.apply(r.name, drawn.checked(), ("a", "b"))
                assert all(diagrams_equal(drawn, out, n) for n in models), (r.name, copies)


def test_only_three_rules_are_written_by_hand():
    """spider-split's anchor chooses its legs, h-colour needs two boxes and
    id-insert's new colour follows its anchor: every other rule is an
    equation row."""
    hand = {name for name, r in rules.RULES.items() if not r.pairs}
    assert hand == {"spider-split", "id-insert", "h-colour"}


def test_a_negative_phase_sum_passes_pi_through_any_phase():
    """pi-commute's pairs with b's phase free and b's sum -b: the any-phase
    pi-commutation (Coecke & Duncan's K2), built here and not registered.
    Its rewrite leaves b at minus the angle it matched; the registered
    row, phase 0 only, is its alpha = 0 case, with the same result; and
    model 2 scales pi to 2pi, so it holds there only where 2 alpha = -2
    alpha mod 2pi, at multiples of pi/2, and not at pi/3 or 2pi/5."""
    real = rules.RULES["pi-commute"]
    turned = rules._equation("pi-commute-any", real.candidates, real.pairs, keep=("b",),
                             free=("b",), box=True, sums={"b": ("-b",)})
    fails = set()
    for lhs, _ in real.pairs:
        for alpha in PHASE_GRID:
            d = rules.boxed(lhs, 2)
            d.set_phase("b", alpha)
            d = d.checked()
            out = turned.rewrite(d.copy(), turned.check(d, ("a", "b"))).checked()
            assert out.phase("b") == -alpha, alpha
            assert bool(real.check(d, ("a", "b"))) == (alpha == ZERO), alpha
            if alpha == ZERO:
                assert serialize(out) == serialize(rules.apply("pi-commute", d, ("a", "b")))
            fails.update((n, alpha) for n in (1, 2, 3) if not compare(d, out, n)[0])
    assert fails == {(2, Phase(1, 3)), (2, Phase(2, 5))}, fails
