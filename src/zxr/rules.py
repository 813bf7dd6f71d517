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

``euler`` and ``euler-inv`` are gated: they require ``euler_on=True``.

Every anchor is a tuple of node ids. ``match_sites`` enumerates occurrences
deterministically (sorted); for the expansion rules (spider-split, id-insert,
euler-inv) the listing is the canonical subset while ``apply`` accepts any
structurally valid anchor.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .diagram import (HBOX, SPIDERS, Diagram, DiagramError, X, Z,
                      other_colour)
from .phase import PI, Phase, ZERO

Anchor = tuple[str, ...]

RULE_IDS = (
    "spider-fuse", "spider-split", "id-remove", "id-insert", "self-loop",
    "copy", "bialgebra", "pi-commute", "pi-state", "hopf", "h-cancel",
    "h-colour", "h-phase", "h-state", "euler", "euler-inv",
)

EULER_RULES = ("euler", "euler-inv")

MINUS_HALF = Phase(-1, 2)


class RuleError(ValueError):
    """Anchor does not match the rule, or a gated rule is disabled."""


def _is_spider(d: Diagram, v: str) -> bool:
    return d.has_node(v) and d.kind(v) in SPIDERS


def _basis_state(d: Diagram, v: str) -> bool:
    """Degree-1 spider with phase 0 or pi."""
    return (_is_spider(d, v) and d.degree(v) == 1
            and d.phase(v) in (ZERO, PI))


# -- matching -------------------------------------------------------------------


def _sites_spider_fuse(d: Diagram) -> list[Anchor]:
    out = []
    for u, v, m in d.edges():
        if u != v and _is_spider(d, u) and _is_spider(d, v) and d.kind(u) == d.kind(v):
            out.append((u, v))
    return out


def _sites_spider_split(d: Diagram) -> list[Anchor]:
    return [(s,) for s in d.spiders()]


def _sites_id_remove(d: Diagram) -> list[Anchor]:
    out = []
    for s in d.spiders():
        if _check_id_remove(d, (s,)):
            out.append((s,))
    return out


def _sites_id_insert(d: Diagram) -> list[Anchor]:
    out = []
    for u, v, m in d.edges():
        if u == v:
            continue
        out.append((u, v))
        out.append((v, u))
    return sorted(out)


def _sites_self_loop(d: Diagram) -> list[Anchor]:
    return [(s,) for s in d.spiders() if d.self_loops(s) > 0]


def _sites_copy(d: Diagram) -> list[Anchor]:
    out = []
    for s in d.spiders():
        if not _basis_state(d, s):
            continue
        w = d.neighbours(s)[0]
        if _is_spider(d, w) and d.kind(w) != d.kind(s):
            out.append((s, w))
    return out


def _sites_bialgebra(d: Diagram) -> list[Anchor]:
    out = set()
    spiders = d.spiders()
    for a1 in spiders:
        for a2 in spiders:
            if a2 <= a1 or d.kind(a1) != d.kind(a2):
                continue
            shared = [g for g in d.neighbours(a1)
                      if g in d.neighbours(a2) and _is_spider(d, g)
                      and d.kind(g) == other_colour(d.kind(a1))]
            for i, b1 in enumerate(shared):
                for b2 in shared[i + 1:]:
                    anchor = (a1, a2, b1, b2)
                    if _check_bialgebra(d, anchor):
                        out.add(anchor)
    return sorted(out)


def _sites_pi_commute(d: Diagram) -> list[Anchor]:
    out = []
    for r in d.spiders():
        if d.degree(r) != 2 or d.phase(r) != PI or d.self_loops(r):
            continue
        for s in d.neighbours(r):
            if (_is_spider(d, s) and d.kind(s) == other_colour(d.kind(r))
                    and d.phase(s) == ZERO and not d.self_loops(s)
                    and d.multiplicity(r, s) == 1):
                out.append((r, s))
    return sorted(out)


def _sites_pi_state(d: Diagram) -> list[Anchor]:
    out = []
    for s in d.spiders():
        if not _basis_state(d, s):
            continue
        w = d.neighbours(s)[0]
        if (_is_spider(d, w) and d.kind(w) == other_colour(d.kind(s))
                and d.degree(w) == 2 and not d.self_loops(w)):
            out.append((s, w))
    return out


def _sites_hopf(d: Diagram) -> list[Anchor]:
    out = []
    for u, v, m in d.edges():
        if (u != v and m >= 2 and _is_spider(d, u) and _is_spider(d, v)
                and d.kind(u) != d.kind(v)):
            out.append((u, v))
    return out


def _sites_h_cancel(d: Diagram) -> list[Anchor]:
    out = []
    for u, v, m in d.edges():
        if u != v and d.kind(u) == HBOX and d.kind(v) == HBOX:
            if _h_cancel_ok(d, u, v):
                out.append((u, v))
    return out


def _h_cancel_ok(d: Diagram, h1: str, h2: str) -> bool:
    if d.multiplicity(h1, h2) == 2:
        return True
    a = [w for w in d.neighbours(h1) if w != h2][0]
    b = [w for w in d.neighbours(h2) if w != h1][0]
    # joining the outer wires must not close a loop on a third H-box
    return not (a == b and d.kind(a) == HBOX)


def _sites_h_colour(d: Diagram) -> list[Anchor]:
    return [(s,) for s in d.spiders()]


def _sites_h_phase(d: Diagram) -> list[Anchor]:
    out = []
    for h in d.nodes():
        if d.kind(h) != HBOX:
            continue
        for s in d.neighbours(h):
            if _check_h_phase(d, (h, s)):
                out.append((h, s))
    return sorted(out)


def _sites_h_state(d: Diagram) -> list[Anchor]:
    out = []
    for h in d.nodes():
        if d.kind(h) != HBOX:
            continue
        for s in d.neighbours(h):
            if (_is_spider(d, s) and d.degree(s) == 1 and d.phase(s) == ZERO):
                out.append((h, s))
    return sorted(out)


def _sites_euler(d: Diagram) -> list[Anchor]:
    return [(h,) for h in d.nodes() if d.kind(h) == HBOX]


def _sites_euler_inv(d: Diagram) -> list[Anchor]:
    out = set()
    for s2 in d.spiders():
        if d.degree(s2) != 2 or d.phase(s2) != MINUS_HALF or d.self_loops(s2):
            continue
        nbs = d.neighbours(s2)
        if len(nbs) != 2:
            continue
        s1, s3 = nbs
        for a, b in ((s1, s3), (s3, s1)):
            if _check_euler_inv(d, (a, s2, b)):
                out.add((min(a, b), s2, max(a, b)))
    return sorted(out)


_MATCHERS: dict[str, Callable[[Diagram], list[Anchor]]] = {
    "spider-fuse": _sites_spider_fuse,
    "spider-split": _sites_spider_split,
    "id-remove": _sites_id_remove,
    "id-insert": _sites_id_insert,
    "self-loop": _sites_self_loop,
    "copy": _sites_copy,
    "bialgebra": _sites_bialgebra,
    "pi-commute": _sites_pi_commute,
    "pi-state": _sites_pi_state,
    "hopf": _sites_hopf,
    "h-cancel": _sites_h_cancel,
    "h-colour": _sites_h_colour,
    "h-phase": _sites_h_phase,
    "h-state": _sites_h_state,
    "euler": _sites_euler,
    "euler-inv": _sites_euler_inv,
}


def match_sites(rule: str, d: Diagram) -> list[Anchor]:
    """All anchors where the rule's left-hand side occurs, sorted."""
    if rule not in _MATCHERS:
        raise RuleError(f"unknown rule {rule!r}")
    return sorted(set(_MATCHERS[rule](d)))


# -- anchor validation ------------------------------------------------------------


def _check_id_remove(d: Diagram, anchor: Anchor) -> bool:
    if len(anchor) != 1:
        return False
    (s,) = anchor
    if not (_is_spider(d, s) and d.phase(s) == ZERO
            and d.degree(s) == 2 and not d.self_loops(s)):
        return False
    nbs = d.neighbours(s)
    # removing s must not create an H self-loop
    if len(nbs) == 1 and d.kind(nbs[0]) == HBOX:
        return False
    return True


def _check_bialgebra(d: Diagram, anchor: Anchor) -> bool:
    if len(anchor) != 4 or len(set(anchor)) != 4:
        return False
    a1, a2, b1, b2 = anchor
    if not all(_is_spider(d, v) and d.phase(v) == ZERO and d.degree(v) == 3
               and not d.self_loops(v) for v in anchor):
        return False
    ca = d.kind(a1)
    if d.kind(a2) != ca:
        return False
    cb = other_colour(ca)
    if d.kind(b1) != cb or d.kind(b2) != cb:
        return False
    for a in (a1, a2):
        for b in (b1, b2):
            if d.multiplicity(a, b) != 1:
                return False
    if d.multiplicity(a1, a2) or d.multiplicity(b1, b2):
        return False
    return True


def _check_h_phase(d: Diagram, anchor: Anchor) -> bool:
    if len(anchor) != 2:
        return False
    h, s = anchor
    if not (d.has_node(h) and d.kind(h) == HBOX and _is_spider(d, s)):
        return False
    if d.multiplicity(h, s) != 1 or d.self_loops(s):
        return False
    return d.degree(s) in (1, 2)


def _check_euler_inv(d: Diagram, anchor: Anchor) -> bool:
    if len(anchor) != 3 or len(set(anchor)) != 3:
        return False
    s1, s2, s3 = anchor
    if not all(_is_spider(d, v) and d.phase(v) == MINUS_HALF
               and d.degree(v) == 2 and not d.self_loops(v) for v in anchor):
        return False
    c = d.kind(s1)
    if d.kind(s3) != c or d.kind(s2) != other_colour(c):
        return False
    if d.multiplicity(s1, s2) != 1 or d.multiplicity(s2, s3) != 1:
        return False
    # outer wires must leave the chain
    a = [w for w in d.neighbours(s1) if w != s2]
    b = [w for w in d.neighbours(s3) if w != s2]
    if not a or not b or a[0] in anchor or b[0] in anchor:
        return False
    return True


# -- application -------------------------------------------------------------------


def _replace_edge_end(d: Diagram, u: str, v: str, new_end: str, times: int = 1) -> None:
    """Move `times` copies of edge (u, v) to (new_end, v)."""
    d.remove_edge(u, v, times)
    d.add_edge(new_end, v, times)


def _apply_spider_fuse(d: Diagram, anchor: Anchor) -> Diagram:
    u, v = anchor
    if not (u != v and _is_spider(d, u) and _is_spider(d, v)
            and d.kind(u) == d.kind(v) and d.multiplicity(u, v) >= 1):
        raise RuleError(f"spider-fuse does not match at {anchor}")
    d = d.copy()
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
    return d.check()


def _apply_spider_split(d: Diagram, anchor: Anchor) -> Diagram:
    if not anchor or not _is_spider(d, anchor[0]):
        raise RuleError(f"spider-split does not match at {anchor}")
    s, moved = anchor[0], anchor[1:]
    nbs = set(d.neighbours(s))
    if len(set(moved)) != len(moved) or not all(v in nbs for v in moved):
        raise RuleError(f"spider-split anchor lists non-neighbours at {anchor}")
    d = d.copy()
    fresh = d.add_node(d.kind(s), 0)
    for v in moved:
        _replace_edge_end(d, s, v, fresh, d.multiplicity(s, v))
    d.add_edge(s, fresh)
    return d.check()


def _apply_id_remove(d: Diagram, anchor: Anchor) -> Diagram:
    if not _check_id_remove(d, anchor):
        raise RuleError(f"id-remove does not match at {anchor}")
    (s,) = anchor
    d = d.copy()
    ends = []
    for w in d.neighbours(s):
        ends.extend([w] * d.multiplicity(s, w))
        d.remove_edge(s, w, d.multiplicity(s, w))
    d.remove_node(s)
    d.add_edge(ends[0], ends[1])
    return d.check()


def _apply_id_insert(d: Diagram, anchor: Anchor) -> Diagram:
    if len(anchor) != 2:
        raise RuleError(f"id-insert needs two endpoints, got {anchor}")
    u, v = anchor
    if u == v or not d.has_node(u) or d.multiplicity(u, v) < 1:
        raise RuleError(f"id-insert does not match at {anchor}")
    colour = other_colour(d.kind(u)) if _is_spider(d, u) else Z
    d = d.copy()
    s = d.add_node(colour, 0)
    d.remove_edge(u, v)
    d.add_edge(u, s)
    d.add_edge(s, v)
    return d.check()


def _apply_self_loop(d: Diagram, anchor: Anchor) -> Diagram:
    (s,) = anchor
    if not (_is_spider(d, s) and d.self_loops(s) >= 1):
        raise RuleError(f"self-loop does not match at {anchor}")
    d = d.copy()
    d.remove_edge(s, s)
    return d.check()


def _stamp_states(d: Diagram, s: str, colour: str, phase: Phase) -> None:
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


def _apply_copy(d: Diagram, anchor: Anchor) -> Diagram:
    if len(anchor) != 2:
        raise RuleError(f"copy needs (state, spider), got {anchor}")
    state, s = anchor
    if not (_basis_state(d, state) and _is_spider(d, s) and state != s
            and d.multiplicity(state, s) == 1
            and d.kind(s) == other_colour(d.kind(state))):
        raise RuleError(f"copy does not match at {anchor}")
    colour, phase = d.kind(state), d.phase(state)
    d = d.copy()
    d.remove_edge(state, s)
    d.remove_node(state)
    _stamp_states(d, s, colour, phase)
    return d.check()


def _apply_bialgebra(d: Diagram, anchor: Anchor) -> Diagram:
    if not _check_bialgebra(d, anchor):
        raise RuleError(f"bialgebra does not match at {anchor}")
    a1, a2, b1, b2 = anchor
    ca, cb = d.kind(a1), d.kind(b1)
    d = d.copy()

    def ext_end(v: str, others: Iterable[str]) -> str:
        for w in d.neighbours(v):
            if w not in others:
                return w
        raise RuleError(f"bialgebra anchor node {v!r} has no external leg")

    ea1, ea2 = ext_end(a1, anchor), ext_end(a2, anchor)
    eb1, eb2 = ext_end(b1, anchor), ext_end(b2, anchor)
    nb = d.add_node(cb, 0)       # takes the a-side external legs
    na = d.add_node(ca, 0)       # takes the b-side external legs
    for v, e, tgt in ((a1, ea1, nb), (a2, ea2, nb), (b1, eb1, na), (b2, eb2, na)):
        d.remove_edge(v, e)
        d.add_edge(tgt, e)
    for a in (a1, a2):
        for b in (b1, b2):
            d.remove_edge(a, b)
    for v in anchor:
        d.remove_node(v)
    d.add_edge(na, nb)
    return d.check()


def _apply_pi_commute(d: Diagram, anchor: Anchor) -> Diagram:
    if len(anchor) != 2:
        raise RuleError(f"pi-commute needs (pi-node, spider), got {anchor}")
    r, s = anchor
    if not (_is_spider(d, r) and d.degree(r) == 2 and d.phase(r) == PI
            and not d.self_loops(r) and _is_spider(d, s) and s != r
            and d.multiplicity(r, s) == 1
            and d.kind(s) == other_colour(d.kind(r))
            and d.phase(s) == ZERO and not d.self_loops(s)):
        raise RuleError(f"pi-commute does not match at {anchor}")
    colour = d.kind(r)
    d = d.copy()
    # pi nodes go onto every leg of s except the one the pi came through
    legs = [(w, d.multiplicity(s, w)) for w in d.neighbours(s) if w != r]
    a = [w for w in d.neighbours(r) if w != s][0]
    d.remove_edge(r, s)
    d.remove_edge(r, a)
    d.remove_node(r)
    for w, m in legs:
        for _ in range(m):
            p = d.add_node(colour, PI)
            d.remove_edge(s, w)
            d.add_edge(s, p)
            d.add_edge(p, w)
    d.add_edge(a, s)
    return d.check()


def _apply_pi_state(d: Diagram, anchor: Anchor) -> Diagram:
    if len(anchor) != 2:
        raise RuleError(f"pi-state needs (state, spider), got {anchor}")
    state, s = anchor
    if not (_basis_state(d, state) and _is_spider(d, s) and s != state
            and d.multiplicity(state, s) == 1 and d.degree(s) == 2
            and not d.self_loops(s)
            and d.kind(s) == other_colour(d.kind(state))):
        raise RuleError(f"pi-state does not match at {anchor}")
    d = d.copy()
    other = [w for w in d.neighbours(s) if w != state][0]
    d.remove_edge(s, state)
    d.remove_edge(s, other)
    d.remove_node(s)
    d.add_edge(state, other)
    return d.check()


def _apply_hopf(d: Diagram, anchor: Anchor) -> Diagram:
    u, v = anchor
    if not (u != v and _is_spider(d, u) and _is_spider(d, v)
            and d.kind(u) != d.kind(v) and d.multiplicity(u, v) >= 2):
        raise RuleError(f"hopf does not match at {anchor}")
    d = d.copy()
    d.remove_edge(u, v, 2)
    return d.check()


def _apply_h_cancel(d: Diagram, anchor: Anchor) -> Diagram:
    h1, h2 = anchor
    if not (h1 != h2 and d.has_node(h1) and d.has_node(h2)
            and d.kind(h1) == HBOX and d.kind(h2) == HBOX
            and d.multiplicity(h1, h2) >= 1 and _h_cancel_ok(d, h1, h2)):
        raise RuleError(f"h-cancel does not match at {anchor}")
    d = d.copy()
    if d.multiplicity(h1, h2) == 2:
        # a closed HH pair is a scalar; drop it
        d.remove_edge(h1, h2, 2)
        d.remove_node(h1)
        d.remove_node(h2)
        return d.check()
    a = [w for w in d.neighbours(h1) if w != h2][0]
    b = [w for w in d.neighbours(h2) if w != h1][0]
    d.remove_edge(h1, h2)
    d.remove_edge(h1, a)
    d.remove_edge(h2, b)
    d.remove_node(h1)
    d.remove_node(h2)
    d.add_edge(a, b)
    return d.check()


def _apply_h_colour(d: Diagram, anchor: Anchor) -> Diagram:
    if len(anchor) != 1 or not _is_spider(d, anchor[0]):
        raise RuleError(f"h-colour does not match at {anchor}")
    (s,) = anchor
    d = d.copy()
    for w in list(d.neighbours(s)):
        if d.kind(w) == HBOX:
            if d.multiplicity(s, w) == 2:
                continue  # box has both ends on s: toggles cancel pairwise
            far = [x for x in d.neighbours(w) if x != s][0]
            d.remove_edge(s, w)
            d.remove_edge(w, far)
            d.remove_node(w)
            d.add_edge(s, far)
        else:
            for _ in range(d.multiplicity(s, w)):
                h = d.add_node(HBOX)
                d.remove_edge(s, w)
                d.add_edge(s, h)
                d.add_edge(h, w)
    # self-loops are invariant: the two inserted boxes would cancel
    d.set_kind(s, other_colour(d.kind(s)))
    return d.check()


def _apply_h_phase(d: Diagram, anchor: Anchor) -> Diagram:
    if not _check_h_phase(d, anchor):
        raise RuleError(f"h-phase does not match at {anchor}")
    h, s = anchor
    d = d.copy()
    far_h = [w for w in d.neighbours(h) if w != s][0]
    if d.degree(s) == 1:
        # state form: absorb the box
        d.remove_edge(h, s)
        d.remove_edge(h, far_h)
        d.remove_node(h)
        d.add_edge(s, far_h)
    else:
        far_s = [w for w in d.neighbours(s) if w != h]
        if not far_s:
            raise RuleError(f"h-phase does not match at {anchor}")
        far_s = far_s[0]
        d.remove_edge(s, far_s)
        d.remove_edge(h, far_h)
        d.add_edge(h, far_s)
        d.add_edge(s, far_h)
    d.set_kind(s, other_colour(d.kind(s)))
    return d.check()


def _apply_h_state(d: Diagram, anchor: Anchor) -> Diagram:
    h, s = anchor
    if not (d.has_node(h) and d.kind(h) == HBOX and _is_spider(d, s)
            and d.degree(s) == 1 and d.phase(s) == ZERO
            and d.multiplicity(h, s) == 1):
        raise RuleError(f"h-state does not match at {anchor}")
    return _apply_h_phase(d, (h, s))


def _apply_euler(d: Diagram, anchor: Anchor) -> Diagram:
    (h,) = anchor
    if not (d.has_node(h) and d.kind(h) == HBOX):
        raise RuleError(f"euler does not match at {anchor}")
    d = d.copy()
    ends = []
    for w in list(d.neighbours(h)):
        ends.extend([w] * d.multiplicity(h, w))
        d.remove_edge(h, w, d.multiplicity(h, w))
    d.remove_node(h)
    s1 = d.add_node(Z, MINUS_HALF)
    s2 = d.add_node(X, MINUS_HALF)
    s3 = d.add_node(Z, MINUS_HALF)
    d.add_edge(ends[0], s1)
    d.add_edge(s1, s2)
    d.add_edge(s2, s3)
    d.add_edge(s3, ends[1])
    return d.check()


def _apply_euler_inv(d: Diagram, anchor: Anchor) -> Diagram:
    if not _check_euler_inv(d, anchor):
        raise RuleError(f"euler-inv does not match at {anchor}")
    s1, s2, s3 = anchor
    d = d.copy()
    a = [w for w in d.neighbours(s1) if w != s2][0]
    b = [w for w in d.neighbours(s3) if w != s2][0]
    h = d.add_node(HBOX)
    d.remove_edge(s1, a)
    d.remove_edge(s3, b)
    d.remove_edge(s1, s2)
    d.remove_edge(s2, s3)
    for v in anchor:
        d.remove_node(v)
    d.add_edge(a, h)
    d.add_edge(h, b)
    return d.check()


_APPLIERS: dict[str, Callable[[Diagram, Anchor], Diagram]] = {
    "spider-fuse": _apply_spider_fuse,
    "spider-split": _apply_spider_split,
    "id-remove": _apply_id_remove,
    "id-insert": _apply_id_insert,
    "self-loop": _apply_self_loop,
    "copy": _apply_copy,
    "bialgebra": _apply_bialgebra,
    "pi-commute": _apply_pi_commute,
    "pi-state": _apply_pi_state,
    "hopf": _apply_hopf,
    "h-cancel": _apply_h_cancel,
    "h-colour": _apply_h_colour,
    "h-phase": _apply_h_phase,
    "h-state": _apply_h_state,
    "euler": _apply_euler,
    "euler-inv": _apply_euler_inv,
}


def apply(rule: str, d: Diagram, anchor: Sequence[str],
          euler_on: bool = False) -> Diagram:
    """Apply the rule at the anchor, returning the rewritten diagram."""
    if rule not in _APPLIERS:
        raise RuleError(f"unknown rule {rule!r}")
    if rule in EULER_RULES and not euler_on:
        raise RuleError(f"{rule} is gated off (pass euler_on=True to enable)")
    return _APPLIERS[rule](d, tuple(anchor))


# -- normalization ------------------------------------------------------------------

_NORMALIZE_PRIORITY = ("spider-fuse", "self-loop", "id-remove", "hopf")


def normalize(d: Diagram, trace: list[tuple[str, Anchor]] | None = None) -> Diagram:
    """Exhaustively fuse, drop loops, remove identities and apply Hopf.

    Deterministic: always the lexicographically smallest anchor of the
    highest-priority applicable rule. Each step strictly decreases
    (node count, edge count), so this terminates.
    """
    current = d
    while True:
        measure = (current.node_count(), current.edge_count())
        for rule in _NORMALIZE_PRIORITY:
            sites = match_sites(rule, current)
            if sites:
                current = apply(rule, current, sites[0])
                if trace is not None:
                    trace.append((rule, sites[0]))
                break
        else:
            return current
        if not (current.node_count(), current.edge_count()) < measure:
            raise RuntimeError("normalization step failed to decrease the measure")


def is_bipartite_form(d: Diagram) -> bool:
    """True iff no edge joins two same-colour spiders. H-boxes are rejected."""
    for v in d.nodes():
        if d.kind(v) == HBOX:
            raise DiagramError("diagram contains H-boxes")
    for u, v, m in d.edges():
        if u != v and _is_spider(d, u) and _is_spider(d, v) and d.kind(u) == d.kind(v):
            return False
    return True
