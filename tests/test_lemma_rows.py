"""use-pi2-colour and assume-lc-triangle as equation rows of ``rules``.

Each step had a hand-written check and rewrite. They are kept here verbatim
as the reference: on every ordered anchor of the rule's arity over the
corpus below, the row gives the reference's verdict, and on every match the
same result, node ids included, the same next fresh id, the same new nodes
in creation order and the same patch.
"""

import itertools
import random
from itertools import combinations

from conftest import circuit, random_diagram
from zxr import lemmas, rules
from zxr.diagram import HBOX, SPIDERS, X, Z, Diagram
from zxr.graphstate import all_graphs, graph_state
from zxr.phase import HALF_PI, MINUS_HALF_PI, ZERO
from zxr.textio import parse, serialize


def _is_spider(d: Diagram, v: str) -> bool:
    return d.kind(v) in SPIDERS


def _hboxes_between(d, u, v):
    return [w for w in d.neighbours(u)
            if d.kind(w) == HBOX and d.multiplicity(w, v) == 1
            and d.multiplicity(w, u) == 1]


def _check_assume_lc_triangle(d, anchor):
    """Three phase-0 green dots pairwise joined through one H-box each, the
    first of degree exactly 3 and free of self-loops."""
    return (all(d.kind(v) == Z and d.phase(v) == ZERO for v in anchor)
            and all(len(_hboxes_between(d, p, q)) == 1
                    for p, q in combinations(anchor, 2))
            and d.degree(anchor[0]) == 3 and not d.self_loops(anchor[0]))


def _rewrite_assume_lc_triangle(d, anchor):
    """Complement the triangle {u, a, b} locally at u: the a-b box is
    deleted, a and b each acquire -pi/2, and an X(pi/2) node lands on u's
    remaining leg."""
    u, a, b = anchor
    boxes = _hboxes_between(d, u, a) + _hboxes_between(d, u, b)
    (w,) = [x for x in d.neighbours(u) if x not in boxes]
    (h_ab,) = _hboxes_between(d, a, b)
    d.remove_edge(h_ab, a)
    d.remove_edge(h_ab, b)
    d.remove_node(h_ab)
    d.set_phase(a, d.phase(a) + MINUS_HALF_PI)
    d.set_phase(b, d.phase(b) + MINUS_HALF_PI)
    d.splice(u, w, X, HALF_PI)
    return d


def _check_use_pi2_colour(d, anchor):
    """An opposite-colour degree-1 pendant of phase -pi/2 or +pi/2."""
    s, pend = anchor
    return (_is_spider(d, s) and _is_spider(d, pend)
            and d.kind(pend) != d.kind(s) and d.degree(pend) == 1
            and d.multiplicity(s, pend) == 1
            and d.phase(pend) in (HALF_PI, MINUS_HALF_PI))


def _rewrite_use_pi2_colour(d, anchor):
    """Absorb the pendant, adding +pi/2 (for -pi/2) or -pi/2 (for +pi/2)."""
    s, pend = anchor
    delta = HALF_PI if d.phase(pend) == MINUS_HALF_PI else MINUS_HALF_PI
    d.remove_edge(s, pend)
    d.remove_node(pend)
    d.set_phase(s, d.phase(s) + delta)
    return d


REFERENCE = {"use-pi2-colour": (2, _check_use_pi2_colour, _rewrite_use_pi2_colour),
             "assume-lc-triangle": (3, _check_assume_lc_triangle,
                                    _rewrite_assume_lc_triangle)}

# sites the lemma intermediates do not hold: pendants of both colours and
# signs (and pi, no site) on spiders with a self-loop; triangles where u's
# own wire is a plain edge to a (the rewrite puts X(pi/2) on it), where a
# and b carry extra legs of every kind, self-loops and parallel edges, or
# where one corner has a phase (no site)
_ODD = [f"node s {c} 1/3\nnode p {k} {phase}\nout o\nedge s s\nedge s o\nedge s p\n"
        for c, k, phase in itertools.product("zx", "zx", ("1/2", "-1/2", "1"))] + [
    f"node u z {pu}\nnode a z {pa}\nnode b z\nnode h1 h\nnode h2 h\nnode h3 h\nout o p\n"
    "edge u h1\nedge h1 a\nedge u h2\nedge h2 b\nedge a h3\nedge h3 b\nedge u o\nedge a p\n"
    for pu, pa in (("1/2", "0"), ("0", "1/2"))] + [
    "node u z\nnode a z\nnode b z\nnode h1 h\nnode h2 h\nnode h3 h\nout o\n"
    "edge u h1\nedge h1 a\nedge u h2\nedge h2 b\nedge a h3\nedge h3 b\nedge u a\nedge b o\n",
    "node u z\nnode a z\nnode b z\nnode c x 1/2\nnode h1 h\nnode h2 h\nnode h3 h\n"
    "node h4 h\nout o\nedge u h1\nedge h1 a\nedge u h2\nedge h2 b\nedge a h3\n"
    "edge h3 b\nedge u o\nedge a a\nedge a b\nedge a b\nedge b h4\nedge h4 c\n",
]


def _steps(deriv):
    """The start of the derivation and every diagram its steps reach."""
    d = deriv.start
    yield d
    for rule, anchor in deriv.script.steps:
        d = rules.apply(rule, d, anchor, euler_on=True)
        yield d


def _corpus():
    rng = random.Random(20240817)
    yield from (random_diagram(rng) for _ in range(120))
    yield from (circuit(rng, 3, 10 + 2 * i) for i in range(4))
    for deriv in (*lemmas.pi2_colour_change(), lemmas.triangle_lc(),
                  *lemmas.lc_implies_euler().values()):
        yield from _steps(deriv)
    yield from (graph_state(g) for g in all_graphs(tuple("abcd")))
    yield from map(parse, _ODD)


def test_lemma_rows_agree_with_the_hand_written_steps():
    matched = {rule: 0 for rule in REFERENCE}
    for d in _corpus():
        for rule, (arity, check, rewrite) in REFERENCE.items():
            row = rules.RULES[rule]
            for anchor in itertools.permutations(d.nodes(), arity):
                verdict = check(d, anchor)
                assert bool(row.check(d, anchor)) == verdict, (rule, anchor, serialize(d))
                if not verdict:
                    continue
                matched[rule] += 1
                out = rules.apply(rule, d, anchor, euler_on=True)
                ref = rewrite(d.copy(), anchor).checked()
                assert serialize(out) == serialize(ref), (rule, anchor)
                assert out.created_since(d) == ref.created_since(d), (rule, anchor)
                assert out.changed_since(d) == ref.changed_since(d), (rule, anchor)
                assert out.fresh_id() == ref.fresh_id(), (rule, anchor)
    assert matched == {"use-pi2-colour": 21, "assume-lc-triangle": 122}
