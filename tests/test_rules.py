import copy
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import circuit, random_diagram, tangled
from zxr import lemmas, rules, shipped
from zxr.diagram import (BOUNDARY, HBOX, Diagram, X, Z, compose, euler_chain,
                         generator, h_wire, iso_equal, rotation_chain, spider,
                         wire)
from zxr.graphstate import all_graphs, graph_state, vdn_lhs
from zxr.phase import PI, ZERO, Phase
from zxr.semantics import diagrams_equal
from zxr.textio import parse, serialize


def chain(*parts):
    return rotation_chain(list(parts))


def hopf_lhs():
    d = Diagram()
    d.add_node(Z, 0, name="g")
    d.add_node(X, 0, name="x")
    d.add_edge("g", "x", 2)
    d.add_node(BOUNDARY, name="i")
    d.add_node(BOUNDARY, name="o")
    d.add_edge("i", "g")
    d.add_edge("x", "o")
    d.inputs, d.outputs = ("i",), ("o",)
    return d.check()


def test_match_sites_examples():
    assert len(rules.match_sites("hopf", hopf_lhs())) == 1
    fusable = compose(generator("phase_z", Phase(1, 2)),
                      generator("phase_z", Phase(1, 2)))
    assert len(rules.match_sites("spider-fuse", fusable)) == 1
    assert rules.match_sites("h-cancel", generator("h")) == []


def test_match_sites_sorted_and_unique():
    # the candidates come unsorted: match_sites' sort alone orders the sites
    for d in _candidate_corpus():
        for rule in rules.RULE_IDS:
            sites = rules.match_sites(rule, d)
            assert sites == sorted(set(sites))


def test_spider_fuse_adds_phases():
    d = compose(generator("phase_z", Phase(1, 2)),
                generator("phase_z", Phase(1, 2)))
    (anchor,) = rules.match_sites("spider-fuse", d)
    out = rules.apply("spider-fuse", d, anchor)
    assert iso_equal(out, generator("phase_z", Phase(1)))


def test_hopf_disconnects():
    d = hopf_lhs()
    (anchor,) = rules.match_sites("hopf", d)
    out = rules.apply("hopf", d, anchor)
    assert out.multiplicity("g", "x") == 0
    assert diagrams_equal(d, out)


def test_euler_gate():
    h = generator("h")
    (anchor,) = rules.match_sites("euler", h)
    with pytest.raises(rules.RuleError):
        rules.apply("euler", h, anchor)
    out = rules.apply("euler", h, anchor, euler_on=True)
    phases = sorted((out.kind(v), out.phase(v).token()) for v in out.spiders())
    assert phases == [("x", "3/2"), ("z", "3/2"), ("z", "3/2")]
    assert diagrams_equal(h, out)
    assert not diagrams_equal(h, out, 2)


def test_anchor_mismatch_raises():
    with pytest.raises(rules.RuleError):
        rules.apply("spider-fuse", generator("h"), ("g", "g"))
    with pytest.raises(rules.RuleError):
        rules.apply("hopf", hopf_lhs(), ("i", "o"))
    # euler-inv matches a z-x-z chain of -pi/2 spiders, not a z-z-z one whose
    # colours do not alternate, nor s1 and s2 joined twice with s3 alone
    nodes = "node s1 z 3/2\nnode s2 {} 3/2\nnode s3 z 3/2\nin i\nout o\n"
    path = "edge i s1\nedge s1 s2\nedge s2 s3\nedge s3 o\n"
    doubled = "edge s1 s2\nedge s1 s2\nedge i s3\nedge s3 o\n"
    anchor = ("s1", "s2", "s3")
    rules.apply("euler-inv", parse(nodes.format("x") + path), anchor, euler_on=True)
    for text in (nodes.format("z") + path, nodes.format("x") + doubled):
        with pytest.raises(rules.RuleError, match="does not match"):
            rules.apply("euler-inv", parse(text), anchor, euler_on=True)


def test_soundness_every_rule_every_anchor(rng):
    checked = set()
    for _ in range(60):
        d = random_diagram(rng)
        for rule in rules.RULE_IDS:
            for anchor in rules.match_sites(rule, d):
                out = rules.apply(rule, d, anchor, euler_on=True)
                checked.add(rule)
                for n in (1, 2):
                    if rules.RULES[rule].euler and n != 1:
                        continue
                    assert diagrams_equal(d, out, n), (rule, anchor, n)
    assert {"spider-fuse", "id-remove", "self-loop", "h-colour",
            "h-phase", "id-insert", "spider-split"} <= checked


def test_match_sites_refuses_a_script_only_step():
    script_only = [name for name, r in rules.RULES.items() if r.candidates is None]
    assert "cut-h-core" in script_only
    for name in script_only:
        with pytest.raises(rules.RuleError, match=f"unknown rule '{name}'"):
            rules.match_sites(name, generator("h"))


def test_normalize_refuses_a_step_that_does_not_shrink(monkeypatch):
    # a spider-fuse that rewrites nothing would loop forever
    fuse = rules.RULES["spider-fuse"]
    monkeypatch.setitem(rules.RULES, "spider-fuse", fuse._replace(rewrite=lambda d, a: d))
    d = compose(generator("phase_z", Phase(1, 3)), generator("phase_z", Phase(1, 2)))
    with pytest.raises(RuntimeError, match="failed to decrease the measure"):
        rules.normalize(d)


def test_normalize_chain_fuses():
    d = compose(generator("phase_z", Phase(1, 3)),
                compose(generator("phase_z", Phase(1, 2)),
                        generator("phase_z", Phase(1, 6))))
    out = rules.normalize(d)
    assert iso_equal(out, generator("phase_z", Phase(1)))


def test_normalize_hopf_lhs():
    out = rules.normalize(hopf_lhs())
    assert out.multiplicity("g", "x") == 0
    assert diagrams_equal(hopf_lhs(), out)


def test_normalize_wire_fixpoint():
    assert iso_equal(rules.normalize(wire()), wire())


def normalized_invariants(d):
    for u, v, m in d.edges():
        if u == v:
            return False
        if (d.kind(u) in (Z, X) and d.kind(v) in (Z, X)
                and d.kind(u) == d.kind(v)):
            return False
        if m >= 2 and d.kind(u) in (Z, X) and d.kind(v) in (Z, X):
            return False
    for s in d.spiders():
        if d.phase(s).is_zero() and d.degree(s) == 2 and not d.self_loops(s):
            nbs = d.neighbours(s)
            if not (len(nbs) == 1 and d.kind(nbs[0]) == HBOX):
                return False
    return True


def test_normalize_properties(rng):
    for _ in range(60):
        d = random_diagram(rng)
        out = rules.normalize(d)
        assert normalized_invariants(out)
        assert diagrams_equal(d, out)


def test_normalize_measure_trace(rng):
    for _ in range(20):
        d = random_diagram(rng)
        trace = []
        cur = d
        out = rules.normalize(d, trace=trace)
        for rule, anchor in trace:
            nxt = rules.apply(rule, cur, anchor)
            assert (nxt.node_count(), nxt.edge_count()) < \
                (cur.node_count(), cur.edge_count())
            cur = nxt
        assert iso_equal(cur, out)


def test_is_bipartite_form():
    assert not rules.match_sites("spider-fuse", hopf_lhs())
    fusable = compose(generator("phase_z", Phase(1, 2)),
                      generator("phase_z", Phase(1, 2)))
    assert rules.match_sites("spider-fuse", fusable)
    assert not rules.match_sites("spider-fuse", generator("phase_z", Phase(1, 2)))


def test_normalize_is_bipartite_on_h_free(rng):
    for _ in range(30):
        d = random_diagram(rng)
        if any(d.kind(v) == HBOX for v in d.nodes()):
            continue
        assert not rules.match_sites("spider-fuse", rules.normalize(d))


def test_graph_state_already_normal():
    from zxr.graphstate import graph_state, triangle
    d = graph_state(triangle())
    assert iso_equal(rules.normalize(d), d)


def _bialgebra_candidates_by_pairs(d):
    """The generator that tried every pair of same-colour spiders, kept as
    the reference for the two-hop walk."""
    spiders = d.spiders()
    for a1 in spiders:
        for a2 in spiders:
            if a2 <= a1 or d.kind(a1) != d.kind(a2):
                continue
            shared = [g for g in d.neighbours(a1)
                      if g in d.neighbours(a2) and rules._is_spider(d, g)
                      and d.kind(g) == rules.other_colour(d.kind(a1))]
            for b1, b2 in itertools.combinations(shared, 2):
                yield (a1, a2, b1, b2)


def test_bialgebra_walk_finds_the_pairwise_candidates(rng):
    diagrams = []
    for _ in range(300):
        d = random_diagram(rng, max_spiders=10)
        diagrams += [d, tangled(d.copy(), rng)]
    for i in range(12):
        d = circuit(rng, 2 + i % 4, 30 + 5 * i)
        diagrams += [d, tangled(d.copy(), rng)]
    found = parallel = looped = 0
    for d in diagrams:
        want = set(_bialgebra_candidates_by_pairs(d))
        assert set(rules._bialgebra_candidates(d)) == want, d.edges()
        found += bool(want)
        parallel += bool(want) and any(m > 1 for u, v, m in d.edges() if u != v)
        looped += bool(want) and any(u == v for u, v, _ in d.edges())
    assert found > 100 and parallel > 80 and looped > 80, (found, parallel, looped)


# -- the sorted candidate generators, kept as the reference for the unsorted ----


def _sorted_basis_state(d, v):
    """Degree-1 spider with phase 0 or pi."""
    return (rules._is_spider(d, v) and d.degree(v) == 1
            and d.phase(v) in (ZERO, PI))


def _sorted_pi_wire(d, r):
    """Degree-2 pi spider without self-loops."""
    return (rules._is_spider(d, r) and d.phase(r) == PI and d.degree(r) == 2
            and not d.self_loops(r))


def _sorted_spiders(d):
    return [(s,) for s in d.spiders()]


def _sorted_nodes(d):
    return [(v,) for v in d.nodes()]


def _sorted_edges(d):
    """Each non-loop edge once, as (u, v) with u < v."""
    return [(u, v) for u, v, _ in d.edges() if u != v]


def _sorted_parallel(d):
    """Each edge of multiplicity 2 or more once, as (u, v) with u < v."""
    return [(u, v) for u, v, m in d.edges() if u != v and m > 1]


def _sorted_looped(d):
    return [(s,) for s in d.spiders() if d.self_loops(s)]


def _sorted_h_pairs(d):
    """Each edge between two H-boxes once, as (u, v) with u < v."""
    return [(u, v) for u, v, _ in d.edges() if u != v and d.kind(u) == HBOX == d.kind(v)]


def _sorted_h_states(d):
    """(h, s) for each H-box h and degree-1 spider s beside it."""
    return [(h, s) for h in d.nodes() if rules._is_hbox(d, h) for s in d.neighbours(h)
            if d.degree(s) == 1 and rules._is_spider(d, s)]


def _sorted_adjacent(d):
    """Each non-loop edge in both orders."""
    return [p for u, v in _sorted_edges(d) for p in ((u, v), (v, u))]


def _sorted_led_by(lead):
    def candidates(d):
        return [(u, v) for u in d.nodes() if lead(d, u) for v in d.neighbours(u)]
    return candidates


def _sorted_bialgebra(d):
    for a1 in d.spiders():
        colour = d.kind(a1)
        across = rules.other_colour(colour)
        shared = {}
        for g in d.neighbours(a1):
            if d.kind(g) == across:
                for a2 in d.neighbours(g):
                    if a2 > a1 and d.kind(a2) == colour:
                        shared.setdefault(a2, []).append(g)
        for a2 in sorted(shared):
            for b1, b2 in itertools.combinations(shared[a2], 2):
                yield (a1, a2, b1, b2)


def _sorted_euler_inv(d):
    for s2 in d.spiders():
        nbs = d.neighbours(s2)
        if len(nbs) == 2:
            yield (nbs[0], s2, nbs[1])


SORTED_CANDIDATES = {
    "spider-fuse": _sorted_edges, "spider-split": _sorted_spiders,
    "id-remove": _sorted_spiders, "id-insert": _sorted_adjacent,
    "self-loop": _sorted_looped, "copy": _sorted_led_by(_sorted_basis_state),
    "bialgebra": _sorted_bialgebra, "pi-commute": _sorted_led_by(_sorted_pi_wire),
    "pi-state": _sorted_led_by(_sorted_basis_state), "hopf": _sorted_parallel,
    "h-cancel": _sorted_h_pairs, "h-colour": _sorted_spiders,
    "h-phase": _sorted_led_by(rules._is_hbox), "h-state": _sorted_h_states,
    "euler": _sorted_nodes, "euler-inv": _sorted_euler_inv,
}


def _candidate_corpus():
    """Random diagrams and circuits, each also tangled (parallel edges and
    self-loops), and graph states with and without their local
    complementation rotations, on vertex names out of sorted order."""
    rng = random.Random(4545)
    out = []
    for _ in range(300):
        d = random_diagram(rng, max_spiders=10)
        out += [d, tangled(d.copy(), rng)]
    for i in range(12):
        d = circuit(rng, 2 + i % 4, 30 + 5 * i)
        out += [d, tangled(d.copy(), rng)]
    for n in range(1, 5):
        for g in all_graphs(tuple("caeb"[:n])):
            out += [graph_state(g)] + [vdn_lhs(g, u) for u in g.vertices]
    return out


def test_unsorted_candidates_are_the_sorted_ones():
    assert set(SORTED_CANDIDATES) == set(rules.RULE_IDS)
    sites = Counter()
    for d in _candidate_corpus():
        for rule, reference in SORTED_CANDIDATES.items():
            r = rules.RULES[rule]
            want = list(reference(d))
            assert sorted(r.candidates(d)) == sorted(want), (rule, d.edges())
            found = rules.match_sites(rule, d)
            assert found == sorted({a for a in want if r.check(d, a)}), (rule, d.edges())
            sites[rule] += len(found)
    assert all(sites[rule] for rule in rules.RULE_IDS), sites
    assert sum(sites.values()) > 20000, sites


# -- golden behaviour ----------------------------------------------------------

# SHA-256 of every site list, and of the outcome of apply at every site and
# near-miss anchor, over the corpus below (see _golden_lines). A change to a
# rule's match condition or rewrite moves it.
GOLDEN_DIGEST = "48d570061bfce8edc74239e9106b83bd5551f19a8973e4a100a0fdfbe00684d0"

_ONE_NODE = ("id-remove", "self-loop", "h-colour", "euler")


def _golden_corpus():
    rng = random.Random(20240817)
    out = []
    for _ in range(120):
        d = random_diagram(rng)
        out.append(d)
        for anchor in rules.match_sites("euler", d)[:1]:
            out.append(rules.apply("euler", d, anchor, euler_on=True))
    closed_hh = Diagram()
    h_triangle = Diagram()
    h_ring = Diagram()
    for h in ("h1", "h2", "h3"):
        h_triangle.add_node(HBOX, name=h)
    for d in (closed_hh, h_ring):
        d.add_node(HBOX, name="h1")
        d.add_node(HBOX, name="h2")
    closed_hh.add_edge("h1", "h2", 2)
    h_triangle.add_edge("h1", "h2")
    h_triangle.add_edge("h2", "h3")
    h_triangle.add_edge("h3", "h1")
    h_ring.add_node(Z, Phase(1, 3), name="s")
    h_ring.add_edge("s", "h1")
    h_ring.add_edge("h1", "h2")
    h_ring.add_edge("h2", "s")
    m = Phase(-1, 2)
    return out + [
        closed_hh.check(), h_triangle.check(), h_ring.check(), hopf_lhs(),
        compose(generator("h"), generator("h")), chain("h", "h", "h"),
        chain((Z, m), (X, m), (Z, m)), chain((X, m), (Z, m), (X, m), "h"),
        compose(spider(Z, 1, 2), generator("phase_x", 1)),
        compose(spider(X, 1, 3), generator("phase_z", 1)),
        compose(generator("phase_x", "1/2"), spider(Z, 0, 1, 1)),
        compose(generator("h"), spider(Z, 0, 1, 0)),
        lemmas.complete_bipartite_diagram(2, 2),
        lemmas.complete_bipartite_diagram(2, 3)]


def _near_misses(rule, d, sites):
    """Anchors of the rule's arity that may or may not match."""
    nodes = d.nodes()
    if rule in _ONE_NODE:
        return [(v,) for v in nodes]
    if rule == "bialgebra":
        return [p for s in sites for p in itertools.permutations(s)]
    if rule == "euler-inv":
        return [s[::-1] for s in sites] + [
            (a, v, b) for v in nodes
            for a in d.neighbours(v) for b in d.neighbours(v)]
    if rule == "spider-split":
        out = []
        for s in nodes:
            nbs = d.neighbours(s)
            for k in range(len(nbs) + 1):
                out += [(s, *c) for c in itertools.combinations(nbs, k)]
            out += [(s, w) for w in nodes if w not in nbs]
            out += [(s, v, v) for v in nbs]
        return out
    return list(itertools.product(nodes, repeat=2))


def _golden_lines():
    for d in _golden_corpus():
        for rule in rules.RULE_IDS:
            sites = rules.match_sites(rule, d)
            yield f"{rule} {sites}"
            for anchor in sites + _near_misses(rule, d, sites):
                try:
                    out = serialize(rules.apply(rule, d, anchor, euler_on=True))
                except rules.RuleError:
                    out = "RuleError"
                yield f"{anchor} {out}"


def test_golden_sites_and_rewrites():
    digest = hashlib.sha256()
    for line in _golden_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


# SHA-256 of the order state each rewrite above leaves, which sorted serialize
# text cannot see: the network (its H factors follow adjacency order), the
# log in touch order, the next fresh id and each node's neighbour order. The
# matrix memo and replay read these, so a faster rewrite must not move them.
ORDER_DIGEST = "0e494848f685587daf9cc3465600dda11f0e0bdb29a8133b76ade7d1285fcbf2"


def _order_lines():
    for d in _golden_corpus():
        for rule in rules.RULE_IDS:
            sites = rules.match_sites(rule, d)
            for anchor in sites + _near_misses(rule, d, sites):
                try:
                    out = rules.apply(rule, d, anchor, euler_on=True)
                except rules.RuleError:
                    yield f"{anchor} RuleError"
                    continue
                around = [(v, list(out.around(v))) for v in out.nodes()]
                yield (f"{anchor} {out.network()} {list(out.touched())} "
                       f"{copy.copy(out).fresh_id()} {around}")


def test_golden_rewrites_leave_the_same_order_state():
    digest = hashlib.sha256()
    for line in _order_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == ORDER_DIGEST


def _script_derivations():
    """Every shipped derivation and every stage of lemmas.lc_implies_euler():
    the script-only steps' sites."""
    derivs = [build() for _, build in sorted(shipped.BUILDERS.items())]
    return derivs + [deriv for _, deriv in sorted(lemmas.lc_implies_euler().items())]


def _contract_sites():
    """(rule, diagram, anchor) at every site of the golden corpus, at hub2's
    one site on the end of lemmas.hub2()'s left side (no script steps
    through it), and at every step of the derivations above."""
    for d in _golden_corpus():
        for rule in rules.RULE_IDS:
            for anchor in rules.match_sites(rule, d):
                yield rule, d, anchor
    yield "hub2", lemmas.hub2()[0].end, ("p", "x", "q")
    for deriv in _script_derivations():
        d = deriv.start
        for rule, anchor in deriv.script.steps:
            yield rule, d, anchor
            d = rules.apply(rule, d, anchor, euler_on=True)


def test_rewrite_takes_the_match_its_check_returns():
    seen = set()
    for rule, d, anchor in _contract_sites():
        r = rules.RULES[rule]
        out = r.rewrite(d.copy(), r.check(d, anchor)).checked()
        assert serialize(out) == serialize(rules.apply(rule, d, anchor, euler_on=True)), (
            rule, anchor)
        seen.add(rule)
    assert seen == set(rules.RULES)


def _apply_everywhere(rule, corpus):
    applied = 0
    for d in corpus:
        for anchor in rules.match_sites(rule, d):
            rules.apply(rule, d, anchor, euler_on=True)
            applied += 1
    assert applied, rule


def test_hopf_and_self_loop_substitute_nothing(monkeypatch):
    corpus, calls = _golden_corpus(), []
    substitute = Diagram.substitute
    monkeypatch.setattr(Diagram, "substitute",
                        lambda d, *args: calls.append(args) or substitute(d, *args))
    for rule in ("hopf", "self-loop"):
        _apply_everywhere(rule, corpus)
    assert calls == []
    _apply_everywhere("h-cancel", corpus)   # the wrapper does see a substitution
    assert calls


def test_spider_split_constructs_no_fraction(monkeypatch):
    corpus, made = _golden_corpus(), []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: made.append(args) or new(cls, *args, **kwargs)))
    _apply_everywhere("spider-split", corpus)
    assert made == []
    assert Fraction(1, 3) and made == [(1, 3)]   # the count sees a construction


# SHA-256 of each step and the diagram it reaches, fresh ids included, over
# every shipped derivation and every stage of lemmas.lc_implies_euler(). The
# script-only steps are not in RULE_IDS, so the digest above misses them.
SCRIPT_DIGEST = "ab7348db2b553c110360770d02b3ad1baa010982b0146ab3f51d55a7d1c31dc1"


def test_golden_script_steps():
    digest = hashlib.sha256()
    for deriv in _script_derivations():
        d = deriv.start
        for rule, anchor in deriv.script.steps:
            d = rules.apply(rule, d, anchor, euler_on=True)
            digest.update(f"{deriv.script.name} {rule} {anchor}\n{serialize(d)}".encode())
    assert digest.hexdigest() == SCRIPT_DIGEST


# SHA-256 over seeded circuits of 40-125 nodes: for every rule that is not
# gated, at every site, serialize() and the next fresh id of the apply
# result; then each circuit's normalize trace and normal form. It pins the
# outcome of rewriting a copy, node ids included, at circuit scale.
CIRCUIT_DIGEST = "04d26f138d54f1866650e0578ac0064e5fed26c9c2d4ba0e8aa8b885a3590621"


def _pinned_circuits():
    rng = random.Random(4242)
    return [circuit(rng, 4 + i % 2, 40 + 8 * i) for i in range(6)]


def test_golden_circuit_rewrites():
    digest = hashlib.sha256()
    ungated = [rule for rule in rules.RULE_IDS if not rules.RULES[rule].euler]
    for d in _pinned_circuits():
        for rule in ungated:
            for anchor in rules.match_sites(rule, d):
                out = rules.apply(rule, d, anchor)
                digest.update(f"{rule} {anchor} {out.fresh_id()}\n{serialize(out)}".encode())
        trace = []
        nf = rules.normalize(d, trace)
        digest.update(f"{trace} {nf.fresh_id()}\n{serialize(nf)}".encode())
    assert digest.hexdigest() == CIRCUIT_DIGEST


def _mangled(rule, anchor):
    """Anchors of a wrong arity, and a matching anchor with an unknown id."""
    if rule == "spider-split":      # takes any arity from 1 up
        yield ()
    else:
        yield anchor[:-1]
        yield anchor + anchor[:1]
    for i in range(len(anchor)):
        yield anchor[:i] + ("no-such-node",) + anchor[i + 1:]


def _matching_steps():
    """(rule, diagram, anchor) for a matching anchor of every table rule,
    script-only steps included (taken from the proof scripts, and hub2, which
    no shipped script uses yet, on the left side of its lemma)."""
    for d in _golden_corpus():
        for rule in rules.RULE_IDS:
            for anchor in rules.match_sites(rule, d)[:1]:
                yield rule, d, anchor
    derivs = [build() for build in shipped.BUILDERS.values()]
    derivs.append(lemmas.lc_implies_euler()["hypothesis-to-core"])
    for deriv in derivs:
        d = deriv.start
        for rule, anchor in deriv.script.steps:
            yield rule, d, anchor
            d = rules.apply(rule, d, anchor, euler_on=True)
    yield "hub2", lemmas.hub2()[0].end, ("p", "x", "q")


def test_bad_anchor_arity_or_node_raises_rule_error():
    seen = set()
    for rule, d, anchor in _matching_steps():
        seen.add(rule)
        for bad in _mangled(rule, anchor):
            with pytest.raises(rules.RuleError, match="does not match"):
                rules.apply(rule, d, bad, euler_on=True)
    assert seen == set(rules.RULES)


# SHA-256 of each equation row (a rule whose two sides are fixed diagrams)
# applied in every colour it is keyed on: rule, anchor, the result's next
# fresh id and the result. Nothing above pins the X-first forms of
# bialgebra-expand and euler-inv.
ROW_DIGEST = "39cb3b6e784fca31b13eb64bb0e87d7495435659e4ed895ee8d71f01d5265be8"

_INVERSE = {"bialgebra": "bialgebra-expand", "bialgebra-expand": "bialgebra",
            "euler": "euler-inv", "euler-inv": "euler"}


def _row_steps():
    """(rule, diagram, anchor): bialgebra-expand at the two-spider path in
    both orders, bialgebra at every site of both squares it makes,
    euler-inv on both chains, and the three H-box rows on one H-box."""
    p2 = lemmas.p2_diagram(2, 2)
    steps = [("bialgebra-expand", p2, a) for a in (("gstar", "rstar"), ("rstar", "gstar"))]
    for rule, d, a in list(steps):
        square = rules.apply(rule, d, a)
        steps += [("bialgebra", square, s) for s in rules.match_sites("bialgebra", square)]
    for chain3 in (euler_chain(Z), euler_chain(X)):
        steps += [("euler-inv", chain3, a) for a in rules.match_sites("euler-inv", chain3)]
    steps += [("euler", h_wire(), a) for a in rules.match_sites("euler", h_wire())]
    return steps + [(rule, h_wire(), ("c0",)) for rule in ("cut-h-core", "cut-h-core-dual")]


def test_equation_rows_in_every_colour_they_are_keyed_on():
    digest = hashlib.sha256()
    steps = _row_steps()
    assert len(steps) == 11
    for rule, d, anchor in steps:
        out = rules.apply(rule, d, anchor, euler_on=True)
        digest.update(f"{rule} {anchor} {out.fresh_id()}\n{serialize(out)}".encode())
        assert rules.RULES[rule].arity == len(anchor)
        for n in (1,) if rules.RULES[rule].euler else (1, 2, 3):
            assert diagrams_equal(d, out, n), (rule, anchor, n)
        if rule in _INVERSE:
            # the inverse row's anchor is the nodes this step made; euler has
            # one row, so it brings either chain back as the Z-first one
            back = rules.apply(_INVERSE[rule], out, out.created_since(d), euler_on=True)
            assert iso_equal(back, euler_chain(Z) if rule == "euler-inv" else d), (rule, anchor)
    assert digest.hexdigest() == ROW_DIGEST


_CORNERS = "in i1 i2\nout o1 o2\nedge i1 p\nedge i2 p\nedge q o1\nedge q o2\n"


@pytest.mark.parametrize("rule, text, anchor", [
    # bialgebra-expand: two adjacent phase-0 degree-3 spiders of opposite colours
    ("bialgebra-expand", "node p z\nnode q z\nedge p q\n" + _CORNERS, ("p", "q")),
    ("bialgebra-expand", "node p x\nnode q x\nedge p q\n" + _CORNERS, ("p", "q")),
    ("bialgebra-expand", "node p z 1/2\nnode q x\nedge p q\n" + _CORNERS, ("p", "q")),
    ("bialgebra-expand", "node p z\nnode q x\nin i\nout o\n"
     "edge i p\nedge p q\nedge p q\nedge q o\n", ("p", "q")),
    ("bialgebra-expand", "node p z\nnode q x\nout o1 o2\n"
     "edge p p\nedge p q\nedge q o1\nedge q o2\n", ("p", "q")),
    ("bialgebra-expand", "node p z\nnode q x\nin i0\nedge i0 p\nedge p q\n"
     + _CORNERS, ("p", "q")),
    ("bialgebra-expand", "node p h\nnode q x\nin i\nout o1 o2\n"
     "edge i p\nedge p q\nedge q o1\nedge q o2\n", ("p", "q")),
    # euler-inv: its chain closed into a triangle has no outside wires
    ("euler-inv", "node s1 z 3/2\nnode s2 x 3/2\nnode s3 z 3/2\n"
     "edge s1 s2\nedge s2 s3\nedge s3 s1\n", ("s1", "s2", "s3")),
    # bialgebra: a square whose two a corners are also joined
    ("bialgebra", "node a1 z\nnode a2 z\nnode b1 x\nnode b2 x\nout o1 o2\n"
     "edge a1 b1\nedge a1 b2\nedge a2 b1\nedge a2 b2\nedge a1 a2\n"
     "edge b1 o1\nedge b2 o2\n", ("a1", "a2", "b1", "b2")),
    # cut-h-core: a spider in the H-box's place
    ("cut-h-core", "node g z\nin i\nout o\nedge i g\nedge g o\n", ("g",)),
])
def test_equation_rows_reject_near_misses(rule, text, anchor):
    d = parse(text)
    with pytest.raises(rules.RuleError, match="does not match"):
        rules.apply(rule, d, anchor, euler_on=True)
    if rule in rules.RULE_IDS:
        assert rules.match_sites(rule, d) == []
