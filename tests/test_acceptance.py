"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import functools
import itertools
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import H_MAT, SQRT2, circuit, random_diagram, rz_mat, steps_reached
from zxr import axioms, lemmas, rules, shipped
from zxr.diagram import BOUNDARY, Diagram, generator, iso_equal
from zxr.graphstate import (SimpleGraph, all_graphs, check_fixpoint, check_vdn,
                            graph_state, star_graph)
from zxr.phase import Phase
from zxr.proofs import replay
from zxr.semantics import diagrams_equal, evaluate, matrices_equal
from zxr.textio import serialize

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"

GEN_TOL = 1e-12


def _report(num: int, label: str, started: float) -> None:
    print(f"criterion {num:2d}: PASS ({time.perf_counter() - started:5.1f}s)"
          f"  {label}")


def test_criterion_01_generator_table():
    started = time.perf_counter()
    table = {
        "eps_z_dag": np.array([[1], [1]]) / SQRT2,
        "eps_z": np.array([[1, 1]]) / SQRT2,
        "eps_x_dag": np.array([[1], [0]]),
        "eps_x": np.array([[1, 0]]),
        "delta_z_dag": np.array([[1, 0, 0, 0], [0, 0, 0, 1]]),
        "delta_z": np.array([[1, 0], [0, 0], [0, 0], [0, 1]]),
        "delta_x_dag": np.array([[1, 0, 0, 1], [0, 1, 1, 0]]) / SQRT2,
        "delta_x": np.array([[1, 0], [0, 1], [0, 1], [1, 0]]) / SQRT2,
        "h": H_MAT,
    }
    for kind, want in table.items():
        assert np.abs(evaluate(generator(kind)) - want).max() <= GEN_TOL, kind
    for p in (Phase(0), Phase(1, 2), Phase(1), Phase(1, 3)):
        zmat = rz_mat(p.num / p.den * np.pi)
        res_z = np.abs(evaluate(generator("phase_z", p)) - zmat).max()
        res_x = np.abs(evaluate(generator("phase_x", p)) - H_MAT @ zmat @ H_MAT).max()
        assert res_z <= GEN_TOL and res_x <= GEN_TOL, p
    _report(1, "generator table matches entry-wise to 1e-12", started)


def test_criterion_02_axiom_soundness_sweep():
    started = time.perf_counter()
    for n in (1, 2, 3):
        for name in axioms.BASE_AXIOMS:
            assert axioms.verify_axiom_residual(name, n)[0], (name, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, "all base axioms hold for n in {1,2,3}", started)


def test_criterion_03_independence():
    started = time.perf_counter()
    rows = axioms.independence_report()
    by = {(r["model_n"], r["axiom"]): r for r in rows}
    assert by[(1, "euler")]["holds"]
    assert not by[(2, "euler")]["holds"]
    assert by[(2, "euler")]["max_residual"] > 0.1
    for name in axioms.BASE_AXIOMS:
        assert by[(2, name)]["holds"], name
    assert axioms.independence_verdict(rows)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, "decomposition fails only in the n=2 model", started)


def test_criterion_04_fixpoint_exhaustive():
    started = time.perf_counter()
    labels = tuple("abcde")
    count = 0
    for g in all_graphs(labels):
        for u in labels:
            assert check_fixpoint(g, u), (g.edge_list(), u)
            count += 1
    assert count == 1024 * 5
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, f"on all {count} graph/vertex pairs on 5 labelled vertices, "
               f"|g>'s matrix with X(pi) applied on u's wire and Z(pi) on "
               f"each neighbour's equals |g>'s matrix up to a scalar", started)


def test_criterion_05_vdn_exhaustive_plus_random():
    started = time.perf_counter()
    labels = tuple("abcde")
    count = 0
    for g in all_graphs(labels):
        for u in labels:
            assert check_vdn(g, u), (g.edge_list(), u)
            count += 1
    rng = random.Random(424242)
    big = tuple("abcdefg")
    for _ in range(50):
        size = rng.choice((6, 7))
        verts = big[:size]
        edges = [e for e in itertools.combinations(verts, 2)
                 if rng.random() < 0.5]
        g = SimpleGraph.build(verts, edges)
        for u in verts:
            assert check_vdn(g, u), (g.edge_list(), u)
            count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report(5, f"on {count} graph/vertex pairs (all on 5 labelled vertices, "
               f"then 50 seeded random 6-7-vertex graphs), |g>'s matrix with "
               f"X(pi/2) applied on u's wire and Z(-pi/2) on each "
               f"neighbour's equals |LC(g, u)>'s matrix up to a scalar",
            started)


def test_criterion_06_complete_bipartite():
    started = time.perf_counter()
    for m in range(1, 5):
        for n in range(1, 5):
            b = lemmas.reduce_complete_bipartite(m, n)
            assert iso_equal(b.start, lemmas.complete_bipartite_diagram(m, n))
            end = replay(b.script, b.start, models=(1, 2, 3))
            assert iso_equal(end, b.diagram)
            assert iso_equal(b.diagram, lemmas.p2_diagram(m, n))
            assert diagrams_equal(b.start, b.diagram)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(6, "K(m,n) collapses to the two-spider path, 1 <= m,n <= 4", started)


def test_criterion_07_even_cycles():
    started = time.perf_counter()
    for n in (2, 3, 4):
        assert lemmas.check_even_cycle(n), n
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(7, "C4 reaches the two-spider path; C8 reaches a hexagon and a "
               "quadrilateral sharing an edge; every step sound in models 1-3; "
               "C6 is a normal form with no bialgebra site", started)


def test_criterion_08_fixpoint_scripts():
    started = time.perf_counter()
    for n in range(1, 7):
        start, script = shipped.load(PROOF_DIR, f"fixpoint-s{n}")
        end = replay(script, start)
        assert iso_equal(end, graph_state(star_graph(n)))
    count = 0
    for size in range(1, 5):
        labels = tuple("abcd")[:size]
        for g in all_graphs(labels):
            for u in labels:
                assert lemmas.fixpoint(g, u).check(), (g.edge_list(), u)
                count += 1
    assert count == 285
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(8, "shipped fixpoint scripts replay for stars up to 6 vertices; "
               f"fixpoint(g, u) replays in models 1-3 and reaches |g> on all "
               f"{count} graph/vertex pairs on at most 4 vertices", started)


def test_criterion_09_pi2_lemma_replays():
    started = time.perf_counter()
    for sides in ((lemmas.triangle_lc(),), lemmas.euler_nonuniqueness(),
                  lemmas.pi2_colour_change()):
        assert any(steps_reached(deriv) & {"euler", "euler-inv"} for deriv in sides)
        for deriv in sides:
            assert deriv.check(), deriv.script.name
    results = lemmas.check_lc_implies_euler()
    assert results["ok"], results
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(9, "triangle, nonuniqueness and colour-change replays are green, "
               "each reaching euler or euler-inv on one side at least; so are "
               "the decomposition's stages", started)


def _thousand_diagrams():
    rng = random.Random(99173)
    out = []
    while len(out) < 1000:
        d = random_diagram(rng, max_spiders=7, max_boundaries=3)
        if d.node_count() <= 10:
            out.append(d)
    return out


@functools.cache
def _rewrite_corpus():
    """Criterion 10's diagrams: the thousand above and 40 small circuits,
    which hold the bialgebra and h-cancel sites that the thousand lack."""
    rng = random.Random(7)
    return _thousand_diagrams() + [circuit(rng, 5, 12) for _ in range(40)]


def _sound(rule, d, anchor, models=(1, 2)):
    """Criterion 10's check: apply at the site keeps d's semantics in each
    of the models."""
    out = rules.apply(rule, d, anchor)
    return all(diagrams_equal(d, out, n) for n in models)


def _nonzero(d):
    """Is d not zero in model 1 (``matrices_equal``'s zero test)?"""
    a = evaluate(d)
    return not matrices_equal(a, d.memo(Diagram.network)[1], np.zeros_like(a), 1.0)


def _open_patch(d, out):
    """Does the patch of d's rewrite into out lie in a component of d with a
    boundary? A closed component is a scalar, so no check sees a wrong
    rewrite there."""
    reach = [v for v in out.changed_since(d) if d.has_node(v)]
    seen = set(reach)
    for v in reach:   # the patch's component in d
        reach += [w for w in d.neighbours(v) if w not in seen]
        seen.update(reach)
    return any(d.kind(v) == BOUNDARY for v in seen)


def test_criterion_10_rewrite_soundness_sweep():
    started = time.perf_counter()
    ungated = [rule for rule in rules.RULE_IDS if not rules.RULES[rule].euler]
    sites, informative = Counter(), Counter()
    for d in _rewrite_corpus():
        nonzero = _nonzero(d)
        for rule in ungated:
            for anchor in rules.match_sites(rule, d):
                sites[rule] += 1
                assert _sound(rule, d, anchor), (rule, anchor)
                informative[rule] += nonzero and _open_patch(d, rules.apply(rule, d, anchor))
    assert all(sites[rule] for rule in ungated), sites
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(10, f"{sum(sites.values())} rule applications preserve semantics "
                f"at n in {{1,2}}, {sum(informative.values())} of them informative "
                "(input nonzero in model 1, patch in a component with a "
                "boundary); sites (informative) per rule: "
                + ", ".join(f"{rule} {sites[rule]} ({informative[rule]})"
                            for rule in ungated), started)


# the equation rows whose right side holds a spider, each with the keywords
# RULES passes to _equation for it; the first right-side spider of copy and
# pi-commute is their box's, spider-fuse's the one whose phase is a sum
_ROW_KEYWORDS = {"spider-fuse": {"free": ("a", "b"), "legs": ("a",), "box": True,
                                 "sums": {"a": ("a", "b")}},
                 "copy": {"free": ("b",), "box": True},
                 "pi-commute": {"keep": ("b",), "box": True},
                 "self-loop": {"free": ("a",), "legs": ("a",)},
                 "pi-state": {"keep": ("a",), "free": ("b",)},
                 "hopf": {"free": ("a", "b"), "legs": ("a", "b")},
                 "h-phase": {"keep": ("a", "b"), "free": ("b",)},
                 "h-state": {"keep": ("b",)}}


def _turned(rule, turn, **change):
    """The rule's row rebuilt with the first spider of each right side
    turned by the phase, and the keywords changed."""
    r, pairs = rules.RULES[rule], []
    for lhs, rhs in r.pairs:
        rhs = rhs.copy()
        s = rhs.spiders()[0]
        rhs.set_phase(s, rhs.phase(s) + turn)
        pairs.append((lhs, rhs.check()))
    return rules._equation(rule, r.candidates, pairs, r.euler,
                           **{**_ROW_KEYWORDS[rule], **change})


@pytest.mark.parametrize("rule", sorted(_ROW_KEYWORDS))
def test_criterion_10_catches_a_row_whose_right_side_is_turned(rule, monkeypatch):
    corpus, real, same = _rewrite_corpus(), rules.RULES[rule], _turned(rule, Phase(0))
    for d in corpus[:300]:   # the keywords above are those of RULES
        for anchor in real.candidates(d):
            found = real.check(d, anchor)
            assert bool(same.check(d, anchor)) == bool(found)
            if found:   # a rewrite takes its check's match
                assert serialize(same.rewrite(d.copy(), same.check(d, anchor))) == serialize(
                    real.rewrite(d.copy(), found))
    broken = [_turned(rule, Phase(1, 4))]
    if "sums" in _ROW_KEYWORDS[rule]:   # and, apart, the row without its phase sum
        broken.append(_turned(rule, Phase(0), sums={}))
    for row in broken:
        monkeypatch.setitem(rules.RULES, rule, row)
        assert any(not _sound(rule, d, anchor, (1,))
                   for d in corpus for anchor in rules.match_sites(rule, d))


def test_criterion_11_normalization_sweep():
    started = time.perf_counter()
    for d in _thousand_diagrams():
        out = rules.normalize(d)
        assert not rules.match_sites("spider-fuse", out)
        assert not rules.match_sites("self-loop", out)
        assert not rules.match_sites("hopf", out)
        assert not rules.match_sites("id-remove", out)
        assert diagrams_equal(d, out)
    _report(11, "normalization terminates on irreducible, equal diagrams",
            started)
