"""The patch check of ``proofs.replay`` against the whole-diagram check.

``whole_diagram_replay`` is the replay loop that compared the two whole
diagrams after every step, kept here verbatim as the reference: the patch
check must give the same outcome, failing step and message everywhere.

``whole_table_patch`` is ``Diagram.changed_since`` as it was before it read
the touch log: a diff of both diagrams' whole node and edge tables, kept
here verbatim as the reference for the patch itself. ``whole_table_created``
is ``Diagram.created_since`` as it was before it read the log: a scan of
the whole node table.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import random_diagram, reference_cut
from zxr import lemmas, rules, semantics, shipped
from zxr.diagram import Z, Diagram, DiagramError, _edge_key, iso_equal
from zxr.graphstate import SimpleGraph, star_graph
from zxr.proofs import ProofScript, ReplayError, replay
from zxr.rules import RuleError
from zxr.semantics import (ResourceLimit, diagrams_equal, evaluate, matrices_equal,
                           network_scale)
from zxr.textio import parse, serialize

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"
MODEL_SETS = (None, (1,), (1, 2), (1, 2, 3))


def whole_table_patch(after, before):
    patch, rewired = set(), []
    for v in after._kind.keys() | before._kind.keys():
        if (after._kind.get(v), after._phase.get(v)) != (before._kind.get(v),
                                                         before._phase.get(v)):
            patch.add(v)
        elif after._adj[v] != before._adj[v]:
            if after.degree(v) != before.degree(v):
                patch.add(v)
            else:
                rewired.append(v)
    uncovered = set()
    for u in rewired:
        now, was = after._adj[u], before._adj[u]
        uncovered.update(_edge_key(u, w) for w in now.keys() | was.keys()
                         if w not in patch and now.get(w) != was.get(w))
    while uncovered:
        hits = Counter(v for e in uncovered for v in set(e))
        best = min(hits, key=lambda v: (-hits[v], after.degree(v), v))
        patch.add(best)
        uncovered = {e for e in uncovered if best not in e}
    return sorted(patch)


def whole_table_created(after, before):
    return [v for v in after._kind if v not in before._kind]


def whole_diagram_replay(script, start, *, euler_on=False, models=None):
    if models is None:
        models = (1, 2) if script.euler_free() else (1,)
    current = start
    vals = {n: evaluate(current, n) for n in models}
    for index, (rule, anchor) in enumerate(script.steps):
        try:
            nxt = rules.apply(rule, current, anchor, euler_on=euler_on)
        except (RuleError, DiagramError) as exc:
            raise ReplayError(index, rule, f"does not match: {exc}")
        for n in models:
            after = evaluate(nxt, n)
            if not matrices_equal(vals[n], network_scale(current), after, network_scale(nxt)):
                raise ReplayError(index, rule, f"semantic drift in model n={n}")
            vals[n] = after
        current = nxt
    return current


def outcome(replayer, script, start, models):
    try:
        end = replayer(script, start, euler_on=True, models=models)
    except ReplayError as exc:
        return ("drift", exc.index, str(exc))
    return ("ok", serialize(end))


def assert_same(script, start, models):
    expected = outcome(whole_diagram_replay, script, start, models)
    assert outcome(replay, script, start, models) == expected, (script.name, models)
    return expected[0]


def corpus(count=120):
    rng = random.Random(20240817)
    return [random_diagram(rng) for _ in range(count)]


def test_same_verdicts_on_shipped_proofs():
    verdicts = []
    for name in sorted(shipped.BUILDERS):
        start, script = shipped.load(PROOF_DIR, name)
        for models in MODEL_SETS:
            verdicts.append(assert_same(script, start, models))
    # the Euler-strength proofs drift in model 2, the rest hold throughout
    assert 0 < verdicts.count("drift") < verdicts.count("ok")


def test_same_verdicts_on_lc_implies_euler_in_model_two():
    start, script = shipped.load(PROOF_DIR, "lc-implies-euler")
    assert assert_same(script, start, (1, 2)) == "drift"
    with pytest.raises(ReplayError, match=r"step 0 \(cut-h-core\): semantic drift in model n=2"):
        replay(script, start, euler_on=True, models=(1, 2))


def test_same_verdicts_on_normalize_traces():
    for d in corpus():
        trace = []
        rules.normalize(d, trace=trace)
        script = ProofScript("normalize", trace)
        for models in (None, (1, 2, 3)):
            assert_same(script, d, models)


def test_same_verdicts_on_every_rule_at_every_site():
    verdicts = []
    for d in corpus():
        for name, rule in rules.RULES.items():
            if rule.candidates is None:
                continue
            for site in rules.match_sites(name, d):
                verdicts.append(assert_same(ProofScript(name, [(name, site)]), d, (1, 2, 3)))
    # Euler-strength rules drift in model 2 at some sites
    assert verdicts.count("drift") and verdicts.count("ok") > 1000


def test_outside_the_patch_nothing_changes():
    """Every node outside the patch keeps its kind, phase and degree, and
    every edge between two such nodes its multiplicity."""
    for d in corpus(60):
        for name, rule in rules.RULES.items():
            if rule.candidates is None:
                continue
            for site in rules.match_sites(name, d):
                after = rules.apply(name, d, site, euler_on=True)
                patch = set(after.changed_since(d))
                assert patch == set(whole_table_patch(d, after))
                outside = [v for v in d.nodes() if v not in patch]
                assert outside == [v for v in after.nodes() if v not in patch]
                for v in outside:
                    assert (d.kind(v), d.degree(v)) == (after.kind(v), after.degree(v))
                    assert d.kind(v) not in "zx" or d.phase(v) == after.phase(v)
                    for w in outside:
                        assert d.multiplicity(v, w) == after.multiplicity(v, w)


def test_patch_that_is_no_equation_falls_back():
    """A pi state absorbed by a spider that stays outside the patch: the two
    patches differ, and the whole diagrams decide the step."""
    start = parse("node n0 x 1\nnode x:c z\nout w:c\nedge n0 x:c\nedge n0 w:c\n")
    script = ProofScript("pi-state", [("pi-state", ("x:c", "n0"))])
    after = rules.apply("pi-state", start, ("x:c", "n0"))
    patch = after.changed_since(start)
    assert patch == ["n0", "w:c"]
    assert not diagrams_equal(reference_cut(start, patch), reference_cut(after, patch))
    assert diagrams_equal(start, after)
    assert serialize(replay(script, start, models=(1, 2, 3))) == serialize(after)


def test_fallback_steps_still_replay():
    """fixpoint-s1's pi state and lc-implies-euler's hypothesis step."""
    deriv = lemmas.fixpoint(star_graph(1), "c")
    for models in MODEL_SETS:
        assert iso_equal(replay(deriv.script, deriv.start, models=models), deriv.end)
    hypothesis = lemmas.lc_implies_euler()["hypothesis-to-core"]
    rule, anchor = hypothesis.script.steps[0]
    assert rule == "assume-lc-triangle"
    after = rules.apply(rule, hypothesis.start, anchor, euler_on=True)
    # the u-a and u-b H-boxes stay outside the patch, which alone is no equation
    patch = after.changed_since(hypothesis.start)
    assert not diagrams_equal(reference_cut(hypothesis.start, patch),
                              reference_cut(after, patch))
    assert hypothesis.check()
    assert lemmas.check_lc_implies_euler()["ok"]


def test_replay_over_the_cap_passes_when_every_patch_fits(monkeypatch):
    deriv = lemmas.complete_bipartite(3, 3)
    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2 ** 5)
    with pytest.raises(ResourceLimit):
        whole_diagram_replay(deriv.script, deriv.start, models=(1, 2, 3))
    assert deriv.check()



# -- the patch against the whole-table diff ------------------------------------------


def seeded_graph(n, seed=4242):
    """G(n, 4/n) on v0..v{n-1}, and its first vertex of the highest degree."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    g = SimpleGraph.build(verts, [e for e in itertools.combinations(verts, 2)
                                  if rng.random() < 4 / n])
    return g, max(verts, key=lambda v: len(g.neighbours(v)))


def script_steps(script, start):
    """Every (before, after) of the script's steps from start, as replay
    applies them."""
    current = start.checked()
    for rule, anchor in script.steps:
        nxt = rules.apply(rule, current, anchor, euler_on=True)
        yield current, nxt
        current = nxt


def test_patch_is_the_whole_table_diff():
    """Every rule at every site of the random corpus, every normalize trace,
    every shipped replay and the fixpoint derivations of two seeded graphs."""
    pairs = []
    for d in corpus(300):
        for name, rule in rules.RULES.items():
            if rule.candidates is None:
                continue
            for site in rules.match_sites(name, d):
                pairs.append((d, rules.apply(name, d, site, euler_on=True)))
    for d in corpus():
        trace = []
        rules.normalize(d, trace=trace)
        pairs += script_steps(ProofScript("normalize", trace), d)
    for name in sorted(shipped.BUILDERS):
        start, script = shipped.load(PROOF_DIR, name)
        pairs += script_steps(script, start)
    for n in (100, 400):
        deriv = lemmas.fixpoint(*seeded_graph(n))
        pairs += script_steps(deriv.script, deriv.start)
    assert len(pairs) >= 6500
    for before, after in pairs:
        assert after.changed_since(before) == whole_table_patch(after, before)


def test_created_since_is_the_whole_table_scan(monkeypatch):
    """At every ScriptBuilder step of every shipped derivation and of the
    fixpoint derivation of a seeded 100-vertex graph."""
    made, read = [], Diagram.created_since

    def both(after, before):
        made.append(read(after, before))
        assert made[-1] == whole_table_created(after, before)
        return made[-1]

    monkeypatch.setattr(Diagram, "created_since", both)
    for name in sorted(shipped.BUILDERS):
        shipped.BUILDERS[name]()
    lemmas.fixpoint(*seeded_graph(100))
    assert len(made) >= 250 and sum(map(len, made)) >= 200


def test_node_made_and_removed_in_one_edit_is_not_in_the_patch():
    d = parse("node a z\nnode b z 1/2\nin i\nout o\nedge i a\nedge a b\nedge b o\n")
    e = d.copy()
    v = e.add_node(Z, 1)
    e.add_edge(v, "a")
    e.set_phase("b", 1)
    e.remove_edge(v, "a")
    e.remove_node(v)
    e.checked()
    assert v in e.touched() and not e.has_node(v) and not d.has_node(v)
    # a's wires are as they were, so only b is in the patch
    assert e.changed_since(d) == whole_table_patch(e, d) == ["b"]


@pytest.mark.parametrize("start, verdict", [
    ("node a z\nnode b z\nout o p\nedge a b\nedge a o\nedge b p\n", "ok"),
    # the fused spider's p leg runs through X(pi/2) then Z(pi/2): swapped, the
    # two rotations act in the other order, which no scalar undoes
    ("node a z\nnode e z\nnode b x 1/2\nnode c z 1/2\nout o p\nedge a e\n"
     "edge a o\nedge e b\nedge b c\nedge c p\n", "drift"),
])
def test_step_that_reassigns_outputs_has_no_patch(monkeypatch, start, verdict):
    """A step that swaps its outputs walks everything: no record, so no
    patch, and the whole diagrams decide the step as before."""
    fuse = rules.RULES["spider-fuse"]

    def fuse_and_swap(d, anchor):
        d = fuse.rewrite(d, anchor)
        d.outputs = d.outputs[::-1]
        return d

    monkeypatch.setitem(rules.RULES, "spider-fuse", fuse._replace(rewrite=fuse_and_swap))
    d = parse(start)
    anchor = rules.match_sites("spider-fuse", d)[0]
    assert rules.apply("spider-fuse", d, anchor).changed_since(d) is None
    script = ProofScript("fuse-and-swap", [("spider-fuse", anchor)])
    for models in MODEL_SETS:
        assert assert_same(script, d, models) == verdict
