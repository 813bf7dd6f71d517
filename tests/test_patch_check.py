"""The patch check of ``proofs.replay`` against the whole-diagram check.

``whole_diagram_replay`` is the replay loop that compared the two whole
diagrams after every step, kept here verbatim as the reference: the patch
check must give the same outcome, failing step and message everywhere.
"""

import random
from pathlib import Path

import pytest

from conftest import random_diagram
from zxr import lemmas, rules, semantics, shipped
from zxr.diagram import DiagramError, iso_equal
from zxr.graphstate import star_graph
from zxr.proofs import ProofScript, ReplayError, replay
from zxr.rules import RuleError
from zxr.semantics import ResourceLimit, diagrams_equal, equal_up_to_scalar, evaluate
from zxr.textio import parse, serialize

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"
MODEL_SETS = (None, (1,), (1, 2), (1, 2, 3))


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
            if not equal_up_to_scalar(vals[n], after):
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
                assert patch == set(d.changed_since(after))
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
    assert not diagrams_equal(start.cut(patch), after.cut(patch))
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
    assert not diagrams_equal(hypothesis.start.cut(patch), after.cut(patch))
    assert hypothesis.check()
    assert lemmas.check_lc_implies_euler()["ok"]


def test_replay_over_the_cap_passes_when_every_patch_fits(monkeypatch):
    deriv = lemmas.complete_bipartite(3, 3)
    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2 ** 5)
    with pytest.raises(ResourceLimit):
        whole_diagram_replay(deriv.script, deriv.start, models=(1, 2, 3))
    assert deriv.check()

