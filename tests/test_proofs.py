import itertools
import random
from pathlib import Path

import pytest

from zxr import lemmas, rules, semantics, shipped
from zxr.diagram import DiagramError, Z, attach_wires, generator, h_wire, iso_equal, wire
from zxr.graphstate import SimpleGraph, all_graphs, graph_state, star_graph
from zxr.phase import Phase
from zxr.proofs import ProofScript, ReplayError, replay
from zxr.rules import RuleError
from zxr.semantics import ResourceLimit, diagrams_equal, evaluate
from zxr.textio import serialize

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def test_empty_script_is_identity():
    d = generator("phase_z", Phase(1, 2))
    assert replay(ProofScript("noop"), d) is d


def test_replay_refuses_a_model_below_one_before_its_first_step():
    # cycle-6 has no steps, so no step's check could test the model
    start, script = shipped.load(PROOF_DIR, "cycle-6")
    assert script.steps == []
    for models in ((0,), (-1, 1)):
        with pytest.raises(ValueError, match="model_n must be >= 1"):
            replay(script, start, models=models)


def test_replay_reports_failing_step():
    script = ProofScript("bad", [("spider-fuse", ("a", "b"))])
    with pytest.raises(ReplayError) as err:
        replay(script, wire())
    assert err.value.index == 0 and err.value.rule == "spider-fuse"


def test_euler_free_reads_the_rule_flag():
    for rule in ("euler", "euler-inv", "assume-lc-triangle", "cut-h-core",
                 "cut-h-core-dual", "use-pi2-colour", "hub2"):
        assert not ProofScript("s", [("hopf", ()), (rule, ())]).euler_free()
    for rule in ("hopf", "bialgebra-expand", "no-such-rule"):
        assert ProofScript("s", [(rule, ())]).euler_free()
    with pytest.raises(ReplayError, match="unknown rule"):
        replay(ProofScript("s", [("no-such-rule", ("in0",))]), wire())
    gated = ProofScript("s", [("cut-h-core", ("g",))])
    with pytest.raises(ReplayError, match="gated off"):
        replay(gated, generator("h"))
    assert replay(gated, generator("h"), euler_on=True).node_count() == 7


def test_script_json_round_trip():
    script = lemmas.fixpoint(star_graph(3), "c").script
    text = script.to_json_lines()
    again = ProofScript.from_json_lines(script.name, text)
    assert again.steps == script.steps


def test_fixpoint_scripts_replay():
    for n in range(1, 7):
        assert lemmas.check_fixpoint_script(n), n


def test_fixpoint_replay_checks_scaled_model_too():
    deriv = lemmas.fixpoint(star_graph(3), "c")
    end = replay(deriv.script, deriv.start, models=(1, 2, 3))
    assert iso_equal(end, graph_state(star_graph(3)))


def test_fixpoint_builder_on_a_sample_of_five_vertex_pairs():
    """Criterion 08 covers every pair on at most 4 vertices; all 5,120 on 5
    take about 17 s, so a seeded sample of them runs here."""
    rng = random.Random(5120)
    graphs = list(all_graphs(tuple("abcde")))
    for _ in range(256):
        g = rng.choice(graphs)
        u = rng.choice(g.vertices)
        assert lemmas.fixpoint(g, u).check(), (g.edge_list(), u)


def test_fixpoint_builder_on_large_graphs_evaluates_only_patches(monkeypatch):
    """Seeded random graphs with edge probability 4/n. No network contracted
    during replay has a third of the whole one's factors; the whole one at
    n = 100 is over the entry cap."""
    sizes = []
    contract = semantics._contract
    monkeypatch.setattr(semantics, "_contract",
                        lambda net, n: sizes.append(len(net[0])) or contract(net, n))
    rng = random.Random(4)
    for n in (20, 100):
        labels = [f"q{i}" for i in range(n)]
        g = SimpleGraph.build(labels, [e for e in itertools.combinations(labels, 2)
                                       if rng.random() < 4 / n])
        for u in rng.sample(labels, 4) + [max(labels, key=lambda v: len(g.neighbours(v)))]:
            deriv = lemmas.fixpoint(g, u)
            sizes.clear()
            assert deriv.check(), u
            whole = len(deriv.start.network()[0])
            assert sizes and max(sizes) < whole // 3, (u, max(sizes), whole)
    with pytest.raises(ResourceLimit):
        semantics.evaluate(deriv.start)


def test_complete_bipartite_all_small():
    for m in range(1, 5):
        for n in range(1, 5):
            assert lemmas.check_complete_bipartite(m, n), (m, n)


def test_complete_bipartite_needs_a_node_on_each_side():
    # an empty side would recurse without end
    for m, n in ((0, 2), (0, 3), (2, 0), (0, 0)):
        with pytest.raises(RuleError, match="need at least one node on each side"):
            lemmas.complete_bipartite(m, n)


def test_even_cycles():
    for n in (2, 3, 4):
        assert lemmas.check_even_cycle(n), n


def test_cycle_and_target_sizes_out_of_range_are_refused():
    with pytest.raises(DiagramError, match="need a cycle of length >= 4"):
        lemmas.cycle_diagram(1)
    with pytest.raises(DiagramError, match="only C8, C10 and C12"):
        lemmas.hexagon_and_quadrilaterals(7)


def test_even_cycle_seven():
    """From C14 on no cycle edge has both ends untouched; the reduction then
    splits the extra legs off the first green vertex and its successor."""
    for n in (7, 8):
        deriv = lemmas.even_cycle(n)
        assert "spider-split" in [rule for rule, _ in deriv.script.steps]
        assert lemmas.check_even_cycle(n), n


def test_derivations_whose_whole_diagrams_exceed_the_cap():
    """C28 (2^28 entries) and K(7,7) (2^30) are over the entry cap as whole
    diagrams, but every patch fits, so replay alone decides them."""
    with pytest.raises(ResourceLimit):
        evaluate(lemmas.cycle_diagram(14))
    assert lemmas.check_even_cycle(14)
    assert lemmas.check_complete_bipartite(7, 7)


def test_eight_cycle_target_is_built_without_the_reduction(monkeypatch):
    """C8 must reach the hand-built hexagon and quadrilateral; an end the
    reduction does not reach, here C8 itself, is rejected."""
    assert lemmas.check_even_cycle(4)
    monkeypatch.setattr(lemmas, "hexagon_and_quadrilaterals", lemmas.cycle_diagram)
    assert not lemmas.check_even_cycle(4)


@pytest.mark.parametrize("n", [5, 6])
def test_ten_and_twelve_cycle_targets_are_built_without_the_reduction(monkeypatch, n):
    """C10 and C12 reduce by clean rounds alone, so they too must reach the
    hand-built hexagon and quadrilaterals: the cycle itself is rejected, and
    so is the right shape with r1's and z1's input wires exchanged."""
    assert lemmas.check_even_cycle(n)
    built = lemmas.hexagon_and_quadrilaterals

    def swapped(n):
        d = built(n)
        d.inputs = (d.inputs[1], d.inputs[0], *d.inputs[2:])
        return d

    for wrong in (lemmas.cycle_diagram, swapped):
        monkeypatch.setattr(lemmas, "hexagon_and_quadrilaterals", wrong)
        assert not lemmas.check_even_cycle(n)


def test_cycle_four_is_bialgebra_base():
    b = lemmas.reduce_even_cycle(2)
    assert iso_equal(b.start, lemmas.cycle_diagram(2))
    assert b.script.steps == [("bialgebra", ("r1", "r2", "g1", "g2"))]
    assert iso_equal(b.diagram, lemmas.p2_diagram(2, 2))


def test_cycle_six_is_fixed():
    b = lemmas.reduce_even_cycle(3)
    assert iso_equal(b.start, lemmas.cycle_diagram(3))
    assert b.script.steps == [] and b.diagram is b.start


def test_cycle_six_check_needs_a_normal_form(monkeypatch):
    """An identity spider on one wire of C6 leaves the reduction with nothing
    to do, so only the normal-form condition can reject it."""
    plain = lemmas.cycle_diagram

    def padded(n):
        d = plain(n)
        r = d.boundary_partner("in0")
        v = d.add_node(Z, 0)
        d.remove_edge("in0", r)
        d.add_edge("in0", v)
        d.add_edge(v, r)
        return d.check()

    assert lemmas.check_even_cycle(3)
    monkeypatch.setattr(lemmas, "cycle_diagram", padded)
    assert not lemmas.check_even_cycle(3)


def test_euler_nonuniqueness():
    assert all(deriv.check() for deriv in lemmas.euler_nonuniqueness())


def test_pi2_colour_change():
    assert all(deriv.check() for deriv in lemmas.pi2_colour_change())


@pytest.mark.parametrize("legs", [(1, 1), (2, 3)])
def test_hub2_derivations_reach_the_two_sides_of_its_row(legs):
    """Both replay, and their ends are the row's patterns with the context
    spiders a and c given legs[0] inputs and legs[1] outputs."""
    left, right = lemmas.hub2(*legs)
    assert left.check() and right.check()
    for deriv, side in zip((left, right), rules._hub2()):
        assert iso_equal(deriv.end, attach_wires(side.copy(), ["a"] * legs[0], ["c"] * legs[1]))


def test_hub2_holds_in_models_one_and_three_and_fails_in_model_two():
    """On every context phase pair and leg count tried, the row's two sides
    (the right one from the rule) are equal exactly where the Euler
    decomposition holds. The step is gated as it has Euler strength."""
    lhs = rules._hub2()[0]
    for p, q in ((0, 0), ("1/4", "3/4"), ("1/2", "-1/3")):
        for legs in itertools.product((1, 2, 3), (1, 3)):
            d = lhs.copy()
            d.set_phase("a", Phase.coerce(p))
            d.set_phase("c", Phase.coerce(q))
            d = attach_wires(d, ["a"] * legs[0], ["c"] * legs[1])
            out = rules.apply("hub2", d, ("a", "b", "c"), euler_on=True)
            assert [diagrams_equal(d, out, n) for n in (1, 2, 3)] == [True, False, True]
    assert rules.RULES["hub2"].euler
    with pytest.raises(RuleError, match="gated off"):
        rules.apply("hub2", d, ("a", "b", "c"))


def test_derivation_euler_fact_gates_the_script():
    """A derivation with an Euler-strength step checks, in model 1, but its
    script does not replay with the decomposition off."""
    _, swapped = lemmas.euler_nonuniqueness()
    assert not swapped.script.euler_free() and swapped.check()
    with pytest.raises(ReplayError, match="gated off"):
        replay(swapped.script, swapped.start, euler_on=False)


def test_triangle_lc():
    assert lemmas.triangle_lc().check()


def test_lc_implies_euler():
    results = lemmas.check_lc_implies_euler()
    assert results["ok"], results


@pytest.mark.parametrize("rule, anchor, one_side, other_side", [
    ("cut-h-core", ("c0",), h_wire, lambda: lemmas.lc_apply().end),
    ("cut-h-core-dual", ("c0",), h_wire, lambda: lemmas.swap_core()[1].end),
    ("use-pi2-colour", ("dot", "st"), lambda: lemmas.pi2_colour_change()[0].end,
     lambda: lemmas.pi2_colour_change()[1].end),
    ("hub2", ("p", "x", "q"), lambda: lemmas.hub2()[0].end, lambda: lemmas.hub2()[1].end),
])
def test_lemma_step_reaches_the_other_side_of_its_lemma(rule, anchor, one_side,
                                                         other_side):
    assert iso_equal(rules.apply(rule, one_side(), anchor, euler_on=True), other_side())


def test_bialgebra_undoes_bialgebra_expand():
    p2 = lemmas.p2_diagram(2, 2)
    square = rules.apply("bialgebra-expand", p2, ("gstar", "rstar"))
    sites = rules.match_sites("bialgebra", square)
    assert len(sites) == 2 and not iso_equal(square, p2)
    for anchor in sites:
        assert iso_equal(rules.apply("bialgebra", square, anchor), p2)


def test_lc_hypothesis_breaks_in_model_two():
    results = lemmas.check_lc_implies_euler()
    assert results["hypothesis-breaks-at-n2"]


@pytest.mark.parametrize("change", [
    {"rewrite": lambda d, anchor: d},          # holds in model 2
    {"check": lambda d, anchor: False},        # does not match
])
def test_hypothesis_that_does_not_drift_is_no_break(monkeypatch, change):
    start = lemmas.lc_hypothesis_start()
    # one stage that needs no hypothesis step, so only the verdict sees it
    monkeypatch.setattr(lemmas, "lc_implies_euler", lambda: {
        "hypothesis-to-core": lemmas.Derivation(start, ProofScript("none"), start)})
    rule = rules.RULES["assume-lc-triangle"]
    monkeypatch.setitem(rules.RULES, rule.name, rule._replace(**change))
    assert lemmas.check_lc_implies_euler() == {
        "hypothesis-to-core": True, "hypothesis-breaks-at-n2": False, "ok": False}


def test_gated_step_refused_without_euler():
    script = ProofScript("gated", [("euler", ("g",))])
    with pytest.raises(ReplayError):
        replay(script, generator("h"), euler_on=False)


def test_replay_reports_semantic_drift():
    # the Euler decomposition matches the H-box and holds in model 1 only
    script = ProofScript("euler-h", [("euler", ("g",))])
    with pytest.raises(ReplayError, match=r"step 0 \(euler\): semantic drift in model n=2"):
        replay(script, generator("h"), euler_on=True, models=(1, 2))
    assert replay(script, generator("h"), euler_on=True, models=(1,)).node_count() == 5


def test_shipped_scripts_replay_from_disk():
    assert PROOF_DIR.is_dir()
    for name in sorted(shipped.BUILDERS):
        start, script = shipped.load(PROOF_DIR, name)
        end = replay(script, start, euler_on=True)
        assert diagrams_equal(start, end), name


def test_write_all_writes_the_shipped_files(tmp_path):
    target = tmp_path / "proofs"
    assert shipped.write_all(target) == sorted(shipped.BUILDERS)
    assert sorted(f.name for f in target.iterdir()) == sorted(f.name for f in PROOF_DIR.iterdir())
    for f in PROOF_DIR.iterdir():
        assert (target / f.name).read_bytes() == f.read_bytes(), f.name


def test_shipped_files_are_current():
    for name in sorted(shipped.BUILDERS):
        deriv = shipped.BUILDERS[name]()
        assert (PROOF_DIR / f"{name}.start.zxd").read_bytes() == serialize(deriv.start).encode(), name
        assert (PROOF_DIR / f"{name}.json").read_bytes() == deriv.script.to_json_lines().encode(), name
    # perfbench replays every proofs/*.json, so a stray file changes the benchmark
    expected = {f"{name}{ext}" for name in shipped.BUILDERS
                for ext in (".json", ".start.zxd")}
    assert {f.name for f in PROOF_DIR.iterdir()} == expected
