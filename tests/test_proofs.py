from pathlib import Path

import pytest

from zxr import lemmas, shipped
from zxr.diagram import generator, iso_equal, wire
from zxr.graphstate import graph_state, star_graph
from zxr.phase import Phase
from zxr.proofs import ProofScript, ReplayError, replay
from zxr.semantics import equal_up_to_scalar, evaluate
from zxr.textio import serialize

PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


def test_empty_script_is_identity():
    d = generator("phase_z", Phase(1, 2))
    assert replay(ProofScript("noop"), d) is d


def test_replay_reports_failing_step():
    script = ProofScript("bad", [("spider-fuse", ("a", "b"))])
    with pytest.raises(ReplayError) as err:
        replay(script, wire())
    assert err.value.index == 0 and err.value.rule == "spider-fuse"


def test_script_json_round_trip():
    script = lemmas.fixpoint_script(3)
    text = script.to_json_lines()
    again = ProofScript.from_json_lines(script.name, text)
    assert again.steps == script.steps


def test_fixpoint_scripts_replay():
    for n in range(1, 7):
        assert lemmas.check_fixpoint_script(n), n


def test_fixpoint_replay_checks_scaled_model_too():
    script = lemmas.fixpoint_script(3)
    end = replay(script, lemmas.fixpoint_start(3), models=(1, 2, 3))
    assert iso_equal(end, graph_state(star_graph(3)))


def test_complete_bipartite_all_small():
    for m in range(1, 5):
        for n in range(1, 5):
            assert lemmas.check_complete_bipartite(m, n), (m, n)


def test_complete_bipartite_bad_anchor():
    d = lemmas.complete_bipartite_diagram(2, 2)
    with pytest.raises(Exception):
        lemmas.reduce_complete_bipartite(d, ["r1", "r2"], ["g1"])


def test_even_cycles():
    for n in (2, 3, 4):
        assert lemmas.check_even_cycle(n), n


@pytest.mark.xfail(raises=StopIteration, strict=True,
                   reason="known defect: reduce_even_cycle finds no untouched cycle edge")
def test_even_cycle_seven():
    assert lemmas.check_even_cycle(7)


def test_cycle_four_is_bialgebra_base():
    d = lemmas.cycle_diagram(2)
    result, script = lemmas.reduce_even_cycle(d, ["r1", "g1", "r2", "g2"])
    assert [s[0] for s in script.steps] == ["bialgebra"]
    assert iso_equal(result, lemmas.p2_diagram(2, 2))


def test_cycle_six_is_fixed():
    d = lemmas.cycle_diagram(3)
    result, script = lemmas.reduce_even_cycle(
        d, [x for i in range(3) for x in (f"r{i+1}", f"g{i+1}")])
    assert script.steps == [] and result is d


def test_euler_nonuniqueness():
    assert lemmas.euler_nonuniqueness_check()
    with pytest.raises(Exception):
        lemmas.euler_nonuniqueness_check(euler_on=False)


def test_pi2_colour_change():
    assert lemmas.pi2_colour_change_check()
    with pytest.raises(Exception):
        lemmas.pi2_colour_change_check(euler_on=False)


def test_triangle_lc():
    assert lemmas.check_triangle_lc()


def test_lc_implies_euler():
    results = lemmas.check_lc_implies_euler()
    assert results["ok"], results


def test_lc_hypothesis_breaks_in_model_two():
    results = lemmas.check_lc_implies_euler()
    assert results["hypothesis-breaks-at-n2"]


def test_gated_step_refused_without_euler():
    script = ProofScript("gated", [("euler", ("g",))])
    with pytest.raises(ReplayError):
        replay(script, generator("h"), euler_on=False)


def test_shipped_scripts_replay_from_disk():
    assert PROOF_DIR.is_dir()
    for name in sorted(shipped.BUILDERS):
        start, script = shipped.load(PROOF_DIR, name)
        end = replay(script, start, euler_on=True)
        assert equal_up_to_scalar(evaluate(start), evaluate(end)), name


def test_shipped_files_are_current():
    for name in sorted(shipped.BUILDERS):
        start, script = shipped.BUILDERS[name]()
        assert (PROOF_DIR / f"{name}.start.zxd").read_bytes() == serialize(start).encode(), name
        assert (PROOF_DIR / f"{name}.json").read_bytes() == script.to_json_lines().encode(), name
