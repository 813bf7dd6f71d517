import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zxr.cli import main

TRIANGLE = "vertices a b c\nedge a b\nedge b c\nedge a c\n"
HH = "node h1 h\nnode h2 h\nin i\nout o\nedge i h1\nedge h1 h2\nedge h2 o\n"
WIRE = "in i\nout o\nedge i o\n"
EULER = ("node s1 z 3/2\nnode s2 x 3/2\nnode s3 z 3/2\nin i\nout o\n"
         "edge i s1\nedge s1 s2\nedge s2 s3\nedge s3 o\n")
HBOX = "node h h\nin i\nout o\nedge i h\nedge h o\n"
PROOF_DIR = Path(__file__).resolve().parent.parent / "proofs"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("tri.edges", TRIANGLE), ("hh.zxd", HH),
                       ("wire.zxd", WIRE), ("euler.zxd", EULER),
                       ("h.zxd", HBOX)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_check_equal_hh_wire(files):
    assert main(["check-equal", files["hh.zxd"], files["wire.zxd"]]) == 0


def test_check_equal_euler_models(files):
    assert main(["check-equal", files["h.zxd"], files["euler.zxd"]]) == 0
    assert main(["--model-n", "2", "check-equal",
                 files["h.zxd"], files["euler.zxd"]]) == 1


def test_check_equal_shape_mismatch_writes_a_report(files, tmp_path):
    """A report left by an earlier run must not be read as current."""
    from zxr.report import ReportError, validate_report

    split = tmp_path / "split.zxd"
    split.write_text("node s z\nin i\nout a b\nedge i s\nedge s a\nedge s b\n")
    path = tmp_path / "r.json"
    assert main(["--json", str(path), "check-equal", files["hh.zxd"], files["wire.zxd"]]) == 0
    assert main(["--json", str(path), "check-equal", files["wire.zxd"], str(split)]) == 1
    report = json.loads(path.read_text())
    assert report == {"suite": "check-equal", "model_n": 1, "equal": False,
                      "shapes": [[2, 2], [4, 2]], "ok": False}
    validate_report(report)
    for bad in (dict(report, shapes=[[2, 2]]),
                {k: v for k, v in report.items() if k != "shapes"}):
        with pytest.raises(ReportError):
            validate_report(bad)


def test_check_equal_parse_error(files, tmp_path):
    bad = tmp_path / "bad.zxd"
    bad.write_text("node a h\nedge a a\n")
    assert main(["check-equal", str(bad), files["wire.zxd"]]) == 2


@pytest.mark.parametrize("token", ["1e-1000000", "1e100000", "0.5"])
def test_non_fraction_phase_token_is_usage_error(tmp_path, capsys, token):
    bad = tmp_path / "bad.zxd"
    bad.write_text(f"node a z {token}\nout o\nedge a o\n")
    assert main(["render", str(bad)]) == 2
    assert "bad phase token" in capsys.readouterr().err


def test_main_keeps_no_state_between_calls(files, tmp_path):
    argv = ["rewrite", files["h.zxd"], "--rule", "euler",
            "-o", str(tmp_path / "out.zxd")]
    assert main(["--enable-euler", *argv]) == 0
    assert main(argv) == 2


def test_main_calls_the_command_function_current_at_each_call(files, monkeypatch):
    from zxr import cli

    assert main(["render", files["h.zxd"], "-o", str(files["dir"] / "h.dot")]) == 0
    monkeypatch.setattr(cli, "cmd_render", lambda args: 7)
    assert main(["render", files["h.zxd"]]) == 7


def test_rewrite_single_rule(files, tmp_path):
    out = tmp_path / "out.zxd"
    code = main(["rewrite", files["hh.zxd"], "--rule", "h-cancel",
                 "--check", "-o", str(out)])
    assert code == 0
    assert "edge" in out.read_text()


def test_rewrite_check_reads_model_n(files, tmp_path, capsys):
    """The Euler decomposition holds in model 1 and fails in model 2."""
    argv = ["--enable-euler", "rewrite", files["h.zxd"], "--rule", "euler",
            "--check", "-o", str(tmp_path / "out.zxd")]
    assert main(argv) == 0
    assert main(["--model-n", "2", *argv]) == 1
    assert capsys.readouterr().out == (
        "replay failed: step 0 (euler): semantic drift in model n=2\n")


def test_rewrite_euler_gate(files, tmp_path):
    out = tmp_path / "out.zxd"
    assert main(["rewrite", files["h.zxd"], "--rule", "euler",
                 "-o", str(out)]) == 2
    assert main(["--enable-euler", "rewrite", files["h.zxd"], "--rule",
                 "euler", "-o", str(out)]) == 0


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_gated_step_without_the_flag_is_usage_error(files, tmp_path, capsys, check):
    """The step matches; what is missing is the flag, so the refusal names
    it, for a rule and for a script with an Euler-strength step alike."""
    script = tmp_path / "s.json"
    script.write_text('{"rule": "h-colour", "anchor": ["g1"]}\n'
                      '{"rule": "euler-inv", "anchor": ["a", "b", "c"]}\n')
    for argv in (["rewrite", files["h.zxd"], "--rule", "euler"],
                 ["rewrite", str(PROOF_DIR / "cycle-4.start.zxd"), "--script", str(script)]):
        assert main([*argv, *check, "-o", str(tmp_path / "out.zxd")]) == 2
        captured = capsys.readouterr()
        assert "--enable-euler" in captured.err and not captured.out
        assert not (tmp_path / "out.zxd").exists()


@pytest.mark.parametrize("at", ["", "a,", ",a", "a,,b"])
def test_empty_anchor_id_is_usage_error(tmp_path, capsys, at):
    one = tmp_path / "one.zxd"
    one.write_text("node a z\nin i\nout o\nedge i a\nedge a o\n")
    assert main(["rewrite", str(one), "--rule", "spider-split", "--at", at]) == 2
    captured = capsys.readouterr()
    assert repr(at) in captured.err and not captured.out


def test_anchor_with_a_script_is_usage_error(tmp_path, capsys):
    # a script names its own anchors: --at would be dropped without a word
    proof_dir = Path(__file__).resolve().parent.parent / "proofs"
    out = tmp_path / "out.zxd"
    assert main(["rewrite", str(proof_dir / "fixpoint-s3.start.zxd"),
                 "--script", str(proof_dir / "fixpoint-s3.json"),
                 "--at", "zz", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--at applies only with --rule" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_unknown_script_step_is_usage_error(tmp_path, capsys, check):
    # refused before replay, as --rule nope is, not reported as a failed step
    script = tmp_path / "s.json"
    script.write_text('{"rule": "h-colour", "anchor": ["g1"]}\n'
                      '{"rule": "nope", "anchor": ["a"]}\n')
    out = tmp_path / "out.zxd"
    assert main(["rewrite", str(PROOF_DIR / "cycle-4.start.zxd"), "--script",
                 str(script), *check, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {script}: step 1: unknown rule 'nope'\n"
    assert not captured.out and not out.exists()


def test_rewrite_script(files, tmp_path):
    proof_dir = Path(__file__).resolve().parent.parent / "proofs"
    out = tmp_path / "out.zxd"
    code = main(["rewrite", str(proof_dir / "fixpoint-s3.start.zxd"),
                 "--script", str(proof_dir / "fixpoint-s3.json"),
                 "--check", "-o", str(out)])
    assert code == 0
    from zxr.textio import parse
    from zxr.graphstate import graph_state, star_graph
    from zxr.diagram import iso_equal
    assert iso_equal(parse(out.read_text()), graph_state(star_graph(3)))


def test_graph_state_and_local_comp(files, tmp_path):
    out = tmp_path / "tri.zxd"
    assert main(["graph-state", files["tri.edges"], "-o", str(out)]) == 0
    assert "node v:a z" in out.read_text()
    out2 = tmp_path / "lc.edges"
    assert main(["local-comp", files["tri.edges"], "a", "-o", str(out2)]) == 0
    text = out2.read_text()
    assert "edge b c" not in text and "edge a b" in text
    assert main(["local-comp", files["tri.edges"], "zz"]) == 2


def test_render(files, tmp_path):
    out = tmp_path / "g.dot"
    assert main(["render", files["h.zxd"], "-o", str(out)]) == 0
    assert out.read_text().startswith("graph zx {")


def test_verify_independence_report(files, tmp_path):
    from zxr.report import validate_report

    report = tmp_path / "rep.json"
    assert main(["--json", str(report), "verify", "independence"]) == 0
    obj = json.loads(report.read_text())
    validate_report(obj)
    assert obj["suite"] == "independence" and obj["ok"] is True
    rows = obj["rows"]
    euler2 = [r for r in rows if r["axiom"] == "euler" and r["model_n"] == 2]
    assert euler2 and not euler2[0]["holds"]
    for r in rows:
        assert set(r) == {"model_n", "axiom", "holds", "max_residual"}


def test_reports_validate_against_schema(files, tmp_path):
    import json as _json

    from zxr.report import ReportError, schema_text, validate_report

    assert _json.loads(schema_text())["title"]
    for argv, name in [
        (["--json", None, "--max-vertices", "2", "verify", "fixpoint"], "f"),
        (["--json", None, "--max-vertices", "2", "verify", "vdn"], "v"),
        (["--json", None, "verify", "axioms"], "a"),
        (["--json", None, "verify", "independence"], "i"),
        (["--json", None, "check-equal", files["hh.zxd"], files["wire.zxd"]], "c"),
    ]:
        path = tmp_path / f"{name}.json"
        argv[1] = str(path)
        main(argv)
        validate_report(_json.loads(path.read_text()))
    with pytest.raises(ReportError):
        validate_report({"suite": "axioms", "ok": True})


ROW = {"model_n": 1, "axiom": "copy", "holds": True, "max_residual": 0.0}


@pytest.mark.parametrize("bad", [
    {"suite": "check-equal", "ok": True, "equal": True},
    {"suite": "check-equal", "ok": True, "equal": True, "model_n": 1},
    {"suite": "axioms", "ok": True, "rows": [dict(ROW, model_n=0)]},
    {"suite": "axioms", "ok": True, "rows": [dict(ROW, max_residual=-1.0)]},
    {"suite": "independence", "ok": True, "rows": [dict(ROW, holds=1)]},
    {"suite": "fixpoint", "ok": True, "checks": -3, "failures": []},
    {"suite": "vdn", "ok": True, "checks": True, "failures": []},
    {"suite": "check-equal", "ok": True, "equal": False, "model_n": 2,
     "max_residual": 0.5, "lambda": [1.0]},
])
def test_validator_enforces_schema_minimums_and_requirements(bad):
    from zxr.report import ReportError, validate_report

    validate_report({"suite": "axioms", "ok": True, "rows": [ROW]})
    with pytest.raises(ReportError):
        validate_report(bad)


def _big(path, phase="0", tail=""):
    """A single spider with 30 wires, over the contraction cap."""
    path.write_text(f"node s z {phase}\nout " + " ".join(f"w{i}" for i in range(30)) + "\n"
                    + "".join(f"edge s w{i}\n" for i in range(30)) + tail)
    return str(path)


def test_resource_limit_exit_code(tmp_path):
    # the phases differ, so the networks do and the pair must be evaluated
    big = _big(tmp_path / "big.zxd")
    assert main(["check-equal", big, _big(tmp_path / "big1.zxd", "1")]) == 3
    # the same network, but a closed 3-H-box cycle makes one side's scale 0
    cycle = "".join(f"node c{i} h\nedge c{i} c{(i + 1) % 3}\n" for i in range(3))
    assert main(["check-equal", big, _big(tmp_path / "big0.zxd", tail=cycle)]) == 3


def test_check_equal_decides_equal_networks_past_einsums_labels(files, capsys):
    # Z(1/4) -- H -- Z(1/2), 30 outputs each: planning it needs 60 einsum
    # labels, 8 more than einsum has, but the network decides the pair
    outs = [f"{v}{i}" for v in "ab" for i in range(30)]
    big = files["dir"] / "big.zxd"
    big.write_text("node a z 1/4\nnode b z 1/2\nnode h h\nedge a h\nedge h b\nout "
                   + " ".join(outs) + "\n" + "".join(f"edge {o[0]} {o}\n" for o in outs))
    assert main(["check-equal", str(big), str(big)]) == 0
    assert capsys.readouterr() == ("equal=True lambda=1+0j max_residual=0.000e+00\n", "")


def test_check_equal_over_the_cap_decides_equal_networks(files, capsys):
    # the 27 + 3-output spider-fuse start against its fused end: 2^30 entries
    # each, one network, scales 1 and 1
    outs = [f"o{i}" for i in range(30)]
    start = files["dir"] / "fuse.zxd"
    start.write_text("node a z 1/4\nnode b z 1/2\nout " + " ".join(outs) + "\nedge a b\n"
                     + "".join(f"edge {'a' if i < 27 else 'b'} {o}\n"
                               for i, o in enumerate(outs)))
    fused = files["dir"] / "fused.zxd"
    fused.write_text("node a z 3/4\nout " + " ".join(outs) + "\n"
                     + "".join(f"edge a {o}\n" for o in outs))
    report = files["dir"] / "r.json"
    assert main(["--json", str(report), "check-equal", str(start), str(fused)]) == 0
    assert capsys.readouterr() == ("equal=True lambda=1+0j max_residual=0.000e+00\n", "")
    assert json.loads(report.read_text()) == {
        "suite": "check-equal", "model_n": 1, "equal": True, "lambda": [1.0, 0.0],
        "max_residual": 0.0, "ok": True}
    # a phase-0 pendant leaves the network but adds 1/sqrt2 to the scale:
    # lambda is the scale ratio, as the fit finds it under the cap
    for legs in (3, 30):   # under the cap, then over it
        outs = " ".join(f"w{i}" for i in range(legs))
        text = f"node s z\nout {outs}\n" + "".join(f"edge s w{i}\n" for i in range(legs))
        (files["dir"] / "s.zxd").write_text(text)
        (files["dir"] / "t.zxd").write_text(text + "node t z\nedge s t\n")
        assert main(["check-equal", str(files["dir"] / "s.zxd"),
                     str(files["dir"] / "t.zxd")]) == 0
        out = capsys.readouterr().out
        assert out == "equal=True lambda=1.41421356237+0j max_residual=0.000e+00\n", legs


def test_check_equal_over_the_cap_walks_through_an_identity_spider(files, capsys):
    # the 27 + 3-output spider-fuse start against itself with an X(0) spider
    # on its a-b wire: the network walks through the spider, so the two are
    # one network, 2^30 entries each
    outs = [f"o{i}" for i in range(30)]
    legs = "".join(f"edge {'a' if i < 27 else 'b'} {o}\n" for i, o in enumerate(outs))
    head = "node a z 1/4\nnode b z 1/2\nout " + " ".join(outs) + "\n"
    start, split = files["dir"] / "fuse.zxd", files["dir"] / "split.zxd"
    start.write_text(head + "edge a b\n" + legs)
    split.write_text(head + "node m x\nedge a m\nedge m b\n" + legs)
    assert main(["check-equal", str(start), str(split)]) == 0
    assert capsys.readouterr() == ("equal=True lambda=1+0j max_residual=0.000e+00\n", "")


def test_check_equal_contracts_each_side_once(files, monkeypatch, capsys):
    # K_12 and K_12 less one edge as graph states: 2^12 entries each, over
    # MAX_CACHED_ENTRIES, so no memo hides a second contraction
    import itertools

    from zxr import semantics, textio
    from zxr.graphstate import SimpleGraph, graph_state

    verts = [f"v{i}" for i in range(12)]
    pairs = list(itertools.combinations(verts, 2))
    paths = []
    for drop in (0, 1):
        path = files["dir"] / f"k12-{drop}.zxd"
        path.write_text(textio.serialize(graph_state(SimpleGraph.build(verts, pairs[drop:]))))
        paths.append(str(path))
    runs = []
    run = semantics._run
    monkeypatch.setattr(semantics, "_run", lambda *key: runs.append(key) or run(*key))
    assert main(["check-equal", *paths]) == 1
    assert len(runs) == 2 and all(2 ** (key[3] + key[4]) == 4096 for key in runs)
    assert capsys.readouterr().out.startswith("equal=False ")


@pytest.mark.parametrize("command", [
    ["check-equal", "big", "big1"],   # two phases: two networks
    ["verify", "axioms"],
])
def test_resource_limit_replaces_the_json_report(files, tmp_path, monkeypatch,
                                                 capsys, command):
    """Exit 3 leaves a report that says so, not one from an earlier run."""
    from zxr import semantics
    from zxr.report import ReportError, validate_report

    big = {"big": _big(tmp_path / "big.zxd"), "big1": _big(tmp_path / "big1.zxd", "1")}
    if command[0] == "verify":
        monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2)
    path = tmp_path / "r.json"
    path.write_text('{"stale": true}\n')
    assert main(["--json", str(path)] + [big.get(a, a) for a in command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    report = json.loads(path.read_text())
    assert report == {"suite": command[-1] if command[0] == "verify" else command[0],
                      "resource_limit": err[len("resource limit: "):-1], "ok": False}
    validate_report(report)
    for bad in (dict(report, ok=True), dict(report, resource_limit=3)):
        with pytest.raises(ReportError):
            validate_report(bad)


def test_verify_axioms_single_model(files):
    assert main(["--model-n", "2", "verify", "axioms"]) == 0


def test_verify_fixpoint_small(files, tmp_path):
    report = tmp_path / "fix.json"
    assert main(["--max-vertices", "3", "--json", str(report),
                 "verify", "fixpoint"]) == 0
    obj = json.loads(report.read_text())
    assert obj["ok"] and obj["checks"] > 0


def test_verify_vdn_small_with_random(files):
    assert main(["--max-vertices", "2", "--random", "2", "--seed", "11",
                 "verify", "vdn"]) == 0


@pytest.mark.parametrize("suite", ["fixpoint", "vdn"])
@pytest.mark.parametrize("random_n", [[], ["--random", "0"]])
def test_seed_without_random_is_usage_error(tmp_path, capsys, suite, random_n):
    # no random graph is drawn: the seed would be dropped without a word
    report = tmp_path / "r.json"
    assert main(["--json", str(report), "--seed", "3", "--max-vertices", "2",
                 *random_n, "verify", suite]) == 2
    captured = capsys.readouterr()
    assert "--seed applies only with --random" in captured.err and not captured.out
    assert not report.exists()


def test_verify_reports_are_deterministic(files, tmp_path):
    out = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        main(["--json", str(path), "--max-vertices", "2", "--random", "3",
              "--seed", "9", "verify", "vdn"])
        out.append(path.read_text())
    assert out[0] == out[1]


def test_rewrite_bad_anchor_arity_fails_cleanly(tmp_path, capsys):
    script = tmp_path / "bad.json"
    script.write_text('{"rule": "hopf", "anchor": ["a"]}\n')
    start = str(PROOF_DIR / "cycle-4.start.zxd")
    assert main(["rewrite", start, "--script", str(script), "--check"]) == 1
    assert "replay failed" in capsys.readouterr().out
    assert main(["rewrite", start, "--script", str(script)]) == 1
    assert "rewrite failed" in capsys.readouterr().out
    assert main(["rewrite", start, "--rule", "hopf", "--at", "a"]) == 1
    assert "rewrite failed" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    "not json",
    '{"anchor": ["a"]}',
    '{"rule": "hopf"}',
    '{"rule": "hopf", "anchor": "ab"}',
    '{"rule": "hopf", "anchor": ["a", 1]}',
    '{"rule": ["hopf"], "anchor": ["a"]}',
    '["hopf", ["a"]]',
])
def test_rewrite_malformed_script_is_usage_error(tmp_path, capsys, line):
    script = tmp_path / "bad.json"
    script.write_text('{"rule": "h-colour", "anchor": ["g1"]}\n\n' + line + "\n")
    start = str(PROOF_DIR / "cycle-4.start.zxd")
    for check in ([], ["--check"]):
        assert main(["rewrite", start, "--script", str(script), *check]) == 2
        assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-1", "0"])
@pytest.mark.parametrize("command", [["check-equal", "hh.zxd", "wire.zxd"],
                                     ["verify", "axioms"]])
def test_model_n_below_one_is_usage_error(files, capsys, n, command):
    argv = [files.get(a, a) for a in command]
    with pytest.raises(SystemExit) as exc:
        main(["--model-n", n, *argv])
    assert exc.value.code == 2
    assert "--model-n: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["fixpoint", "vdn", "independence"])
def test_model_n_is_a_usage_error_where_the_suite_fixes_its_models(capsys, suite):
    """These suites do not read --model-n, so a verdict would not be about
    the model asked for (Van den Nest's witness fails in model 2)."""
    assert main(["--model-n", "2", "--max-vertices", "3", "verify", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--model-n does not apply to verify {suite}" in captured.err


@pytest.mark.parametrize("command", [["check-equal", "bad", "wire.zxd"],
                                     ["graph-state", "bad"]])
def test_non_utf8_file_is_usage_error(files, capsys, command):
    bad = files["dir"] / "bad"
    bad.write_bytes(b"\xff\xfe\x00z g 0\n")
    files["bad"] = str(bad)
    assert main([files.get(a, a) for a in command]) == 2
    assert f"cannot read {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--max-vertices", "-1", "verify", "fixpoint"],
                                  ["--max-vertices", "0", "--random", "-5", "verify", "vdn"]])
def test_negative_sweep_bound_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-4]}: must be >= 0, not {argv[-3]}" in capsys.readouterr().err


def test_random_sample_alone_runs(capsys):
    assert main(["--max-vertices", "0", "--random", "1", "verify", "vdn"]) == 0
    checks = int(capsys.readouterr().out.split()[1])
    assert checks >= 6


def test_max_vertices_above_eight_is_usage_error(monkeypatch, capsys):
    # the sweep names vertices a-h; one tiny graph per size keeps a run short
    from zxr import graphstate
    one = graphstate.SimpleGraph.build(("a",))
    monkeypatch.setattr(graphstate, "all_graphs", lambda labels: iter([one]))
    assert main(["--max-vertices", "8", "verify", "fixpoint"]) == 0
    assert capsys.readouterr().out.startswith("fixpoint: 8 checks")
    with pytest.raises(SystemExit) as exc:
        main(["--max-vertices", "9", "verify", "fixpoint"])
    assert exc.value.code == 2
    assert "--max-vertices: must be <= 8, not 9" in capsys.readouterr().err


def test_verify_reports_each_failing_vertex(monkeypatch, tmp_path, capsys):
    from zxr import graphstate
    from zxr.report import validate_report

    monkeypatch.setattr(graphstate, "check_fixpoint",
                        lambda g, u: not (g.edges and u == "b"))
    report = tmp_path / "fix.json"
    assert main(["--max-vertices", "2", "--json", str(report),
                 "verify", "fixpoint"]) == 1
    assert capsys.readouterr().out == "fixpoint: 5 checks, FAILURES\n"
    obj = json.loads(report.read_text())
    validate_report(obj)
    assert obj["ok"] is False and obj["checks"] == 5
    assert obj["failures"] == [{"vertices": ["a", "b"], "edges": [["a", "b"]],
                                "vertex": "b", "holds": False}]


@pytest.mark.parametrize("command", [
    ["check-equal", "h.zxd", "wire.zxd"],   # hh.zxd and wire.zxd share a network
    ["--max-vertices", "2", "verify", "fixpoint"],
    ["verify", "axioms"],
    # the step changes its patch's network, so the patch must be evaluated
    ["--enable-euler", "rewrite", "h.zxd", "--rule", "euler", "--check"],
])
def test_every_resource_limit_exits_three(files, monkeypatch, capsys, command):
    from zxr import semantics

    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2)
    assert main([files.get(a, a) for a in command]) == 3
    assert capsys.readouterr().err.startswith("resource limit: ")


def test_step_that_keeps_its_network_checks_under_any_cap(files, monkeypatch, capsys):
    # H-H to a wire leaves the network as it was: decided with no evaluation
    from zxr import semantics

    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2)
    assert main(["rewrite", files["hh.zxd"], "--rule", "h-cancel", "--check"]) == 0
    assert capsys.readouterr().err == ""


def test_check_equal_tells_shapes_apart_before_evaluating(files, capsys):
    # 2^30 entries are over the cap, but the boundary counts already differ
    big = files["dir"] / "big.zxd"
    big.write_text("node s z\nout " + " ".join(f"o{i}" for i in range(30)) + "\n"
                   + "".join(f"edge s o{i}\n" for i in range(30)))
    one = files["dir"] / "one.zxd"
    one.write_text("node s z\nout o\nedge s o\n")
    report = files["dir"] / "r.json"
    assert main(["--json", str(report), "check-equal", str(big), str(one)]) == 1
    assert capsys.readouterr() == ("shapes differ: (1073741824, 1) vs (2, 1)\n", "")
    assert json.loads(report.read_text()) == {
        "suite": "check-equal", "model_n": 1, "equal": False,
        "shapes": [[1073741824, 1], [2, 1]], "ok": False}


def test_colon_label_is_usage_error(files, capsys):
    colon = files["dir"] / "colon.edges"
    colon.write_text("vertices a b:c a:b c\nedge a b:c\nedge a:b c\n")
    assert main(["graph-state", str(colon)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "vertex label 'b:c' contains ':'" in captured.err


@pytest.mark.parametrize("argv", [
    ["graph-state", "tri.edges", "-o", "OUT"],
    ["rewrite", "hh.zxd", "--rule", "h-cancel", "--check", "-o", "OUT"],
    ["--json", "OUT", "--max-vertices", "2", "verify", "fixpoint"],
    ["--json", "OUT", "check-equal", "hh.zxd", "wire.zxd"],
])
def test_unwritable_output_is_usage_error(files, capsys, argv):
    out = files["dir"] / "missing" / "out"
    assert main([str(out) if a == "OUT" else files.get(a, a) for a in argv]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("kind, reason", [
    ("dir", "[Errno 21] Is a directory"),
    ("missing", "[Errno 2] No such file or directory"),
])
def test_unwritable_output_message(files, capsys, kind, reason):
    out = files["dir"] if kind == "dir" else files["dir"] / "missing" / "out.zxd"
    assert main(["rewrite", files["hh.zxd"], "--rule", "h-cancel", "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}: '{out}'\n")


def test_output_over_a_longer_file_holds_the_result_alone(files, capsys):
    argv = ["rewrite", files["hh.zxd"], "--rule", "h-cancel", "--check", "-o"]
    assert main(argv + ["-"]) == 0
    result = capsys.readouterr().out
    out = files["dir"] / "out.zxd"
    out.write_text("# stale\n" * 2000)
    assert main(argv + [str(out)]) == 0
    assert out.read_text() == result and capsys.readouterr() == ("", "")


def test_output_to_a_device_is_written_uncut(files):
    # /dev/null cannot be truncated (EINVAL), so only a regular file is cut
    assert main(["rewrite", files["hh.zxd"], "--rule", "h-cancel", "-o", os.devnull]) == 0
    assert main(["--json", os.devnull, "check-equal", files["hh.zxd"], files["wire.zxd"]]) == 0


def test_report_over_a_longer_stale_report_validates(files):
    from zxr.report import validate_report

    path = files["dir"] / "r.json"
    path.write_text(json.dumps({"stale": ["x" * 80] * 200}, indent=2) + "\n")
    assert main(["--json", str(path), "check-equal", files["hh.zxd"], files["wire.zxd"]]) == 0
    validate_report(json.loads(path.read_text()))


def test_shipped_proofs_rebuild_over_longer_stale_files(tmp_path):
    from zxr import shipped

    for name in shipped.BUILDERS:
        for suffix in (".start.zxd", ".json"):
            (tmp_path / (name + suffix)).write_text("stale\n" * 5000)
    shipped.write_all(tmp_path)
    for path in sorted(tmp_path.iterdir()):
        assert path.read_bytes() == (PROOF_DIR / path.name).read_bytes(), path.name


def test_unwritable_report_after_resource_limit_is_usage_error(
        files, monkeypatch, capsys):
    from zxr import semantics

    monkeypatch.setattr(semantics, "MAX_INTERMEDIATE", 2)
    out = files["dir"] / "missing" / "r.json"
    assert main(["--json", str(out), "check-equal", files["h.zxd"],
                 files["wire.zxd"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ")
    assert f"error: cannot write {out}: " in err


@pytest.mark.parametrize("argv, message", [
    (["--model-n", "2", "--enable-euler", "rewrite", "h.zxd", "--rule", "euler",
      "-o", "out.zxd"], "--model-n does not apply to rewrite without --check"),
    (["--model-n", "3", "--random", "4", "--seed", "9", "render", "h.zxd",
      "-o", "out.dot"], "--model-n does not apply to render"),
    (["--random", "4", "--max-vertices", "1", "verify", "axioms"],
     "--max-vertices does not apply to verify axioms"),
    (["--enable-euler", "check-equal", "h.zxd", "h.zxd"],
     "--enable-euler does not apply to check-equal"),
    # given as 0, which == False, an option is still given
    (["--seed", "0", "render", "h.zxd", "-o", "out.dot"], "--seed does not apply to render"),
    (["--max-vertices", "0", "render", "h.zxd", "-o", "out.dot"],
     "--max-vertices does not apply to render"),
    (["--random", "0", "render", "h.zxd", "-o", "out.dot"], "--random does not apply to render"),
])
def test_global_option_the_command_does_not_read_is_usage_error(
        files, capsys, argv, message):
    outs = {name: files["dir"] / name for name in ("out.zxd", "out.dot")}
    paths = {**files, **{name: str(p) for name, p in outs.items()}}
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not any(p.exists() for p in outs.values())


@pytest.mark.parametrize("argv, message", [
    (["rewrite", "hh.zxd"], "give exactly one of --rule or --script"),
    (["rewrite", "hh.zxd", "--rule", "h-cancel", "--script", "s.json"],
     "give exactly one of --rule or --script"),
    (["rewrite", "hh.zxd", "--rule", "bogus"], "unknown rule 'bogus'"),
])
def test_rewrite_needs_one_known_rule_or_a_script(files, capsys, argv, message):
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_rewrite_rule_without_a_site_differs(files, tmp_path, capsys):
    out = tmp_path / "out.zxd"
    assert main(["rewrite", files["wire.zxd"], "--rule", "spider-fuse", "-o", str(out)]) == 1
    assert capsys.readouterr().out == "spider-fuse: no matching site\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check-equal", "hh.zxd", "wire.zxd"],
    ["check-equal", "h.zxd", "wire.zxd"],
    ["--enable-euler", "check-equal", "h.zxd", "h.zxd"],
])
def test_python_m_zxr_runs_main(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "zxr", *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == main(argv), run.stderr
    assert (run.stdout, run.stderr) == capsys.readouterr()
