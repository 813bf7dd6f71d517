"""The zxr command line: parse, rewrite, verify, and report.

Exit codes: 0 success / equal / holds, 1 unequal / fails, 2 usage or input
error, 3 resource limit.

Every ``-o`` output and ``--json`` report is written over the old file in
place and then cut to its length (``textio.write_file``), not truncated to
zero first: on ext4 a file truncated to zero and rewritten starts its
writeback on close, which took 13-14% of a proof-replay benchmark pass
(checked replays into one output path).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from . import axioms, graphstate, proofs, rules, textio
from .diagram import Diagram
from .report import validate_report
from .semantics import ResourceLimit, compare

OK, DIFFER, USAGE, RESOURCE = 0, 1, 2, 3

SWEEP_LABELS = tuple("abcdefgh")   # vertex names, so at most 8 per graph

T = TypeVar("T")


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _read(path: str, parse: Callable[[str], T]) -> T:
    """Parse the file at path; an unreadable or malformed file is a usage
    error naming the path."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(USAGE, f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(USAGE, f"{path}: {exc}")


def _load_diagram(path: str) -> Diagram:
    return _read(path, textio.parse)


def _load_graph(path: str) -> graphstate.SimpleGraph:
    return graphstate.SimpleGraph(*_read(path, textio.parse_edges))


def _save(path: str, text: str) -> None:
    """Write text to a file; an unwritable path is a usage error naming it."""
    try:
        textio.write_file(path, text)
    except OSError as exc:
        raise CliError(USAGE, f"cannot write {path}: {exc}")


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _save(path, text)


def _emit_report(args, report: dict) -> None:
    """Write the report to --json, if given, once it passes the schema."""
    if getattr(args, "json", None):
        validate_report(report)
        _save(args.json, json.dumps(report, indent=2) + "\n")


# -- subcommands -----------------------------------------------------------------


def cmd_check_equal(args) -> int:
    a = _load_diagram(args.a)
    b = _load_diagram(args.b)
    model_n = args.model_n or 1
    # shapes from the boundary counts, so a mismatch is told before evaluating
    sa, sb = ((2 ** len(d.outputs), 2 ** len(d.inputs)) for d in (a, b))
    if sa != sb:
        print(f"shapes differ: {sa} vs {sb}")
        _emit_report(args, {"suite": "check-equal", "model_n": model_n,
                            "equal": False, "shapes": [list(sa), list(sb)],
                            "ok": False})
        return DIFFER
    equal, lam, residual = compare(a, b, model_n)
    print(f"equal={equal} lambda={lam:.12g} max_residual={residual:.3e}")
    _emit_report(args, {"suite": "check-equal", "model_n": model_n,
                        "equal": equal, "lambda": [lam.real, lam.imag],
                        "max_residual": residual, "ok": equal})
    return OK if equal else DIFFER


def _refuse_gated(args, steps: list[str]) -> None:
    """Without --enable-euler, a step of Euler strength is a usage error."""
    gated = [r for r in steps if r in rules.RULES and rules.RULES[r].euler]
    if gated and not args.enable_euler:
        raise CliError(USAGE, f"{gated[0]} has Euler strength: pass --enable-euler")


def cmd_rewrite(args) -> int:
    d = _load_diagram(args.input)
    if bool(args.rule) == bool(args.script):
        raise CliError(USAGE, "give exactly one of --rule or --script")
    if args.script and args.at is not None:
        raise CliError(USAGE, "--at applies only with --rule")
    if args.rule:
        if args.rule not in rules.RULE_IDS:
            raise CliError(USAGE, f"unknown rule {args.rule!r}")
        _refuse_gated(args, [args.rule])
        if args.at is not None:
            anchor = tuple(args.at.split(","))
            if "" in anchor:
                raise CliError(USAGE, f"--at {args.at!r} holds an empty node id")
        else:
            sites = rules.match_sites(args.rule, d)
            if not sites:
                print(f"{args.rule}: no matching site")
                return DIFFER
            anchor = sites[0]
        script = proofs.ProofScript(args.rule, [(args.rule, anchor)])
    else:
        name = Path(args.script).stem
        script = _read(args.script,
                       lambda text: proofs.ProofScript.from_json_lines(name, text))
        for i, (rule, _) in enumerate(script.steps):
            if rule not in rules.RULES:
                raise CliError(USAGE, f"{args.script}: step {i}: unknown rule {rule!r}")
        _refuse_gated(args, [rule for rule, _ in script.steps])
    models = ((args.model_n,) if args.model_n else None) if args.check else ()
    try:
        result = proofs.replay(script, d, euler_on=args.enable_euler, models=models)
    except proofs.ReplayError as exc:
        print(f"{'replay' if args.check else 'rewrite'} failed: {exc}")
        return DIFFER
    _write(args.output, textio.serialize(result))
    return OK


def cmd_graph_state(args) -> int:
    g = _load_graph(args.graph)
    _write(args.output, textio.serialize(graphstate.graph_state(g)))
    return OK


def cmd_local_comp(args) -> int:
    g = _load_graph(args.graph)
    h = graphstate.local_complement(g, args.vertex)
    _write(args.output, textio.serialize_edges(h.vertices, h.edges))
    return OK


def cmd_render(args) -> int:
    d = _load_diagram(args.input)
    _write(args.output, textio.to_dot(d))
    return OK


def _verify_axioms(args) -> tuple[bool, dict]:
    models = (args.model_n,) if args.model_n else (1, 2, 3)
    rows = axioms.axiom_rows(models, axioms.BASE_AXIOMS)
    for r in rows:
        print(f"model {r['model_n']}  {r['axiom']:12s} "
              f"{'pass' if r['holds'] else 'FAIL'}")
    ok = all(r["holds"] for r in rows)
    return ok, {"suite": "axioms", "rows": rows, "ok": ok}


def _verify_independence(args) -> tuple[bool, dict]:
    rows = axioms.independence_report()
    for r in rows:
        print(f"model {r['model_n']}  {r['axiom']:12s} "
              f"{'pass' if r['holds'] else 'FAIL'}  "
              f"residual={r['max_residual']:.3e}")
    ok = axioms.independence_verdict(rows)
    print("independence result " + ("reproduced" if ok else "NOT reproduced"))
    return ok, {"suite": "independence", "rows": rows, "ok": ok}


def _sweep_graphs(args):
    max_vertices = 5 if args.max_vertices is None else args.max_vertices
    for size in range(1, max_vertices + 1):
        for g in graphstate.all_graphs(SWEEP_LABELS[:size]):
            yield g
    if args.random:
        rng = random.Random(args.seed or 0)
        for _ in range(args.random):
            size = rng.choice((6, 7))
            verts = SWEEP_LABELS[:size]
            edges = [e for e in itertools.combinations(verts, 2)
                     if rng.random() < 0.5]
            yield graphstate.SimpleGraph.build(verts, edges)


def _verify_graph_property(args, checker, name) -> tuple[bool, dict]:
    if args.seed is not None and not args.random:   # no graph is drawn to seed
        raise CliError(USAGE, "--seed applies only with --random")
    rows = []
    ok = True
    count = 0
    for g in _sweep_graphs(args):
        for u in g.vertices:
            holds = checker(g, u)
            count += 1
            if not holds:
                ok = False
                rows.append({"vertices": list(g.vertices),
                             "edges": [sorted(e) for e in g.edge_list()],
                             "vertex": u, "holds": False})
    print(f"{name}: {count} checks, {'all hold' if ok else 'FAILURES'}")
    return ok, {"suite": name, "checks": count, "failures": rows, "ok": ok}


def cmd_verify(args) -> int:
    if args.suite == "axioms":
        ok, report = _verify_axioms(args)
    elif args.suite == "independence":
        ok, report = _verify_independence(args)
    elif args.suite == "fixpoint":
        ok, report = _verify_graph_property(
            args, graphstate.check_fixpoint, "fixpoint")
    else:   # vdn: argparse admits only the four suites
        ok, report = _verify_graph_property(
            args, graphstate.check_vdn, "vdn")
    _emit_report(args, report)
    return OK if ok else DIFFER


# -- entry point ----------------------------------------------------------------


# The commands that read each global option (by dest); given to any other
# command, an option is a usage error.
OPTION_READERS = {
    "model_n": ("check-equal", "rewrite --check", "verify axioms"),
    "enable_euler": ("rewrite --check", "rewrite without --check"),
    "max_vertices": ("verify fixpoint", "verify vdn"),
    "random": ("verify fixpoint", "verify vdn"),
    "seed": ("verify fixpoint", "verify vdn"),
    "json": ("check-equal", "verify axioms", "verify fixpoint", "verify vdn",
             "verify independence"),
}


def _command_name(args) -> str:
    if args.command == "verify":
        return f"verify {args.suite}"
    if args.command == "rewrite":
        return "rewrite --check" if args.check else "rewrite without --check"
    return args.command


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args returns a
    fresh namespace every call and nothing mutates the parser. It holds no
    command functions; ``main`` looks up ``cmd_<command>`` at each call."""
    p = argparse.ArgumentParser(prog="zxr", description=__doc__)
    # A global option is None (--enable-euler: False) unless given, so main
    # can refuse one that the command does not read (OPTION_READERS).
    p.add_argument("--model-n", type=int, default=None, dest="model_n",
                   help="interpret spider phases scaled by n (default 1; verify "
                        "axioms sweeps 1-3 when unset, its other suites refuse it)")
    p.add_argument("--enable-euler", action="store_true",
                   help="allow the gated decomposition rules")
    p.add_argument("--max-vertices", type=int, default=None,
                   help="exhaustive sweep bound for graph suites (default 5, at most 8)")
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="additionally sample N random 6-7 vertex graphs")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the random graph sample (default 0)")
    p.add_argument("--json", metavar="PATH",
                   help="also write a JSON report to PATH")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check-equal", help="compare two diagrams up to scalar")
    c.add_argument("a")
    c.add_argument("b")

    c = sub.add_parser("rewrite", help="apply a rule or replay a script")
    c.add_argument("input")
    c.add_argument("--rule", help="rule id (see the rules module)")
    c.add_argument("--at", help="comma-separated anchor node ids")
    c.add_argument("--script", help="JSON-lines proof script")
    c.add_argument("--check", action="store_true",
                   help="assert per-step semantic preservation")
    c.add_argument("--output", "-o", default="-")

    c = sub.add_parser("graph-state", help="emit the graph-state diagram")
    c.add_argument("graph")
    c.add_argument("--output", "-o", default="-")

    c = sub.add_parser("local-comp", help="complement a graph locally")
    c.add_argument("graph")
    c.add_argument("vertex")
    c.add_argument("--output", "-o", default="-")

    c = sub.add_parser("verify", help="run a verification sweep")
    c.add_argument("suite", choices=("axioms", "fixpoint", "vdn", "independence"))

    c = sub.add_parser("render", help="emit Graphviz DOT")
    c.add_argument("input")
    c.add_argument("--output", "-o", default="-")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for flag, value, low, high in (("--model-n", args.model_n, 1, None),
                                   ("--max-vertices", args.max_vertices, 0, len(SWEEP_LABELS)),
                                   ("--random", args.random, 0, None)):
        if value is None:
            continue
        if value < low:
            parser.error(f"argument {flag}: must be >= {low}, not {value}")
        if high is not None and value > high:
            parser.error(f"argument {flag}: must be <= {high}, not {value}")
    try:
        command = _command_name(args)
        for dest, readers in OPTION_READERS.items():
            given = getattr(args, dest)   # by identity: 0 == False
            if given is not None and given is not False and command not in readers:
                raise CliError(USAGE, f"--{dest.replace('_', '-')} does not "
                                      f"apply to {command}")
        try:
            return globals()["cmd_" + args.command.replace("-", "_")](args)
        except ResourceLimit as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            # a report left by an earlier run must not be read as this run's
            suite = args.suite if args.command == "verify" else args.command
            _emit_report(args, {"suite": suite, "resource_limit": str(exc), "ok": False})
            return RESOURCE
    except CliError as exc:   # an unwritable report after a resource limit too
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except graphstate.GraphError as exc:   # an unknown vertex or a label with ':'
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
