"""Text formats: the .zxd diagram format, the .edges graph format, DOT export.

.zxd is line-oriented with '#' comments:

    node <id> z|x [<phase>]    phase token p, p/q or -p/q, meaning (p/q)*pi
    node <id> h
    in <id> [<id> ...]         ids are implicitly boundary nodes
    out <id> [<id> ...]
    edge <id> <id>             repeated line => parallel edge

An id, like a vertex label of the .edges format, is any nonempty run of
characters other than whitespace and '#' (``is_token``). ``Diagram.add_node``
refuses any other id, so every diagram can be written, and
``serialize_edges`` any other label.
"""

from __future__ import annotations

from typing import Iterable

from .diagram import BOUNDARY, HBOX, SPIDERS, Diagram, DiagramError, Z, is_token
from .graphstate import GraphError
from .phase import Phase


class ParseError(ValueError):
    """Malformed input; carries line and column."""

    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


def _tokens(line: str) -> list[tuple[int, str]]:
    out = []
    col = 0
    for tok in line.split("#", 1)[0].split():
        col = line.index(tok, col)
        out.append((col + 1, tok))
        col += len(tok)
    return out


def parse(text: str) -> Diagram:
    """Parse .zxd text into a checked diagram."""
    d = Diagram()
    ins: list[str] = []
    outs: list[str] = []
    pending_edges: list[tuple[int, int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        col0, head = toks[0]
        args = toks[1:]
        if head == "node":
            if len(args) < 2:
                raise ParseError(lineno, col0, "node needs an id and a kind")
            (_, name), (kcol, kind) = args[0], args[1]
            if d.has_node(name):
                raise ParseError(lineno, args[0][0], f"duplicate node id {name!r}")
            if kind in ("z", "x"):
                phase = Phase(0)
                if len(args) == 3:
                    try:
                        phase = Phase.parse(args[2][1])
                    except (ValueError, ZeroDivisionError):
                        raise ParseError(lineno, args[2][0], f"bad phase token {args[2][1]!r}")
                elif len(args) > 3:
                    raise ParseError(lineno, args[3][0], "trailing tokens after phase")
                d.add_node(kind, phase, name=name)
            elif kind == "h":
                if len(args) != 2:
                    raise ParseError(lineno, args[2][0], "h node takes no phase")
                d.add_node(HBOX, name=name)
            else:
                raise ParseError(lineno, kcol, f"unknown node kind {kind!r}")
        elif head in ("in", "out"):
            for col, name in args:
                if d.has_node(name):
                    raise ParseError(lineno, col, f"duplicate node id {name!r}")
                d.add_node(BOUNDARY, name=name)
                (ins if head == "in" else outs).append(name)
        elif head == "edge":
            if len(args) != 2:
                raise ParseError(lineno, col0, "edge needs exactly two ids")
            pending_edges.append((lineno, args[0][0], args[0][1], args[1][1]))
        else:
            raise ParseError(lineno, col0, f"unknown directive {head!r}")
    for lineno, col, u, v in pending_edges:
        if not d.has_node(u):
            raise ParseError(lineno, col, f"unknown node {u!r}")
        if not d.has_node(v):
            raise ParseError(lineno, col, f"unknown node {v!r}")
        d.add_edge(u, v)
    d.inputs, d.outputs = tuple(ins), tuple(outs)
    try:
        return d.check()
    except DiagramError as exc:
        raise ParseError(0, 0, str(exc))


def serialize(d: Diagram) -> str:
    """Canonical .zxd text; parse(serialize(d)) reproduces d exactly."""
    lines = []
    for v in d.nodes():
        kind = d.kind(v)
        if kind in SPIDERS:
            phase = d.phase(v)
            if phase.is_zero():
                lines.append(f"node {v} {kind}")
            else:
                lines.append(f"node {v} {kind} {phase.token()}")
        elif kind == HBOX:
            lines.append(f"node {v} h")
    if d.inputs:
        lines.append("in " + " ".join(d.inputs))
    if d.outputs:
        lines.append("out " + " ".join(d.outputs))
    for u, v, m in d.edges():
        lines.extend([f"edge {u} {v}"] * m)
    return "\n".join(lines) + "\n"


def _dot_id(v: str) -> str:
    """v as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(d: Diagram) -> str:
    """Graphviz rendering: green Z, red X, square H, phase labels."""
    lines = ["graph zx {", "  node [style=filled];"]
    for v in d.nodes():
        kind = d.kind(v)
        if kind in SPIDERS:
            phase = d.phase(v)
            label = "" if phase.is_zero() else f"{phase.token()}π"
            fill = "green" if kind == Z else "red"
            lines.append(f'  {_dot_id(v)} [shape=circle, fillcolor={fill}, label="{label}"];')
        elif kind == HBOX:
            lines.append(f'  {_dot_id(v)} [shape=box, fillcolor=yellow, label="H"];')
        else:
            role = "in" if v in d.inputs else "out"
            idx = (d.inputs if role == "in" else d.outputs).index(v)
            lines.append(f'  {_dot_id(v)} [shape=none, fillcolor=none, label="{role}{idx}"];')
    for u, v, m in d.edges():
        lines.extend([f'  {_dot_id(u)} -- {_dot_id(v)};'] * m)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- .edges simple-graph format ------------------------------------------------


def parse_edges(text: str) -> tuple[tuple[str, ...], frozenset[frozenset[str]]]:
    """Parse the .edges graph format: a vertices line then edge lines."""
    vertices: tuple[str, ...] | None = None
    edges: set[frozenset[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        col0, head = toks[0]
        if head == "vertices":
            if vertices is not None:
                raise ParseError(lineno, col0, "duplicate vertices line")
            names = [t for _, t in toks[1:]]
            if len(set(names)) != len(names):
                raise ParseError(lineno, col0, "repeated vertex name")
            vertices = tuple(names)
        elif head == "edge":
            if vertices is None:
                raise ParseError(lineno, col0, "edge before vertices line")
            if len(toks) != 3:
                raise ParseError(lineno, col0, "edge needs exactly two vertices")
            (cu, u), (cv, v) = toks[1], toks[2]
            if u not in vertices:
                raise ParseError(lineno, cu, f"unknown vertex {u!r}")
            if v not in vertices:
                raise ParseError(lineno, cv, f"unknown vertex {v!r}")
            if u == v:
                raise ParseError(lineno, cu, "self-loops are not allowed")
            edges.add(frozenset((u, v)))
        else:
            raise ParseError(lineno, col0, f"unknown directive {head!r}")
    if vertices is None:
        raise ParseError(0, 0, "missing vertices line")
    return vertices, frozenset(edges)


def serialize_edges(vertices: Iterable[str], edges: Iterable[frozenset[str]]) -> str:
    """.edges text that ``parse_edges`` reads back; GraphError on a vertex
    label it could not write as one token (``is_token``)."""
    verts = list(vertices)
    for v in verts:
        if not is_token(v):
            raise GraphError(f"vertex label {v!r} is empty or holds whitespace or '#'")
    lines = ["vertices " + " ".join(verts)]
    order = {v: i for i, v in enumerate(verts)}
    for e in sorted(edges, key=lambda e: sorted(order[v] for v in e)):
        u, v = sorted(e, key=order.get)
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
