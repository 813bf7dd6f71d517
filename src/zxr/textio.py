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


def _split(line: str) -> list[str]:
    """The tokens of a line, its comment cut off."""
    return line.split("#", 1)[0].split()


def _error(lineno: int, line: str, toks: list[str], i: int, reason: str) -> ParseError:
    """A ParseError at toks[i], a token of line (``_split``): its column is
    found only here, when the line is known to be malformed."""
    col = 0
    for tok in toks[:i]:
        col = line.index(tok, col) + len(tok)
    return ParseError(lineno, line.index(toks[i], col) + 1, reason)


def parse(text: str) -> Diagram:
    """Parse .zxd text into a checked diagram."""
    d = Diagram()
    ins: list[str] = []
    outs: list[str] = []
    pending_edges: list[tuple[int, str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _split(raw)
        if not toks:
            continue
        head = toks[0]
        if head == "node":
            if len(toks) < 3:
                raise _error(lineno, raw, toks, 0, "node needs an id and a kind")
            name, kind = toks[1], toks[2]
            if d.has_node(name):
                raise _error(lineno, raw, toks, 1, f"duplicate node id {name!r}")
            if kind in SPIDERS:
                phase = None   # add_node gives it the shared ZERO
                if len(toks) == 4:
                    try:
                        phase = Phase.parse(toks[3])
                    except (ValueError, ZeroDivisionError):
                        raise _error(lineno, raw, toks, 3, f"bad phase token {toks[3]!r}")
                elif len(toks) > 4:
                    raise _error(lineno, raw, toks, 4, "trailing tokens after phase")
                d.add_node(kind, phase, name=name)
            elif kind == HBOX:
                if len(toks) != 3:
                    raise _error(lineno, raw, toks, 3, "h node takes no phase")
                d.add_node(HBOX, name=name)
            else:
                raise _error(lineno, raw, toks, 2, f"unknown node kind {kind!r}")
        elif head in ("in", "out"):
            for i, name in enumerate(toks[1:], start=1):
                if d.has_node(name):
                    raise _error(lineno, raw, toks, i, f"duplicate node id {name!r}")
                d.add_node(BOUNDARY, name=name)
            (ins if head == "in" else outs).extend(toks[1:])
        elif head == "edge":
            if len(toks) != 3:
                raise _error(lineno, raw, toks, 0, "edge needs exactly two ids")
            pending_edges.append((lineno, raw, toks))
        else:
            raise _error(lineno, raw, toks, 0, f"unknown directive {head!r}")
    for lineno, raw, toks in pending_edges:
        for i in (1, 2):
            if not d.has_node(toks[i]):
                raise _error(lineno, raw, toks, i, f"unknown node {toks[i]!r}")
        d.add_edge(toks[1], toks[2])
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
        toks = _split(raw)
        if not toks:
            continue
        head = toks[0]
        if head == "vertices":
            if vertices is not None:
                raise _error(lineno, raw, toks, 0, "duplicate vertices line")
            names = toks[1:]
            if len(set(names)) != len(names):
                raise _error(lineno, raw, toks, 0, "repeated vertex name")
            vertices = tuple(names)
        elif head == "edge":
            if vertices is None:
                raise _error(lineno, raw, toks, 0, "edge before vertices line")
            if len(toks) != 3:
                raise _error(lineno, raw, toks, 0, "edge needs exactly two vertices")
            u, v = toks[1], toks[2]
            if u not in vertices:
                raise _error(lineno, raw, toks, 1, f"unknown vertex {u!r}")
            if v not in vertices:
                raise _error(lineno, raw, toks, 2, f"unknown vertex {v!r}")
            if u == v:
                raise _error(lineno, raw, toks, 1, "self-loops are not allowed")
            edges.add(frozenset((u, v)))
        else:
            raise _error(lineno, raw, toks, 0, f"unknown directive {head!r}")
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
