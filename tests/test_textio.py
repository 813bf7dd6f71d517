import re

import pytest

from conftest import random_diagram
from zxr.diagram import Diagram, DiagramError, Z, iso_equal
from zxr.graphstate import GraphError, SimpleGraph, graph_state
from zxr.textio import (ParseError, parse, parse_edges, serialize,
                        serialize_edges, to_dot)


def test_parse_simple_state():
    d = parse("node a z 1/2\nout w\nedge a w\n")
    assert len(d.inputs) == 0 and len(d.outputs) == 1
    (v,) = d.spiders()
    assert d.phase(v).token() == "1/2"


def test_comments_and_blank_lines():
    d = parse("# heading\n\nnode a x  # a red dot\nin i\nedge i a\n")
    assert d.kind("a") == "x"


def test_round_trip_is_identity_on_normalized_text(rng):
    for _ in range(30):
        d = random_diagram(rng)
        text = serialize(d)
        assert serialize(parse(text)) == text


def test_round_trip_preserves_diagram(rng):
    for _ in range(30):
        d = random_diagram(rng)
        assert iso_equal(parse(serialize(d)), d)


def test_parallel_edges_round_trip():
    text = "node a z\nnode b x\nedge a b\nedge a b\n"
    d = parse(text)
    assert d.multiplicity("a", "b") == 2
    assert serialize(d) == text


def test_h_self_loop_rejected():
    with pytest.raises(ParseError):
        parse("node a h\nedge a a\n")


def test_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse("node a z\nedge a bogus\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text, col", [("node a z\nedge a zz\n", 8),
                                       ("node a z\nedge zz a\n", 6),
                                       ("node a z\nedge  zz   yy\n", 7)])
def test_unknown_edge_end_is_reported_at_its_own_column(text, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (2, col)
    assert str(err.value) == f"line 2, column {col}: unknown node 'zz'"


@pytest.mark.parametrize("text, line, column, message", [
    ("node a\n", 1, 1, "node needs an id and a kind"),
    ("\t node\ta\n", 1, 3, "node needs an id and a kind"),
    ("node a z\n  node   a x  # again\n", 2, 10, "duplicate node id 'a'"),
    ("node a z 1.5\n", 1, 10, "bad phase token '1.5'"),
    ("node a\tx  \t1/0 # zero\n", 1, 12, "bad phase token '1/0'"),
    ("node a z 1 2\n", 1, 12, "trailing tokens after phase"),
    ("node a z 1/2 1/2 # the phase again\n", 1, 14, "trailing tokens after phase"),
    ("node hh h   h\n", 1, 13, "h node takes no phase"),
    ("node a q\n", 1, 8, "unknown node kind 'q'"),
    ("node ab\t  b # not a kind\n", 1, 11, "unknown node kind 'b'"),
    ("node a z\nin i\nout o  a # a is a spider\n", 3, 8, "duplicate node id 'a'"),
    ("in ii i ii\n", 1, 9, "duplicate node id 'ii'"),
    ("in i\nout  i\n", 2, 6, "duplicate node id 'i'"),
    ("node a z\n\t edge a\n", 2, 3, "edge needs exactly two ids"),
    ("node a z\nedge a a a\n", 2, 1, "edge needs exactly two ids"),
    ("node a z\n   vertex a  # the .edges word\n", 2, 4, "unknown directive 'vertex'"),
    ("#node a z\nnode#a z\n", 2, 1, "node needs an id and a kind"),
    ("node ab z\nedge ab\t b # b is missing\n", 2, 10, "unknown node 'b'"),
    ("node b z\nedge ghost b\nedge b  ghost\n", 2, 6, "unknown node 'ghost'"),
])
def test_every_parse_error_is_pinned_to_its_line_and_column(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column, err.value.reason) == (line, column, message)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_bad_phase_token():
    with pytest.raises(ParseError) as err:
        parse("node a z one\n")
    assert "phase" in err.value.reason


def test_unknown_directive():
    with pytest.raises(ParseError):
        parse("vertex a\n")


def test_dot_output_mentions_all_nodes():
    d = parse("node a z 1/2\nnode b x\nnode h0 h\nout w\n"
              "edge a h0\nedge h0 b\nedge b w\nedge a a\n")
    dot = to_dot(d)
    for name in ("a", "b", "h0", "w"):
        assert f'"{name}"' in dot
    assert "green" in dot and "red" in dot and "box" in dot


@pytest.mark.parametrize("name", ["", "a b", "a#b", "a\tb", " a", "a\n"])
def test_node_ids_the_format_cannot_write_are_refused(name):
    # parse would split "a b" into an id and a kind, and cut "a#b" at a comment
    with pytest.raises(DiagramError, match=f"node id {re.escape(repr(name))}"):
        Diagram().add_node(Z, name=name)


def test_every_diagram_serializes_to_text_that_parses_back():
    with pytest.raises(DiagramError, match="'v:a b'"):
        graph_state(SimpleGraph.build(["a b", "c"], [("a b", "c")]))
    d = parse('node a"b\\ z 1/2\nnode x:y h\nout w\nedge a"b\\ x:y\nedge x:y w\n')
    assert serialize(parse(serialize(d))) == serialize(d)
    assert iso_equal(parse(serialize(d)), d)


def test_dot_escapes_quotes_and_backslashes_in_ids():
    d = parse('node a"b z\nnode c\\ x\nout w"\nedge a"b c\\\nedge c\\ w"\n')
    dot = to_dot(d)
    assert '"a\\"b" [shape=circle' in dot and '"a\\"b" -- "c\\\\";' in dot
    # outside its quoted strings, each well-formed, the output has no quote
    # or backslash left
    assert not re.search(r'["\\]', re.sub(r'"(?:[^"\\]|\\.)*"', "", dot))


def test_edges_format_round_trip():
    text = "vertices a b c\nedge a b\nedge b c\n"
    verts, edges = parse_edges(text)
    assert verts == ("a", "b", "c")
    assert serialize_edges(verts, edges) == text


def test_edges_writer_refuses_labels_its_reader_cannot_read():
    for label in ("v:1", "x\u00e9", 'a"b', "vertices", "edge"):
        g = SimpleGraph.build([label, "e"], [(label, "e")])
        assert parse_edges(serialize_edges(g.vertices, g.edges)) == (g.vertices, g.edges)
    for label in ("a b", "c#d", ""):
        g = SimpleGraph.build([label, "e"], [(label, "e")])
        with pytest.raises(GraphError, match=re.escape(repr(label))):
            serialize_edges(g.vertices, g.edges)


@pytest.mark.parametrize("text, line, column, message", [
    ("vertices a b\n vertices c\n", 2, 2, "duplicate vertices line"),
    ("\tvertices a b a\n", 1, 2, "repeated vertex name"),
    ("# no vertices yet\n  edge a b\n", 2, 3, "edge before vertices line"),
    ("vertices a b\nedge a # b\n", 2, 1, "edge needs exactly two vertices"),
    ("vertices ab b\nedge  ab\tc\n", 2, 10, "unknown vertex 'c'"),
    ("vertices a b\nedge c a\n", 2, 6, "unknown vertex 'c'"),
    ("vertices a b\nedge   b  b\n", 2, 8, "self-loops are not allowed"),
    ("vertices a\n  node a z\n", 2, 3, "unknown directive 'node'"),
])
def test_every_edges_parse_error_is_pinned_to_its_line_and_column(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_edges(text)
    assert (err.value.line, err.value.column, err.value.reason) == (line, column, message)


def test_edges_format_errors():
    for empty in ("", "# a comment\n\n"):
        with pytest.raises(ParseError, match="missing vertices line"):
            parse_edges(empty)
    with pytest.raises(ParseError):
        parse_edges("edge a b\n")
    with pytest.raises(ParseError):
        parse_edges("vertices a b\nedge a a\n")
    with pytest.raises(ParseError):
        parse_edges("vertices a b\nedge a c\n")
