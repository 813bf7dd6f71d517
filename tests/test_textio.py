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


def test_edges_format_errors():
    with pytest.raises(ParseError):
        parse_edges("edge a b\n")
    with pytest.raises(ParseError):
        parse_edges("vertices a b\nedge a a\n")
    with pytest.raises(ParseError):
        parse_edges("vertices a b\nedge a c\n")
