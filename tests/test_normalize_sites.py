"""``rules.normalize``'s kept site sets against a scan of every rule per step.

``full_scan_normalize`` is the normalize loop that re-ran ``match_sites``
for each rule after every step, kept here verbatim as the reference: the
kept sets must give the same trace, the same normal form and the same next
fresh id everywhere.
"""

import random

from conftest import circuit, random_diagram
from zxr import rules
from zxr.diagram import BOUNDARY, HBOX, Diagram, X, Z
from zxr.phase import Phase
from zxr.textio import parse, serialize

_NORMALIZE_PRIORITY = ("spider-fuse", "self-loop", "id-remove", "hopf")


def full_scan_normalize(d, trace=None):
    current = d
    while True:
        measure = (current.node_count(), current.edge_count())
        for rule in _NORMALIZE_PRIORITY:
            sites = rules.match_sites(rule, current)
            if sites:
                current = rules.apply(rule, current, sites[0])
                if trace is not None:
                    trace.append((rule, sites[0]))
                break
        else:
            return current
        if not (current.node_count(), current.edge_count()) < measure:
            raise RuntimeError("normalization step failed to decrease the measure")


def outcome(normalizer, d):
    trace = []
    nf = normalizer(d, trace)
    return trace, serialize(nf), nf.fresh_id()


def assert_same(d):
    """Both loops from d, each on its own copy; returns the trace length."""
    expected = outcome(full_scan_normalize, d.copy())
    assert outcome(rules.normalize, d.copy()) == expected, serialize(d)
    return len(expected[0])


def unchecked(d):
    """d rebuilt through Diagram's methods, ids kept, never passed a check."""
    out = Diagram()
    for v in d.nodes():
        out.add_node(d.kind(v), d.phase(v) if d.kind(v) in (Z, X) else None, name=v)
    for u, v, m in d.edges():
        out.add_edge(u, v, m)
    out.inputs, out.outputs = d.inputs, d.outputs
    return out


def ring(rng, names):
    """A closed ring of phase-0 spiders of both colours and H-boxes, in the
    order of names: id-remove meets H-box neighbours on every side."""
    d = Diagram()
    for v in names:
        if rng.random() < 0.3:
            d.add_node(HBOX, name=v)
        else:
            d.add_node(rng.choice([Z, X]), 0, name=v)
    for u, v in zip(names, names[1:] + names[:1]):
        d.add_edge(u, v)
    return d.check() if all(d.degree(v) == 2 for v in names) else None


def test_same_as_full_scan_on_random_diagrams():
    rng = random.Random(20240817)
    steps = [assert_same(random_diagram(rng, max_spiders=rng.randint(2, 12)))
             for _ in range(800)]
    assert sum(steps) > 1500 and max(steps) > 5


def test_same_as_full_scan_on_circuits():
    rng = random.Random(4242)
    steps = [assert_same(circuit(rng, rng.randint(2, 5), rng.randint(6, 80)))
             for _ in range(40)]
    assert sum(steps) > 500


def test_same_as_full_scan_from_starts_that_never_passed_a_check():
    rng = random.Random(7)
    for _ in range(150):
        d = unchecked(random_diagram(rng, max_spiders=10))
        assert d.touched() is None
        assert_same(d)
    # edits logged after a check are in the first step's record
    for _ in range(150):
        d = random_diagram(rng, max_spiders=10)
        u, v = rng.choice(d.spiders()), rng.choice(d.spiders())
        d.add_edge(u, v)
        d.set_phase(u, Phase(0))
        assert_same(d)


def test_same_as_full_scan_next_to_h_boxes():
    # s's two wires end on h once a and b are removed: id-remove no longer
    # matches at s, whose one neighbour is now an H-box
    d = parse("node s x\nnode a z\nnode b z\nnode h h\n"
              "edge s a\nedge a h\nedge h b\nedge b s\n")
    trace = []
    nf = rules.normalize(d, trace)
    assert trace == [("id-remove", ("a",)), ("id-remove", ("b",))]
    assert nf.multiplicity("s", "h") == 2 and not rules.match_sites("id-remove", nf)
    assert_same(d)
    # open and closed rings of phase-0 spiders and H-boxes, names shuffled
    rng = random.Random(11)
    seen = 0
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(2, 9))]
        rng.shuffle(names)
        d = ring(rng, names)
        if d is None:
            continue
        if rng.random() < 0.5:   # cut the ring open at its first node
            v, w = names[0], d.neighbours(names[0])[0]
            d.remove_edge(v, w)
            b, c = d.add_node(BOUNDARY), d.add_node(BOUNDARY)
            d.add_edge(b, v)
            d.add_edge(c, w)
            d.inputs, d.outputs = (b,), (c,)
        seen += assert_same(d) > 0
    assert seen > 100


def test_touched_is_the_log_since_the_copy():
    d = parse("node a z\nnode b z 1/2\nin i\nout o\nedge i a\nedge a b\nedge b o\n")
    assert list(d.touched()) == []   # parsing checks it: an empty log
    e = rules.apply("spider-fuse", d, ("a", "b"))
    assert list(e.touched()) == ["a", "b", "o"]
    e.checked()   # nothing new: the log stays
    assert list(e.touched()) == ["a", "b", "o"]
    e.check()   # a full check keeps it too
    assert list(e.touched()) == ["a", "b", "o"]
    assert list(e.copy().touched()) == []   # a copy starts its own
