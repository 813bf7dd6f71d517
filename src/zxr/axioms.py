"""The axiom schemas as pairs of diagrams, verified in each scaled model.

Each schema yields equation instances (lhs, rhs). Schemas with a free angle
are instantiated on a fixed grid that includes non-Clifford angles, so a pass
is not an artifact of Clifford coincidences.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .diagram import (BOUNDARY, Diagram, X, Z, compose, euler_chain, h_wire,
                      other_colour, spider, tensor, wire)
from .phase import PI, Phase
from .semantics import evaluate, matrices_equal, scalar_fit

PHASE_GRID = (Phase(0), Phase(1, 2), Phase(1), Phase(3, 2),
              Phase(1, 3), Phase(2, 5))

Instance = tuple[Diagram, Diagram]


def _both_colours(make: Callable[[str], Iterable[Instance]]) -> Iterator[Instance]:
    for colour in (Z, X):
        yield from make(colour)


def _spider_fusion(colour: str) -> Iterator[Instance]:
    for a in PHASE_GRID:
        for b in (Phase(1, 2), Phase(1, 3)):
            lhs = compose(spider(colour, 1, 1, a), spider(colour, 1, 1, b))
            rhs = spider(colour, 1, 1, a + b)
            yield lhs, rhs
    # a higher-arity fusion: phased spider into a splitter
    for a in (Phase(1, 2), Phase(2, 5)):
        lhs = compose(spider(colour, 1, 2), spider(colour, 1, 1, a))
        rhs = spider(colour, 1, 2, a)
        yield lhs, rhs


def _identity(colour: str) -> Iterator[Instance]:
    yield spider(colour, 1, 1, 0), wire()


def _copy(colour: str) -> Iterator[Instance]:
    point = spider(other_colour(colour), 0, 1, 0)
    lhs = compose(spider(colour, 1, 2), point)
    rhs = tensor(point, point)
    yield lhs, rhs


def _bialgebra(colour: str) -> Iterator[Instance]:
    other = other_colour(colour)
    split, merge = spider(colour, 1, 2), spider(other, 2, 1)
    swap = _swap_diagram()
    lhs = compose(tensor(merge, merge),
                  compose(tensor(wire(), tensor(swap, wire())),
                          tensor(split, split)))
    rhs = compose(split, merge)
    yield lhs, rhs


def _swap_diagram() -> Diagram:
    d = Diagram()
    for name in ("in0", "in1", "out0", "out1"):
        d.add_node(BOUNDARY, name=name)
    d.add_edge("in0", "out1")
    d.add_edge("in1", "out0")
    d.inputs, d.outputs = ("in0", "in1"), ("out0", "out1")
    return d.check()


def _pi_commute(colour: str) -> Iterator[Instance]:
    other = other_colour(colour)
    pi_rot = spider(colour, 1, 1, PI)
    split = spider(other, 1, 2)
    yield compose(tensor(pi_rot, pi_rot), split), compose(split, pi_rot)


def _pi_state(colour: str) -> Iterator[Instance]:
    erase = spider(other_colour(colour), 1, 0, 0)
    yield compose(erase, spider(colour, 1, 1, PI)), erase


def _hopf(colour: str) -> Iterator[Instance]:
    other = other_colour(colour)
    lhs = compose(spider(other, 2, 1), spider(colour, 1, 2))
    rhs = compose(spider(other, 0, 1), spider(colour, 1, 0))
    yield lhs, rhs


def _h_cancel(_: str) -> Iterator[Instance]:
    yield compose(h_wire(), h_wire()), wire()


def _h_colour(colour: str) -> Iterator[Instance]:
    other = other_colour(colour)
    lhs = compose(spider(other, 1, 2), h_wire())
    rhs = compose(tensor(h_wire(), h_wire()), spider(colour, 1, 2))
    yield lhs, rhs


def _h_phase(colour: str) -> Iterator[Instance]:
    other = other_colour(colour)
    for a in PHASE_GRID:
        lhs = compose(spider(colour, 1, 1, a), h_wire())
        rhs = compose(h_wire(), spider(other, 1, 1, a))
        yield lhs, rhs


def _h_state(colour: str) -> Iterator[Instance]:
    yield (compose(h_wire(), spider(colour, 0, 1, 0)),
           spider(other_colour(colour), 0, 1, 0))


def _euler(_: str) -> Iterator[Instance]:
    yield h_wire(), euler_chain(first=Z)


AXIOM_SCHEMAS: dict[str, Callable[[], Iterator[Instance]]] = {
    "spider-fuse": lambda: _both_colours(_spider_fusion),
    "id-remove": lambda: _both_colours(_identity),
    "copy": lambda: _both_colours(_copy),
    "bialgebra": lambda: _both_colours(_bialgebra),
    "pi-commute": lambda: _both_colours(_pi_commute),
    "pi-state": lambda: _both_colours(_pi_state),
    "hopf": lambda: _both_colours(_hopf),
    "h-cancel": lambda: iter(_h_cancel(Z)),
    "h-colour": lambda: _both_colours(_h_colour),
    "h-phase": lambda: _both_colours(_h_phase),
    "h-state": lambda: _both_colours(_h_state),
    "euler": lambda: _euler(Z),   # the decomposition stays last
}

EULER_AXIOM = "euler"
ALL_AXIOMS = tuple(AXIOM_SCHEMAS)
BASE_AXIOMS = tuple(a for a in ALL_AXIOMS if a != EULER_AXIOM)


def _instances(axiom: str) -> Iterator[Instance]:
    if axiom not in AXIOM_SCHEMAS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return AXIOM_SCHEMAS[axiom]()


def verify_axiom_residual(axiom: str, model_n: int) -> tuple[bool, float]:
    """(holds, worst residual after the optimal scalar fit over instances)."""
    worst = 0.0
    holds = True
    for lhs, rhs in _instances(axiom):
        a, b = evaluate(lhs, model_n), evaluate(rhs, model_n)
        _, residual = scalar_fit(a, b)
        worst = max(worst, residual)
        if not matrices_equal(lhs, a, rhs, b):
            holds = False
    return holds, worst


def axiom_rows(models: Iterable[int], names: Iterable[str]) -> list[dict]:
    """One row per (model, axiom), models outermost: {"model_n", "axiom",
    "holds", "max_residual"}."""
    rows = []
    for n in models:
        for axiom in names:
            holds, residual = verify_axiom_residual(axiom, n)
            rows.append({"model_n": n, "axiom": axiom, "holds": holds,
                         "max_residual": residual})
    return rows


def independence_report() -> list[dict]:
    """The rows of every axiom, decomposition included, in models 1-3. All
    base axioms hold in every model; the decomposition axiom fails in model
    2, which is the independence result."""
    return axiom_rows((1, 2, 3), ALL_AXIOMS)


def independence_verdict(rows: list[dict]) -> bool:
    """The expected pattern: every base axiom everywhere, the decomposition
    at n=1 but not at n=2."""
    by = {(r["model_n"], r["axiom"]): r for r in rows}
    models = sorted({r["model_n"] for r in rows})
    if not all(by[(n, a)]["holds"] for n in models for a in BASE_AXIOMS):
        return False
    if not by[(1, EULER_AXIOM)]["holds"]:
        return False
    if 2 in models and by[(2, EULER_AXIOM)]["holds"]:
        return False
    if 2 in models and by[(2, EULER_AXIOM)]["max_residual"] <= 0.1:
        return False
    return True
