"""The axiom schemas as pairs of diagrams, verified in each scaled model.

Each schema yields left-hand sides, those of the rule's equation rows when
these hold no free leg or phase (copy's and pi-commute's with their box
drawn twice); an equation instance (lhs, rhs) takes its right side from
the rule of the same name in ``rules.RULES``, applied at the first site
``match_sites`` finds, so the verdicts speak for the rewrites the engine
performs. Schemas with a free angle are instantiated on a fixed grid that
includes non-Clifford angles, so a pass is not an artifact of Clifford
coincidences.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator

from . import rules
from .diagram import Diagram, X, Z, compose, h_wire, other_colour, spider
from .phase import PI, Phase
from .semantics import compare

PHASE_GRID = (Phase(0), Phase(1, 2), Phase(1), Phase(3, 2),
              Phase(1, 3), Phase(2, 5))

Instance = tuple[Diagram, Diagram]


def _both_colours(make: Callable[[str], Iterable[Diagram]]) -> Iterator[Diagram]:
    for colour in (Z, X):
        yield from make(colour)


def _spider_fusion(colour: str) -> Iterator[Diagram]:
    for a in PHASE_GRID:
        for b in (Phase(1, 2), Phase(1, 3)):
            yield compose(spider(colour, 1, 1, a), spider(colour, 1, 1, b))
    # a higher-arity fusion: phased spider into a splitter
    for a in (Phase(1, 2), Phase(2, 5)):
        yield compose(spider(colour, 1, 2), spider(colour, 1, 1, a))


def _pi_state(colour: str) -> Iterator[Diagram]:
    yield compose(spider(other_colour(colour), 1, 0, 0), spider(colour, 1, 1, PI))


def _hopf(colour: str) -> Iterator[Diagram]:
    yield compose(spider(other_colour(colour), 2, 1), spider(colour, 1, 2))


def _h_colour(colour: str) -> Iterator[Diagram]:
    yield compose(spider(other_colour(colour), 1, 2), h_wire())


def _h_phase(colour: str) -> Iterator[Diagram]:
    for a in PHASE_GRID:
        yield compose(spider(colour, 1, 1, a), h_wire())


def _rows(name: str) -> Iterator[Diagram]:
    """The left sides of the rule's equation rows."""
    return (lhs for lhs, _ in rules.RULES[name].pairs)


_LEFT_SIDES: dict[str, Callable[[], Iterator[Diagram]]] = {
    "spider-fuse": lambda: _both_colours(_spider_fusion),
    "id-remove": partial(_rows, "id-remove"),
    "copy": lambda: (rules.boxed(lhs, 2) for lhs in _rows("copy")),
    "bialgebra": partial(_rows, "bialgebra"),
    "pi-commute": lambda: (rules.boxed(lhs, 2) for lhs in _rows("pi-commute")),
    "pi-state": lambda: _both_colours(_pi_state),
    "hopf": lambda: _both_colours(_hopf),
    "h-cancel": partial(_rows, "h-cancel"),
    "h-colour": lambda: _both_colours(_h_colour),
    "h-phase": lambda: _both_colours(_h_phase),
    "h-state": partial(_rows, "h-state"),
    "euler": partial(_rows, "euler"),   # the decomposition stays last
}


def _equations(name: str) -> Iterator[Instance]:
    """Each left side of the schema with the rule's rewrite at its first site."""
    for lhs in _LEFT_SIDES[name]():
        yield lhs, rules.apply(name, lhs, rules.match_sites(name, lhs)[0],
                               euler_on=True)


AXIOM_SCHEMAS: dict[str, Callable[[], Iterator[Instance]]] = {
    name: partial(_equations, name) for name in _LEFT_SIDES}

EULER_AXIOM = "euler"
ALL_AXIOMS = tuple(AXIOM_SCHEMAS)
BASE_AXIOMS = tuple(a for a in ALL_AXIOMS if a != EULER_AXIOM)


def _instances(axiom: str) -> list[Instance]:
    if axiom not in AXIOM_SCHEMAS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return list(AXIOM_SCHEMAS[axiom]())


def verify_axiom_residual(axiom: str, model_n: int) -> tuple[bool, float]:
    """(holds, worst residual after the optimal scalar fit over instances):
    the one row of ``axiom_rows``, kept as the public per-axiom check."""
    (row,) = axiom_rows((model_n,), (axiom,))
    return row["holds"], row["max_residual"]


def axiom_rows(models: Iterable[int], names: Iterable[str]) -> list[dict]:
    """One row per (model, axiom), models outermost: {"model_n", "axiom",
    "holds", "max_residual"}. Each schema's instances are built once; each
    pair's verdict and residual after the optimal scalar fit come from
    ``compare``, the worst residual folded from 0.0."""
    table = [(axiom, _instances(axiom)) for axiom in names]
    rows = []
    for n in models:
        for axiom, instances in table:
            fits = [compare(lhs, rhs, n) for lhs, rhs in instances]
            rows.append({"model_n": n, "axiom": axiom,
                         "holds": all(f[0] for f in fits),
                         "max_residual": max([0.0] + [f[2] for f in fits])})
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
