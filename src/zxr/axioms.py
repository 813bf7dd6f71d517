"""The axiom schemas as pairs of diagrams, verified in each scaled model.

Each schema yields left-hand sides, those of the rule's equation rows
drawn: the box twice, one wire on each node with free legs and, when a row
has free phases, one draw per ``PHASE_GRID`` value, which includes
non-Clifford angles, so a pass is not an artifact of Clifford coincidences.
h-colour's rule is written by hand, so its schema alone keeps a builder,
drawn over ``PHASE_GRID`` too, with the loops its rule leaves as they are.
An equation instance (lhs, rhs) takes its right side from the rule of the
same name in ``rules.RULES``, applied at the first site ``match_sites``
finds, so the verdicts speak for the rewrites the engine performs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator

from . import rules
from .diagram import HBOX, Diagram, X, Z, compose, h_wire, other_colour, spider
from .phase import Phase
from .semantics import compare

PHASE_GRID = (Phase(0), Phase(1, 2), Phase(1), Phase(3, 2),
              Phase(1, 3), Phase(2, 5))

Instance = tuple[Diagram, Diagram]


def _left_sides(name: str) -> Iterator[Diagram]:
    """The rule's rows drawn, the i-th free spider of a row taking the
    (i + k)-th grid value in its k-th draw; h-colour's by hand, its spider
    g at every grid phase with a self-loop and an H-box on both legs."""
    r = rules.RULES[name]
    if not r.pairs:   # h-colour, the one schema of a hand-written rule
        for colour in (Z, X):
            for phase in PHASE_GRID:
                d = compose(spider(other_colour(colour), 1, 2, phase), h_wire())
                d.add_edge("g", "g")
                d.add_edge("g", d.add_node(HBOX), 2)
                yield d.checked()
    for lhs, _ in r.pairs:
        for k in range(len(PHASE_GRID) if r.free else 1):
            d = rules.boxed(lhs, 2 if r.box else 1, wired=r.legs)
            for i, v in enumerate(r.free):
                d.set_phase(v, PHASE_GRID[(i + k) % len(PHASE_GRID)])
            yield d.checked()


def _equations(name: str) -> Iterator[Instance]:
    """Each left side of the schema with the rule's rewrite at its first site."""
    for lhs in _left_sides(name):
        yield lhs, rules.apply(name, lhs, rules.match_sites(name, lhs)[0],
                               euler_on=True)


AXIOM_SCHEMAS: dict[str, Callable[[], Iterator[Instance]]] = {
    name: partial(_equations, name) for name in (
        "spider-fuse", "id-remove", "copy", "bialgebra", "pi-commute", "pi-state",
        "hopf", "h-cancel", "h-colour", "h-phase", "h-state",
        "euler")}   # the decomposition stays last

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
