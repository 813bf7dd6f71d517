"""Rewrite engine and dense-matrix verifier for the two-colour spider calculus."""

from .diagram import (Diagram, DiagramError, compose, dagger, empty, generator,
                      iso_equal, spider, tensor, wire)
from .phase import Phase
from .semantics import ResourceLimit, diagrams_equal, evaluate, scalar_fit
from .textio import ParseError, parse, parse_edges, serialize, serialize_edges, to_dot

__all__ = [
    "Diagram", "DiagramError", "ParseError", "Phase", "ResourceLimit",
    "compose", "dagger", "diagrams_equal", "empty", "evaluate", "generator",
    "iso_equal", "parse", "parse_edges", "scalar_fit", "serialize",
    "serialize_edges", "spider", "tensor", "to_dot", "wire",
]

__version__ = "0.1.0"
