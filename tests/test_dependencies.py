"""The dependency walk over the derivations (``conftest.steps_reached``).

Every lemma step is expanded into the derivations that establish it, so a
result's Euler use is read from the steps it reaches, not declared. The walk
checks what each side of the paper's equivalence uses: the fixpoint
property, K(m,n) = P2 and the cycle reductions need no Euler-strength step;
local complementation follows from the decomposition without the
hypothesis; the decomposition follows from the hypothesis without itself.
"""

import itertools

import pytest

from conftest import LEMMA_DERIVATIONS, steps_reached
from zxr import lemmas, rules, shipped
from zxr.graphstate import all_graphs

DECOMPOSITION = {"euler", "euler-inv"}
HYPOTHESIS = "assume-lc-triangle"


def every_derivation():
    yield from (build() for build in shipped.BUILDERS.values())
    yield from lemmas.lc_implies_euler().values()
    yield from itertools.chain(lemmas.euler_nonuniqueness(),
                               lemmas.pi2_colour_change(), lemmas.swap_core())
    yield lemmas.triangle_lc()


def test_no_lemma_step_depends_on_itself():
    for deriv in every_derivation():
        steps_reached(deriv)


def test_walk_reports_a_lemma_step_that_depends_on_itself(monkeypatch):
    monkeypatch.setitem(LEMMA_DERIVATIONS, "cut-h-core",
                        lambda: [lemmas.swap_core()[1]])
    with pytest.raises(ValueError, match="cut-h-core -> cut-h-core is a cycle"):
        steps_reached(lemmas.derive_euler_from_lc())


def test_lc_implies_euler_reaches_no_decomposition_step():
    stages = lemmas.lc_implies_euler()
    for name, deriv in stages.items():
        assert not steps_reached(deriv) & DECOMPOSITION, name
    assert HYPOTHESIS in steps_reached(stages["main"])


def test_triangle_lc_reaches_euler_but_not_the_hypothesis():
    reached = steps_reached(lemmas.triangle_lc())
    assert "euler" in reached and HYPOTHESIS not in reached


def test_fixpoint_bipartite_and_cycle_scripts_reach_no_euler_strength_step():
    derivs = [build() for name, build in shipped.BUILDERS.items()
              if name.startswith(("fixpoint-", "knm-", "cycle-"))]
    assert len(derivs) == 6 + 16 + 3
    labels = tuple("abcd")
    derivs += [lemmas.fixpoint(g, u) for g in all_graphs(labels) for u in labels]
    derivs += [lemmas.even_cycle(n) for n in (5, 7)]
    for deriv in derivs:
        reached = steps_reached(deriv)
        assert not any(rules.RULES[r].euler for r in reached), deriv.script.name


def test_lemma_step_flags_match_their_lemmas():
    """A lemma step has Euler strength exactly when the derivations that
    establish it reach a step with a declared flag (euler, euler-inv, the
    hypothesis)."""
    for step, lemma in LEMMA_DERIVATIONS.items():
        reached = set().union(*map(steps_reached, lemma())) - set(LEMMA_DERIVATIONS)
        assert rules.RULES[step].euler == any(rules.RULES[r].euler for r in reached), step
