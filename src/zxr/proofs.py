"""Replayable proof scripts for the derived lemmas and theorems.

A ProofScript is an ordered list of (rule, anchor) steps. Replay applies the
steps to a start diagram and asserts, after every step, that the semantics is
preserved up to a nonzero scalar (model 1 always; scaled models too when the
script avoids Euler-strength steps). A step is any rule of ``rules.RULES``,
the script-only steps included.

Each step is checked on its patch (``Diagram.changed_since``): the nodes it
created, removed or changed, plus a cover of the edges it rewired, read
from the step's edit log (``Diagram.touched``) in O(touched). Outside the
patch both diagrams are the same context C, so before = C o P and after =
C o P' for the two sub-diagrams P, P' on the patch. The interpretation is
compositional, so P' = lambda P with lambda nonzero gives after = lambda
before: a passing patch is a passing step. The networks of P and P' are
read in place from the two diagrams, once per step, with no sub-diagram
built: equal ones pass the step in every model, and others are contracted
as they are (``semantics.networks_equal``), at what the patch costs, not
the diagram. A patch is not always an equation on its own (a step that
swaps one state for another can rely on the unchanged node that absorbs
it), so when the two differ, one hits the entry cap or the step has no
patch, the whole diagrams are compared and decide the step. Either way the
verdict is that of the whole diagrams, and the start diagram itself is
never evaluated. The step's ``copy`` is still O(V), at C speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import rules
from .diagram import Diagram, DiagramError
from .rules import Anchor, RuleError
from .semantics import ResourceLimit, diagrams_equal, networks_equal

Step = tuple[str, Anchor]


class ReplayError(RuntimeError):
    """A script step failed to match or drifted semantically."""

    def __init__(self, index: int, rule: str, reason: str) -> None:
        super().__init__(f"step {index} ({rule}): {reason}")
        self.index = index
        self.rule = rule


@dataclass
class ProofScript:
    """A named, replayable sequence of anchored rewrite steps."""

    name: str
    steps: list[Step] = field(default_factory=list)

    def euler_free(self) -> bool:
        """No step has Euler strength; an unknown rule counts as none."""
        return not any(rule in rules.RULES and rules.RULES[rule].euler
                       for rule, _ in self.steps)

    def to_json_lines(self) -> str:
        return "".join(
            json.dumps({"rule": rule, "anchor": list(anchor)}) + "\n"
            for rule, anchor in self.steps)

    @staticmethod
    def from_json_lines(name: str, text: str) -> "ProofScript":
        """Parse one {"rule": ..., "anchor": [...]} object per non-blank line;
        raises ValueError naming the first malformed line."""
        steps: list[Step] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                obj = None
            if not (isinstance(obj, dict) and isinstance(obj.get("rule"), str)
                    and isinstance(obj.get("anchor"), list)
                    and all(isinstance(v, str) for v in obj["anchor"])):
                raise ValueError(f'line {lineno}: expected {{"rule": <string>, '
                                 f'"anchor": [<string>, ...]}}')
            steps.append((obj["rule"], tuple(obj["anchor"])))
        return ProofScript(name, steps)


# -- replay ------------------------------------------------------------------------


def replay(script: ProofScript, start: Diagram, *, euler_on: bool = False,
           models: Optional[Sequence[int]] = None) -> Diagram:
    """Apply the script, semantically checking every step.

    Checks model 1 always and model 2 as well when the script is free of
    Euler-strength steps; pass ``models`` to override, ``()`` to apply the
    steps without evaluating anything. A step is decided by its patch or
    by the whole diagrams (see the module docstring), so only a whole
    diagram over the cap raises ResourceLimit. A model below 1 raises
    ValueError before any step, as a script without steps has none.
    """
    if models is None:
        models = (1, 2) if script.euler_free() else (1,)
    if any(n < 1 for n in models):
        raise ValueError("model_n must be >= 1")
    if models:
        start.checked()   # a checked replay rejects a malformed start outright
    current = start
    for index, (rule, anchor) in enumerate(script.steps):
        try:
            nxt = rules.apply(rule, current, anchor, euler_on=euler_on)
        except (RuleError, DiagramError) as exc:
            raise ReplayError(index, rule, f"does not match: {exc}")
        patch = nxt.changed_since(current) if models else None
        nets = None if patch is None else (current.network(patch), nxt.network(patch))
        for n in models:
            try:
                holds = nets is not None and networks_equal(*nets, n)
            except ResourceLimit:   # the patch is over the cap: the whole diagrams decide
                holds = False
            if not (holds or diagrams_equal(current, nxt, n)):
                raise ReplayError(index, rule, f"semantic drift in model n={n}")
        current = nxt
    return current


class ScriptBuilder:
    """Applies steps while recording them; replay re-checks the result."""

    def __init__(self, name: str, start: Diagram) -> None:
        self.start = start
        self.diagram = start
        self.script = ProofScript(name, [])

    def apply(self, rule: str, anchor: Sequence[str]) -> list[str]:
        """Apply and record one step; returns the nodes it made, in creation order."""
        nxt = rules.apply(rule, self.diagram, anchor, euler_on=True)
        self.script.steps.append((rule, tuple(anchor)))
        self.diagram, before = nxt, self.diagram
        return nxt.created_since(before)
