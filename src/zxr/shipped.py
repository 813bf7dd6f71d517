"""The proof scripts shipped under proofs/: builders and file IO.

Every entry pairs a JSON-lines script (<name>.json) with its start diagram
(<name>.start.zxd). Rebuilding the directory is deterministic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from . import lemmas
from .diagram import Diagram, h_wire
from .proofs import ProofScript
from .textio import parse, serialize


def _fixpoint(n: int) -> tuple[Diagram, ProofScript]:
    return lemmas.fixpoint_start(n), lemmas.fixpoint_script(n)


def _knm(m: int, n: int) -> tuple[Diagram, ProofScript]:
    d = lemmas.complete_bipartite_diagram(m, n)
    reds = [f"r{i+1}" for i in range(m)]
    greens = [f"g{j+1}" for j in range(n)]
    _, script = lemmas.reduce_complete_bipartite(d, reds, greens)
    return d, script


def _cycle(n: int) -> tuple[Diagram, ProofScript]:
    d = lemmas.cycle_diagram(n)
    cyc = [x for i in range(n) for x in (f"r{i+1}", f"g{i+1}")]
    _, script = lemmas.reduce_even_cycle(d, cyc)
    return d, script


def _euler_nonunique() -> tuple[Diagram, ProofScript]:
    deriv = lemmas.euler_nonuniqueness()
    return deriv.start, deriv.right


def _pi2_colour() -> tuple[Diagram, ProofScript]:
    deriv = lemmas.pi2_colour_change()
    return deriv.start, deriv.right


def _triangle_lc() -> tuple[Diagram, ProofScript]:
    from .graphstate import graph_state, triangle
    return graph_state(triangle()), lemmas.triangle_lc_script()


def _lc_implies_euler() -> tuple[Diagram, ProofScript]:
    return h_wire(), lemmas.derive_euler_from_lc_script()


BUILDERS: dict[str, Callable[[], tuple[Diagram, ProofScript]]] = {
    **{f"fixpoint-s{n}": (lambda n=n: _fixpoint(n)) for n in range(1, 7)},
    **{f"knm-{m}x{n}": (lambda m=m, n=n: _knm(m, n))
       for m in range(1, 5) for n in range(1, 5)},
    **{f"cycle-{2*n}": (lambda n=n: _cycle(n)) for n in (2, 3, 4)},
    "euler-nonunique": _euler_nonunique,
    "pi2-colour": _pi2_colour,
    "triangle-lc": _triangle_lc,
    "lc-implies-euler": _lc_implies_euler,
}


def write_all(directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in sorted(BUILDERS.items()):
        start, script = build()
        (directory / f"{name}.start.zxd").write_text(serialize(start))
        (directory / f"{name}.json").write_text(script.to_json_lines())
        written.append(name)
    return written


def load(directory: Path, name: str) -> tuple[Diagram, ProofScript]:
    start = parse((directory / f"{name}.start.zxd").read_text())
    script = ProofScript.from_json_lines(
        name, (directory / f"{name}.json").read_text())
    return start, script


if __name__ == "__main__":
    import sys

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("proofs")
    for written in write_all(target):
        print(written)
