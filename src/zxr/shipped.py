"""The proof scripts shipped under proofs/: the derivation table and file IO.

Every entry is the script (<name>.json, JSON lines) and the start diagram
(<name>.start.zxd) of one ``lemmas.Derivation``. Rebuilding the directory is
deterministic.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable

from . import lemmas
from .diagram import Diagram
from .graphstate import star_graph
from .proofs import ProofScript
from .textio import parse, serialize, write_file

BUILDERS: dict[str, Callable[[], lemmas.Derivation]] = {
    **{f"fixpoint-s{n}": partial(lemmas.fixpoint, star_graph(n), "c")
       for n in range(1, 7)},
    **{f"knm-{m}x{n}": partial(lemmas.complete_bipartite, m, n)
       for m in range(1, 5) for n in range(1, 5)},
    **{f"cycle-{2*n}": partial(lemmas.even_cycle, n) for n in (2, 3, 4)},
    "euler-nonunique": lambda: lemmas.euler_nonuniqueness()[1],
    "pi2-colour": lambda: lemmas.pi2_colour_change()[1],
    "triangle-lc": lemmas.triangle_lc,
    "lc-implies-euler": lemmas.derive_euler_from_lc,
}


def write_all(directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in sorted(BUILDERS.items()):
        deriv = build()
        write_file(directory / f"{name}.start.zxd", serialize(deriv.start))
        write_file(directory / f"{name}.json", deriv.script.to_json_lines())
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
