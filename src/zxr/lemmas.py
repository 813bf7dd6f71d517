"""The derived results of the paper, one Derivation record each.

A Derivation is a start diagram, a rewrite script and the diagram the script
must reach; what a result needs is read from its steps, never declared.
``Derivation.check`` replays the script, checking every step against the
matrix semantics (models 1-3 when no step has Euler strength, else model 1),
and requires the end reached to be isomorphic to the recorded end. Replay is
the only semantic check (chained, its steps equate start and end), so a
derivation costs what its patches cost, not what its whole diagrams cost.
The fixpoint property of every graph (``fixpoint(g, u)``), K(m,n) = P2 and
the even-cycle reductions use no Euler-strength step; the triangle local
complementation, the pi/2 colour change and the non-uniqueness of the
decomposition use the decomposition, and its derivation from local
complementation uses the hypothesis instead. Where a result equates two
diagrams that are both irreducible under the directed rule set, it is two
derivations from a common start whose ends are the two sides of the
equation. ``shipped`` writes the scripts and start diagrams of these
records to proofs/.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diagram import (HBOX, SPIDERS, Diagram, DiagramError, X, Z, attach_wires,
                      chain, euler_chain, h_core, h_core_dual, h_wire,
                      iso_equal, other_colour, rotation_chain)
from .graphstate import (SimpleGraph, fixpoint_lhs, graph_state, path_graph,
                         star_graph, triangle)
from .phase import HALF_PI, MINUS_HALF_PI, PI, ZERO
from .proofs import ProofScript, ReplayError, ScriptBuilder, replay
from .rules import RuleError, match_sites, normalize


@dataclass
class Derivation:
    """A start diagram, a script and the diagram the script must reach."""

    start: Diagram
    script: ProofScript
    end: Diagram

    def check(self) -> bool:
        """Replay the script from start, Euler-strength steps allowed: every
        step in models 1-3 when the script has none, else in model 1 alone,
        where the decomposition holds. Then the end reached must be
        isomorphic to the recorded end."""
        models = (1, 2, 3) if self.script.euler_free() else (1,)
        return iso_equal(replay(self.script, self.start, euler_on=True,
                                models=models), self.end)


# -- small diagram builders ------------------------------------------------------


def complete_bipartite_diagram(m: int, n: int) -> Diagram:
    """K_{m,n}: m red spiders with input wires, n green with output wires."""
    d = Diagram()
    reds = [d.add_node(X, 0, name=f"r{i+1}") for i in range(m)]
    greens = [d.add_node(Z, 0, name=f"g{j+1}") for j in range(n)]
    for r in reds:
        for g in greens:
            d.add_edge(r, g)
    return attach_wires(d, reds, greens)


def cycle_diagram(n: int) -> Diagram:
    """The alternating colour cycle of size 2n, one wire per vertex."""
    if n < 2:
        raise DiagramError("need a cycle of length >= 4")
    d = Diagram()
    reds = [d.add_node(X, 0, name=f"r{i+1}") for i in range(n)]
    greens = [d.add_node(Z, 0, name=f"g{i+1}") for i in range(n)]
    for i in range(n):
        d.add_edge(reds[i], greens[i])
        d.add_edge(greens[i], reds[(i + 1) % n])
    return attach_wires(d, reds, greens)


def p2_diagram(m: int, n: int) -> Diagram:
    """The two-spider path the bipartite reduction lands on: the green spider
    holds the m red-side wires, the red one the n green-side wires."""
    d = Diagram()
    g = d.add_node(Z, 0, name="gstar")
    r = d.add_node(X, 0, name="rstar")
    d.add_edge(g, r)
    return attach_wires(d, [g] * m, [r] * n)


def _free_end(d: Diagram, v: str, consumed: set[str]) -> str:
    for w in d.neighbours(v):
        if w not in consumed:
            return w
    raise RuleError(f"{v!r} has no external leg")


# -- the fixpoint property, for any graph and vertex -----------------------------------


def fixpoint(g: SimpleGraph, u: str) -> Derivation:
    """|g> with X(pi) on u and Z(pi) on each neighbour of u reaches |g>: the
    X(pi) commutes through u onto each edge (an isolated u absorbs it as a
    basis state), slides through the H-box and cancels the neighbour's Z(pi).
    Only u and its k neighbours take part; the script is named after that
    star, fixpoint-s<k+1>."""
    k = len(g.neighbours(u))
    b = ScriptBuilder(f"fixpoint-s{k + 1}", fixpoint_lhs(g, u))
    rot = b.start.boundary_partner(f"w:{u}")
    created = (b.apply("pi-commute", (rot, f"v:{u}")) if k
               else b.apply("pi-state", (f"v:{u}", rot)))
    for p in [v for v in created if b.diagram.kind(v) == X]:
        box = [w for w in b.diagram.neighbours(p)
               if b.diagram.kind(w) == HBOX][0]
        nb = [w for w in b.diagram.neighbours(box) if w != p][0]
        b.apply("h-phase", (box, p))
        b.apply("spider-fuse", (nb, p))
        nb_rot = [w for w in b.diagram.neighbours(nb)
                  if b.diagram.kind(w) == Z and b.diagram.phase(w) == PI][0]
        b.apply("spider-fuse", (nb, nb_rot))
    return Derivation(b.start, b.script, graph_state(g))


def check_fixpoint_script(n: int) -> bool:
    return fixpoint(star_graph(n), "c").check()


# -- complete bipartite reduction (K_{n,m} = P_2) -------------------------------------


def reduce_complete_bipartite(d: Diagram, reds: Sequence[str],
                              greens: Sequence[str]) -> tuple[Diagram, ProofScript]:
    """Rewrite the anchored complete bipartite subdiagram to its two-spider
    path, emitting the full script.

    Induction: for n > 2, split every red to extract a K_{m,n-1}, reduce it,
    then finish on the resulting K_{m,2}; for m > 2 and n = 2 the mirrored
    route; K_{2,2} is one bialgebra; one-sided cases reduce by identity
    removals plus an identity insertion.
    """
    _validate_complete_bipartite(d, reds, greens)
    b = ScriptBuilder(f"knm-{len(reds)}x{len(greens)}", d)
    _reduce_knm(b, list(reds), list(greens))
    return b.diagram, b.script


def _validate_complete_bipartite(d: Diagram, reds: Sequence[str],
                                 greens: Sequence[str]) -> None:
    if not reds or not greens:
        raise RuleError("need at least one node on each side")
    colour_r = d.kind(reds[0]) if d.has_node(reds[0]) else ""
    if colour_r not in SPIDERS:
        raise RuleError("anchor must consist of spiders")
    colour_g = other_colour(colour_r)
    for r in reds:
        if not (d.has_node(r) and d.kind(r) == colour_r and d.phase(r) == ZERO
                and d.degree(r) == len(greens) + 1 and not d.self_loops(r)):
            raise RuleError(f"{r!r} does not fit K_{{{len(reds)},{len(greens)}}}")
    for g in greens:
        if not (d.has_node(g) and d.kind(g) == colour_g and d.phase(g) == ZERO
                and d.degree(g) == len(reds) + 1 and not d.self_loops(g)):
            raise RuleError(f"{g!r} does not fit the bipartite anchor")
    for r in reds:
        for g in greens:
            if d.multiplicity(r, g) != 1:
                raise RuleError(f"missing edge {r!r}-{g!r}")
    for side in (reds, greens):
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                if d.multiplicity(u, v):
                    raise RuleError("anchor has a same-side edge")


def _reduce_knm(b: ScriptBuilder, reds: list[str],
                greens: list[str]) -> tuple[str, str]:
    """Returns (gstar, rstar); gstar holds the red-side legs."""
    m, n = len(reds), len(greens)
    if m == 1 and n == 1:
        r, g = reds[0], greens[0]
        er = _free_end(b.diagram, r, {g})
        (gstar,) = b.apply("id-insert", (r, er))
        b.apply("id-remove", (r,))
        eg = _free_end(b.diagram, g, {gstar})
        (rstar,) = b.apply("id-insert", (g, eg))
        b.apply("id-remove", (g,))
        return gstar, rstar
    if n == 1:
        g = greens[0]
        own = _free_end(b.diagram, g, set(reds))
        for r in reds:
            b.apply("id-remove", (r,))
        (rstar,) = b.apply("id-insert", (g, own))
        return g, rstar
    if m == 1:
        r = reds[0]
        own = _free_end(b.diagram, r, set(greens))
        for g in greens:
            b.apply("id-remove", (g,))
        (gstar,) = b.apply("id-insert", (r, own))
        return gstar, r
    if m == 2 and n == 2:
        made = b.apply("bialgebra", (reds[0], reds[1], greens[0], greens[1]))
        gstar, rstar = made[0], made[1]  # creation order: green side first
        return gstar, rstar
    if n > 2:
        primes = []
        for r in reds:
            (rp,) = b.apply("spider-split", (r, *greens[1:]))
            primes.append(rp)
        g2, r2 = _reduce_knm(b, primes, greens[1:])
        g3, r3 = _reduce_knm(b, reds, [greens[0], g2])
        b.apply("spider-fuse", (r3, r2))
        return g3, r3
    # m > 2, n == 2: mirrored split
    primes = []
    for g in greens:
        (gp,) = b.apply("spider-split", (g, *reds[1:]))
        primes.append(gp)
    g2, r2 = _reduce_knm(b, reds[1:], primes)
    g3, r3 = _reduce_knm(b, [reds[0], r2], greens)
    b.apply("spider-fuse", (g3, g2))
    return g3, r3


def complete_bipartite(m: int, n: int) -> Derivation:
    """K_{m,n} reaches the two-spider path, every step checked in models 1-3."""
    d = complete_bipartite_diagram(m, n)
    _, script = reduce_complete_bipartite(
        d, [f"r{i+1}" for i in range(m)], [f"g{j+1}" for j in range(n)])
    return Derivation(d, script, p2_diagram(m, n))


def check_complete_bipartite(m: int, n: int) -> bool:
    return complete_bipartite(m, n).check()


# -- even cycle reduction ---------------------------------------------------------------


def reduce_even_cycle(d: Diagram, cycle: Sequence[str]) -> tuple[Diagram, ProofScript]:
    """Reduce an alternating-colour even cycle, one bialgebra per round.

    C_4 collapses to the two-spider path in one bialgebra; C_6 is already a
    single hexagonal face and is left alone. Larger cycles shrink by one
    induction round per step: the bialgebra equation applied right-to-left on
    one cycle edge, then two fusions, which shortens the cycle by two while
    splitting off a quadrilateral face.
    """
    cyc = list(cycle)
    _validate_cycle(d, cyc)
    n2 = len(cyc)
    b = ScriptBuilder(f"cycle-{n2}", d)
    if n2 == 4:
        if d.kind(cyc[0]) != X:
            cyc = cyc[1:] + cyc[:1]
        b.apply("bialgebra", (cyc[0], cyc[2], cyc[1], cyc[3]))
        return b.diagram, b.script
    clean = set(cyc)
    while len(cyc) > 6:
        # a cycle edge (g, r) with both endpoints still untouched; failing
        # that, the first green vertex and its successor, each with its
        # non-cycle legs split off so that both are plain corners
        greens = [i for i, v in enumerate(cyc) if b.diagram.kind(v) == Z]
        k = next((i for i in greens
                  if cyc[i] in clean and cyc[(i + 1) % len(cyc)] in clean), greens[0])
        g, r = cyc[k], cyc[(k + 1) % len(cyc)]
        g_prev = cyc[(k - 1) % len(cyc)]
        r_next = cyc[(k + 2) % len(cyc)]
        for v, ring in ((g, (g_prev, r)), (r, (g, r_next))):
            if b.diagram.degree(v) > 3:
                b.apply("spider-split", (v, *[w for w in b.diagram.neighbours(v)
                                              if w not in ring]))
        made = b.apply("bialgebra-expand", (g, r))
        a_side = [v for v in made if b.diagram.kind(v) == X]
        b_side = [v for v in made if b.diagram.kind(v) == Z]
        a_cycle = [v for v in a_side if b.diagram.multiplicity(v, g_prev)][0]
        b_cycle = [v for v in b_side if b.diagram.multiplicity(v, r_next)][0]
        b.apply("spider-fuse", (g_prev, a_cycle))
        b.apply("spider-fuse", (r_next, b_cycle))
        clean -= {g, r, g_prev, r_next}
        cyc = [v for v in cyc if v not in (g, r)]
        # the cycle now runs ... g_prev, r_next ... through the new chord
    return b.diagram, b.script


def _validate_cycle(d: Diagram, cyc: list[str]) -> None:
    if len(cyc) < 4 or len(cyc) % 2:
        raise RuleError("need an even cycle of length >= 4")
    if len(set(cyc)) != len(cyc):
        raise RuleError("cycle nodes must be distinct")
    for i, v in enumerate(cyc):
        w = cyc[(i + 1) % len(cyc)]
        if not (d.has_node(v) and d.kind(v) in SPIDERS and d.phase(v) == ZERO
                and d.degree(v) == 3 and not d.self_loops(v)):
            raise RuleError(f"{v!r} does not fit an alternating cycle")
        if d.kind(w) != other_colour(d.kind(v)):
            raise RuleError("cycle colours must alternate")
        if d.multiplicity(v, w) != 1:
            raise RuleError(f"missing cycle edge {v!r}-{w!r}")
    for i, v in enumerate(cyc):
        for j in range(i + 2, len(cyc)):
            if (i, j) != (0, len(cyc) - 1) and d.multiplicity(v, cyc[j]):
                raise RuleError("cycle has a chord")


def hexagon_and_quadrilaterals(n: int) -> Diagram:
    """C_2n after its n - 3 induction rounds, for n = 4, 5, 6, built without
    the reduction. Round j removes g_(2j-1) and r_2j and splits off the
    quadrilateral r_(2j-1)-g_2j-x_j-z_j on the edge r_(2j-1)-g_2j; x_j takes
    g_(2j-1)'s wire and z_j r_2j's. What is left of the cycle is a hexagon."""
    if n not in (4, 5, 6):
        raise DiagramError("only C8, C10 and C12 reduce by clean rounds alone")
    rounds = range(1, n - 2)
    ring = [v for j in rounds for v in (f"r{2 * j - 1}", f"g{2 * j}")]
    ring += [f"{c}{i}" for i in range(2 * n - 5, n + 1) for c in "rg"]
    d = Diagram()
    d.add_node(X, 0, name="r1")
    chain(d, "r1", "r1", [(X if v[0] == "r" else Z, 0) for v in ring[1:]], ring[1:])
    moved = {}   # a removed vertex's wire, now on its quadrilateral
    for j in rounds:
        chain(d, f"g{2 * j}", f"r{2 * j - 1}", [(X, 0), (Z, 0)], [f"x{j}", f"z{j}"])
        moved[f"g{2 * j - 1}"], moved[f"r{2 * j}"] = f"x{j}", f"z{j}"
    return attach_wires(d, [moved.get(f"r{i}", f"r{i}") for i in range(1, n + 1)],
                        [moved.get(f"g{i}", f"g{i}") for i in range(1, n + 1)])


def even_cycle(n: int) -> Derivation:
    """The reduction of the 2n-cycle, every step checked in models 1-3. C_4
    must reach the two-spider path, C_6 itself, and C_8, C_10 and C_12 the
    hexagon and quadrilaterals of ``hexagon_and_quadrilaterals``. From C_14
    on the reduction splits spiders, and its end is not built independently:
    the cycle must reach what the reduction built."""
    d = cycle_diagram(n)
    result, script = reduce_even_cycle(
        d, [x for i in range(n) for x in (f"r{i+1}", f"g{i+1}")])
    end = (p2_diagram(2, 2) if n == 2 else d if n == 3
           else hexagon_and_quadrilaterals(n) if n <= 6 else result)
    return Derivation(d, script, end)


def check_even_cycle(n: int) -> bool:
    """The cycle derivation checks. C_6 is left alone, so it must also be a
    normal form with no bialgebra site."""
    deriv = even_cycle(n)
    if n == 3:
        trace: list = []
        normalize(deriv.start, trace=trace)
        if trace or match_sites("bialgebra", deriv.start):
            return False
    return deriv.check()


# -- the pi/2 lemmas -------------------------------------------------------------------


def euler_nonuniqueness() -> tuple[Derivation, Derivation]:
    """The colour-swapped decomposition: from X(-pi/2) X(pi/2) H, one script
    cancels the rotations leaving H, the other slides and expands to the
    swapped rotation chain."""
    start = rotation_chain([(X, MINUS_HALF_PI), (X, HALF_PI), "h"])
    a = ScriptBuilder("euler-nonunique-left", start)
    a.apply("spider-fuse", ("c0", "c1"))
    a.apply("id-remove", ("c0",))
    b = ScriptBuilder("euler-nonunique", start)
    b.apply("h-phase", ("c2", "c1"))
    made = b.apply("euler", ("c2",))
    z_chain = [v for v in made if b.diagram.kind(v) == Z]
    b.apply("spider-fuse", (z_chain[1], "c1"))
    b.apply("id-remove", (z_chain[1],))
    return (Derivation(start, a.script, h_wire()),
            Derivation(start, b.script, euler_chain(first=X)))


def _dot_with_pendant(parts: list, names: list[str]) -> Diagram:
    """A 1-in/1-out X(0) spider "dot" carrying the pendant path ``parts``."""
    d = Diagram()
    chain(d, d.add_node(X, 0, name="dot"), None, parts, names)
    return attach_wires(d, ["dot"], ["dot"])


def pi2_colour_change() -> tuple[Derivation, Derivation]:
    """A +pi/2 rotation equals a dot carrying an opposite-colour -pi/2 state:
    both sides are reached from the expanded rotation-chain pendant."""
    start = _dot_with_pendant([(X, MINUS_HALF_PI), (Z, MINUS_HALF_PI),
                               (X, MINUS_HALF_PI), (X, MINUS_HALF_PI)],
                              ["xc", "zm", "xb", "st"])

    a = ScriptBuilder("pi2-colour-left", start)
    a.apply("euler-inv", ("xb", "zm", "xc"))
    box = [v for v in a.diagram.neighbours("st")][0]
    a.apply("h-phase", (box, "st"))
    left_end = _dot_with_pendant([(Z, MINUS_HALF_PI)], ["st"])

    b = ScriptBuilder("pi2-colour", start)
    b.apply("spider-fuse", ("st", "xb"))   # -pi/2 + -pi/2 = pi
    b.apply("pi-state", ("st", "zm"))
    b.apply("spider-fuse", ("st", "xc"))
    b.apply("spider-fuse", ("dot", "st"))
    right_end = rotation_chain([(X, HALF_PI)])
    return (Derivation(start, a.script, left_end),
            Derivation(start, b.script, right_end))


# -- triangle local complementation -------------------------------------------------


def triangle_lc_target() -> Diagram:
    """Path graph state a-b-c with -pi/2 on the ends and X(pi/2) on b's wire."""
    d = graph_state(path_graph("abc"))
    d.set_phase("v:a", MINUS_HALF_PI)
    d.set_phase("v:c", MINUS_HALF_PI)
    d.splice("v:b", "w:b", X, HALF_PI)
    return d.check()


def triangle_lc() -> Derivation:
    """Rewrite the triangle graph state into its local complementation at b,
    using the Euler rule and the pi/2 colour-change lemma."""
    b = ScriptBuilder("triangle-lc", graph_state(triangle()))
    b.apply("h-colour", ("v:b",))
    made = b.apply("euler", ("h:a:c",))
    z_parts = [v for v in made if b.diagram.kind(v) == Z]
    za = [v for v in z_parts if b.diagram.multiplicity(v, "v:a")][0]
    zc = [v for v in z_parts if b.diagram.multiplicity(v, "v:c")][0]
    xm = [v for v in made if b.diagram.kind(v) == X][0]
    b.apply("spider-fuse", ("v:a", za))
    b.apply("spider-fuse", ("v:c", zc))
    (a1,) = b.apply("spider-split", ("v:a", "v:b", xm))
    (c1,) = b.apply("spider-split", ("v:c", "v:b", xm))
    (x2,) = b.apply("spider-split", (xm, a1, c1))
    made = b.apply("bialgebra", ("v:b", x2, a1, c1))
    g_n, r_n = made[0], made[1]
    b.apply("h-colour", (g_n,))
    box = [w for w in b.diagram.neighbours(xm)
           if b.diagram.kind(w) == HBOX][0]
    b.apply("h-phase", (box, xm))
    b.apply("use-pi2-colour", (g_n, xm))
    b.apply("h-colour", (r_n,))
    return Derivation(b.start, b.script, triangle_lc_target())


# -- local complementation implies the decomposition ----------------------------------


def lc_hypothesis_start() -> Diagram:
    """The triangle state with an X(0) state plugged onto b's leg, read as a
    one-wire map from a's leg to c's leg."""
    d = Diagram()
    for v in ("a", "b", "c"):
        d.add_node(Z, 0, name=f"v:{v}")
    for u, v in ("ab", "ac", "bc"):
        chain(d, f"v:{u}", f"v:{v}", ["h"], [f"h:{u}:{v}"])
    chain(d, "v:b", None, [(X, 0)], ["st"])
    return attach_wires(d, ["v:a"], ["v:c"])


def lc_collapse() -> Derivation:
    """Without the hypothesis: the plugged triangle is just an H wire."""
    b = ScriptBuilder("lc-collapse", lc_hypothesis_start())
    b.apply("copy", ("st", "v:b"))
    for v, box in (("v:a", "h:a:b"), ("v:c", "h:b:c")):
        state = [w for w in b.diagram.neighbours(box) if w != v][0]
        b.apply("h-state", (box, state))
        b.apply("spider-fuse", (v, state))
        b.apply("id-remove", (v,))
    return Derivation(b.start, b.script, h_wire())


def lc_apply() -> Derivation:
    """With the hypothesis: the plugged triangle becomes the derived core,
    the diagram that cut-h-core substitutes for an H box."""
    b = ScriptBuilder("lc-apply", lc_hypothesis_start())
    made = b.apply("assume-lc-triangle", ("v:b", "v:a", "v:c"))
    q = made[0]
    b.apply("spider-fuse", (q, "st"))
    b.apply("h-colour", ("v:b",))
    return Derivation(b.start, b.script, h_core())


def swap_core() -> tuple[Derivation, Derivation]:
    """From H-H-H: one script cancels to H, the other substitutes the core in
    the middle and pushes the outer boxes through, reaching the colour swap."""
    start = rotation_chain(["h", "h", "h"])
    a = ScriptBuilder("lc-swap-left", start)
    a.apply("h-cancel", ("c0", "c1"))
    b = ScriptBuilder("lc-swap-right", start)
    made = b.apply("cut-h-core", ("c1",))
    zl, x0, zr = made[0], made[1], made[2]
    b.apply("h-phase", ("c0", zl))
    b.apply("h-phase", ("c2", zr))
    b.apply("h-colour", (x0,))
    return (Derivation(start, a.script, h_wire()),
            Derivation(start, b.script, h_core_dual()))


def derive_euler_from_lc() -> Derivation:
    """The decomposition of H, derived from the local-complementation
    hypothesis via the two substitution steps established by the companion
    derivations; it ends on the decomposition chain plus a left-over scalar
    spider."""
    b = ScriptBuilder("lc-implies-euler", h_wire())
    made = b.apply("cut-h-core", ("c0",))
    zl, x0, zr, hx, q = made
    made = b.apply("cut-h-core-dual", (hx,))
    z1 = [v for v in made if b.diagram.kind(v) == Z][0]
    q2 = [v for v in made if b.diagram.degree(v) == 1][0]
    near_q = [v for v in made if b.diagram.multiplicity(v, q)][0]
    near_x0 = [v for v in made if b.diagram.multiplicity(v, x0)][0]
    b.apply("spider-fuse", (q, near_q))
    b.apply("copy", (q, z1))
    fresh = [v for v in b.diagram.nodes()
             if b.diagram.kind(v) == X and b.diagram.degree(v) == 1
             and b.diagram.phase(v) == ZERO]
    junk_state = [v for v in fresh if b.diagram.multiplicity(v, q2)][0]
    chain_state = [v for v in fresh if b.diagram.multiplicity(v, near_x0)][0]
    b.apply("spider-fuse", (chain_state, near_x0))
    b.apply("spider-fuse", (x0, chain_state))
    b.apply("spider-fuse", (junk_state, q2))
    end = euler_chain(first=Z).copy()
    end.add_node(X, HALF_PI, name="junk")
    return Derivation(b.start, b.script, end.check())


def lc_implies_euler() -> dict[str, Derivation]:
    """The stages of the derivation, by verdict name: the plugged triangle
    collapses to H without the hypothesis and to the core with it; H-H-H
    reaches both H and the colour swap; and H reaches its decomposition."""
    swap_left, swap_right = swap_core()
    return {"collapse-to-h": lc_collapse(), "hypothesis-to-core": lc_apply(),
            "swap-left": swap_left, "swap-right": swap_right,
            "main": derive_euler_from_lc()}


def check_lc_implies_euler() -> dict:
    """Replay the whole derivation; returns the per-stage verdicts. Replay
    shows main's end, the decomposition plus an X(pi/2) scalar spider,
    proportional to H, so that scalar is nonzero. The hypothesis step alone
    must drift in the scaled model n=2; a step that does not match is no
    break."""
    stages = lc_implies_euler()
    results = {name: deriv.check() for name, deriv in stages.items()}
    hyp = ProofScript("hyp-only", [("assume-lc-triangle", ("v:b", "v:a", "v:c"))])
    try:
        replay(hyp, stages["hypothesis-to-core"].start, euler_on=True, models=(2,))
        results["hypothesis-breaks-at-n2"] = False
    except ReplayError as exc:
        results["hypothesis-breaks-at-n2"] = "semantic drift" in str(exc)
    results["ok"] = all(results.values())
    return results
