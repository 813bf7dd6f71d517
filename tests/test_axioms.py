import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import zxr
from zxr import axioms, rules
from zxr.diagram import iso_equal
from zxr.semantics import evaluate, matrices_equal, network_scale, scalar_fit
from zxr.textio import serialize

# each rule without a schema of its own, paired with the schema it inverts
INVERSES = {"spider-split": "spider-fuse", "id-insert": "id-remove",
            "euler-inv": "euler"}


def test_base_axioms_hold_in_standard_model():
    for name in axioms.BASE_AXIOMS:
        assert axioms.verify_axiom_residual(name, 1)[0], name


def test_base_axioms_hold_in_scaled_models():
    for n in (2, 3):
        for name in axioms.BASE_AXIOMS:
            assert axioms.verify_axiom_residual(name, n)[0], (name, n)


def test_spider_fusion_model_1():
    assert axioms.verify_axiom_residual("spider-fuse", 1)[0]


def test_bialgebra_model_2():
    assert axioms.verify_axiom_residual("bialgebra", 2)[0]


def test_euler_only_in_standard_model():
    assert axioms.verify_axiom_residual("euler", 1)[0]
    assert not axioms.verify_axiom_residual("euler", 2)[0]


def test_euler_failure_is_gross():
    holds, residual = axioms.verify_axiom_residual("euler", 2)
    assert not holds and residual > 0.1


def test_report_rows_and_verdict():
    rows = axioms.independence_report()
    assert {(r["model_n"], r["axiom"]) for r in rows} == {
        (n, a) for n in (1, 2, 3) for a in axioms.ALL_AXIOMS}
    for r in rows:
        assert set(r) == {"model_n", "axiom", "holds", "max_residual"}
        assert isinstance(r["holds"], bool)
    assert axioms.independence_verdict(rows)
    # tampering with the expected pattern flips the verdict
    bad = [dict(r) for r in rows]
    for r in bad:
        if r["axiom"] == "euler" and r["model_n"] == 2:
            r["holds"] = True
    assert not axioms.independence_verdict(bad)


def _expected_pattern() -> list[dict]:
    """Rows with the independence pattern, written out by hand."""
    rows = []
    for n in (1, 2, 3):
        for a in axioms.ALL_AXIOMS:
            holds = a != axioms.EULER_AXIOM or n == 1
            rows.append({"model_n": n, "axiom": a, "holds": holds,
                         "max_residual": 0.0 if holds else 0.5})
    return rows


@pytest.mark.parametrize("model_n, axiom, change", [
    (3, axioms.BASE_AXIOMS[-1], {"holds": False, "max_residual": 0.5}),
    (1, axioms.EULER_AXIOM, {"holds": False, "max_residual": 0.5}),
    (2, axioms.EULER_AXIOM, {"max_residual": 0.1}),
])
def test_verdict_rejects_each_broken_pattern(model_n, axiom, change):
    rows = _expected_pattern()
    assert axioms.independence_verdict(rows)
    for r in rows:
        if (r["model_n"], r["axiom"]) == (model_n, axiom):
            r.update(change)
    assert not axioms.independence_verdict(rows)


def test_unknown_axiom():
    with pytest.raises(ValueError):
        axioms.verify_axiom_residual("nonsense", 1)


def test_axioms_imports_no_proof_code():
    src = str(Path(zxr.__file__).resolve().parent.parent)
    code = ("import sys, zxr.axioms; "
            "print(sorted(m for m in ('zxr.lemmas', 'zxr.proofs') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_every_right_side_is_its_rule_at_every_site():
    for name, instances in axioms.AXIOM_SCHEMAS.items():
        for lhs, rhs in instances():
            sites = rules.match_sites(name, lhs)
            assert sites, name
            for site in sites:
                assert iso_equal(rules.apply(name, lhs, site, euler_on=True), rhs), (name, site)


def test_inverse_rules_round_trip_through_their_schema():
    """Every inverse site on a right side of the forward schema is undone by
    some forward site. So each inverse rewrite is a forward rewrite read
    right to left, and the forward rule's soundness (its schema, the
    rule-soundness sweeps) gives the inverse's."""
    assert set(rules.RULE_IDS) == set(axioms.AXIOM_SCHEMAS) | set(INVERSES) | {"self-loop"}
    counts = dict.fromkeys(INVERSES, 0)
    for inverse, forward in INVERSES.items():
        for _, rhs in axioms.AXIOM_SCHEMAS[forward]():
            for site in rules.match_sites(inverse, rhs):
                there = rules.apply(inverse, rhs, site, euler_on=True)
                assert any(iso_equal(rules.apply(forward, there, back, euler_on=True), rhs)
                           for back in rules.match_sites(forward, there)), (inverse, site)
                counts[inverse] += 1
    assert counts == {"spider-split": 12, "id-insert": 4, "euler-inv": 1}


# the free-phase spiders of the rows of each schema that has them
FREE_SPIDERS = {"spider-fuse": ("a", "b"), "copy": ("b",), "pi-state": ("b",),
                "hopf": ("a", "b"), "h-phase": ("b",)}


def test_every_free_spider_takes_every_grid_phase():
    """Over the instances of each row (those of one shape once the free
    spiders are set to phase 0), every free spider takes every PHASE_GRID
    value, so a nonzero one too: copy's copying spider is not only drawn
    at phase 0."""
    for name, free in FREE_SPIDERS.items():
        seen = {}
        for lhs, _ in axioms.AXIOM_SCHEMAS[name]():
            shape = lhs.copy()
            for v in free:
                shape.set_phase(v, 0)
            for v in free:
                seen.setdefault((serialize(shape), v), set()).add(lhs.phase(v))
        assert seen and all(p == set(axioms.PHASE_GRID) for p in seen.values()), name
        assert all(any(p != 0 for p in phases) for phases in seen.values()), name


def test_axiom_rows_build_each_schema_once_and_fit_as_per_instance(monkeypatch):
    """The table is built once per report, not once per model, and its rows
    are those of each (model, axiom) on freshly built instances: both sides
    evaluated, the worst scalar-fit residual from 0.0, and the verdict of
    ``matrices_equal`` on their network scales."""
    builders, calls = dict(axioms.AXIOM_SCHEMAS), Counter()

    def counted(name):
        def build():
            calls[name] += 1
            return builders[name]()
        return build

    for name in builders:
        monkeypatch.setitem(axioms.AXIOM_SCHEMAS, name, counted(name))
    rows = axioms.axiom_rows((1, 2, 3), axioms.ALL_AXIOMS)
    assert calls == Counter(dict.fromkeys(axioms.ALL_AXIOMS, 1))
    want = []
    for n in (1, 2, 3):
        for name in axioms.ALL_AXIOMS:
            holds, worst = True, 0.0
            for lhs, rhs in builders[name]():
                a, b = evaluate(lhs, n), evaluate(rhs, n)
                worst = max(worst, scalar_fit(a, b)[1])
                holds &= matrices_equal(a, network_scale(lhs), b, network_scale(rhs))
            want.append({"model_n": n, "axiom": name, "holds": holds,
                         "max_residual": worst})
    assert rows == want
    assert [type(r["holds"]) for r in rows] == [bool] * len(want)
    assert [(r["model_n"], r["axiom"]) for r in rows if not r["holds"]] == [(2, "euler")]
