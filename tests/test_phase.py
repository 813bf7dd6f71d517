import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zxr.diagram import Diagram, Z
from zxr.phase import Phase

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=24)


def as_phase(f: Fraction) -> Phase:
    return Phase(f.numerator, f.denominator)


def test_full_turn_cancels():
    assert Phase(1, 2) + Phase(3, 2) == Phase(0)


def test_half_plus_half_is_pi():
    assert Phase(1, 2) + Phase(1, 2) == Phase(1)


def test_negative_normalizes_into_range():
    assert Phase(-1, 2) + Phase(0) == Phase(3, 2)


def test_parse_tokens():
    assert Phase.parse("1/2") == Phase(1, 2)
    assert Phase.parse("-1/2") == Phase(3, 2)
    assert Phase.parse("3") == Phase(1)
    assert Phase.parse("0").is_zero()


@pytest.mark.parametrize("token", [
    "0.5", "1e0", "1e100000", "1e-1000000", "1_000", "+1", " 1", "1/2 ", "1/-2",
    "--1", "1/2/3", "", "\u0661",
    pytest.param("-1/" + "9" * 4300, id="too-long-to-write-back"),
])
def test_parse_rejects_all_but_p_and_p_over_q(token):
    with pytest.raises(ValueError):
        Phase.parse(token)


def test_token_round_trip():
    for p in (Phase(0), Phase(1), Phase(1, 2), Phase(5, 3)):
        assert Phase.parse(p.token()) == p


def test_scaled():
    assert Phase(1, 2).scaled(2) == Phase(1)
    assert Phase(1, 2).scaled(4) == Phase(0)
    assert Phase(2, 5).scaled(3) == Phase(6, 5)


@given(rationals)
def test_normalized_range(f):
    p = as_phase(f)
    assert 0 <= Fraction(p.num, p.den) < 2
    assert p.den >= 1


@given(rationals, rationals)
def test_add_commutes(a, b):
    assert as_phase(a) + as_phase(b) == as_phase(b) + as_phase(a)


@given(rationals, rationals, rationals)
def test_add_associates(a, b, c):
    pa, pb, pc = map(as_phase, (a, b, c))
    assert (pa + pb) + pc == pa + (pb + pc)


@given(rationals)
def test_zero_identity_and_inverse(a):
    p = as_phase(a)
    assert p + Phase(0) == p
    assert (p + (-p)).is_zero()


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, float("nan"), Decimal("0.5"), 1j, None])
def test_coerce_refuses_all_but_exact_phases(value):
    # a float's binary expansion (0.1 -> 3602879701896397/36028797018963968)
    # is no phase a .zxd author meant
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        Phase.coerce(value)


def test_a_diagram_refuses_a_float_phase():
    d = Diagram()
    with pytest.raises(TypeError, match="0.1"):
        d.add_node(Z, 0.1)
    v = d.add_node(Z, 1)
    with pytest.raises(TypeError, match="0.25"):
        d.set_phase(v, 0.25)
    assert d.phase(v) == Phase(1)


@pytest.mark.parametrize("value, num, den", [
    (0, 0, 1), (1, 1, 1), (-3, 1, 1), (7, 1, 1), (10**30 + 1, 1, 1), (True, 1, 1),
    (False, 0, 1), (Fraction(1, 2), 1, 2), (Fraction(-7, 4), 1, 4),
    (Fraction(10**30 + 1, 3), 5, 3), ("-1/2", 3, 2), (Phase(2, 3), 2, 3),
])
def test_coerce_reads_ints_and_fractions_exactly(value, num, den):
    p = Phase.coerce(value)
    assert (p.num, p.den, type(p.num), type(p.den)) == (num, den, int, int)
