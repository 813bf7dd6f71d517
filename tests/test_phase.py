from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
