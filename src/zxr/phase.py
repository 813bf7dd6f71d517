"""Exact phases: rational multiples of pi, normalized into [0, 2pi)."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

PhaseLike = Union["Phase", Fraction, int, str]

_TOKEN = re.compile(r"-?[0-9]+(/[0-9]+)?")


def reduced(num: int, den: int) -> tuple[int, int]:
    """The angle (num/den)*pi mod 2pi as (num, den) in lowest terms, with
    den >= 1 and 0 <= num < 2*den; den = 0 raises ZeroDivisionError. The
    one normalization of every phase, so fusion is bit-reproducible."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    return num % (2 * den), den


@dataclass(frozen=True, order=True)
class Phase:
    """An angle (num/den)*pi with gcd(|num|, den) = 1 and 0 <= num/den < 2,
    held as exact integers (``reduced``)."""

    num: int = 0
    den: int = 1

    def __post_init__(self) -> None:
        num, den = reduced(self.num, self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def coerce(value: PhaseLike) -> "Phase":
        """The phase a ``PhaseLike`` names: a Phase, a token (``parse``), or
        an int or Fraction (times pi), read as exact integers. Anything else,
        a float's binary expansion among them, raises TypeError."""
        if isinstance(value, Phase):
            return value
        if isinstance(value, int):
            return Phase(value)
        if isinstance(value, str):
            return Phase.parse(value)
        if isinstance(value, Fraction):
            return Phase(value.numerator, value.denominator)
        raise TypeError(f"not a phase: {value!r} (give a Phase, str, int or Fraction)")

    @staticmethod
    def parse(token: str) -> "Phase":
        """Parse 'p', 'p/q' or '-p/q' in ASCII digits, meaning (p/q)*pi.

        Anything else (a decimal, an exponent, '+', '_' or spaces) raises
        ValueError, as does a phase whose normalized token is too long for
        the interpreter's int-to-str limit; q = 0 raises ZeroDivisionError.
        """
        if not _TOKEN.fullmatch(token):
            raise ValueError(f"not a phase token: {token!r}")
        p = Phase(*map(int, token.split("/")))
        p.token()   # a phase that parses must also write back
        return p

    def __add__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Phase":
        return Phase(-self.num, self.den)

    def __sub__(self, other: "Phase") -> "Phase":
        return self + (-other)

    def scaled(self, n: int) -> "Phase":
        """The phase n*alpha mod 2pi (the scaled-interpretation family)."""
        return Phase(self.num * n, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def token(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    def __str__(self) -> str:
        return self.token()


ZERO = Phase(0)
PI = Phase(1)
HALF_PI = Phase(1, 2)
MINUS_HALF_PI = Phase(-1, 2)

