"""Exact phases: rational multiples of pi, normalized into [0, 2pi)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import Union

PhaseLike = Union["Phase", Fraction, int, str]

_TOKEN = re.compile(r"-?[0-9]+(/[0-9]+)?")


@dataclass(frozen=True, order=True)
class Phase:
    """An angle (num/den)*pi with gcd(|num|, den) = 1 and 0 <= num/den < 2.

    Fraction keeps the arithmetic exact, so spider fusion and mod-2pi
    normalization are bit-reproducible.
    """

    num: int = 0
    den: int = 1

    def __post_init__(self) -> None:
        f = Fraction(self.num, self.den) % 2
        object.__setattr__(self, "num", f.numerator)
        object.__setattr__(self, "den", f.denominator)

    @staticmethod
    def coerce(value: PhaseLike) -> "Phase":
        if isinstance(value, Phase):
            return value
        if isinstance(value, str):
            return Phase.parse(value)
        f = Fraction(value)
        return Phase(f.numerator, f.denominator)

    @staticmethod
    def parse(token: str) -> "Phase":
        """Parse 'p', 'p/q' or '-p/q' in ASCII digits, meaning (p/q)*pi.

        Anything else (a decimal, an exponent, '+', '_' or spaces) raises
        ValueError, as does a phase whose normalized token is too long for
        the interpreter's int-to-str limit; q = 0 raises ZeroDivisionError.
        """
        if not _TOKEN.fullmatch(token):
            raise ValueError(f"not a phase token: {token!r}")
        f = Fraction(token)
        p = Phase(f.numerator, f.denominator)
        p.token()   # a phase that parses must also write back
        return p

    @property
    def frac(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "Phase") -> "Phase":
        f = self.frac + other.frac
        return Phase(f.numerator, f.denominator)

    def __neg__(self) -> "Phase":
        f = -self.frac
        return Phase(f.numerator, f.denominator)

    def __sub__(self, other: "Phase") -> "Phase":
        return self + (-other)

    def scaled(self, n: int) -> "Phase":
        """The phase n*alpha mod 2pi (the scaled-interpretation family)."""
        f = self.frac * n
        return Phase(f.numerator, f.denominator)

    def is_zero(self) -> bool:
        return self.num == 0

    def radians(self) -> float:
        return float(self.frac) * pi

    def token(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    def __str__(self) -> str:
        return self.token()


ZERO = Phase(0)
PI = Phase(1)
HALF_PI = Phase(1, 2)
MINUS_HALF_PI = Phase(-1, 2)


def phase_add(a: PhaseLike, b: PhaseLike) -> Phase:
    """Normalized sum mod 2pi of two phases."""
    return Phase.coerce(a) + Phase.coerce(b)
