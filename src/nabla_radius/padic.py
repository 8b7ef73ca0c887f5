"""Exact scalar arithmetic for p-adic analysis on the log scale.

Everything here is exact.  Scalars are arbitrary-precision rationals tagged
with a prime p, valuations are integers (with None standing in for the
+infinity valuation of zero), and multiplicative quantities of the form
p**(-w) -- norms and radii -- are stored by their rational exponent w.
No floating point is used anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Optional, Union


class PrimeError(ValueError):
    """The modulus of a p-adic value must be a prime number >= 2."""


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    """Validate that p is a prime integer >= 2 and return it."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise PrimeError(f"not a prime: {p!r}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise PrimeError(f"not a prime: {p}")
        d += 1
    return p


def int_valuation(k: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if k == 0:
        raise ValueError("the valuation of integer zero is +infinity")
    v = 0
    k = abs(k)
    while k % p == 0:
        k //= p
        v += 1
    return v


def fraction_valuation(x: Fraction, p: int) -> Optional[int]:
    """p-adic valuation of an exact rational; None encodes +infinity."""
    if x == 0:
        return None
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def parse_fraction(text: str) -> Fraction:
    """Parse a 'num/den' string (denominator optional) into a rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


@dataclass(frozen=True)
class PAdicRational:
    """An exact rational number viewed inside the p-adic field Q_p.

    The prime only matters for valuations and norms; arithmetic is done
    on the bare ``Fraction`` value.
    """

    value: Fraction
    prime: int

    def __post_init__(self) -> None:
        check_prime(self.prime)
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def from_str(cls, text: str, prime: int) -> "PAdicRational":
        return cls(parse_fraction(text), prime)

    @classmethod
    def zero(cls, prime: int) -> "PAdicRational":
        return cls(Fraction(0), prime)

    @classmethod
    def one(cls, prime: int) -> "PAdicRational":
        return cls(Fraction(1), prime)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_unit(self) -> bool:
        """True when |x| = 1, i.e. the valuation is exactly 0."""
        return self.value != 0 and self.valuation() == 0

    def valuation(self) -> Optional[int]:
        """Exact p-adic valuation; None encodes +infinity (zero only)."""
        return fraction_valuation(self.value, self.prime)

    def lognorm(self) -> "LogNorm":
        v = self.valuation()
        return NORM_ZERO if v is None else LogNorm(Fraction(v))

    def __str__(self) -> str:
        return str(self.value)


@total_ordering
@dataclass(frozen=True)
class LogNorm:
    """A norm value p**(-exponent), stored by its exact exponent.

    exponent None encodes the zero norm (exponent +infinity).  Ordering
    compares norm magnitudes, so ``max`` picks the largest norm, which is
    the smallest exponent.  Multiplication adds exponents.
    """

    exponent: Optional[Fraction]

    def __post_init__(self) -> None:
        if self.exponent is not None and not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))

    @classmethod
    def from_exponent(cls, w: Union[Fraction, int]) -> "LogNorm":
        return cls(Fraction(w))

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __mul__(self, other: "LogNorm") -> "LogNorm":
        if not isinstance(other, LogNorm):
            return NotImplemented
        if self.exponent is None or other.exponent is None:
            return NORM_ZERO
        return LogNorm(self.exponent + other.exponent)

    def __lt__(self, other: "LogNorm") -> bool:
        if not isinstance(other, LogNorm):
            return NotImplemented
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    def exponent_str(self) -> str:
        return "inf" if self.exponent is None else str(self.exponent)

    @classmethod
    def parse(cls, text: str) -> "LogNorm":
        text = text.strip()
        if text == "inf":
            return NORM_ZERO
        return cls(parse_fraction(text))


NORM_ONE = LogNorm(Fraction(0))
NORM_ZERO = LogNorm(None)


@dataclass(frozen=True)
class LogRadius:
    """A radius p**(-exponent) with rational exponent >= 0.

    The distinguished exponent None encodes radius 0 (the center of a
    disc variable); annulus variables never take it.
    """

    exponent: Optional[Fraction]

    def __post_init__(self) -> None:
        if self.exponent is None:
            return
        e = self.exponent
        if not isinstance(e, Fraction):
            e = Fraction(e)
            object.__setattr__(self, "exponent", e)
        if e < 0:
            raise ValueError(f"radius exponent must be >= 0, got {e}")

    @classmethod
    def one(cls) -> "LogRadius":
        return cls(Fraction(0))

    @classmethod
    def center(cls) -> "LogRadius":
        return cls(None)

    @classmethod
    def from_exponent(cls, r: Union[Fraction, int]) -> "LogRadius":
        return cls(Fraction(r))

    @property
    def is_center(self) -> bool:
        return self.exponent is None

    def exponent_str(self) -> str:
        return "center" if self.exponent is None else str(self.exponent)

    @classmethod
    def parse(cls, text: str) -> "LogRadius":
        text = text.strip()
        if text == "center":
            return cls.center()
        return cls(parse_fraction(text))
