"""Exact scalar arithmetic for p-adic analysis on the log scale.

Everything here is exact.  Scalars are plain ``int``/``Fraction`` values;
the prime p is passed alongside them.  Valuations are integers (with None
standing in for the +infinity valuation of zero), and multiplicative
quantities of the form p**(-w) are stored by their rational exponent w:
a norm is an ``Optional[Fraction]`` (None for the zero norm) and a radius
in (0, 1] is a ``LogRadius``, an exponent >= 0.  No floating point is used
anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional


class PrimeError(ValueError):
    """The modulus of a p-adic value must be a prime number >= 2."""


# psi_13 (Sorenson and Webster, 2015): the least strong pseudoprime to the
# first 13 prime bases.  Miller-Rabin with those bases is exact below it.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    """Validate that p is a prime integer >= 2 and return it.

    Deterministic Miller-Rabin with the first 13 prime bases; primes at
    or above PRIME_BOUND, where that test is no longer exact, are refused.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise PrimeError(f"not a prime: {p!r}")
    if p >= PRIME_BOUND:
        raise PrimeError(f"{p} is at or above the bound {PRIME_BOUND} of the primality test")
    for a in _MR_BASES:
        if p % a == 0:
            if p == a:
                return p
            raise PrimeError(f"not a prime: {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise PrimeError(f"not a prime: {p}")
    return p


def check_exact(value: object, what: str) -> None:
    """Refuse anything but an exact int or Fraction: a float would enter as
    its binary expansion, and a bool is an int only by accident."""
    if type(value) is not Fraction and type(value) is not int:
        raise TypeError(f"{what} must be int or Fraction, not {type(value).__name__}")


def int_valuation(k: int, p: int) -> int:
    """p-adic valuation of a nonzero integer.

    Divides out p, p^2, p^4, ... while each successive power divides k,
    then the same powers again from the largest down, so a valuation v
    costs O(log v) bignum divisions rather than v.
    """
    if k == 0:
        raise ValueError("the valuation of integer zero is +infinity")
    if k % p:
        return 0
    k = abs(k) // p
    v = 1
    powers = [p]
    while True:
        q, r = divmod(k, powers[-1])
        if r:
            break
        k = q
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    # The part of v left in k is below 2**(len(powers) - 1).
    for i in range(len(powers) - 2, -1, -1):
        q, r = divmod(k, powers[i])
        if not r:
            k = q
            v += 1 << i
    return v


def fraction_valuation(x: Fraction, p: int) -> Optional[int]:
    """p-adic valuation of an exact rational; None encodes +infinity.

    A Fraction is kept in lowest terms, so p divides at most one of its
    numerator and denominator: the denominator is looked at only when the
    numerator is a p-adic unit.
    """
    num = x.numerator
    if num == 0:
        return None
    v = int_valuation(num, p)
    return v if v else -int_valuation(x.denominator, p)


def parse_fraction(text: str) -> Fraction:
    """Parse a 'num/den' string (denominator optional) into a rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


@dataclass(frozen=True)
class LogRadius:
    """A radius p**(-exponent) in (0, 1]: an exact rational exponent >= 0."""

    exponent: Fraction

    def __post_init__(self) -> None:
        e = self.exponent
        check_exact(e, "radius exponents")
        if type(e) is int:
            e = Fraction(e)
            object.__setattr__(self, "exponent", e)
        if e < 0:
            raise ValueError(f"radius exponent must be >= 0, got {e}")

    @classmethod
    def one(cls) -> "LogRadius":
        return cls(Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "LogRadius":
        return cls(parse_fraction(text))
