"""Exact scalar arithmetic for p-adic analysis on the log scale.

Everything here is exact.  Scalars are plain ``int``/``Fraction`` values;
the prime p is passed alongside them.  Valuations are integers (with None
standing in for the +infinity valuation of zero), and multiplicative
quantities of the form p**(-w) are stored by their rational exponent w:
a norm is an ``Optional[Fraction]`` (None for the zero norm) and a radius
in (0, 1] is a ``LogRadius``, an exponent >= 0.  No floating point is used
anywhere in the package: a rational enters it through `parse_fraction` as
text, and as a number only through `exact`, which refuses any other type.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, TypeVar


class PrimeError(ValueError):
    """The modulus of a p-adic value must be a prime number >= 2."""


# psi_13 (Sorenson and Webster, 2015): the least strong pseudoprime to the
# first 13 prime bases.  Miller-Rabin with those bases is exact below it.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# No power past this many bits is built: not the modulus p**K of the
# derivative ladder (`radius`), nor a coordinate's power in
# `LaurentPoly.specialize`.
POWER_BITS_CAP = 2**16


@lru_cache(maxsize=None)
def check_prime(p: int) -> int:
    """Validate that p is a prime integer >= 2 and return it.

    Deterministic Miller-Rabin with the first 13 prime bases; primes at
    or above PRIME_BOUND, where that test is no longer exact, are refused.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise PrimeError(f"not a prime: {_safe_repr(p)}")
    if p >= PRIME_BOUND:
        raise PrimeError(f"{_safe_repr(p)} is at or above the bound {PRIME_BOUND} of the primality test")
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


def _safe_repr(value: object, spell: Callable[[object], str] = repr) -> str:
    """spell(value), repr by default, or a note where it refuses an int
    past the int/str digit limit: naming a refused value must not raise
    another error.  Messages that name an exact rational num/den spell it
    with str."""
    try:
        return spell(value)
    except ValueError:
        return f"<{type(value).__name__} past the int/str digit limit>"


def exact(value: object, what: str) -> Fraction:
    """value, an int or a Fraction, as a Fraction; anything else raises
    TypeError naming `what`.  A float would enter as its binary expansion,
    a bool is an int only by accident, and a str or Decimal is no number."""
    if type(value) is not Fraction and type(value) is not int:
        raise TypeError(f"{what} must be int or Fraction, not {type(value).__name__}")
    return value if type(value) is Fraction else Fraction(value)


def exact_int(value: object, what: str) -> int:
    """value if it is an int; anything else, a bool too, raises TypeError
    naming `what`."""
    if type(value) is not int:
        raise TypeError(f"{what} must be int, not {type(value).__name__}")
    return value


def check_direction(direction: object, dims: int) -> int:
    """direction, the index of one of `dims` variables: an `exact_int`
    in 0..dims - 1, else ValueError.  Every function that takes a
    direction checks it here."""
    if not 0 <= exact_int(direction, "direction") < dims:
        raise ValueError(f"direction {_safe_repr(direction)} out of range for a module with {dims} variables")
    return direction


def check_radius(value: object, what: str) -> LogRadius:
    """value if its type is exactly `LogRadius`; anything else raises
    TypeError naming `what`.  Every function that takes a radius checks
    it here."""
    if type(value) is not LogRadius:
        raise TypeError(f"{what} must be LogRadius, not {type(value).__name__}")
    return value


def check_radii(rho: object, dims: int) -> tuple[LogRadius, ...]:
    """rho, one `check_radius` per variable of `dims`, as a tuple; another
    length raises ValueError."""
    rho = tuple(check_radius(r, "rho entries") for r in rho)
    if len(rho) != dims:
        raise ValueError(f"got {len(rho)} radius values for a module with {dims} variables")
    return rho


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


def fraction_valuation(x: Fraction | int, p: int) -> Optional[int]:
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


# The one spelling of an exact rational, in descriptors and on the command
# line: "num" or "num/den" in decimal digits.  It is checked before any
# arithmetic, since `Fraction` would also read "1e3000000" and expand it.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rational_spelling_error(text: str) -> Optional[str]:
    """None when text has that spelling, each integer within the int/str
    digit limit; otherwise what is wrong with it."""
    if not _RATIONAL_RE.fullmatch(text):
        return "is not of the form num/den"
    digits = max(len(part) for part in text.lstrip("-").split("/"))
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        return f"has an integer of {digits} digits, more than the limit of {limit}"
    return None


def parse_fraction(text: str) -> Fraction:
    """Parse a rational spelled "num" or "num/den", surrounding whitespace
    aside; any other text, or a zero denominator, raises ValueError."""
    body = text.strip()
    if rational_spelling_error(body) is None:
        try:
            return Fraction(body)
        except ZeroDivisionError:
            pass
    raise ValueError(f"malformed rational {text!r}")


def radius_exponent(e: object) -> Fraction:
    """e checked as the exponent of a radius in (0, 1]: `exact`, and >= 0."""
    r = exact(e, "radius exponents")
    if r < 0:
        raise ValueError(f"radius exponent must be >= 0, got {_safe_repr(e, str)}")
    return r


_Cls = TypeVar("_Cls", bound=type)


def frozen_record(cls: _Cls) -> _Cls:
    """Make cls an immutable record of its annotated fields, as a frozen
    dataclass would, but without importing `dataclasses` or generating code.

    It installs `__init__` (fields by position or keyword, a class attribute
    of the same name as a field's default, then `__post_init__` if the class
    has one), `__eq__` field by field between instances of the same class,
    the matching `__hash__`, `__repr__`, and `__setattr__`/`__delattr__`
    that raise AttributeError.  Repr, equality and hash read every field.
    """
    names = tuple(cls.__annotations__)
    name_set = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (
            len(args) > len(names)
            or values.keys() != name_set
            or not kwargs.keys().isdisjoint(names[:len(args)])
        ):
            raise TypeError(
                f"{cls.__name__}({', '.join(names)}) got {len(args)} positional"
                f" and the keyword arguments {sorted(kwargs)}"
            )
        self.__dict__.update((n, values[n]) for n in names)
        if post_init:
            self.__post_init__()

    def key(self) -> tuple:
        return tuple([getattr(self, n) for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


@frozen_record
class LogRadius:
    """A radius p**(-exponent) in (0, 1]: an exact rational exponent >= 0."""

    exponent: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", radius_exponent(self.exponent))

    @classmethod
    def one(cls) -> "LogRadius":
        return cls(Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "LogRadius":
        return cls(parse_fraction(text))
