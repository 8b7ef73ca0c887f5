"""Finitely supported Laurent polynomials on polyannuli, with Gauss norms.

A polynomial has ``nvars_annulus`` annulus variables (exponents of either
sign) and ``nvars_disc`` disc variables (exponents >= 0).  Terms map
exponent vectors to nonzero ``int`` or ``Fraction`` coefficients.  The
derivative ladder's entries key them by ``pack_key`` instead, one int per
vector (this module alone defines that packing), and give a reader tuple
keys in a fresh dict, the entry left as it is.  At radii rho_l =
p**(-r_l) the term p**v t^J has the Gauss norm exponent v + sum_l J_l
r_l; a polynomial's is the least over its terms, None for zero.  Gauss norms and sup norms over
a subannulus are one kernel, the sup over a box of radii.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .padic import (
    POWER_BITS_CAP,
    LogRadius,
    _safe_repr,
    check_direction,
    check_prime,
    check_radii,
    check_radius,
    exact,
    exact_int,
    fraction_valuation,
    parse_fraction,
    rational_spelling_error,
)

ExponentVector = Tuple[int, ...]


class SignatureError(ValueError):
    """Two operands live on polyannuli of different shapes."""


# Packed keys: at width b, slot l is the digit j_l + 2**(b-1) at bit l*b,
# so |j_l| < 2**(b-1) packs, and pack_key(J) + pack_key(K) - pack_key(0)
# is pack_key(J + K) while its digits stay in range.


def pack_width(bound: int) -> int:
    """The least width b at which every |exponent| <= bound packs."""
    return bound.bit_length() + 1


def pack_key(J: ExponentVector, bits: int) -> int:
    return sum((j + (1 << (bits - 1))) << (l * bits) for l, j in enumerate(J))


def unpack_key(key: int, dims: int, bits: int) -> ExponentVector:
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    return tuple(((key >> at) & mask) - half for at in range(0, dims * bits, bits))


def packed_partial(terms: dict[int, int], direction: int, bits: int, scale: int) -> dict[int, int]:
    """scale * d/dt_direction of packed terms; J_direction is one
    shift-and-mask."""
    at, mask, half = direction * bits, (1 << bits) - 1, 1 << (bits - 1)
    return {key - (1 << at): scale * j * a for key, a in terms.items() if (j := (key >> at & mask) - half)}


class LaurentPoly:
    """Immutable Laurent polynomial with exact rational coefficients.
    `_store` is keyed by exponent vectors, or by `pack_key`s of width
    `_bits` > 0."""

    __slots__ = ("prime", "nvars_annulus", "nvars_disc", "_store", "_bits")

    def __init__(
        self,
        prime: int,
        nvars_annulus: int,
        nvars_disc: int,
        terms: Mapping[ExponentVector, Fraction | int] | Iterable[tuple[ExponentVector, Fraction | int]] = (),
    ) -> None:
        check_prime(prime)
        if exact_int(nvars_annulus, "nvars_annulus") < 0 or exact_int(nvars_disc, "nvars_disc") < 0:
            raise SignatureError("variable counts must be >= 0")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[ExponentVector, Fraction] = {}
        dims = nvars_annulus + nvars_disc
        for key, coeff in items:
            key = tuple(key)
            if len(key) != dims:
                raise SignatureError(
                    f"exponent vector {_safe_repr(key)} has length {len(key)}, expected {dims}"
                )
            if any(not isinstance(j, int) or isinstance(j, bool) for j in key):
                raise SignatureError(f"exponents must be integers: {_safe_repr(key)}")
            for l in range(nvars_annulus, dims):
                if key[l] < 0:
                    raise SignatureError(
                        f"disc variable {l} cannot have negative exponent in {_safe_repr(key)}"
                    )
            value = exact(coeff, "coefficients")
            if value == 0:
                continue
            if key in clean:
                raise SignatureError(f"duplicate exponent vector {_safe_repr(key)}")
            clean[key] = value
        self._fill(prime, nvars_annulus, nvars_disc, clean, 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def _new(cls, prime: int, n: int, m: int, terms: dict, bits: int = 0) -> "LaurentPoly":
        """Internal: takes ownership of `terms`, keyed by exponent vectors
        with nonzero int or Fraction values, or by `pack_key`s of width
        `bits` > 0 with nonzero int values, the keys valid."""
        return object.__new__(cls)._fill(prime, n, m, terms, bits)

    def _fill(self, *values: object) -> "LaurentPoly":
        for name, value in zip(LaurentPoly.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def zero(cls, prime: int, n: int, m: int) -> "LaurentPoly":
        return cls(prime, n, m, ())

    @classmethod
    def constant(cls, prime: int, n: int, m: int, value: Fraction | int) -> "LaurentPoly":
        return cls(prime, n, m, {(0,) * (n + m): value})

    # -- basic structure -------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.nvars_annulus + self.nvars_disc

    @property
    def _terms(self) -> dict[ExponentVector, Fraction | int]:
        """The terms keyed by exponent vectors: `_store` itself, or a packed
        one unpacked into a fresh dict on each read, so a caller reads it
        once and never mutates it."""
        bits = self._bits
        return {unpack_key(k, self.nvars, bits): a for k, a in self._store.items()} if bits else self._store

    @property
    def terms(self) -> Mapping[ExponentVector, Fraction | int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._store

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(exps), 0))

    def _check_signature(self, other: "LaurentPoly") -> None:
        if (
            self.prime != other.prime
            or self.nvars_annulus != other.nvars_annulus
            or self.nvars_disc != other.nvars_disc
        ):
            raise SignatureError(
                f"signature mismatch: (p={self.prime}, {self.nvars_annulus}+{self.nvars_disc} vars)"
                f" vs (p={other.prime}, {other.nvars_annulus}+{other.nvars_disc} vars)"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.prime == other.prime
            and self.nvars_annulus == other.nvars_annulus
            and self.nvars_disc == other.nvars_disc
            and self._terms == other._terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = " + ".join(f"{a}*t^{key}" for key, a in sorted(self._terms.items())) or "0"
        return f"LaurentPoly(p={self.prime}, {self.nvars_annulus}+{self.nvars_disc} vars, {body})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_signature(other)
        acc = dict(self._terms)
        for key, v in other._terms.items():
            acc[key] = acc.get(key, 0) + v
        return LaurentPoly._new(
            self.prime, self.nvars_annulus, self.nvars_disc, {k: v for k, v in acc.items() if v}
        )

    def scalar_mul(self, scalar: Fraction | int) -> "LaurentPoly":
        """self times an `exact` scalar."""
        c = exact(scalar, "scalar factors")
        return LaurentPoly._new(
            self.prime, self.nvars_annulus, self.nvars_disc, {k: v * c for k, v in self._terms.items() if c}
        )

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_signature(other)
        acc: dict[ExponentVector, Fraction | int] = {}
        right = other._terms.items()
        for k1, v1 in self._terms.items():
            for k2, v2 in right:
                key = tuple(map(add, k1, k2))
                acc[key] = acc.get(key, 0) + v1 * v2
        return LaurentPoly._new(
            self.prime, self.nvars_annulus, self.nvars_disc, {k: v for k, v in acc.items() if v}
        )

    # -- calculus ----------------------------------------------------------

    def partial(self, direction: int) -> "LaurentPoly":
        """Coordinate derivative d/dt_direction (0-based direction index)."""
        check_direction(direction, self.nvars)
        return LaurentPoly._new(self.prime, self.nvars_annulus, self.nvars_disc, {
            key[:direction] + (j - 1,) + key[direction + 1:]: v * j
            for key, v in self._terms.items() if (j := key[direction])
        })

    # -- norms ---------------------------------------------------------------

    def gauss_lognorm(self, radii: Tuple[LogRadius, ...]) -> Optional[Fraction]:
        """rho-Gauss norm exponent at one radius per variable, annulus radii
        first; None for the zero norm.  The box with a single point."""
        rates = [radius.exponent for radius in check_radii(radii, self.nvars)]
        return self._box_lognorm(rates, rates)

    def sup_vertex_lognorm(self, lam: LogRadius) -> Optional[Fraction]:
        """Sup norm exponent over the subannulus with inner radius lam: the
        largest Gauss norm over the vertex radius vectors {lam, 1}^n x {1}^m."""
        inner = [check_radius(lam, "lam").exponent] * self.nvars_annulus + [0] * self.nvars_disc
        return self._box_lognorm(inner, [0] * self.nvars)

    def _box_lognorm(self, inner: list[Fraction | int], outer: list[Fraction | int]) -> Optional[Fraction]:
        """Sup norm exponent over the box p**-inner_l <= |t_l| <= p**-outer_l
        of radii, None for zero.  |f|_rho is log-convex, so a term peaks at
        the corner with the inner rate on its negative exponents and the
        outer one elsewhere.  Its weight is an integer over the rates'
        common denominator D, read from a packed key's digits in place.
        Terms of equal weight form a class with one valuation, that of
        their gcd.  Classes go in ascending weight; one of integer
        coefficients has a gcd of valuation >= 0, so once its weight
        reaches the best exponent so far it is skipped, exactly.  A class
        with a denominator is always evaluated.  When every rate is 0, all
        terms weigh 0 and form one class, whose gcd and denominator lcm
        are taken from the values with no per-term loop; a packed ladder
        entry holds ints, which `gcd` takes as they are."""
        D = lcm(*[r.denominator for r in inner + outer])
        # slots with a rate other than 0, rates as integers over D
        bits = self._bits
        mask, half = (1 << bits) - 1, (1 << bits) >> 1
        slots = [
            (l, l * bits, a.numerator * (D // a.denominator), b.numerator * (D // b.denominator))
            for l, (a, b) in enumerate(zip(inner, outer)) if a or b
        ]
        if not slots:
            values = self._store.values()
            if not values:
                return None
            if self._bits:
                num, den = gcd(*values), 1
            else:
                num, den = gcd(*[c.numerator for c in values]), lcm(*[c.denominator for c in values])
            return Fraction(fraction_valuation(num if den == 1 else Fraction(num, den), self.prime))
        classes: dict[int, list[Fraction | int]] = {}
        for key, coeff in self._store.items():
            w = 0
            for l, at, a, b in slots:
                j = (key >> at & mask) - half if bits else key[l]
                if j:
                    w += j * (a if j < 0 else b)
            classes.setdefault(w, []).append(coeff)
        best: Optional[int] = None
        for w in sorted(classes):
            coeffs = classes[w]
            den = lcm(*[c.denominator for c in coeffs])
            if den == 1 and best is not None and w >= best:
                continue
            # Each coefficient is in lowest terms, so p divides at most one
            # of its numerator and denominator, and the valuation of this
            # quotient is the least v(a_J) of the class.
            num = gcd(*[c.numerator for c in coeffs])
            w += fraction_valuation(num if den == 1 else Fraction(num, den), self.prime) * D
            if best is None or w < best:
                best = w
        return None if best is None else Fraction(best, D)

    # -- substitution -----------------------------------------------------

    def specialize(self, direction: int, coords: Sequence[Fraction]) -> "LaurentPoly":
        """Substitute the `exact` scalars `coords` for every variable except
        `direction`, in variable order: a one-variable polynomial.

        All terms share one denominator, the coefficients' lcm times
        d_l**P_l * n_l**Q_l per coordinate n_l/d_l (P_l, Q_l the largest
        positive and negative exponents of slot l), over which a t^J is the
        integer a * prod_l n_l**(Q_l + j_l) * d_l**(P_l - j_l), one power
        per distinct exponent.  Units are not checked (`curves` does).
        Before any power is taken, ValueError refuses a coordinate 0 on a
        slot with a negative exponent, and n/d when (b - 1) * E, a lower
        bound on the bits of (n/d)**E, passes POWER_BITS_CAP (b the bits
        of max(|n|, d), E the slot's largest |exponent|), even if the huge
        powers would cancel."""
        check_direction(direction, self.nvars)
        others = [l for l in range(self.nvars) if l != direction]
        if len(coords) != len(others):
            raise SignatureError(
                f"expected {len(others)} coordinates, got {len(coords)}"
            )
        n = int(direction < self.nvars_annulus)
        terms = self._terms
        lcd = lcm(*[a.denominator for a in terms.values()])
        den = lcd
        weights = []  # (slot, {exponent: integer weight})
        for l, c in zip(others, coords):
            c = exact(c, "coordinates")
            exps = {key[l] for key in terms}
            top, bottom = max(exps | {0}), -min(exps | {0})
            e = max(top, bottom)
            if not c and bottom:
                raise ValueError(f"coordinate 0 for variable {l}, which has a negative exponent")
            if (max(abs(c.numerator), c.denominator).bit_length() - 1) * e > POWER_BITS_CAP:
                raise ValueError(
                    f"coordinate {_safe_repr(c, str)} to the power {_safe_repr(e, str)}"
                    f" needs more than {POWER_BITS_CAP} bits"
                )
            num_l, den_l = c.numerator, c.denominator
            den *= den_l ** top * num_l ** bottom
            weights.append((l, {j: num_l ** (bottom + j) * den_l ** (top - j) for j in exps}))
        acc: dict[ExponentVector, int] = {}
        for key, a in terms.items():
            x = a.numerator * (lcd // a.denominator)
            for l, table in weights:
                x *= table[key[l]]
            k = (key[direction],)
            acc[k] = acc.get(k, 0) + x
        return LaurentPoly._new(
            self.prime, n, 1 - n, {k: Fraction(x, den) for k, x in acc.items() if x}
        )

    # -- serialization ------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Term list ordered lexicographically by exponent vector."""
        return [{"exps": list(key), "coeff": str(a)} for key, a in sorted(self._terms.items())]

    @classmethod
    def from_records(cls, prime: int, n: int, m: int, records: Iterable[Mapping]) -> "LaurentPoly":
        """Inverse of `to_records`: each record has exactly the keys "exps"
        (a list of integers) and "coeff" (an exact "num/den" or "num")."""
        terms: list[tuple[ExponentVector, Fraction]] = []
        for rec in records:
            if not isinstance(rec, Mapping):
                raise SignatureError(f"malformed term record {_safe_repr(rec)}")
            unknown = set(rec) - {"exps", "coeff"}
            if unknown:
                raise SignatureError(f"unknown term fields: {sorted(unknown)}")
            exps = rec.get("exps")
            coeff = rec.get("coeff")
            if not isinstance(exps, (list, tuple)) or not isinstance(coeff, str):
                raise SignatureError(f"malformed term record {_safe_repr(rec)}")
            error = rational_spelling_error(coeff)
            if error:
                raise SignatureError(f"coefficient {coeff!r} {error}")
            terms.append((tuple(exps), parse_fraction(coeff)))
        return cls(prime, n, m, terms)
