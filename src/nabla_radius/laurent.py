"""Finitely supported Laurent polynomials on polyannuli, with Gauss norms.

A polynomial lives on a product of ``nvars_annulus`` annulus variables
(integer exponents of either sign) and ``nvars_disc`` disc variables
(exponents >= 0).  Terms map exponent vectors to exact rational
coefficients, each stored as a nonzero ``int`` or ``Fraction``: the
constructor stores ``Fraction``s from ``padic.exact``, and the derivative
ladder builds its ``int``-coefficient entries through the internal
``_new``.  Zero coefficients are never stored.  The rho-Gauss norm of
a term p**v * t^J at radii rho_l = p**(-r_l) has exponent
v + sum_l J_l * r_l, and the norm of a polynomial is the largest term
norm, i.e. the smallest such exponent.  Gauss norms and sup norms over a
subannulus are one kernel, the sup over a box of radii (a Gauss norm is
a one-point box): weights are integers over the common denominator of
the rates, terms of equal weight share one valuation, that of the gcd of
their coefficients, and each norm is one exact ``Fraction`` exponent,
with None for the zero norm.  Classes are visited in ascending weight,
and a class of integer coefficients whose weight has reached the best
exponent so far is skipped without a valuation: its gcd has valuation
>= 0, so it cannot lower that exponent.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .padic import (
    LogRadius,
    _safe_repr,
    check_prime,
    exact,
    fraction_valuation,
    parse_fraction,
    rational_spelling_error,
)

ExponentVector = Tuple[int, ...]

# `specialize` refuses a power of a coordinate past this many bits, the
# scale of the cap on the modulus p**K of the derivative ladder.
_POWER_BITS_CAP = 2**16


class SignatureError(ValueError):
    """Two operands live on polyannuli of different shapes."""


class LaurentPoly:
    """Immutable Laurent polynomial with exact rational coefficients."""

    __slots__ = ("prime", "nvars_annulus", "nvars_disc", "_terms")

    def __init__(
        self,
        prime: int,
        nvars_annulus: int,
        nvars_disc: int,
        terms: Mapping[ExponentVector, Fraction | int] | Iterable[tuple[ExponentVector, Fraction | int]] = (),
    ) -> None:
        check_prime(prime)
        if nvars_annulus < 0 or nvars_disc < 0:
            raise SignatureError("variable counts must be >= 0")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "nvars_annulus", nvars_annulus)
        object.__setattr__(self, "nvars_disc", nvars_disc)
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
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def _new(cls, prime: int, n: int, m: int, terms: dict[ExponentVector, Fraction | int]) -> "LaurentPoly":
        """Internal fast path that takes ownership of `terms` as is.

        The caller guarantees valid keys and nonzero int or Fraction
        values; the ring operations and the derivative ladder drop
        cancelled sums before they get here.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "prime", prime)
        object.__setattr__(obj, "nvars_annulus", n)
        object.__setattr__(obj, "nvars_disc", m)
        object.__setattr__(obj, "_terms", terms)
        return obj

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
    def terms(self) -> Mapping[ExponentVector, Fraction | int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

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
        if self.is_zero:
            body = "0"
        else:
            bits = []
            for key in sorted(self._terms):
                bits.append(f"{self._terms[key]}*t^{key}")
            body = " + ".join(bits)
        return f"LaurentPoly(p={self.prime}, {self.nvars_annulus}+{self.nvars_disc} vars, {body})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_signature(other)
        acc = dict(self._terms)
        for key, v in other._terms.items():
            w = acc.get(key)
            if w is None:
                acc[key] = v
            else:
                s = w + v
                if s == 0:
                    del acc[key]
                else:
                    acc[key] = s
        return LaurentPoly._new(self.prime, self.nvars_annulus, self.nvars_disc, acc)

    def scalar_mul(self, scalar: Fraction | int) -> "LaurentPoly":
        """self times an `exact` scalar."""
        c = exact(scalar, "scalar factors")
        if c == 0:
            return LaurentPoly._new(self.prime, self.nvars_annulus, self.nvars_disc, {})
        return LaurentPoly._new(
            self.prime,
            self.nvars_annulus,
            self.nvars_disc,
            {k: v * c for k, v in self._terms.items()},
        )

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_signature(other)
        acc: dict[ExponentVector, Fraction | int] = {}
        for k1, v1 in self._terms.items():
            for k2, v2 in other._terms.items():
                key = tuple(map(add, k1, k2))
                prod = v1 * v2
                w = acc.get(key)
                if w is None:
                    acc[key] = prod
                else:
                    s = w + prod
                    if s == 0:
                        del acc[key]
                    else:
                        acc[key] = s
        return LaurentPoly._new(self.prime, self.nvars_annulus, self.nvars_disc, acc)

    # -- calculus ----------------------------------------------------------

    def partial(self, direction: int) -> "LaurentPoly":
        """Coordinate derivative d/dt_direction (0-based direction index)."""
        if not 0 <= direction < self.nvars:
            raise IndexError(f"direction {_safe_repr(direction)} out of range")
        acc: dict[ExponentVector, Fraction | int] = {}
        for key, v in self._terms.items():
            j = key[direction]
            if j == 0:
                continue
            shifted = key[:direction] + (j - 1,) + key[direction + 1:]
            acc[shifted] = v * j
        return LaurentPoly._new(self.prime, self.nvars_annulus, self.nvars_disc, acc)

    # -- norms ---------------------------------------------------------------

    def gauss_lognorm(self, radii: Tuple[LogRadius, ...]) -> Optional[Fraction]:
        """rho-Gauss norm exponent at one radius per variable, annulus radii
        first; None for the zero norm.  The box with a single point."""
        if len(radii) != self.nvars:
            raise SignatureError(
                f"radius vector has {len(radii)} entries, expected {self.nvars}"
            )
        rates = [radius.exponent for radius in radii]
        return self._box_lognorm(rates, rates)

    def sup_vertex_lognorm(self, lam: LogRadius) -> Optional[Fraction]:
        """Sup norm exponent over the subannulus with inner radius lam: the
        largest Gauss norm over the vertex radius vectors {lam, 1}^n x {1}^m."""
        inner = [lam.exponent] * self.nvars_annulus + [0] * self.nvars_disc
        return self._box_lognorm(inner, [0] * self.nvars)

    def _box_lognorm(self, inner: list[Fraction | int], outer: list[Fraction | int]) -> Optional[Fraction]:
        """Sup norm exponent over the box p**-inner_l <= |t_l| <= p**-outer_l
        of radii, None for the zero norm.  |f|_rho is log-convex, so a term
        peaks at the corner with the inner rate on its negative exponents
        and the outer rate elsewhere.  Terms of equal weight form a class,
        which takes one valuation: that of the gcd of its coefficients.

        Classes are visited in ascending weight.  A class whose
        coefficients are all integers has a gcd of valuation >= 0, so its
        exponent is at least its weight: once that weight reaches the best
        exponent so far the class cannot lower it, and is skipped without a
        valuation.  The result is exact.  A class with a denominator can
        have a negative valuation, so it is always evaluated, and the
        classes after a skipped one still are."""
        D = lcm(*[r.denominator for r in inner + outer])
        # slots with a rate other than 0, rates as integers over D
        slots = [
            (l, a.numerator * (D // a.denominator), b.numerator * (D // b.denominator))
            for l, (a, b) in enumerate(zip(inner, outer)) if a or b
        ]
        classes: dict[int, list[Fraction | int]] = {}
        for key, coeff in self._terms.items():
            w = 0
            for l, a, b in slots:
                j = key[l]
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
        """Substitute scalars for every variable except `direction`, in
        variable order, producing a one-variable polynomial in that variable.

        All terms share one denominator: the lcm of the coefficient
        denominators times d_l**P_l * n_l**Q_l for each coordinate n_l/d_l,
        where P_l and Q_l are the largest positive and negative exponents
        of slot l.  Over it, a term a t^J contributes the integer
        a * prod_l n_l**(Q_l + j_l) * d_l**(P_l - j_l), with one power
        taken per distinct exponent of a slot.  Each output coefficient is
        one integer sum, and one Fraction at the end.

        The coordinates go through `exact`, but are not checked to be
        units: `curves` does that once per point before it specializes a
        module.  Before any power is taken, a coordinate n/d is refused with
        ValueError when (b - 1) * E passes _POWER_BITS_CAP, for b the bits of
        max(|n|, d) and E the largest |exponent| of its slot: (n/d)**E needs
        at least that many bits.  A sum whose huge powers would cancel
        exactly is refused as well, since the bound reads only exponents."""
        if not 0 <= direction < self.nvars:
            raise IndexError(f"direction {_safe_repr(direction)} out of range")
        others = [l for l in range(self.nvars) if l != direction]
        if len(coords) != len(others):
            raise SignatureError(
                f"expected {len(others)} coordinates, got {len(coords)}"
            )
        if direction < self.nvars_annulus:
            n, m = 1, 0
        else:
            n, m = 0, 1
        terms = self._terms
        slots = []
        for l, c in zip(others, coords):
            c = exact(c, "coordinates")
            exps = {key[l] for key in terms}
            top, bottom = max(exps | {0}), -min(exps | {0})
            e = max(top, bottom)
            if (max(abs(c.numerator), c.denominator).bit_length() - 1) * e > _POWER_BITS_CAP:
                raise ValueError(
                    f"coordinate {_safe_repr(c, str)} to the power {_safe_repr(e, str)}"
                    f" needs more than {_POWER_BITS_CAP} bits"
                )
            slots.append((l, c.numerator, c.denominator, exps, top, bottom))
        lcd = lcm(*[a.denominator for a in terms.values()])
        den = lcd
        weights = []  # (slot, {exponent: integer weight})
        for l, num_l, den_l, exps, top, bottom in slots:
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
            self.prime, n, m, {k: Fraction(x, den) for k, x in acc.items() if x}
        )

    # -- serialization ------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Term list ordered lexicographically by exponent vector."""
        return [
            {"exps": list(key), "coeff": str(self._terms[key])}
            for key in sorted(self._terms)
        ]

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
