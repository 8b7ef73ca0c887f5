"""Finitely supported Laurent polynomials on polyannuli, with Gauss norms.

A polynomial lives on a product of ``nvars_annulus`` annulus variables
(integer exponents of either sign) and ``nvars_disc`` disc variables
(exponents >= 0).  Terms map exponent vectors to exact rational
coefficients, each stored as a nonzero ``int`` or ``Fraction``: the
constructor stores ``Fraction``s, and the ring operations keep ``int``
coefficients ``int``, which the derivative ladder relies on.  Zero
coefficients are never stored.  The rho-Gauss norm of
a term p**v * t^J at radii rho_l = p**(-r_l) has exponent
v + sum_l J_l * r_l, and the norm of a polynomial is the largest term
norm, i.e. the smallest such exponent.  Norms are returned as that exact
``Fraction`` exponent, with None for the zero norm.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .padic import LogRadius, check_exact, check_prime, fraction_valuation, parse_fraction

ExponentVector = Tuple[int, ...]

# The exact coefficient spelling in term records: "num" or "num/den".
_COEFF_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _excerpt(text: str) -> str:
    """repr of text, cut after 24 characters so that an error stays one short line."""
    if len(text) <= 24:
        return repr(text)
    return f"{text[:24]!r}... ({len(text)} characters)"


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
                    f"exponent vector {key} has length {len(key)}, expected {dims}"
                )
            if any(not isinstance(j, int) or isinstance(j, bool) for j in key):
                raise SignatureError(f"exponents must be integers: {key}")
            for l in range(nvars_annulus, dims):
                if key[l] < 0:
                    raise SignatureError(
                        f"disc variable {l} cannot have negative exponent in {key}"
                    )
            check_exact(coeff, "coefficients")
            value = Fraction(coeff)
            if value == 0:
                continue
            if key in clean:
                raise SignatureError(f"duplicate exponent vector {key}")
            clean[key] = value
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def _new(cls, prime: int, n: int, m: int, terms: dict[ExponentVector, Fraction | int]) -> "LaurentPoly":
        """Internal fast path that takes ownership of `terms` as is.

        The caller guarantees valid keys and nonzero int or Fraction
        values; the ring operations drop cancelled sums before they get
        here.
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

    @classmethod
    def one(cls, prime: int, n: int, m: int) -> "LaurentPoly":
        return cls.constant(prime, n, m, 1)

    @classmethod
    def monomial(cls, prime: int, n: int, m: int, exps: Sequence[int], coeff: Fraction | int) -> "LaurentPoly":
        return cls(prime, n, m, {tuple(exps): coeff})

    @classmethod
    def variable(cls, prime: int, n: int, m: int, index: int) -> "LaurentPoly":
        exps = [0] * (n + m)
        exps[index] = 1
        return cls.monomial(prime, n, m, exps, 1)

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

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._new(
            self.prime,
            self.nvars_annulus,
            self.nvars_disc,
            {k: -v for k, v in self._terms.items()},
        )

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, scalar: Fraction | int) -> "LaurentPoly":
        check_exact(scalar, "scalar factors")
        c = Fraction(scalar)
        if c == 0:
            return LaurentPoly._new(self.prime, self.nvars_annulus, self.nvars_disc, {})
        return LaurentPoly._new(
            self.prime,
            self.nvars_annulus,
            self.nvars_disc,
            {k: v * c for k, v in self._terms.items()},
        )

    def __mul__(self, other: object) -> "LaurentPoly":
        if isinstance(other, (Fraction, int)):
            return self.scalar_mul(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_signature(other)
        acc: dict[ExponentVector, Fraction | int] = {}
        for k1, v1 in self._terms.items():
            for k2, v2 in other._terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
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

    def __rmul__(self, other: object) -> "LaurentPoly":
        if isinstance(other, (Fraction, int)):
            return self.scalar_mul(other)
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def partial(self, direction: int) -> "LaurentPoly":
        """Coordinate derivative d/dt_direction (0-based direction index)."""
        if not 0 <= direction < self.nvars:
            raise IndexError(f"direction {direction} out of range")
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
        first; None for the zero norm."""
        if len(radii) != self.nvars:
            raise SignatureError(
                f"radius vector has {len(radii)} entries, expected {self.nvars}"
            )
        # slots with radius < 1
        weighted = [(l, radius.exponent) for l, radius in enumerate(radii) if radius.exponent]
        prime = self.prime
        best: Optional[Fraction | int] = None
        for key, coeff in self._terms.items():
            w = fraction_valuation(coeff, prime)
            for l, r in weighted:
                j = key[l]
                if j:
                    w += j * r
            if best is None or w < best:
                best = w
        return None if best is None else Fraction(best)

    def sup_vertex_lognorm(self, lam: LogRadius) -> Optional[Fraction]:
        """Sup norm exponent over the subannulus with inner radius lam: the
        largest Gauss norm over the vertex radius vectors {lam, 1}^n x {1}^m.

        Each term is largest at the corner that puts lam on its negative
        annulus exponents and 1 everywhere else, so the exponent is the
        min over terms of v(a_J) + lam * sum(J_l for J_l < 0).
        """
        L = lam.exponent
        n = self.nvars_annulus
        best: Optional[Fraction | int] = None
        for key, coeff in self._terms.items():
            w = fraction_valuation(coeff, self.prime)
            neg = sum(j for j in key[:n] if j < 0)
            if neg:
                w += L * neg
            if best is None or w < best:
                best = w
        return None if best is None else Fraction(best)

    # -- substitution -----------------------------------------------------

    def specialize(self, direction: int, coords: Sequence[Fraction]) -> "LaurentPoly":
        """Substitute scalars for every variable except `direction`, in
        variable order, producing a one-variable polynomial in that variable.

        The coordinates are not checked to be units: `curves` does that
        once per point before it specializes a module."""
        if not 0 <= direction < self.nvars:
            raise IndexError(f"direction {direction} out of range")
        others = [l for l in range(self.nvars) if l != direction]
        if len(coords) != len(others):
            raise SignatureError(
                f"expected {len(others)} coordinates, got {len(coords)}"
            )
        values = [Fraction(c) for c in coords]  # int ** -j would be a float
        acc: dict[ExponentVector, Fraction | int] = {}
        for key, coeff in self._terms.items():
            c = coeff
            for l, cl in zip(others, values):
                j = key[l]
                if j:
                    c = c * cl ** j
            k = (key[direction],)
            w = acc.get(k)
            if w is None:
                acc[k] = c
            else:
                s = w + c
                if s == 0:
                    del acc[k]
                else:
                    acc[k] = s
        if direction < self.nvars_annulus:
            n, m = 1, 0
        else:
            n, m = 0, 1
        return LaurentPoly._new(self.prime, n, m, acc)

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
                raise SignatureError(f"malformed term record {rec!r}")
            unknown = set(rec) - {"exps", "coeff"}
            if unknown:
                raise SignatureError(f"unknown term fields: {sorted(unknown)}")
            exps = rec.get("exps")
            coeff = rec.get("coeff")
            if not isinstance(exps, (list, tuple)) or not isinstance(coeff, str):
                raise SignatureError(f"malformed term record {rec!r}")
            if not _COEFF_RE.fullmatch(coeff):
                raise SignatureError(
                    f"coefficient {_excerpt(coeff)} is not of the form num/den"
                )
            digits = max(len(part) for part in coeff.lstrip("-").split("/"))
            limit = sys.get_int_max_str_digits()
            if limit and digits > limit:
                raise SignatureError(
                    f"coefficient {_excerpt(coeff)} has an integer of {digits} digits,"
                    f" more than the limit of {limit}"
                )
            terms.append((tuple(exps), parse_fraction(coeff)))
        return cls(prime, n, m, terms)
