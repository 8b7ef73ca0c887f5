"""Integrable connections on polyannuli and their iterated derivatives.

A module of rank mu over n annulus and m disc variables is given by
square matrices N_1 .. N_{n+m} of Laurent polynomials: the operator in
direction i acts on coefficient columns as d/dt_i + N_i.  Integrability
is the vanishing of every curvature
    d_i(N_j) - d_j(N_i) + N_i N_j - N_j N_i.
The iterated single-direction matrices satisfy G_{i,0} = identity and
G_{i,s+1} = d_i(G_{i,s}) + N_i G_{i,s}, so that the s-th power of the
direction-i operator sends the basis column e_a to column a of G_{i,s}.
They are computed as H_{i,s} = c_i**s G_{i,s}, where c_i is the least
common denominator of N_i's coefficients: with the integral M_i = c_i N_i,
    H_{i,s+1} = c_i d_i(H_{i,s}) + M_i H_{i,s}
has int coefficients throughout, so no step pays for a Fraction gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .laurent import LaurentPoly, SignatureError
from .padic import LogRadius

DEFAULT_DEPTH_CAP = 512


class NotIntegrableError(ValueError):
    """Raised when an operation requires integrability and curvature is nonzero."""


class DepthCapError(ValueError):
    """Raised when a requested depth exceeds DEFAULT_DEPTH_CAP."""


def _least_exponent(exponents: Iterable[Optional[Fraction]]) -> Optional[Fraction]:
    """The largest of some norms, i.e. their smallest exponent; None (the
    zero norm) loses to every finite exponent and is kept only if all are None."""
    finite = [w for w in exponents if w is not None]
    return min(finite) if finite else None


class PolyMatrix:
    """Immutable square matrix of Laurent polynomials with shared signature."""

    __slots__ = ("prime", "nvars_annulus", "nvars_disc", "rows")

    def __init__(self, rows: Sequence[Sequence[LaurentPoly]]) -> None:
        rows = tuple(tuple(row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise SignatureError("matrix must be square and nonempty")
        first = rows[0][0]
        for row in rows:
            for entry in row:
                first._check_signature(entry)
        object.__setattr__(self, "prime", first.prime)
        object.__setattr__(self, "nvars_annulus", first.nvars_annulus)
        object.__setattr__(self, "nvars_disc", first.nvars_disc)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, prime: int, n: int, m: int, size: int) -> "PolyMatrix":
        # an int 1, so that the derivative ladder starts on int coefficients
        one = LaurentPoly._new(prime, n, m, {(0,) * (n + m): 1})
        zero = LaurentPoly.zero(prime, n, m)
        return cls(tuple(
            tuple(one if i == j else zero for j in range(size))
            for i in range(size)
        ))

    @classmethod
    def zeros(cls, prime: int, n: int, m: int, size: int) -> "PolyMatrix":
        zero = LaurentPoly.zero(prime, n, m)
        return cls(tuple(tuple(zero for _ in range(size)) for _ in range(size)))

    @classmethod
    def from_scalar_rows(cls, prime: int, n: int, m: int, rows: Sequence[Sequence]) -> "PolyMatrix":
        """Convenience constructor lifting scalars to constant polynomials."""
        return cls(tuple(
            tuple(
                e if isinstance(e, LaurentPoly) else LaurentPoly.constant(prime, n, m, e)
                for e in row
            )
            for row in rows
        ))

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(entry.is_zero for row in self.rows for entry in row)

    def _check_compatible(self, other: "PolyMatrix") -> None:
        if self.size != other.size:
            raise SignatureError("matrix size mismatch")
        self.rows[0][0]._check_signature(other.rows[0][0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PolyMatrix(size={self.size}, p={self.prime})"

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_compatible(other)
        return PolyMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        ))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_compatible(other)
        return PolyMatrix(tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        ))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_compatible(other)
        size = self.size
        out = []
        for i in range(size):
            row = []
            for j in range(size):
                acc = None
                for k in range(size):
                    left = self.rows[i][k]
                    if left.is_zero:
                        continue
                    term = left * other.rows[k][j]
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = LaurentPoly.zero(self.prime, self.nvars_annulus, self.nvars_disc)
                row.append(acc)
            out.append(tuple(row))
        return PolyMatrix(tuple(out))

    def partial(self, direction: int) -> "PolyMatrix":
        return PolyMatrix(tuple(
            tuple(entry.partial(direction) for entry in row)
            for row in self.rows
        ))

    def gauss_lognorm(self, radii: Tuple[LogRadius, ...]) -> Optional[Fraction]:
        """Largest entry Gauss norm exponent; None for the zero matrix."""
        return _least_exponent(
            entry.gauss_lognorm(radii) for row in self.rows for entry in row
        )

    def sup_vertex_lognorm(self, lam: LogRadius) -> Optional[Fraction]:
        """Largest entry sup norm exponent over the subannulus; None for zero."""
        return _least_exponent(
            entry.sup_vertex_lognorm(lam) for row in self.rows for entry in row
        )

    def specialize(self, direction: int, coords: Sequence[Fraction]) -> "PolyMatrix":
        return PolyMatrix(tuple(
            tuple(entry.specialize(direction, coords) for entry in row)
            for row in self.rows
        ))

    def to_records(self) -> list[list[list[dict]]]:
        return [[entry.to_records() for entry in row] for row in self.rows]


@dataclass(frozen=True)
class IntegrabilityViolation:
    """First nonzero curvature found, with the offending direction pair."""

    i: int
    j: int
    curvature: PolyMatrix


@dataclass(frozen=True)
class ConnectionModule:
    """A rank-mu module with one connection matrix per variable."""

    prime: int
    nvars_annulus: int
    nvars_disc: int
    rank: int
    matrices: Tuple[PolyMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if self.rank < 1:
            raise SignatureError("rank must be >= 1")
        if self.nvars_annulus < 0 or self.nvars_disc < 0 or self.dims < 1:
            raise SignatureError("need at least one variable")
        if len(self.matrices) != self.dims:
            raise SignatureError(
                f"expected {self.dims} connection matrices, got {len(self.matrices)}"
            )
        for N in self.matrices:
            if N.size != self.rank:
                raise SignatureError("connection matrix size != rank")
            if (
                N.prime != self.prime
                or N.nvars_annulus != self.nvars_annulus
                or N.nvars_disc != self.nvars_disc
            ):
                raise SignatureError("connection matrix signature mismatch")

    @property
    def dims(self) -> int:
        return self.nvars_annulus + self.nvars_disc

    @cached_property
    def _violation(self) -> Optional["IntegrabilityViolation"]:
        # the module is immutable, so `require_integrable` checks it once
        return integrability_check(self)


def curvature(module: ConnectionModule, i: int, j: int) -> PolyMatrix:
    """d_i(N_j) - d_j(N_i) + [N_i, N_j] for a direction pair (0-based)."""
    Ni = module.matrices[i]
    Nj = module.matrices[j]
    return Nj.partial(i) - Ni.partial(j) + (Ni @ Nj) - (Nj @ Ni)


def integrability_check(module: ConnectionModule) -> Optional[IntegrabilityViolation]:
    """None when every curvature vanishes, else the first violation."""
    for i in range(module.dims):
        for j in range(i + 1, module.dims):
            K = curvature(module, i, j)
            if not K.is_zero:
                return IntegrabilityViolation(i, j, K)
    return None


def require_integrable(module: ConnectionModule) -> None:
    """Raise NotIntegrableError unless every curvature vanishes.

    The check runs once per module object; later calls reuse its result.
    """
    violation = module._violation
    if violation is not None:
        raise NotIntegrableError(
            f"curvature in directions ({violation.i}, {violation.j}) is nonzero"
        )


def ladder_denominator(module: ConnectionModule, direction: int) -> int:
    """The least common denominator c of the coefficients of N_direction,
    the least c > 0 for which c * N_direction has int coefficients."""
    if not 0 <= direction < module.dims:
        raise IndexError(f"direction {direction} out of range")
    c = 1
    for row in module.matrices[direction].rows:
        for entry in row:
            for v in entry.terms.values():
                c = math.lcm(c, v.denominator)
    return c


def _times(A: PolyMatrix, c: int) -> PolyMatrix:
    """c * A with int coefficients; every denominator of A must divide c."""
    p, n, m = A.prime, A.nvars_annulus, A.nvars_disc
    return PolyMatrix(tuple(
        tuple(
            LaurentPoly._new(p, n, m, {
                k: v.numerator * (c // v.denominator) for k, v in entry.terms.items()
            })
            for entry in row
        )
        for row in A.rows
    ))


def iter_deriv_matrices(module: ConnectionModule, direction: int) -> Iterator[PolyMatrix]:
    """Yield H_0 = identity, H_1, ... indefinitely, where H_s = c**s G_s
    for c = ladder_denominator(module, direction).

    The recursion H_{s+1} = c d(H_s) + M H_s with M = c N_direction keeps
    every coefficient an int.  A caller that needs G_s itself divides by
    c**s; a norm exponent of G_s is that of H_s minus s * v_p(c).  Callers
    bound the iteration; integrability is not re-checked here.
    """
    c = ladder_denominator(module, direction)
    M = _times(module.matrices[direction], c)
    H = PolyMatrix.identity(module.prime, module.nvars_annulus, module.nvars_disc, module.rank)
    while True:
        yield H
        dH = H.partial(direction)
        if c != 1:
            dH = _times(dH, c)
        H = dH + (M @ H)
