"""Integrable connections on polyannuli and their iterated derivatives.

A module of rank mu over n annulus and m disc variables is given by
square matrices N_1 .. N_{n+m} of Laurent polynomials: the operator in
direction i acts on coefficient columns as d/dt_i + N_i.  Integrability
is the vanishing of every curvature
    d_i(N_j) - d_j(N_i) + N_i N_j - N_j N_i.
The iterated single-direction matrices satisfy G_{i,0} = identity and
G_{i,s+1} = d_i(G_{i,s}) + N_i G_{i,s}, so that the s-th power of the
direction-i operator sends the basis column e_a to column a of G_{i,s}.
They are computed as H_{i,s} = c_i**s G_{i,s}, with c_i and the int
matrix M_i = c_i N_i of `ladder_matrix`:
    H_{i,s+1} = c_i d_i(H_{i,s}) + M_i H_{i,s}
has int coefficients throughout.  The curvature uses the ring operations
LaurentPoly.partial, __add__, scalar_mul and PolyMatrix.__matmul__.  The
pair (module, K) walks H_{i,s} mod p**K.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .laurent import (
    LaurentPoly,
    SignatureError,
    pack_key,
    pack_width,
    packed_partial,
)
from .padic import _safe_repr, check_direction, exact_int, frozen_record

DEFAULT_DEPTH_CAP = 512

# Defaults of the verdict tolerance and the trailing window (a fraction of
# the depth), shared by the library and the CLI.
DEFAULT_TOL = Fraction(1, 20)
DEFAULT_WINDOW = Fraction(1, 4)


class NotIntegrableError(ValueError):
    """Raised when an operation requires integrability and curvature is nonzero."""


class DepthCapError(ValueError):
    """Raised when a requested depth, bound or count exceeds DEFAULT_DEPTH_CAP."""


def check_count(name: str, value: int, least: int) -> None:
    """Refuse a depth, multi-index bound or trial count that is not an int
    (TypeError, for a bool too) or is outside least..DEFAULT_DEPTH_CAP."""
    if exact_int(value, name) < least:
        raise ValueError(f"{name} must be at least {least}")
    if value > DEFAULT_DEPTH_CAP:
        raise DepthCapError(f"{name} {_safe_repr(value)} exceeds cap {DEFAULT_DEPTH_CAP}")


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
        self._fill(first.prime, first.nvars_annulus, first.nvars_disc, rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def _new(cls, prime: int, n: int, m: int, rows: tuple) -> "PolyMatrix":
        """Internal: takes ownership of `rows`, a nonempty square tuple of
        row tuples whose entries all have the signature (prime, n, m);
        nothing is checked, as in `LaurentPoly._new`."""
        return object.__new__(cls)._fill(prime, n, m, rows)

    def _fill(self, *values: object) -> "PolyMatrix":
        for name, value in zip(PolyMatrix.__slots__, values):
            object.__setattr__(self, name, value)
        return self

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PolyMatrix(size={self.size}, p={self.prime})"

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.size != other.size:
            raise SignatureError("matrix size mismatch")
        self.rows[0][0]._check_signature(other.rows[0][0])
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

    def gauss_lognorm(self, radii: Tuple[Fraction, ...]) -> Optional[Fraction]:
        """Largest entry Gauss norm exponent; None for the zero matrix."""
        return _least_exponent(
            entry.gauss_lognorm(radii) for row in self.rows for entry in row
        )

    def sup_vertex_lognorm(self, lam: Fraction) -> Optional[Fraction]:
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


@frozen_record
class IntegrabilityViolation:
    """First nonzero curvature found, with the offending direction pair."""

    i: int
    j: int
    curvature: PolyMatrix


@frozen_record
class ConnectionModule:
    """A rank-mu module with one connection matrix per variable."""

    prime: int
    nvars_annulus: int
    nvars_disc: int
    rank: int
    matrices: Tuple[PolyMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", tuple(self.matrices))
        for field in ("nvars_annulus", "nvars_disc", "rank"):
            exact_int(getattr(self, field), field)
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
    """d_i(N_j) - d_j(N_i) + [N_i, N_j] for a direction pair (0-based),
    entry by entry as d_i(N_j) + N_i N_j - (d_j(N_i) + N_j N_i)."""
    Ni, Nj = module.matrices[i], module.matrices[j]
    return PolyMatrix(tuple(
        tuple(
            nj.partial(i) + ninj + (ni.partial(j) + njni).scalar_mul(-1)
            for nj, ninj, ni, njni in zip(*rows)
        )
        for rows in zip(Nj.rows, (Ni @ Nj).rows, Ni.rows, (Nj @ Ni).rows)
    ))


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


def ladder_matrix(module: ConnectionModule, direction: int) -> Tuple[int, list]:
    """(c, M) for the walk in a direction i: c is the least common
    denominator of N_i's coefficients, the least c > 0 for which M = c N_i
    has int coefficients, and M is given as one list of (exponent vector,
    int) terms per entry.  Every key of H_s = c**s G_{i,s} is a sum of s
    shifts of S = {-e_i} + {exponents of M}.  The direction goes through
    `padic.check_direction`."""
    rows = module.matrices[check_direction(direction, module.dims)].rows
    c = math.lcm(*[v.denominator for row in rows for e in row for v in e.terms.values()])
    return c, [[[(J, v.numerator * (c // v.denominator)) for J, v in e.terms.items()] for e in row]
               for row in rows]


def iter_deriv_matrices(
    module: ConnectionModule | Tuple[ConnectionModule, Optional[int | list[int]]], direction: int
) -> Iterator[PolyMatrix]:
    """Yield H_0 = identity, H_1, ..., H_cap, where H_s = c**s G_s for (c,
    M) = ladder_matrix(module, direction) and cap = DEFAULT_DEPTH_CAP;
    asking for H_{cap+1} raises DepthCapError.

    H_{s+1} = c d(H_s) + M H_s keeps every coefficient an int.  Each
    entry is one dict keyed by `laurent.pack_key`: c J_d a_J at J - e_d
    (`laurent.packed_partial`), plus v1 v2 at K + J, one integer addition,
    for each term v1 t^K of M[i][k] and v2 t^J of H_s[k][j]; cancelled
    sums are dropped at the end of the entry.

    A key of H_s is a sum of s shifts of `ladder_matrix`'s S, so |J_l| <=
    s * E, E the largest |exponent| in S.  The width
    `pack_width(DEFAULT_DEPTH_CAP * E)` holds every key up to the cap, the
    deepest matrix an analysis reads, so no digit overflows.  Each H_s is
    a `PolyMatrix` of `LaurentPoly`s made by their `_new`, which skip the
    checks of matrices and entries the walk built itself; an entry's
    tuple keys are unpacked for each reader that asks for them.

    Given the pair (module, precision) in place of the module, with the
    precision K, or a list whose [s] is K at step s, each coefficient of
    H_s is replaced by its symmetric residue mod q = p**K, in (-q/2, q/2]:
    a kept one has its exact valuation and no more bits, and a term
    divisible by p**K is dropped, so a zero here does not prove H_s = 0.
    A precision of None walks exactly, as the bare module does.
    `radius.deriv_ladder` walks p**(w_1 + 1), the tapered p**kappa_s,
    p**K, then exactly, each from the last one's first zero.

    Integrability is not re-checked here.
    """
    module, precision = module if isinstance(module, tuple) else (module, None)
    c, M = ladder_matrix(module, direction)
    p, n, m, rank = module.prime, module.nvars_annulus, module.nvars_disc, module.rank
    dims = n + m
    E = max([1] + [abs(j) for row in M for entry in row for K, _ in entry for j in K])

    bits = pack_width(DEFAULT_DEPTH_CAP * E)
    origin = pack_key((0,) * dims, bits)
    shifts = [[[(pack_key(K, bits) - origin, v) for K, v in entry] for entry in row] for row in M]
    one = {origin: 1}
    terms = [[one if i == j else {} for j in range(rank)] for i in range(rank)]
    s = 0
    while True:
        yield PolyMatrix._new(p, n, m, tuple(
            tuple(LaurentPoly._new(p, n, m, acc, bits) for acc in row) for row in terms
        ))
        s += 1
        if s > DEFAULT_DEPTH_CAP:
            raise DepthCapError(f"H_{s} is past the depth cap {DEFAULT_DEPTH_CAP}")
        k = precision[s] if isinstance(precision, list) else precision
        q = None if k is None else p**k
        half = 0 if q is None else q // 2
        out = []
        for i in range(rank):
            row = []
            for j in range(rank):
                acc = packed_partial(terms[i][j], direction, bits, c)
                for k in range(rank):
                    right = terms[k][j]
                    for K, v1 in shifts[i][k]:
                        for J, v2 in right.items():
                            key = J + K
                            acc[key] = acc.get(key, 0) + v1 * v2
                if q is None:
                    acc = {J: a for J, a in acc.items() if a}
                else:
                    acc = {J: r - q if r > half else r for J, a in acc.items() if (r := a % q)}
                row.append(acc)
            out.append(row)
        terms = out
