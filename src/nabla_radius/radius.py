"""Intrinsic generic radius of convergence and overconvergence diagnostics.

For a direction i at radii rho, the derivative operator of the ambient
ring has spectral norm p**(-1/(p-1)) / rho_i, and the intrinsic radius of
the module in that direction is

    IR_i = min(1, p**(-1/(p-1)) * rho_i**(-1) * liminf_s |G_{i,s}|_rho**(-1/s)).

On the log scale this reads max(0, 1/(p-1) - r_i - w_s/s) for the window
estimates, where w_s is the Gauss-norm exponent of G_{i,s}.  The liminf
is approximated by the worst (largest-exponent) estimate over a trailing
window of depths; when some G_{i,s} vanishes identically the direction is
exactly 1 and is flagged as such.

`deriv_ladder` is the one walk of the recursion and owns its precision
(mod p**K, or exact).  `intrinsic_radius` walks each direction once,
`curves.generic_equality_check` replays the unit-radius walk, and
`taylor_probe` walks exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional, Sequence, Tuple

from .connection import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    ConnectionModule,
    PolyMatrix,
    check_count,
    iter_deriv_matrices,
    ladder_denominator,
    require_integrable,
)
from .padic import LogRadius, int_valuation


def spectral_base_exponent(prime: int) -> Fraction:
    """Exponent of the ambient derivative norm constant p**(-1/(p-1))."""
    return Fraction(1, prime - 1)


def factorial_valuation(s: int, prime: int) -> int:
    """v_p(s!) via the exact floor sum."""
    if s < 0:
        raise ValueError("factorial of a negative integer")
    v = 0
    q = prime
    while q <= s:
        v += s // q
        q *= prime
    return v


@dataclass(frozen=True)
class DirectionRadius:
    """Windowed intrinsic-radius estimates for a single direction, as
    exponents of p (0 is radius 1).  When G_s vanished at `vanished_at`
    the window is that depth alone, with the estimate 0."""

    direction: int
    window_start: int
    estimates: Tuple[Fraction, ...]
    vanished_at: Optional[int]

    @property
    def point_estimate(self) -> Fraction:
        return max(self.estimates)

    @property
    def stability(self) -> Fraction:
        return self.point_estimate - min(self.estimates)

    @property
    def exact(self) -> bool:
        return self.vanished_at is not None

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "window_start": self.window_start,
            "window_estimates": [str(e) for e in self.estimates],
            "point_estimate": str(self.point_estimate),
            "stability": str(self.stability),
            "exact": self.exact,
            "vanished_at": self.vanished_at,
        }


@dataclass(frozen=True)
class RadiusReport:
    """Full intrinsic-radius report at one radius vector."""

    rho: Tuple[LogRadius, ...]
    depth: int
    window: Fraction
    directions: Tuple[DirectionRadius, ...]

    @property
    def ir_estimate(self) -> Fraction:
        # the smallest radius, i.e. the largest exponent
        return max(d.point_estimate for d in self.directions)

    @property
    def exact_flag(self) -> bool:
        return all(d.exact for d in self.directions)

    def to_json_dict(self) -> dict:
        return {
            "rho": [str(r.exponent) for r in self.rho],
            "depth": self.depth,
            "window": str(self.window),
            "directions": [d.to_json_dict() for d in self.directions],
            "ir_exponent": str(self.ir_estimate),
            "exact": self.exact_flag,
        }


# Above this many bits p**K is not built and the ladder is walked exactly.
_PRECISION_BITS_CAP = 2**16


def _clip_precision(
    module: ConnectionModule,
    direction: int,
    rho: Tuple[LogRadius, ...],
    depth: int,
) -> Optional[int]:
    """K such that walking H_s mod p**K leaves every clipped window
    estimate at rho unchanged for s <= depth, or None (walk exactly) when
    p**K would pass _PRECISION_BITS_CAP bits:

        K = ceil(depth * max(0, v_p(c) + 1/(p-1) - r_i - mu)) + 1.

    The estimate at depth s is max(0, (T_s - w_s) / s) with
    T_s = s * (v_p(c) + 1/(p-1) - r_i), so w_s matters only below T_s.
    Every key J of H_s is a sum of s shifts of S = {-e_i} + {exponents of
    c N_i}, so its weight sum_l J_l r_l is at least s * mu, mu the least
    weight of a shift.  A term dropped as divisible by p**K therefore has
    a norm exponent of at least K + s * mu >= T_s, and every kept term has
    its exact valuation: w_s mod p**K equals w_s below T_s and stays at
    least T_s above it.  K grows with depth * |mu|, so a huge exponent
    would ask for a huge p**K; the exact walk gives the same estimates.
    """
    rates = [r.exponent for r in rho]
    r_i = rates[direction]
    mu = min(
        [-r_i] + [
            sum(j * r for j, r in zip(J, rates))
            for row in module.matrices[direction].rows for entry in row for J in entry.terms
        ]
    )
    step = int_valuation(ladder_denominator(module, direction), module.prime)
    slope = step + spectral_base_exponent(module.prime) - r_i - mu
    K = math.ceil(depth * max(Fraction(0), slope)) + 1
    return None if K * module.prime.bit_length() > _PRECISION_BITS_CAP else K


def deriv_ladder(
    module: ConnectionModule,
    direction: int,
    depth: int,
    rho: Optional[Tuple[LogRadius, ...]] = None,
) -> Iterator[Tuple[int, PolyMatrix, int]]:
    """Yield (s, H_s, s * v_p(c)) for s = 1..depth, streaming the recursion.

    H_s = c**s G_{direction,s} is the int-coefficient numerator that
    `iter_deriv_matrices` computes, c = ladder_denominator(module,
    direction).  Every Gauss or sup norm exponent of G_s is that of H_s
    minus the shift s * v_p(c); a comparison of two norms of the same H_s
    needs no shift.

    With a radius vector rho, the walk runs mod p**K on a module copy that
    carries K = `_clip_precision(module, direction, rho, depth)`; without
    one it is exact.  A zero mod p**K does not prove H_s = 0, so at the
    first reduced zero the walk restarts exactly and goes on exactly from
    that depth.  Only an exact zero ends the walk, right after it: every
    later H_s vanishes too, since G_{s+1} = d(G_s) + N G_s.
    """
    step = int_valuation(ladder_denominator(module, direction), module.prime)
    K = None if rho is None else _clip_precision(module, direction, rho, depth)
    walked = module if K is None else replace(module, _ladder_precision=K)
    ladder = iter_deriv_matrices(walked, direction)
    next(ladder)  # H_0 is the identity
    for s in range(1, depth + 1):
        H = next(ladder)
        if H.is_zero and K is not None:
            K = None
            ladder = iter_deriv_matrices(module, direction)
            H = next(islice(ladder, s, None))
        yield s, H, s * step
        if H.is_zero:
            return


def _window_start(depth: int, window: Fraction) -> int:
    return max(1, math.ceil((1 - window) * depth))


def _direction_radius(
    module: ConnectionModule,
    direction: int,
    rho: Tuple[LogRadius, ...],
    depth: int,
    window: Fraction,
) -> DirectionRadius:
    """Clipped window estimates from one walk of the ladder at rho."""
    start = _window_start(depth, window)
    base = spectral_base_exponent(module.prime)
    r_i = rho[direction].exponent
    estimates: list[Fraction] = []
    for s, H, shift in deriv_ladder(module, direction, depth, rho):
        if H.is_zero:
            # exactly radius 1: the window is the vanishing depth alone
            return DirectionRadius(direction, s, (Fraction(0),), s)
        if s >= start:
            w = H.gauss_lognorm(rho)
            assert w is not None
            est = base - r_i - (w - shift) / s
            estimates.append(est if est > 0 else Fraction(0))
    return DirectionRadius(direction, start, tuple(estimates), None)


# The least depth `intrinsic_radius` accepts.
LEAST_DEPTH = 8


def intrinsic_radius(
    module: ConnectionModule,
    rho: Tuple[LogRadius, ...],
    depth: int,
    window: Fraction = DEFAULT_WINDOW,
) -> RadiusReport:
    """Windowed intrinsic-radius estimates in every direction at radii rho,
    one per variable, annulus radii first."""
    check_count("depth", depth, LEAST_DEPTH)
    window = Fraction(window)
    if not 0 < window <= 1:
        raise ValueError("window must lie in (0, 1]")
    if len(rho) != module.dims:
        raise ValueError(f"radius vector has {len(rho)} entries, expected {module.dims}")
    require_integrable(module)
    directions = tuple(
        _direction_radius(module, i, rho, depth, window)
        for i in range(module.dims)
    )
    return RadiusReport(rho=rho, depth=depth, window=window, directions=directions)


class Verdict(str, Enum):
    OVERCONVERGENT_EVIDENCE = "OVERCONVERGENT_EVIDENCE"
    NOT_OVERCONVERGENT_EVIDENCE = "NOT_OVERCONVERGENT_EVIDENCE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class OcVerdict:
    verdict: Verdict
    witness_direction: Optional[int]
    rationale: str
    report: RadiusReport

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness_direction": self.witness_direction,
            "rationale": self.rationale,
            "radius_report": self.report.to_json_dict(),
        }


def oc_ir_test(
    module: ConnectionModule,
    depth: int,
    tol: Fraction = DEFAULT_TOL,
    window: Fraction = DEFAULT_WINDOW,
) -> OcVerdict:
    """Evidence for or against IR = 1 at the unit polyradius.

    A direction counts as positive when its window estimates sit within
    tol of 1 (exponent <= tol) or are exactly 1; it counts as a negative
    witness when every window estimate stays at least tol away from 1 and
    the window spread does not exceed tol.  Anything else is inconclusive.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = intrinsic_radius(module, (LogRadius.one(),) * module.dims, depth, window)
    negative: list[DirectionRadius] = []
    undecided: list[DirectionRadius] = []
    for d in report.directions:
        # an exact direction's window is (0,) and tol > 0, so it is positive here
        if d.point_estimate <= tol:
            continue
        if min(d.estimates) >= tol and d.stability <= tol:
            negative.append(d)
        else:
            undecided.append(d)
    if negative:
        witness = max(negative, key=lambda d: (d.point_estimate, -d.direction))
        return OcVerdict(
            Verdict.NOT_OVERCONVERGENT_EVIDENCE,
            witness.direction,
            (
                f"direction {witness.direction} is stably below 1: window exponents"
                f" >= {min(witness.estimates)} with spread"
                f" {witness.stability} <= tol {tol}"
            ),
            report,
        )
    if undecided:
        dirs = ", ".join(str(d.direction) for d in undecided)
        return OcVerdict(
            Verdict.INCONCLUSIVE,
            None,
            f"direction(s) {dirs} neither approach 1 within tol {tol} nor stay stably below",
            report,
        )
    return OcVerdict(
        Verdict.OVERCONVERGENT_EVIDENCE,
        None,
        f"every direction's window estimates are within tol {tol} of 1",
        report,
    )


class ProbeOutcome(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TaylorReport:
    """Decay diagnostics of normalized Taylor terms over the subannulus."""

    outcome: ProbeOutcome
    witness: Optional[Tuple[int, ...]]
    eta: LogRadius
    lam: LogRadius
    j_bound: int
    level_minima: Tuple[Tuple[int, Optional[Fraction]], ...]

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "eta_exponent": str(self.eta.exponent),
            "lambda_exponent": str(self.lam.exponent),
            "bound": self.j_bound,
            "levels": [
                {"total": k, "min_exponent": "inf" if e is None else str(e)}
                for k, e in self.level_minima
            ],
        }


def _fold_levels(
    per_direction: Sequence[Sequence[Optional[Fraction]]], j_bound: int
) -> Tuple[list[Optional[Fraction]], list[Optional[Tuple[int, ...]]]]:
    """Level minima min_{|j| = k} sum_l e_l(j_l) for k <= j_bound, with argmins.

    A (min,+) fold of the per-direction sequences, from the last direction
    back: suffix[k] is the least sum over j_l + ... + j_{d-1} = k, carried
    with its lexicographically first minimiser.  Heads are scanned in
    ascending order and replace the best only on a strict improvement, so
    the smallest head wins a tie, followed by the first minimiser of the
    rest.  None (an exact zero) is +infinity: it absorbs sums and loses
    every min.
    """
    suffix: list[Tuple[Optional[Fraction], Optional[Tuple[int, ...]]]] = [
        (e, None if e is None else (k,)) for k, e in enumerate(per_direction[-1][: j_bound + 1])
    ]
    for seq in reversed(per_direction[:-1]):
        folded = []
        for k in range(j_bound + 1):
            best: Optional[Fraction] = None
            best_j: Optional[Tuple[int, ...]] = None
            for head in range(k + 1):
                e, (rest, rest_j) = seq[head], suffix[k - head]
                if e is None or rest is None:
                    continue
                total = e + rest
                if best is None or total < best:
                    best, best_j = total, (head,) + rest_j
            folded.append((best, best_j))
        suffix = folded
    return [e for e, _ in suffix], [j for _, j in suffix]


def taylor_probe(
    module: ConnectionModule,
    eta: LogRadius,
    lam: LogRadius,
    j_bound: int,
) -> TaylorReport:
    """Probe the decay of ||(1/j!) * D^j e_a|| * eta^|j| for |j| <= j_bound.

    A multi-index j is scored by the product of its single-direction terms,
    e_1(j_1) + ... + e_d(j_d) on the log scale, with norms taken as sup
    norms over the subannulus with inner radius lam.  The product is a
    heuristic: only the axis terms are exact, and Leibniz cross-terms make
    it neither the exact mixed norm nor an upper bound on it (ROADMAP,
    "Sound Taylor verdicts").  Each level score is the least product over
    |j| = k, found by `_fold_levels`.  The probe passes when every level
    minimum beyond j_bound/2 stays strictly below 1 (positive exponent) with
    no net loss across the tail; it fails with a witness index when some
    tail value exceeds 1 and the tail trends downward; anything else is
    inconclusive.
    """
    check_count("bound", j_bound, 8)
    if eta.exponent <= 0:
        raise ValueError("eta must satisfy 0 < eta < 1 (positive exponent)")
    require_integrable(module)
    p = module.prime
    h = eta.exponent
    dims = module.dims

    # e_l(s): exponent of ||(1/s!) d_l^s|| * eta^s, None for an exact zero.
    per_direction: list[list[Optional[Fraction]]] = []
    for l in range(dims):
        exps: list[Optional[Fraction]] = [Fraction(0)]
        for s, H, shift in deriv_ladder(module, l, j_bound):
            if H.is_zero:
                break
            w = H.sup_vertex_lognorm(lam)
            assert w is not None
            exps.append(w - shift - factorial_valuation(s, p) + s * h)
        exps.extend(None for _ in range(len(exps), j_bound + 1))
        per_direction.append(exps)

    minima, argmins = _fold_levels(per_direction, j_bound)
    level_minima = list(enumerate(minima))

    tail = [(k, e) for k, e in level_minima if k > j_bound // 2]
    finite_tail = [(k, e) for k, e in tail if e is not None]

    def _cmp_key(e: Optional[Fraction]) -> tuple[int, Fraction]:
        # None (exact zero norm) sorts above every finite exponent
        return (1, Fraction(0)) if e is None else (0, e)

    first_e = tail[0][1]
    last_e = tail[-1][1]
    all_positive = all(e is None or e > 0 for _, e in tail)
    if all_positive and _cmp_key(last_e) >= _cmp_key(first_e):
        outcome, witness = ProbeOutcome.PASS, None
    elif finite_tail and min(e for _, e in finite_tail) < 0 and _cmp_key(last_e) <= _cmp_key(first_e):
        worst_k = min(finite_tail, key=lambda ke: ke[1])[0]
        outcome, witness = ProbeOutcome.FAIL, argmins[worst_k]
    else:
        outcome, witness = ProbeOutcome.INCONCLUSIVE, None
    return TaylorReport(
        outcome=outcome,
        witness=witness,
        eta=eta,
        lam=lam,
        j_bound=j_bound,
        level_minima=tuple(level_minima),
    )
