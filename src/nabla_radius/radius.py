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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

from .connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    PolyMatrix,
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
    exponents of p (0 is radius 1)."""

    direction: int
    window_start: int
    estimates: Tuple[Fraction, ...]
    point_estimate: Fraction
    stability: Fraction
    exact: bool
    vanished_at: Optional[int]

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

    prime: int
    rho: Tuple[LogRadius, ...]
    depth: int
    window: Fraction
    directions: Tuple[DirectionRadius, ...]
    ir_estimate: Fraction
    exact_flag: bool

    def to_json_dict(self) -> dict:
        return {
            "rho": [str(r.exponent) for r in self.rho],
            "depth": self.depth,
            "window": str(self.window),
            "directions": [d.to_json_dict() for d in self.directions],
            "ir_exponent": str(self.ir_estimate),
            "exact": self.exact_flag,
        }


def deriv_ladder(
    module: ConnectionModule, direction: int, depth: int
) -> Iterator[Tuple[int, PolyMatrix, int]]:
    """Yield (s, H_s, s * v_p(c)) for s = 1..depth, streaming the recursion.

    H_s = c**s G_{direction,s} is the int-coefficient numerator that
    `iter_deriv_matrices` computes, c = ladder_denominator(module,
    direction).  Every Gauss or sup norm exponent of G_s is that of H_s
    minus the shift s * v_p(c); a comparison of two norms of the same H_s
    needs no shift.  The walk stops right after the first H_s that
    vanishes: every later one vanishes too, since G_{s+1} = d(G_s) + N G_s.
    """
    step = int_valuation(ladder_denominator(module, direction), module.prime)
    ladder = iter_deriv_matrices(module, direction)
    next(ladder)  # H_0 is the identity
    for s in range(1, depth + 1):
        H = next(ladder)
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
    base = spectral_base_exponent(module.prime)
    r_i = rho[direction].exponent
    start = _window_start(depth, window)
    estimates: list[Fraction] = []
    for s, H, shift in deriv_ladder(module, direction, depth):
        if H.is_zero:
            return DirectionRadius(
                direction=direction,
                window_start=s,
                estimates=(Fraction(0),),
                point_estimate=Fraction(0),
                stability=Fraction(0),
                exact=True,
                vanished_at=s,
            )
        if s >= start:
            w = H.gauss_lognorm(rho)
            assert w is not None
            est = base - r_i - (w - shift) / s
            estimates.append(est if est > 0 else Fraction(0))
    point = max(estimates)
    return DirectionRadius(
        direction=direction,
        window_start=start,
        estimates=tuple(estimates),
        point_estimate=point,
        stability=point - min(estimates),
        exact=False,
        vanished_at=None,
    )


def intrinsic_radius(
    module: ConnectionModule,
    rho: Tuple[LogRadius, ...],
    depth: int,
    window: Fraction = Fraction(1, 4),
) -> RadiusReport:
    """Windowed intrinsic-radius estimates in every direction at radii rho,
    one per variable, annulus radii first."""
    if depth < 8:
        raise ValueError("depth must be at least 8")
    if depth > DEFAULT_DEPTH_CAP:
        raise DepthCapError(f"depth {depth} exceeds cap {DEFAULT_DEPTH_CAP}")
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
    # the smallest radius, i.e. the largest exponent
    ir = max(d.point_estimate for d in directions)
    exact_flag = all(d.exact for d in directions)
    return RadiusReport(
        prime=module.prime,
        rho=rho,
        depth=depth,
        window=window,
        directions=directions,
        ir_estimate=ir,
        exact_flag=exact_flag,
    )


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
    tol: Fraction = Fraction(1, 20),
    window: Fraction = Fraction(1, 4),
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
        if d.exact:
            continue
        if max(d.estimates) <= tol:
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
    back: suffix[k] is the least sum over j_l + ... + j_{d-1} = k, and the
    back-pointer is the smallest head j_l that reaches it (heads scanned in
    ascending order, replaced only on a strict improvement).  Walking the
    back-pointers therefore gives the lexicographically first minimiser.
    None (an exact zero) is +infinity: it absorbs sums and loses every min.
    """
    suffix = list(per_direction[-1][: j_bound + 1])
    backs: list[list[Optional[int]]] = []
    for seq in reversed(per_direction[:-1]):
        folded: list[Optional[Fraction]] = []
        back: list[Optional[int]] = []
        for k in range(j_bound + 1):
            best: Optional[Fraction] = None
            best_head: Optional[int] = None
            for head in range(k + 1):
                e, rest = seq[head], suffix[k - head]
                if e is None or rest is None:
                    continue
                total = e + rest
                if best is None or total < best:
                    best, best_head = total, head
            folded.append(best)
            back.append(best_head)
        suffix = folded
        backs.append(back)
    backs.reverse()
    argmins: list[Optional[Tuple[int, ...]]] = []
    for k, best in enumerate(suffix):
        if best is None:
            argmins.append(None)
            continue
        j = []
        remaining = k
        for back in backs:
            head = back[remaining]
            assert head is not None
            j.append(head)
            remaining -= head
        j.append(remaining)
        argmins.append(tuple(j))
    return suffix, argmins


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
    it neither the exact mixed norm nor an upper bound on it (ROADMAP item
    4).  Each level score is the least product over |j| = k, found by
    `_fold_levels`.  The probe passes when every level minimum beyond
    j_bound/2 stays strictly below 1 (positive exponent) with no net loss
    across the tail; it fails with a witness index when some tail value
    exceeds 1 and the tail trends downward; anything else is inconclusive.
    """
    if j_bound < 8:
        raise ValueError("multi-index bound must be at least 8")
    if j_bound > DEFAULT_DEPTH_CAP:
        raise DepthCapError(f"bound {j_bound} exceeds cap {DEFAULT_DEPTH_CAP}")
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
