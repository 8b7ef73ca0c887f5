"""Cut-by-curves specialization: restrict a module to a coordinate curve.

Substituting unit scalars for every variable except one turns an
integrable module into a one-variable module whose iterated matrices are
the evaluations of the originals (substitution commutes exactly with the
derivative recursion in the kept direction).  Gauss norms can only drop
under evaluation, and on a generic unit point they do not drop at all;
`curve_witness_search` hunts for such a point to tie a one-variable
non-overconvergence witness back to the full module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    require_integrable,
)
from .padic import LogRadius, check_exact, fraction_valuation
from .radius import OcVerdict, Verdict, deriv_ladder, oc_ir_test

# Sampled unit coordinates are num/den with 0 < |num| <= 9 and 0 < den <= 9.
SAMPLE_RANGE = 9


def _unit_point(
    module: ConnectionModule, point: Sequence[Fraction | int]
) -> Tuple[Fraction, ...]:
    """Check a point of the curve functions against the module: one exact
    int or Fraction per variable except the kept one, in variable order,
    each a p-adic unit (valuation exactly 0).  Returns it as Fractions."""
    coords = []
    for c in point:
        check_exact(c, "unit point coordinates")
        c = Fraction(c)
        if fraction_valuation(c, module.prime) != 0:
            raise ValueError(f"coordinate {c} is not a unit")
        coords.append(c)
    if len(coords) != module.dims - 1:
        raise ValueError(f"expected {module.dims - 1} coordinates, got {len(coords)}")
    return tuple(coords)


def specialize(
    module: ConnectionModule, direction: int, point: Sequence[Fraction | int]
) -> ConnectionModule:
    """One-variable module obtained by fixing all other variables at `point`."""
    if not 0 <= direction < module.dims:
        raise IndexError(f"direction {direction} out of range")
    N = module.matrices[direction].specialize(direction, _unit_point(module, point))
    if direction < module.nvars_annulus:
        n, m = 1, 0
    else:
        n, m = 0, 1
    return ConnectionModule(
        prime=module.prime,
        nvars_annulus=n,
        nvars_disc=m,
        rank=module.rank,
        matrices=(N,),
    )


def generic_equality_check(
    module: ConnectionModule,
    direction: int,
    point: Sequence[Fraction | int],
    depth: int,
) -> Optional[int]:
    """Compare |G_{i,s}(point)| against |G_{i,s}| for s <= depth, both at
    the unit radius.

    Returns the first depth where they differ (the evaluated norm can only
    be smaller), or None when all agree.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > DEFAULT_DEPTH_CAP:
        raise DepthCapError(f"depth {depth} exceeds cap {DEFAULT_DEPTH_CAP}")
    coords = _unit_point(module, point)
    require_integrable(module)
    multi = (LogRadius.one(),) * module.dims
    single = (LogRadius.one(),)
    # G_s and its evaluation both divide by c**s: compare the numerators H_s.
    for s, H, _ in deriv_ladder(module, direction, depth):
        full = H.gauss_lognorm(multi)
        evaluated = H.specialize(direction, coords).gauss_lognorm(single)
        if full != evaluated:
            return s
    return None


def sample_unit_point(
    rng: random.Random,
    prime: int,
    count: int,
) -> Tuple[Fraction, ...]:
    """Draw `count` unit coordinates num/den with |num|, den <= SAMPLE_RANGE."""
    coords = []
    for _ in range(count):
        while True:
            num = rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE)
            den = rng.randint(1, SAMPLE_RANGE)
            if num == 0:
                continue
            x = Fraction(num, den)
            if fraction_valuation(x, prime) == 0:
                coords.append(x)
                break
    return tuple(coords)


@dataclass(frozen=True)
class CurveWitness:
    """A unit point whose coordinate curve reproduces the full-module radius."""

    direction: int
    point: Tuple[Fraction, ...]
    ir_full: Fraction
    ir_curve: Fraction

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "point": [str(c) for c in self.point],
            "ir_full_exponent": str(self.ir_full),
            "ir_curve_exponent": str(self.ir_curve),
        }


@dataclass(frozen=True)
class CutCheckReport:
    verdict: OcVerdict
    witness: Optional[CurveWitness]
    depth: int
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "trials": self.trials,
            "seed": self.seed,
            "verdict": self.verdict.to_json_dict(),
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def curve_witness_search(
    module: ConnectionModule,
    depth: int,
    trials: int,
    seed: int,
    tol: Fraction = Fraction(1, 20),
    window: Fraction = Fraction(1, 4),
) -> CutCheckReport:
    """Search seeded random unit points for a curve witness.

    Runs the unit-radius verdict first; only a NOT_OVERCONVERGENT_EVIDENCE
    outcome is worth witnessing.  Points are drawn deterministically from
    the seed and tested in order; the first one passing the generic
    equality check at radius 1 wins.  Finding no witness is a legal
    outcome and is reported as such.

    A passing point needs no second recursion on its curve: the curve's
    G_s are the specialized G_s, and the check has just confirmed that
    their unit-radius norms equal the full ones at every depth, so the
    curve's radius is the witness direction's point estimate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    verdict = oc_ir_test(module, depth, tol, window)
    if verdict.verdict is not Verdict.NOT_OVERCONVERGENT_EVIDENCE:
        return CutCheckReport(verdict, None, depth, trials, seed)
    direction = verdict.witness_direction
    assert direction is not None
    rng = random.Random(seed)
    points = [sample_unit_point(rng, module.prime, module.dims - 1) for _ in range(trials)]
    for point in points:
        if generic_equality_check(module, direction, point, depth) is not None:
            continue
        witness = CurveWitness(
            direction=direction,
            point=point,
            ir_full=verdict.report.ir_estimate,
            ir_curve=verdict.report.directions[direction].point_estimate,
        )
        return CutCheckReport(verdict, witness, depth, trials, seed)
    return CutCheckReport(verdict, None, depth, trials, seed)
