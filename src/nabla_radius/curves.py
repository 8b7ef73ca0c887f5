"""Cut-by-curves specialization: restrict a module to a coordinate curve.

Substituting unit scalars for every variable except one turns an
integrable module into a one-variable module whose iterated matrices are
the evaluations of the originals (substitution commutes exactly with the
derivative recursion in the kept direction).  Gauss norms can only drop
under evaluation, and on a generic unit point they do not drop at all;
`curve_witness_search` hunts for such a point to tie a one-variable
non-overconvergence witness back to the full module.  Since no entry's
norm can rise under evaluation, `generic_equality_check` specializes only
the entries that attain the matrix norm, and stops at the first one that
keeps it.  It walks the ladder modulo the same p**K as the unit-radius
verdict, through `radius.deriv_ladder`, so the witness walk replays the
verdict walk in the same precision.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .connection import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    ConnectionModule,
    _least_exponent,
    check_count,
    require_integrable,
)
from .padic import LogRadius, check_exact, fraction_valuation
from .radius import OcVerdict, Verdict, deriv_ladder, oc_ir_test

# Sampled unit coordinates are num/den with 0 < |num| <= 9 and 0 < den <= 9.
SAMPLE_RANGE = 9


def _check_direction(module: ConnectionModule, direction: int) -> None:
    if not 0 <= direction < module.dims:
        raise ValueError(
            f"direction {direction} out of range for a module with {module.dims} variables"
        )


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
    _check_direction(module, direction)
    N = module.matrices[direction].specialize(direction, _unit_point(module, point))
    return ConnectionModule(
        prime=module.prime,
        nvars_annulus=N.nvars_annulus,
        nvars_disc=N.nvars_disc,
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

    The comparison is entrywise.  Evaluating at a unit point never raises
    a Gauss norm, so every entry e has w(e(point)) >= w(e) >= full, where
    w is the norm exponent and full the least w(e) over the matrix.  The
    evaluated matrix therefore keeps the norm exactly when some entry with
    w(e) == full keeps it, and only those entries are specialized, until
    the first one that does.  A zero matrix keeps its (zero) norm.

    The ladder is walked mod p**K at the unit radius, K as for the verdict
    at this depth.  That is exact for any K.  A kept coefficient has its
    exact valuation, below K, and a dropped one a valuation of at least K,
    so a nonzero H_s mod p**K has the exact norm full < K on the same
    entries.  The point's coordinates are units, so specializing commutes
    with reduction mod p**K, and an entry keeps the norm full exactly when
    its reduction does.  Only an exact zero H_s is a zero matrix here.
    """
    check_count("depth", depth, 1)
    _check_direction(module, direction)
    coords = _unit_point(module, point)
    require_integrable(module)
    multi = (LogRadius.one(),) * module.dims
    single = (LogRadius.one(),)
    # G_s and its evaluation both divide by c**s: compare the numerators H_s.
    for s, H, _ in deriv_ladder(module, direction, depth, multi):
        norms = [(e, e.gauss_lognorm(multi)) for row in H.rows for e in row]
        full = _least_exponent(w for _, w in norms)
        if full is not None and not any(
            e.specialize(direction, coords).gauss_lognorm(single) == full
            for e, w in norms if w == full
        ):
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
    tol: Fraction = DEFAULT_TOL,
    window: Fraction = DEFAULT_WINDOW,
) -> CutCheckReport:
    """Search seeded random unit points for a curve witness.

    Runs the unit-radius verdict first; only a NOT_OVERCONVERGENT_EVIDENCE
    outcome is worth witnessing.  Points are drawn deterministically from
    the seed, each one when it is tried; the first one passing the generic
    equality check at radius 1 wins, and no point past it is drawn.
    Finding no witness is a legal outcome and is reported as such.

    A passing point needs no second recursion on its curve: the curve's
    G_s are the specialized G_s, and the check has just confirmed that
    their unit-radius norms equal the full ones at every depth, so the
    curve's radius is the witness direction's point estimate.
    """
    check_count("trials", trials, 1)
    verdict = oc_ir_test(module, depth, tol, window)
    witness: Optional[CurveWitness] = None
    if verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE:
        direction = verdict.witness_direction
        assert direction is not None
        rng = random.Random(seed)
        for _ in range(trials):
            point = sample_unit_point(rng, module.prime, module.dims - 1)
            if generic_equality_check(module, direction, point, depth) is None:
                witness = CurveWitness(
                    direction=direction,
                    point=point,
                    ir_full=verdict.report.ir_estimate,
                    ir_curve=verdict.report.directions[direction].point_estimate,
                )
                break
    return CutCheckReport(verdict, witness, depth, trials, seed)
