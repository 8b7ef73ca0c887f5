"""Cut-by-curves specialization: restrict a module to a coordinate curve.

Substituting unit scalars for every variable except one turns an
integrable module into a one-variable module whose iterated matrices are
the evaluations of the originals (substitution commutes exactly with the
derivative recursion in the kept direction).  Gauss norms can only drop
under evaluation, and on a generic unit point they do not drop at all;
`curve_witness_search` hunts for such a point to tie a one-variable
non-overconvergence witness back to the full module.  Since no entry's
norm can rise under evaluation, `generic_equality_check` specializes only
the leading parts of the entries that attain the matrix norm, and stops
at the first one that keeps it.  It reads them from a record of the
unit-radius walk (`radius.unit_step` at each depth), which agrees with
the exact walk's as far as it is read (`radius.deriv_ladder` says why):
the search's verdict walk keeps that record, and a direct call streams
its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .connection import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    ConnectionModule,
    check_count,
    require_integrable,
)
from .laurent import LaurentPoly
from .padic import LogRadius, _safe_repr, check_direction, exact, exact_int, fraction_valuation, frozen_record
from .radius import OcVerdict, UnitStep, Verdict, deriv_ladder, oc_ir_test, unit_step

# Sampled unit coordinates are num/den with 0 < |num| <= 9 and 0 < den <= 9.
SAMPLE_RANGE = 9


def _unit_point(
    module: ConnectionModule, point: Sequence[Fraction | int]
) -> Tuple[Fraction, ...]:
    """Check a point of the curve functions against the module: one
    `exact` rational per variable except the kept one, in variable order,
    each a p-adic unit (valuation exactly 0).  Returns it as Fractions."""
    coords = tuple(exact(c, "unit point coordinates") for c in point)
    for c in coords:
        if fraction_valuation(c, module.prime) != 0:
            raise ValueError(f"coordinate {_safe_repr(c, str)} is not a unit")
    if len(coords) != module.dims - 1:
        raise ValueError(f"expected {module.dims - 1} coordinates, got {len(coords)}")
    return coords


def specialize(
    module: ConnectionModule, direction: int, point: Sequence[Fraction | int]
) -> ConnectionModule:
    """One-variable module obtained by fixing all other variables at `point`."""
    check_direction(direction, module.dims)
    N = module.matrices[direction].specialize(direction, _unit_point(module, point))
    return ConnectionModule(
        prime=module.prime,
        nvars_annulus=N.nvars_annulus,
        nvars_disc=N.nvars_disc,
        rank=module.rank,
        matrices=(N,),
    )


def _fold(e: LaurentPoly, direction: int) -> LaurentPoly:
    """e with every exponent outside `direction` reduced mod p - 1, the
    terms that then share an exponent vector summed."""
    period = e.prime - 1
    acc: dict[tuple[int, ...], Fraction | int] = {}
    for key, a in e.terms.items():
        key = tuple(j if l == direction else j % period for l, j in enumerate(key))
        acc[key] = acc.get(key, 0) + a
    return LaurentPoly(e.prime, e.nvars_annulus, e.nvars_disc, acc)


def generic_equality_check(
    module: ConnectionModule,
    direction: int,
    point: Sequence[Fraction | int],
    depth: int,
    *,
    _record: Optional[Iterable[UnitStep]] = None,
) -> Optional[int]:
    """Compare |G_{i,s}(point)| against |G_{i,s}| for s <= depth, both at
    the unit radius.

    Returns the first depth where they differ (the evaluated norm can only
    be smaller), or None when all agree.

    G_s and its evaluation both divide by c**s, so the numerators H_s are
    compared, through a record of `radius.unit_step(H_s)` for s = 1, 2, ...:
    the norm exponent full of H_s and the leading parts of the entries that
    attain it.  `_record` is the one the verdict walk of
    `curve_witness_search` keeps for this direction and depth (internal);
    without it the ladder is walked here and streams the same record, so
    the walk stops at the first depth that differs.

    The comparison is entrywise.  Evaluating at a unit point never raises
    a Gauss norm, so every entry e has w(e(point)) >= w(e) >= full, where
    w is the norm exponent.  The evaluated matrix therefore keeps the norm
    exactly when some entry with w(e) == full keeps it, and only those
    entries are tried, until the first one that does.  A zero matrix keeps
    its (zero) norm.

    Only an entry's leading part, its terms with v(a_J) == full, is
    specialized.  The a_J are integers and the coordinates units, so a
    term a_J t^J evaluates to a value of valuation v(a_J), and every other
    term lands above full.  Each coefficient of e(point) is therefore the
    same coefficient of the specialized leading part plus a sum of
    valuation > full, and has valuation full exactly when that one does:
    e keeps the norm full exactly when its leading part does.

    The ladder is walked as for the verdict at this depth, at the unit
    radius, and each record has the exact walk's full, on the same
    entries, with the same leading terms mod p**(full + 1)
    (`radius.deriv_ladder` says why).  Those residues are all that is read
    here: specialized at unit coordinates, a multiple of p**(full + 1)
    stays one, so an entry keeps the norm full exactly when its yielded
    leading part does.
    Only an exact zero H_s is a zero matrix here.

    Before a leading part is specialized, `_fold` reduces its exponents
    outside the kept direction mod p - 1, so no coordinate is raised past
    the power p - 2, however large the module's exponents.  The answer
    stays: a unit c has c**(p-1) = 1 mod p, hence c**j = c**(j mod (p-1))
    mod p for every integer j, and a leading coefficient a_J = p**full * u
    with u a unit moves a_J c^J by a multiple of p**(full + 1).  Each
    coefficient of the specialized leading part then moves by such a
    multiple too, and has valuation full exactly when it had before.  For
    p = 2 every such exponent folds to 0.
    """
    check_count("depth", depth, 1)
    check_direction(direction, module.dims)
    coords = _unit_point(module, point)
    require_integrable(module)
    if _record is None:
        unit = (LogRadius.one(),) * module.dims
        _record = (unit_step(H) for _, H, _ in deriv_ladder(module, direction, depth, unit))
    single = (LogRadius.one(),)
    for s, (full, leading) in enumerate(_record, 1):
        if leading and not any(
            _fold(e, direction).specialize(direction, coords).gauss_lognorm(single) == full
            for e in leading
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


@frozen_record
class CutCheckReport:
    """The verdict and the witness point, if one was found; the witness
    JSON reads its direction and both radii from the verdict."""

    verdict: OcVerdict
    witness: Optional[Tuple[Fraction, ...]]
    trials: int
    seed: int

    def to_json_dict(self) -> dict:
        report = self.verdict.report
        witness = None
        if self.witness is not None:
            direction = self.verdict.witness_direction
            witness = {
                "direction": direction,
                "point": [str(c) for c in self.witness],
                "ir_full_exponent": str(report.ir_estimate),
                "ir_curve_exponent": str(report.directions[direction].point_estimate),
            }
        return {
            "depth": report.depth,
            "trials": self.trials,
            "seed": self.seed,
            "verdict": self.verdict.to_json_dict(),
            "witness": witness,
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

    Every check reads the witness direction's record from the verdict
    walk, so no direction is walked twice.  `trials` and `seed` must be
    ints (not bools), and `tol` and `window` go to `oc_ir_test`.
    """
    check_count("trials", trials, 1)
    exact_int(seed, "seed")
    records: list[list[UnitStep]] = []
    verdict = oc_ir_test(module, depth, tol, window, _records=records)
    witness: Optional[Tuple[Fraction, ...]] = None
    if verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE:
        direction = verdict.witness_direction
        assert direction is not None
        record = records[direction]
        rng = random.Random(seed)
        for _ in range(trials):
            point = sample_unit_point(rng, module.prime, module.dims - 1)
            if generic_equality_check(module, direction, point, depth, _record=record) is None:
                witness = point
                break
    return CutCheckReport(verdict, witness, trials, seed)
