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

`deriv_ladder` is the one walk of the recursion and owns its precision,
a chain of levels that each start at the first reduced zero of the one
before: at the unit radius mod p**k0, k0 = w_1 + 1, w_1 the valuation of
H_1; then mod p**kappa_s; then mod p**K; then exactly.  One planner,
`_walk_plan`, decides k0 and K once per walk, and every reader, estimate
or record, gets the exact walk's answer (`deriv_ladder` says why).
kappa_s tapers with the depth s: by Leibniz, a digit dropped at depth s
moves H_t by a valuation that grows with t - s, as fast as the norms w_i
already read show, so only the digits that can reach an estimate at a
depth t <= depth are kept (`_Taper`).  K is that rule when nothing has
been read, and the taper is given it.  `intrinsic_radius` walks each
direction once and `taylor_probe` walks exactly.  For `curves.curve_witness_search` the
unit-radius walk also keeps the `unit_step` of every depth, which the
witness check reads in place of a walk of its own.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator, Optional, Sequence, Tuple, TypeVar

from .connection import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    ConnectionModule,
    PolyMatrix,
    check_count,
    iter_deriv_matrices,
    ladder_matrix,
    require_integrable,
)
from .laurent import LaurentPoly
from .padic import POWER_BITS_CAP, check_radii, check_radius, exact, frozen_record, int_valuation


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


@frozen_record
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


@frozen_record
class RadiusReport:
    """Full intrinsic-radius report at one radius vector."""

    rho: Tuple[Fraction, ...]
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
            "rho": [str(r) for r in self.rho],
            "depth": self.depth,
            "window": str(self.window),
            "directions": [d.to_json_dict() for d in self.directions],
            "ir_exponent": str(self.ir_estimate),
            "exact": self.exact_flag,
        }


def _walk_plan(
    module: ConnectionModule,
    direction: int,
    depth: int,
    rho: Optional[Tuple[Fraction, ...]],
) -> Tuple[int, Optional[int], Optional[int]]:
    """(v_p(c), k0, K): the fixed precisions of `deriv_ladder`'s walk at
    rho, for (c, M) = ladder_matrix(module, direction).  Without rho the
    walk is exact and (v_p(c), None, None) is returned.

    K is the precision mod which every clipped window estimate at rho is
    unchanged for s <= depth:

        K = ceil(depth * max(0, v_p(c) + 1/(p-1) - r_i - mu)) + 1.

    The estimate at depth s is max(0, (T_s - w_s) / s) with
    T_s = s * (v_p(c) + 1/(p-1) - r_i), so w_s matters only below T_s.
    Every key J of H_s is a sum of s shifts of `ladder_matrix`'s S, so its
    weight sum_l J_l r_l is at least s * mu, mu the least weight of a
    shift.  A term dropped as divisible by p**K therefore has a norm
    exponent of at least K + s * mu >= T_s, and every kept term has its
    exact valuation: w_s mod p**K equals w_s below T_s and stays at least
    T_s above it.  At the unit radius mu = 0, and K is what `_Taper`
    plans with no norm read: the no-information case of its rule.

    k0 = v_p(content of M) + 1, the precision of the first rung, is set
    only at the unit radius.  H_1 = M, and H_{s+1} = c d(H_s) + M H_s has
    int factors, so every coefficient of every H_s is divisible by
    p**(k0 - 1): w_s never falls below w_1 = k0 - 1, and p**k0 is the
    least modulus that keeps H_1.  M = 0 has no rung.

    A precision whose p**k would pass POWER_BITS_CAP bits is None,
    and so is a k0 >= K, whose rung would start where p**K does.  K grows
    with depth * |mu|, so a huge exponent asks for a huge p**K; the exact
    walk gives the same estimates.
    """
    p = module.prime
    c, M = ladder_matrix(module, direction)
    step = int_valuation(c, p)
    if rho is None:
        return step, None, None
    terms = [t for row in M for entry in row for t in entry]
    r_i = rho[direction]
    mu = min([-r_i] + [sum(j * r for j, r in zip(J, rho)) for J, _ in terms])
    K = math.ceil(depth * max(Fraction(0), step + spectral_base_exponent(p) - r_i - mu)) + 1
    content = gcd(*[a for _, a in terms])
    k0 = int_valuation(content, p) + 1 if content and not any(rho) else None
    k0, K = (None if k is None or k * p.bit_length() > POWER_BITS_CAP else k for k in (k0, K))
    if k0 is not None and K is not None and k0 >= K:
        k0 = None
    return step, k0, K


def _unit_norm(H: PolyMatrix) -> Optional[int]:
    """The unit-radius norm exponent of a ladder matrix, the least
    valuation of its int coefficients; None for H = 0."""
    g = gcd(*[gcd(*e._store.values()) for row in H.rows for e in row])
    return int_valuation(g, H.prime) if g else None


# The tapered walk plans again after reading H_s for s = 8, 16, 32, ...
_FIRST_PLAN = 8


class _Taper:
    """The precisions kappa[s] of the tapered unit-radius walk, planned
    from the norm exponents w_i it has read.

    v = v_p(c), T_t = t * (v + 1/(p-1)) and g_i = w_i - i v, the norm
    exponent of G_i.  For the direction's operator D = d + N and any
    matrix X, D^k X = sum_j C(k, j) G_{k-j} d^j(X), and d^j / j! sends t^n
    to the int multiple C(n, j) t^(n-j), so at the unit radius

        w(c^k D^k X) >= w(X) + k v + F(k),
        F(k) = min_{i <= k} (v_p(k!) - v_p(i!) + g_i).

    A term dropped at depth s has valuation >= kappa[s], so it moves H_t by
    valuation >= kappa[s] + (t - s) v + F(t - s).  The walk is linear, so
    the error of H_t is the sum of those moves; `plan` takes

        kappa[s] = ceil(max_{s <= t <= depth} (T_t - (t - s) v - F(t - s))) + 1

    and the error of every H_t, t <= depth, then has valuation at least
    its floor, min_{s <= t} (kappa[s] + (t - s) v + F(t - s)) >= T_t + 1.

    F is bounded below from the reads: g_i itself up to the last depth a
    read, past it g_{a+b} >= g_a + F(b) (Leibniz for G_{a+b} = D^b G_a)
    and g_i >= -i v (H_i has int coefficients).  With no read, F(k) = -k v
    and kappa[s] = ceil(T_depth) + 1 at every s: that is the K of
    `_walk_plan` at the unit radius, which the taper is given.

    `deriv_ladder` builds the taper at the rung's first zero, at depth z,
    with the reads that the rung implies: H_1 .. H_{z-1} are nonzero mod
    p**(w_1 + 1), so each has w_i = w_1.  Steps up to those reads keep the
    no-read kappa, and `plan` sets the ones past them.

    A coefficient of H_t below the floor is exact.  So H_t counts as a
    reduced zero when its least valuation w reaches the floor, as an exact
    zero H_t does; otherwise w is the exact w_t (`deriv_ladder` says why),
    and only such reads are taken.  The floor taken is the larger of T_t +
    1 and the min above with the latest F, both lower bounds on the error.
    The min costs O(t), so it is taken only when no coefficient lies below
    T_t + 1; past the last plan that is tested on the coefficients up to
    the first one below, with no gcd.
    """

    def __init__(self, prime: int, step: int, depth: int, K: int, reads: Sequence[int] = ()) -> None:
        self.prime, self.step, self.depth = prime, step, depth
        self.slope = step * (prime - 1) + 1  # T_t = t * slope / (p - 1)
        self.facts = [factorial_valuation(k, prime) for k in range(depth + 1)]
        self.last = _FIRST_PLAN  # the last depth read: 8 * 2**j <= depth / 2
        while 4 * self.last <= depth:
            self.last *= 2
        self.norms = [0, *reads[: self.last]]  # w_0, w_1, ..., the exact reads
        self.bound = [0] * (depth + 1)  # F
        self.kappa = [K] * (depth + 1)  # no read
        self.plan()

    def plan(self) -> None:
        """F from the reads, and kappa[s] for every s past them."""
        p, v, depth, facts, norms, F = self.prime, self.step, self.depth, self.facts, self.norms, self.bound
        D, a = p - 1, len(norms) - 1
        least = reach = 0  # min_{i <= k} (g_i - v_p(i!)); max_{i <= k} (i - D F(i))
        ahead = [0] * (depth + 1)  # ahead[k] = reach at k
        for k in range(1, depth + 1):
            if k <= a:
                g = norms[k] - k * v
            else:
                g = max(-k * v, norms[a] - a * v + F[k - a]) if a else -k * v
            least = min(least, g - facts[k])
            F[k] = facts[k] + least
            reach = ahead[k] = max(reach, k - D * F[k])
        # T_t - (t - s) v - F(t - s) = (s * slope + (t - s) - D F(t - s)) / D
        for s in range(a + 1, depth + 1):
            self.kappa[s] = -(-(s * self.slope + ahead[depth - s]) // D) + 1

    def reduced_zero(self, s: int, H: PolyMatrix) -> bool:
        """Whether H_s of the tapered walk reaches its error floor; if not,
        its norm exponent is read."""
        u = -(-s * self.slope // (self.prime - 1)) + 1  # the least int >= T_s + 1
        if s > self.last:
            q = self.prime**u
            if any(a % q for row in H.rows for e in row for a in e._store.values()):
                return False
        w = _unit_norm(H)
        if w is None or w >= u and w >= min(
            self.kappa[j] + (s - j) * self.step + self.bound[s - j] for j in range(1, s + 1)
        ):
            return True
        # take w_s, exact; plan again once s is 8, 16, ... up to `last`
        if s == len(self.norms) and s <= self.last:
            self.norms.append(w)
            if s >= _FIRST_PLAN and s & (s - 1) == 0:
                self.plan()
        return False


def deriv_ladder(
    module: ConnectionModule,
    direction: int,
    depth: int,
    rho: Optional[Tuple[Fraction, ...]] = None,
) -> Iterator[Tuple[int, PolyMatrix, int]]:
    """Yield (s, H_s, s * v_p(c)) for s = 1..depth, streaming the recursion.

    H_s = c**s G_{direction,s} is the int-coefficient numerator that
    `iter_deriv_matrices` computes, for (c, M) = ladder_matrix(module,
    direction).  Every Gauss or sup norm exponent of G_s is that of H_s
    minus the shift s * v_p(c); a comparison of two norms of the same H_s
    needs no shift.

    Without rho the walk is exact.  With one it runs through a chain of
    precisions, each handed to `iter_deriv_matrices` as the pair (module,
    precision), coarsest first:

    1. at the unit radius, mod p**k0, k0 = w_1 + 1;
    2. at the unit radius, mod p**kappa[s], the Leibniz-tapered precisions
       of the `_Taper` that the rung's first zero builds;
    3. mod p**K;
    4. exactly.

    `_walk_plan(module, direction, depth, rho)` decides k0 and K, and
    says why each keeps the estimates.

    Each level after the first starts at the first reduced zero of the one
    before: the walk restarts and goes on from that depth.  Mod p**k a
    reduced zero is H_s = 0 mod p**k, which does not prove H_s = 0; at the
    taper it is an H_s whose coefficients all reach the error floor, so
    that a zero there falls back to p**K, not to the exact walk.  Only an
    exact zero ends the walk, right after it: every later H_s vanishes
    too, since G_{s+1} = d(G_s) + N G_s.  The rung is walked when k0 is
    set and the taper when k0 and K both are.  A walk that never leaves
    the rung builds no taper.  A depth that is not an int in
    1..DEFAULT_DEPTH_CAP is refused before the plan.

    Every level yields the estimates that the exact walk gives, and an
    exact zero at depth s is a reduced zero there at every level, so
    `vanished_at` stays.  Mod p**K that is `_walk_plan`'s argument.
    At the unit radius every term weighs 0, so the norm exponent w_s of
    H_s is its least coefficient valuation, and a yield that is not a
    reduced zero differs from the exact H_s by an error of valuation above
    w_s.  Mod p**k the error is a multiple of p**k, and a nonzero H_s mod
    p**k has a coefficient below k; at the taper the error reaches the
    floor, and the yield has a coefficient below it.  So the yield has the
    exact w_s, attained on the same entries, with the same residues mod
    p**(w_s + 1): the estimates and the `unit_step` records are the exact
    walk's.  On the rung, where w_s >= w_1 = k0 - 1, that pins w_s = w_1,
    the reads the taper starts from.  At other radii a kept residue does
    not bound the norm of a dropped term, which may weigh less, so they
    have no rung and no taper.
    """
    check_count("depth", depth, 1)
    step, k0, K = _walk_plan(module, direction, depth, rho)
    # coarsest first, exact last
    precisions: list[int | list[int] | None] = [k for k in (k0, K) if k is not None] + [None]
    schedule: Optional[_Taper] = None

    level = 0
    ladder = iter_deriv_matrices((module, precisions[0]), direction)
    next(ladder)  # H_0 is the identity
    for s in range(1, depth + 1):
        H = next(ladder)
        while precisions[level] is not None and (
            schedule.reduced_zero(s, H) if schedule is not None and level == 1 else H.is_zero
        ):
            if level == 0 and k0 is not None and K is not None:
                schedule = _Taper(module.prime, step, depth, K, [k0 - 1] * (s - 1))
                precisions.insert(1, schedule.kappa)
            level += 1
            ladder = iter_deriv_matrices((module, precisions[level]), direction)
            H = next(islice(ladder, s, None))
        yield s, H, s * step
        if H.is_zero:
            return


# One depth of a unit-radius record: the norm exponent `full` of H_s and
# the leading parts of the entries attaining it, in row-major order.
UnitStep = Tuple[Optional[int], Tuple[LaurentPoly, ...]]


def unit_step(H: PolyMatrix) -> UnitStep:
    """`full`, the unit-radius norm exponent of a ladder matrix H (int
    coefficients), with the leading part of each entry attaining it: the
    terms a_J t^J with v_p(a_J) = full.

    At the unit radius every term weighs 0, so full is the least v_p(a_J),
    that of the gcd of all the coefficients, and None when H = 0.  An
    entry attains it when p**(full + 1) does not divide its own gcd.  Only
    coefficients are read: a leading part keeps the keys of its entry as
    they are, packed for a ladder matrix.  For a yield of `deriv_ladder`
    the result is the exact walk's as far as it is read, the residues mod
    p**(full + 1): `deriv_ladder` says why.
    """
    full = _unit_norm(H)
    if full is None:
        return None, ()
    p = H.prime
    q = p ** (full + 1)
    return full, tuple(
        LaurentPoly._new(
            p, H.nvars_annulus, H.nvars_disc, {k: a for k, a in e._store.items() if a % q}, e._bits
        )
        for row in H.rows for e in row if gcd(*e._store.values()) % q
    )


def _window_start(depth: int, window: Fraction) -> int:
    return max(1, math.ceil((1 - window) * depth))


def _direction_radius(
    module: ConnectionModule,
    direction: int,
    rho: Tuple[Fraction, ...],
    depth: int,
    window: Fraction,
    record: Optional[list[UnitStep]] = None,
) -> DirectionRadius:
    """Clipped window estimates from one walk of the ladder at rho.

    With a `record` list (rho the unit radius), the `unit_step` of every
    H_s is appended to it, and its full serves as a window depth's norm."""
    start = _window_start(depth, window)
    base = spectral_base_exponent(module.prime)
    r_i = rho[direction]
    estimates: list[Fraction] = []
    for s, H, shift in deriv_ladder(module, direction, depth, rho):
        if record is not None:
            record.append(unit_step(H))
        if H.is_zero:
            # exactly radius 1: the window is the vanishing depth alone
            return DirectionRadius(direction, s, (Fraction(0),), s)
        if s >= start:
            w = H.gauss_lognorm(rho) if record is None else Fraction(record[-1][0])
            assert w is not None
            est = base - r_i - (w - shift) / s
            estimates.append(est if est > 0 else Fraction(0))
    return DirectionRadius(direction, start, tuple(estimates), None)


# The least depth `intrinsic_radius` accepts.
LEAST_DEPTH = 8


def intrinsic_radius(
    module: ConnectionModule,
    rho: Sequence[Fraction],
    depth: int,
    window: Fraction = DEFAULT_WINDOW,
    *,
    _records: Optional[list[list[UnitStep]]] = None,
) -> RadiusReport:
    """Windowed intrinsic-radius estimates in every direction at radii rho,
    one exponent per variable through `check_radius`, annulus radii first,
    kept by the report as a tuple of Fractions; window is `exact`, in (0, 1].

    Internal: given an empty list `_records` at the unit radius, each
    direction's walk also fills one list there with its `unit_step`s."""
    check_count("depth", depth, LEAST_DEPTH)
    window = exact(window, "window")
    if not 0 < window <= 1:
        raise ValueError("window must lie in (0, 1]")
    rho = check_radii(rho, module.dims)
    require_integrable(module)
    if _records is not None:
        assert not _records and not any(rho)
        _records.extend([] for _ in range(module.dims))
    directions = tuple(
        _direction_radius(module, i, rho, depth, window, None if _records is None else _records[i])
        for i in range(module.dims)
    )
    return RadiusReport(rho=rho, depth=depth, window=window, directions=directions)


class Verdict(str, Enum):
    OVERCONVERGENT_EVIDENCE = "OVERCONVERGENT_EVIDENCE"
    NOT_OVERCONVERGENT_EVIDENCE = "NOT_OVERCONVERGENT_EVIDENCE"
    INCONCLUSIVE = "INCONCLUSIVE"


@frozen_record
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
    *,
    _records: Optional[list[list[UnitStep]]] = None,
) -> OcVerdict:
    """Evidence for or against IR = 1 at the unit polyradius.

    A direction counts as positive when its window estimates sit within
    tol of 1 (exponent <= tol) or are exactly 1; it counts as a negative
    witness when every window estimate stays at least tol away from 1 and
    the window spread does not exceed tol.  Anything else is inconclusive.
    tol is `exact` and > 0; `_records` is passed to `intrinsic_radius`.
    """
    tol = exact(tol, "tol")
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = intrinsic_radius(
        module, (Fraction(0),) * module.dims, depth, window, _records=_records
    )
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


@frozen_record
class TaylorReport:
    """Decay diagnostics of normalized Taylor terms over the subannulus."""

    outcome: ProbeOutcome
    witness: Optional[Tuple[int, ...]]
    eta: Fraction
    lam: Fraction
    level_minima: Tuple[Optional[Fraction], ...]  # levels 0, 1, ..., bound

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "eta_exponent": str(self.eta),
            "lambda_exponent": str(self.lam),
            "bound": len(self.level_minima) - 1,
            "levels": [
                {"total": k, "min_exponent": "inf" if e is None else str(e)}
                for k, e in enumerate(self.level_minima)
            ],
        }


_Exponent = TypeVar("_Exponent", int, Fraction)


def _fold_levels(
    per_direction: Sequence[Sequence[Optional[_Exponent]]], j_bound: int
) -> Tuple[list[Optional[_Exponent]], list[Optional[Tuple[int, ...]]]]:
    """Level minima min_{|j| = k} sum_l e_l(j_l) for k <= j_bound, with argmins.

    A (min,+) fold of the per-direction sequences, from the last direction
    back: suffix[k] is the least sum over j_l + ... + j_{d-1} = k, carried
    with its lexicographically first minimiser.  Heads are scanned in
    ascending order and replace the best only on a strict improvement, so
    the smallest head wins a tie, followed by the first minimiser of the
    rest.  None (an exact zero) is +infinity: it absorbs sums and loses
    every min.  Only sums and comparisons are taken, so scaling every
    value by one positive factor scales the minima by it and keeps the
    argmins.
    """
    suffix: list[Tuple[Optional[_Exponent], Optional[Tuple[int, ...]]]] = [
        (e, None if e is None else (k,)) for k, e in enumerate(per_direction[-1][: j_bound + 1])
    ]
    for seq in reversed(per_direction[:-1]):
        folded = []
        for k in range(j_bound + 1):
            best: Optional[_Exponent] = None
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
    eta: Fraction,
    lam: Fraction,
    j_bound: int,
) -> TaylorReport:
    """Probe the decay of ||(1/j!) * D^j e_a|| * eta^|j| for |j| <= j_bound.

    eta and lam are radii by their exponents, each through `check_radius`,
    and the exponent of eta is > 0; the report keeps them as Fractions.
    A multi-index j is scored by the product of its single-direction terms,
    e_1(j_1) + ... + e_d(j_d) on the log scale, with norms taken as sup
    norms over the subannulus with inner radius lam.  The product is a
    heuristic: only the axis terms are exact, and Leibniz cross-terms make
    it neither the exact mixed norm nor an upper bound on it (ROADMAP,
    "Sound Taylor verdicts").  Each level score is the least product over
    |j| = k, found by `_fold_levels` over integers: every e_l(s) is
    scaled by the common denominator L of them all, and each level minimum
    is divided by L once.  Scaling by L > 0 keeps every comparison, so the
    minima, the argmin tie-breaks and the witness are those of the fold
    over Fractions.  The probe passes when every level minimum beyond
    j_bound/2 stays strictly below 1 (positive exponent) with no net loss
    across the tail; it fails with a witness index when some tail value
    exceeds 1 and the tail trends downward; anything else is inconclusive.
    """
    check_count("bound", j_bound, 8)
    eta = check_radius(eta, "eta")
    if eta <= 0:
        raise ValueError("eta must satisfy 0 < eta < 1 (positive exponent)")
    lam = check_radius(lam, "lam")
    require_integrable(module)
    p = module.prime
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
            exps.append(w - shift - factorial_valuation(s, p) + s * eta)
        exps.extend(None for _ in range(len(exps), j_bound + 1))
        per_direction.append(exps)

    L = lcm(*[e.denominator for exps in per_direction for e in exps if e is not None])
    scaled = [
        [None if e is None else e.numerator * (L // e.denominator) for e in exps]
        for exps in per_direction
    ]
    scaled_minima, argmins = _fold_levels(scaled, j_bound)
    minima = [None if e is None else Fraction(e, L) for e in scaled_minima]

    tail = [(k, e) for k, e in enumerate(minima) if k > j_bound // 2]
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
        level_minima=tuple(minima),
    )
