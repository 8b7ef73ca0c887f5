"""Constructive dominant-term certificates on closed aligned intervals.

A one-variable Laurent polynomial a = sum a_n t^n is examined on a closed
interval I = [alpha, beta] of radii inside (0, 1), stored by exponents
r_alpha >= r_beta > 0 (radius p**(-r)).  Each term contributes the line
l_n(r) = v(a_n) + n*r on the log scale; the sup norm of a over I is the
smallest line value at the appropriate endpoint, and there is always a
term index n0 whose line can be made strictly smallest on a closed
subinterval I' of positive length.  Each public function builds the line
table at most once (`_line_data`), and one pass over it (`_dominance`)
gives the sup and the dominant term; `shrink_interval` cuts the window
from the same table.  The certificate records the dominant term (the
degrees attaining the sup, and n0), I' and a strictness margin, so one
table serves a whole run; `unit_certificate_check` needs no table and
re-verifies the certificate through one Gauss norm, that of f, at each of
the two endpoints of I', which decide the whole of I', certifying
a = a_{n0} t^{n0} (1 + f) with |f| < 1 on I', so a is a unit there with
|a| = |a_{n0}| * rho^{n0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Tuple

from .laurent import LaurentPoly, SignatureError
from .padic import LogRadius, fraction_valuation


@dataclass(frozen=True)
class AlignedInterval:
    """Closed radius interval [alpha, beta] inside (0, 1).

    alpha <= beta as radii, hence exponent(alpha) >= exponent(beta) > 0.
    """

    alpha: LogRadius
    beta: LogRadius

    def __post_init__(self) -> None:
        if self.beta.exponent <= 0:
            raise ValueError("outer radius must be < 1 (exponent > 0)")
        if self.alpha.exponent < self.beta.exponent:
            raise ValueError("alpha must not exceed beta as a radius")

    @classmethod
    def from_exponents(cls, r_alpha: Fraction, r_beta: Fraction) -> "AlignedInterval":
        return cls(LogRadius(r_alpha), LogRadius(r_beta))

    @property
    def r_alpha(self) -> Fraction:
        return self.alpha.exponent

    @property
    def r_beta(self) -> Fraction:
        return self.beta.exponent

    def to_json_dict(self) -> dict:
        return {
            "alpha_exponent": str(self.r_alpha),
            "beta_exponent": str(self.r_beta),
        }


def _check_one_variable(a: LaurentPoly) -> None:
    if a.nvars_annulus != 1 or a.nvars_disc != 0:
        raise SignatureError("expected a one-variable Laurent polynomial")


def _line_data(a: LaurentPoly) -> dict[int, Fraction]:
    """Map term degree -> coefficient valuation, for one-variable input."""
    _check_one_variable(a)
    if a.is_zero:
        raise ValueError("the zero polynomial has no dominant term")
    out: dict[int, Fraction] = {}
    for (n,), coeff in a.terms.items():
        v = fraction_valuation(coeff, a.prime)
        assert v is not None
        out[n] = Fraction(v)
    return out


@dataclass(frozen=True)
class DominantTerm:
    A: FrozenSet[int]
    B: FrozenSet[int]
    n0: int


def _dominance(
    lines: dict[int, Fraction], interval: AlignedInterval
) -> Tuple[Fraction, DominantTerm]:
    """One pass over the term lines v(a_n) + n*r: nonpositive degrees peak
    at alpha and nonnegative ones at beta.  Returns the sup exponent over
    the interval and the degrees attaining it at each endpoint, with the
    selected n0: the largest attaining degree <= 0 if any, else the
    smallest >= 0."""
    ra, rb = interval.r_alpha, interval.r_beta
    at_alpha = {n: v + n * ra for n, v in lines.items() if n <= 0}
    at_beta = {n: v + n * rb for n, v in lines.items() if n >= 0}
    sup = min([*at_alpha.values(), *at_beta.values()])
    A = frozenset(n for n, e in at_alpha.items() if e == sup)
    B = frozenset(n for n, e in at_beta.items() if e == sup)
    return sup, DominantTerm(A=A, B=B, n0=max(A) if A else min(B))


def sup_norm_on_interval(a: LaurentPoly, interval: AlignedInterval) -> Fraction:
    """Exponent of the sup of |a| over the interval.  `a` must be nonzero."""
    return _dominance(_line_data(a), interval)[0]


def dominant_term(a: LaurentPoly, interval: AlignedInterval) -> DominantTerm:
    """Degrees attaining the sup at each endpoint, and the selected n0."""
    return _dominance(_line_data(a), interval)[1]


@dataclass(frozen=True)
class DominanceCertificate:
    """Strict dominance of term n0 on the subinterval, with margin.

    dominant is the term selection over the original interval, n0 among
    it; margin is the smallest exponent gap between any other term line
    and the n0 line at the endpoints of the subinterval; None encodes an
    infinite margin (monomials)."""

    dominant: DominantTerm
    interval: AlignedInterval
    sup_norm: Fraction
    margin: Optional[Fraction]

    @property
    def n0(self) -> int:
        return self.dominant.n0

    def to_json_dict(self) -> dict:
        return {
            "n0": self.n0,
            "interval": self.interval.to_json_dict(),
            "sup_exponent": str(self.sup_norm),
            "margin": "inf" if self.margin is None else str(self.margin),
        }


def shrink_interval(a: LaurentPoly, interval: AlignedInterval) -> DominanceCertificate:
    """Certificate that term n0 strictly dominates on a subinterval.

    The strict-dominance constraints of the other term lines carve an
    open window around the favorable endpoint; open sides are cut at the
    midpoint of the feasible exponent range, closed sides are kept.
    """
    lines = _line_data(a)
    sup, dominant = _dominance(lines, interval)
    n0 = dominant.n0
    v0 = lines[n0]
    ra, rb = interval.r_alpha, interval.r_beta

    lo, hi = rb, ra
    lo_open = hi_open = False
    for n, v in lines.items():
        if n == n0:
            continue
        # strictness: (n - n0) * r > v0 - v
        slope = n - n0
        bound = Fraction(v0 - v, slope)
        if slope > 0:
            if bound >= lo:
                lo, lo_open = bound, True
        else:
            if bound <= hi:
                hi, hi_open = bound, True
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        raise ValueError("no dominance window of positive length exists")
    if lo_open and hi_open:
        quarter = (hi - lo) / 4
        new_lo, new_hi = lo + quarter, hi - quarter
    elif hi_open:
        new_lo, new_hi = lo, (lo + hi) / 2
    elif lo_open:
        new_lo, new_hi = (lo + hi) / 2, hi
    else:
        new_lo, new_hi = lo, hi
    sub = AlignedInterval.from_exponents(new_hi, new_lo)

    margin: Optional[Fraction] = None
    for n, v in lines.items():
        if n == n0:
            continue
        for r in (new_lo, new_hi):
            gap = (v + n * r) - (v0 + n0 * r)
            if margin is None or gap < margin:
                margin = gap
    if margin is not None and margin <= 0:
        raise ValueError("internal error: dominance margin is not positive")
    return DominanceCertificate(dominant=dominant, interval=sub, sup_norm=sup, margin=margin)


@dataclass(frozen=True)
class UnitCheck:
    counterexample: Optional[LogRadius]
    sampled: Tuple[LogRadius, ...]

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counterexample": (
                None if self.counterexample is None else str(self.counterexample.exponent)
            ),
            "samples": [str(r.exponent) for r in self.sampled],
        }


def unit_certificate_check(a: LaurentPoly, certificate: DominanceCertificate) -> UnitCheck:
    """Re-verify a dominance certificate through Gauss norms.

    At the certified interval's endpoints, beta and then alpha,
    f = sum_{n != n0} (a_n / a_{n0}) t^{n - n0} must have norm < 1
    (positive exponent); the first endpoint where it does not is returned
    as a counterexample.  The endpoints decide the whole interval: the
    norm exponent min_n (v(a_n / a_{n0}) + (n - n0) r) is a minimum of
    lines in r, hence concave, so |f| < 1 holds on the interval exactly
    when it holds at both ends.  No norm of a itself is needed: since
    a = a_{n0} t^{n0} (1 + f), |f| < 1 gives |1 + f| = 1 and so
    |a| = |a_{n0}| * rho^{n0}.  Only n0 and the interval are read from the
    certificate, and no line table is built.
    """
    _check_one_variable(a)
    n0 = certificate.n0
    if (n0,) not in a.terms:
        raise ValueError(f"certificate names absent term {n0}")
    c0 = a.coefficient((n0,))
    f = LaurentPoly(
        a.prime,
        1,
        0,
        {
            (n - n0,): coeff / c0
            for (n,), coeff in a.terms.items()
            if n != n0
        },
    )
    interval = certificate.interval
    # beta, then alpha; a one-point interval has a single endpoint
    ends = tuple(dict.fromkeys((interval.beta, interval.alpha)))
    for radius in ends:
        f_exp = f.gauss_lognorm((radius,))
        if f_exp is not None and f_exp <= 0:
            return UnitCheck(radius, ends)
    return UnitCheck(None, ends)
