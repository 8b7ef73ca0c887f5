#!/usr/bin/env python3
"""Trace how the windowed radius estimates drift with depth for t^a.

For the rank-one module of t^a (connection a/t, annulus variable t), the
derivative numerators are falling factorials a(a-1)...(a-s+1), and for
non-integer a their valuations w_s make the per-depth estimate exponent
max(0, 1/(p-1) - w_s/s) sink toward 0 without ever reaching it.  This
script prints sampled depths s together with w_s, the estimate exponent,
and the windowed point estimate at that depth.

The point estimate at a depth d is what `intrinsic_radius` reports at
depth max(d, 8), its least depth.  All of them come from one walk of the
recursion to the deepest depth a row reads: with window 1 that walk keeps
the estimate at every depth, each one exact, and the point estimate at d
is the largest of them over the default trailing window ending at d.
"""

import argparse
import sys
from fractions import Fraction

from nabla_radius.cli import one_line
from nabla_radius.connection import DEFAULT_DEPTH_CAP, DEFAULT_WINDOW
from nabla_radius.corpus import falling_factorial_valuation, power_module
from nabla_radius.padic import PrimeError, check_prime, parse_fraction
from nabla_radius.radius import (
    LEAST_DEPTH,
    DirectionRadius,
    _window_start,
    intrinsic_radius,
    spectral_base_exponent,
)


def point_estimate(walk: DirectionRadius, depth: int) -> Fraction:
    """The windowed point estimate at `depth` from a window-1 walk at least as deep."""
    if walk.exact:
        # only an integer a below LEAST_DEPTH vanishes within a walk, at
        # depth a + 1 <= LEAST_DEPTH: every depth read is at or past it
        return Fraction(0)
    return max(walk.estimates[_window_start(depth, DEFAULT_WINDOW) - 1:depth])


def fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class Parser(argparse.ArgumentParser):
    """argparse's parser, whose error line is bounded as the package's own are."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(2, one_line(message, f"{self.prog}: error: ") + "\n")


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--prime", type=int, default=3)
    parser.add_argument("--a", type=fraction_arg, default=Fraction(1, 2),
                        help="exponent of t^a as a fraction, e.g. 1/2")
    parser.add_argument("--depth", type=int, default=200)
    parser.add_argument("--step", type=int, default=25,
                        help="sampling stride through the depths")
    args = parser.parse_args()
    try:
        check_prime(args.prime)
    except PrimeError as exc:
        parser.error(f"--prime: {exc}")
    if args.step == 0:
        parser.error("--step must not be 0")
    if not 0 < args.step <= args.depth:
        parser.error("--step must be positive and at most --depth")

    # every row is read before anything is printed, so that a row past the
    # depth cap is refused with no partial table
    rows = []
    vanished_at = None
    for s in range(args.step, args.depth + 1, args.step):
        w = falling_factorial_valuation(args.a, s, args.prime)
        if w is None:
            vanished_at = s
            break
        if s > DEFAULT_DEPTH_CAP:
            parser.error(
                f"--depth {args.depth} reads depth {s}, past the cap {DEFAULT_DEPTH_CAP}"
            )
        rows.append((s, w))

    module = power_module(args.prime, args.a)
    base = spectral_base_exponent(args.prime)
    print(f"t^({args.a}) at p={args.prime}: base exponent 1/(p-1) = {base}")
    print(f"{'s':>5} {'w_s':>5} {'w_s/s':>10} {'estimate':>10} {'point@depth':>12}")
    if rows:
        deepest = max(rows[-1][0], LEAST_DEPTH)
        walk = intrinsic_radius(module, (Fraction(0),), deepest, window=1).directions[0]
    for s, w in rows:
        depth = max(s, LEAST_DEPTH)
        est = max(Fraction(0), base - Fraction(w, s))
        point = point_estimate(walk, depth)
        print(f"{s:>5} {w:>5} {str(Fraction(w, s)):>10} {str(est):>10} {str(point):>12}")
    if vanished_at is not None:
        print(f"{vanished_at:>5} {'inf':>5}   derivative vanished; radius exactly 1")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
