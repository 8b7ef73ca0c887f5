#!/usr/bin/env python3
"""Trace how the windowed radius estimates drift with depth for t^a.

For the rank-one module of t^a (connection a/t, annulus variable t), the
derivative numerators are falling factorials a(a-1)...(a-s+1), and for
non-integer a their valuations w_s make the per-depth estimate exponent
max(0, 1/(p-1) - w_s/s) sink toward 0 without ever reaching it.  This
script prints sampled depths s together with w_s, the estimate exponent,
and the windowed point estimate at that depth.
"""

import argparse
from fractions import Fraction

from nabla_radius.corpus import falling_factorial_valuation, power_module
from nabla_radius.padic import LogRadius
from nabla_radius.radius import intrinsic_radius, spectral_base_exponent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=3)
    parser.add_argument("--a", type=Fraction, default=Fraction(1, 2),
                        help="exponent of t^a as a fraction, e.g. 1/2")
    parser.add_argument("--depth", type=int, default=200)
    parser.add_argument("--step", type=int, default=25,
                        help="sampling stride through the depths")
    args = parser.parse_args()

    module = power_module(args.prime, args.a)
    base = spectral_base_exponent(args.prime)
    print(f"t^({args.a}) at p={args.prime}: base exponent 1/(p-1) = {base}")
    print(f"{'s':>5} {'w_s':>5} {'w_s/s':>10} {'estimate':>10} {'point@depth':>12}")
    for s in range(args.step, args.depth + 1, args.step):
        w = falling_factorial_valuation(args.a, s, args.prime)
        if w is None:
            print(f"{s:>5} {'inf':>5}   derivative vanished; radius exactly 1")
            break
        est = max(Fraction(0), base - Fraction(w, s))
        report = intrinsic_radius(module, (LogRadius.one(),), depth=max(s, 8))
        point = report.directions[0].point_estimate
        print(f"{s:>5} {w:>5} {str(Fraction(w, s)):>10} {str(est):>10} {str(point):>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
