"""Bundled example modules with known closed-form behavior.

These are the calibration points for the whole package: modules whose
iterated matrices, intrinsic radii and verdicts can be written down by
hand.  Each entry carries its expected results so test suites and the
command line can check against them.

* trivial modules (all matrices zero): every direction exactly 1;
* the rank-1 exponential module d(e) = e on a disc: window estimates
  constantly p**(-1/(p-1)) at radius 1;
* power-function modules d(e) = (a/t) e on an annulus: iterated matrices
  are falling factorials a(a-1)...(a-s+1) / t^s, so integer a kills the
  recursion (exactly 1) while a = 1/2 at p = 3 drifts to 1 from below;
* a two-variable exponential-style module used by the curve search.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Tuple

from .connection import ConnectionModule, PolyMatrix
from .descriptor import ModuleDescriptor
from .laurent import LaurentPoly
from .padic import exact, fraction_valuation, frozen_record


def trivial_module(prime: int, n: int, m: int, rank: int) -> ConnectionModule:
    zero = PolyMatrix.zeros(prime, n, m, rank)
    return ConnectionModule(prime, n, m, rank, tuple(zero for _ in range(n + m)))


def exponential_module(prime: int, scale: Fraction | int = 1) -> ConnectionModule:
    """Rank 1 on one disc variable: d(e) = scale * e, scale `exact`."""
    N = PolyMatrix.from_scalar_rows(prime, 0, 1, [[exact(scale, "scale")]])
    return ConnectionModule(prime, 0, 1, 1, (N,))


def power_module(prime: int, a: Fraction | int) -> ConnectionModule:
    """Rank 1 on one annulus variable: d(e) = (a/t) e, a `exact`."""
    entry = LaurentPoly(prime, 1, 0, {(-1,): exact(a, "a")})
    return ConnectionModule(prime, 1, 0, 1, (PolyMatrix(((entry,),)),))


def exponential_two_var_module(prime: int) -> ConnectionModule:
    """Rank 1 on two annulus variables: d_1(e) = e, d_2(e) = 0."""
    N1 = PolyMatrix.from_scalar_rows(prime, 2, 0, [[1]])
    N2 = PolyMatrix.zeros(prime, 2, 0, 1)
    return ConnectionModule(prime, 2, 0, 1, (N1, N2))


def falling_factorial_valuation(a: Fraction, s: int, prime: int) -> Optional[int]:
    """v_p(a (a-1) ... (a-s+1)), None for an exact zero.  This is the
    independent oracle for the power-module recursion; a is `exact`."""
    a = exact(a, "a")
    v = 0
    for k in range(s):
        tv = fraction_valuation(a - k, prime)
        if tv is None:
            return None
        v += tv
    return v


@frozen_record
class CorpusEntry:
    descriptor: ModuleDescriptor
    # compatible Taylor probe parameters (exponents of eta and lambda)
    taylor_eta: Fraction
    taylor_lambda: Fraction
    taylor_bound: int

    @property
    def label(self) -> Optional[str]:
        return self.descriptor.label


def build_corpus() -> Tuple[CorpusEntry, ...]:
    entries: list[CorpusEntry] = []
    entries.append(CorpusEntry(
        ModuleDescriptor(trivial_module(3, 1, 0, 1), "trivial-rk1",
                         {"oc": "positive", "ir_exponent": "0", "exact": True}),
        Fraction(1, 4), Fraction(1, 8), 24,
    ))
    entries.append(CorpusEntry(
        ModuleDescriptor(trivial_module(5, 1, 1, 2), "trivial-rk2-mixed",
                         {"oc": "positive", "ir_exponent": "0", "exact": True}),
        Fraction(1, 4), Fraction(1, 8), 16,
    ))
    for p in (2, 3, 5):
        entries.append(CorpusEntry(
            ModuleDescriptor(exponential_module(p), f"exp-disc-p{p}", {
                "oc": "negative",
                "ir_exponent": str(Fraction(1, p - 1)),
                "witness_direction": 0,
            }),
            # between the known radius and 1: probe must fail
            Fraction(1, 2 * (p - 1)), Fraction(1, 8), 24,
        ))
    entries.append(CorpusEntry(
        ModuleDescriptor(power_module(5, 3), "power-int3-p5",
                         {"oc": "positive", "ir_exponent": "0", "exact": True, "vanishes_at": 4}),
        Fraction(1, 4), Fraction(1, 8), 24,
    ))
    entries.append(CorpusEntry(
        ModuleDescriptor(power_module(3, Fraction(1, 2)), "power-half-p3",
                         {"oc": "positive", "ir_limit_exponent": "0"}),
        Fraction(1, 4), Fraction(1, 8), 200,
    ))
    entries.append(CorpusEntry(
        ModuleDescriptor(exponential_two_var_module(3), "exp-two-var-p3", {
            "oc": "negative",
            "ir_exponent": "1/2",
            "witness_direction": 0,
        }),
        Fraction(1, 4), Fraction(1, 8), 24,
    ))
    return tuple(entries)


def corpus_by_label() -> dict[str, CorpusEntry]:
    return {entry.label: entry for entry in build_corpus()}


def random_integrable_module(rng: random.Random, prime: int, rank: int) -> ConnectionModule:
    """Random integrable module of rank 1-3 in two variables, both in each
    entry: N_i = d_i(phi) * C for a monomial potential phi and a constant
    matrix C (all such pairs commute, so curvature vanishes)."""
    if rank < 1 or rank > 3:
        raise ValueError("generator supports rank 1 to 3")
    while True:
        e1 = rng.randint(-3, 3)
        e2 = rng.randint(-3, 3)
        if e1 != 0 and e2 != 0:
            break
    v = rng.randint(-2, 2)
    num = rng.choice([x for x in range(-5, 6) if x != 0 and x % prime != 0])
    den = rng.choice([x for x in range(1, 6) if x % prime != 0])
    coeff = Fraction(num, den) * Fraction(prime) ** v
    phi = LaurentPoly(prime, 2, 0, {(e1, e2): coeff})
    if rank == 1:
        C = [[Fraction(1)]]
    else:
        while True:
            C = [
                [Fraction(rng.randint(-3, 3)) for _ in range(rank)]
                for _ in range(rank)
            ]
            if any(c != 0 for row in C for c in row):
                break
    matrices = []
    for i in range(2):
        d_phi = phi.partial(i)
        rows = tuple(
            tuple(d_phi.scalar_mul(C[r][c]) for c in range(rank))
            for r in range(rank)
        )
        matrices.append(PolyMatrix(rows))
    return ConnectionModule(prime, 2, 0, rank, tuple(matrices))
