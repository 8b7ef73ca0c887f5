"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `criterion N (...): PASS` line on success; a
failure shows up as an ordinary pytest failure for that criterion.  All
randomness is seeded, so the suite is deterministic.
"""

import random
import time
from fractions import Fraction
from itertools import islice

from nabla_radius.connection import (
    PolyMatrix,
    integrability_check,
    iter_deriv_matrices,
    ladder_denominator,
)
from nabla_radius.corpus import (
    build_corpus,
    constant_annulus_module,
    exponential_module,
    exponential_two_var_module,
    falling_factorial_valuation,
    power_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius.curves import (
    curve_witness_search,
    generic_equality_check,
    sample_unit_point,
    specialize,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.newton import (
    AlignedInterval,
    dominant_term,
    shrink_interval,
    sup_norm_on_interval,
    unit_certificate_check,
)
from nabla_radius.padic import LogRadius, fraction_valuation
from nabla_radius.radius import (
    ProbeOutcome,
    Verdict,
    intrinsic_radius,
    oc_ir_test,
    spectral_base_exponent,
    taylor_probe,
)

R1 = (LogRadius.one(),)


def g_ladder(module, direction, depth):
    """G_0 .. G_depth: the ladder's numerators H_s divided by c**s."""
    c = ladder_denominator(module, direction)
    return [
        PolyMatrix(tuple(tuple(e.scalar_mul(Fraction(1, c ** s)) for e in row) for row in H.rows))
        for s, H in enumerate(islice(iter_deriv_matrices(module, direction), depth + 1))
    ]


def _random_fraction(rng, lo=-60, hi=60, max_den=48):
    num = rng.randint(lo, hi)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def _random_poly(rng, prime, n, m, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(rng.randint(-4, 4) for _ in range(n)) + tuple(
            rng.randint(0, 4) for _ in range(m)
        )
        coeff = _random_fraction(rng)
        if coeff:
            terms[key] = coeff
    return LaurentPoly(prime, n, m, terms)


def _random_radii(rng, n, m):
    return tuple(LogRadius(abs(_random_fraction(rng, 0, 12, 6))) for _ in range(n + m))


def test_criterion_1_trivial_modules_are_exactly_one():
    started = time.monotonic()
    shapes = [(n, m) for n in range(4) for m in range(4) if 1 <= n + m <= 3]
    for n, m in shapes:
        for rank in (1, 2, 3):
            report = intrinsic_radius(
                trivial_module(3, n, m, rank), (LogRadius.one(),) * (n + m), depth=8
            )
            assert report.exact_flag, (n, m, rank)
            assert report.ir_estimate == 0, (n, m, rank)
            assert all(d.vanished_at == 1 for d in report.directions)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"criterion 1 (trivial modules exactly 1, {len(shapes) * 3} shapes, "
          f"{elapsed:.2f}s): PASS")


def test_criterion_2_exponential_module_radius_and_probes():
    for p in (2, 3, 5):
        started = time.monotonic()
        module = exponential_module(p)
        base = spectral_base_exponent(p)
        report = intrinsic_radius(module, R1, depth=200, window=Fraction(1))
        d = report.directions[0]
        assert len(d.estimates) == 200
        assert all(e == base for e in d.estimates), p
        assert d.stability == 0 and not d.exact

        verdict = oc_ir_test(module, depth=200, window=Fraction(1))
        assert verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE, p
        assert verdict.witness_direction == 0

        inside = taylor_probe(module, LogRadius(Fraction(1, 2 * (p - 1))), LogRadius.one(), 24)
        assert inside.outcome is ProbeOutcome.FAIL, p
        outside = taylor_probe(module, LogRadius(Fraction(2, p - 1)), LogRadius.one(), 24)
        assert outside.outcome is ProbeOutcome.PASS, p
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"p={p} took {elapsed:.2f}s"
    print("criterion 2 (exponential modules: estimates constantly 1/(p-1), "
          "verdict negative, probe flips across the radius; p in {2,3,5}): PASS")


def test_criterion_3_power_modules_exact_and_drifting():
    # Integer exponent: the recursion terminates and the radius is exactly 1.
    seq = list(islice(iter_deriv_matrices(power_module(5, 3), 0), 7))
    assert seq[4].is_zero and not seq[3].is_zero
    report = intrinsic_radius(power_module(5, 3), R1, depth=16)
    assert report.exact_flag and report.directions[0].vanished_at == 4

    # Fractional exponent at p = 3: window estimates match the
    # falling-factorial oracle and sit within 1/50 of 1 by depth 200.
    a, p = Fraction(1, 2), 3
    report = intrinsic_radius(power_module(p, a), R1, depth=200)
    d = report.directions[0]
    for offset, est in enumerate(d.estimates):
        s = d.window_start + offset
        w = falling_factorial_valuation(a, s, p)
        assert est == max(Fraction(0), Fraction(1, 2) - Fraction(w, s)), s
    worst = max(d.estimates)
    assert worst < Fraction(1, 50), worst
    print(f"criterion 3 (power modules: integer case exact at depth 4, half case "
          f"within 1/50 of 1 by depth 200, worst {worst}): PASS")


def test_criterion_4_norm_laws_on_random_inputs():
    rng = random.Random(20260817)
    for n, m in [(1, 0), (2, 0), (1, 1), (0, 2)]:
        for _ in range(1000):
            f = _random_poly(rng, 3, n, m, 5)
            g = _random_poly(rng, 3, n, m, 5)
            rho = _random_radii(rng, n, m)
            # exponents: None is the zero norm, a smaller exponent a larger norm
            nf, ng = f.gauss_lognorm(rho), g.gauss_lognorm(rho)
            product = None if nf is None or ng is None else nf + ng
            assert (f * g).gauss_lognorm(rho) == product
            ns = (f + g).gauss_lognorm(rho)
            finite = [w for w in (nf, ng) if w is not None]
            larger = min(finite) if finite else None
            assert ns is None or (larger is not None and ns >= larger)
            if nf != ng:
                assert ns == larger
    # Concavity of the norm exponent in the radius exponent, one variable.
    for _ in range(500):
        f = _random_poly(rng, 3, 1, 0, 6)
        if f.is_zero:
            continue
        r1 = abs(_random_fraction(rng, 0, 12, 6))
        r2 = abs(_random_fraction(rng, 0, 12, 6))
        mid = (r1 + r2) / 2

        def w(r):
            return f.gauss_lognorm((LogRadius(r),))

        assert 2 * w(mid) >= w(r1) + w(r2)
    print("criterion 4 (norm laws: multiplicative + ultrametric with equality "
          "when distinct, 1000 pairs x 4 signatures; concavity on 500 inputs): PASS")


def test_criterion_5_dominance_certificates_verify():
    rng = random.Random(42)
    produced = 0
    for _ in range(500):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            coeff = _random_fraction(rng)
            if coeff:
                terms[(rng.randint(-6, 6),)] = coeff
        if not terms:
            terms[(0,)] = Fraction(1)
        prime = rng.choice([2, 3, 5])
        a = LaurentPoly(prime, 1, 0, terms)
        exps = sorted(
            (abs(_random_fraction(rng, 1, 16, 8)) + Fraction(1, 16) for _ in range(2)),
            reverse=True,
        )
        if exps[0] == exps[1]:
            exps[0] += Fraction(1, 16)
        interval = AlignedInterval.from_exponents(exps[0], exps[1])

        # dense-grid oracle for the sup norm: the grid includes both
        # endpoints, and concavity pins the minimum exponent there.
        sup = sup_norm_on_interval(a, interval)
        grid_min = min(
            a.gauss_lognorm(
                (LogRadius(
                    interval.r_beta + (interval.r_alpha - interval.r_beta) * Fraction(k, 32)
                ),)
            )
            for k in range(33)
        )
        assert grid_min == sup

        d = dominant_term(a, interval)
        v0 = fraction_valuation(a.coefficient((d.n0,)), prime)
        attained = []
        if d.n0 <= 0:
            attained.append(v0 + d.n0 * interval.r_alpha)
        if d.n0 >= 0:
            attained.append(v0 + d.n0 * interval.r_beta)
        assert sup in attained

        cert = shrink_interval(a, interval)
        check = unit_certificate_check(a, cert, samples=20)
        assert check.ok, (a, cert, check.counterexample)
        produced += 1
    assert produced == 500
    print("criterion 5 (500 random dominance certificates: dense-grid sup oracle "
          "agrees, every certificate passes the 20-radius unit check): PASS")


def test_criterion_6_specialization_naturality_exact():
    rng = random.Random(7)
    for k in range(100):
        rank = rng.choice((1, 2))
        module = random_integrable_module(rng, 3, rank)
        assert integrability_check(module) is None
        point = sample_unit_point(rng, 3, 1)
        for direction in range(2):
            curve = specialize(module, direction, point)
            full = g_ladder(module, direction, 50)
            reduced = g_ladder(curve, 0, 50)
            for s in range(51):
                assert full[s].specialize(direction, point) == reduced[s], (
                    k, direction, s,
                )
    print("criterion 6 (specialization naturality exact to depth 50 on 100 "
          "random integrable two-variable modules): PASS")


def test_criterion_7_curve_witness_reproduces_full_radius():
    module = exponential_two_var_module(3)
    rng = random.Random(123)
    passes = 0
    for _ in range(10):
        point = sample_unit_point(rng, 3, 1)
        if generic_equality_check(module, 0, point, depth=50) is None:
            passes += 1
    assert passes >= 9, passes

    report = curve_witness_search(module, depth=50, trials=10, seed=123)
    assert report.verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
    w = report.witness
    assert w is not None
    assert w.ir_curve == w.ir_full
    assert w.ir_curve == Fraction(1, 2)
    curve = specialize(module, w.direction, w.point)
    assert w.ir_curve == intrinsic_radius(curve, R1, depth=50).ir_estimate
    print(f"criterion 7 (curve witnesses: {passes}/10 generic points agree to "
          f"depth 50; witness curve radius equals the full radius exactly): PASS")


def test_criterion_8_verdicts_and_probes_agree_on_corpus():
    for entry in build_corpus():
        module = entry.descriptor.module
        expected = entry.descriptor.expected
        assert expected is not None
        verdict = oc_ir_test(module, depth=max(entry.taylor_bound, 8))
        if expected["oc"] == "positive":
            assert verdict.verdict is Verdict.OVERCONVERGENT_EVIDENCE, entry.label
        else:
            assert verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE, entry.label
            assert verdict.witness_direction == expected["witness_direction"]
            assert str(verdict.report.ir_estimate) == expected["ir_exponent"]

        probe = taylor_probe(
            module,
            LogRadius(entry.taylor_eta),
            LogRadius(entry.taylor_lambda),
            entry.taylor_bound,
        )
        if expected["oc"] == "positive":
            assert probe.outcome is ProbeOutcome.PASS, entry.label
        else:
            assert probe.outcome is ProbeOutcome.FAIL, entry.label
    print(f"criterion 8 (verdicts and decay probes agree on all "
          f"{len(build_corpus())} corpus entries): PASS")


def test_criterion_9_constant_twist_grid_closed_form():
    grid = [Fraction(k, 8) for k in range(9)]
    units = {2: Fraction(3), 3: Fraction(2), 5: Fraction(2)}
    for p in (2, 3, 5):
        for v in (-1, 0, 1):
            c = units[p] * Fraction(p) ** v
            module = constant_annulus_module(p, c)
            for r in grid:
                report = intrinsic_radius(
                    module, (LogRadius(r),), depth=12
                )
                d = report.directions[0]
                expected = max(Fraction(0), spectral_base_exponent(p) - r - v)
                assert d.point_estimate == expected, (p, v, r)
                assert d.stability == 0, (p, v, r)
    print("criterion 9 (constant-twist closed form max(0, 1/(p-1) - r - v) on "
          "the 9-point radius grid, p in {2,3,5}, v in {-1,0,1}, spread 0): PASS")
