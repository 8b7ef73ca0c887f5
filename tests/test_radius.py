import math
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius import radius
from nabla_radius.connection import DepthCapError, NotIntegrableError, iter_deriv_matrices
from nabla_radius.corpus import (
    constant_annulus_module,
    corpus_by_label,
    exponential_module,
    exponential_two_var_module,
    falling_factorial_valuation,
    power_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.connection import ConnectionModule, PolyMatrix
from nabla_radius.padic import LogRadius, int_valuation
from nabla_radius.radius import (
    ProbeOutcome,
    _clip_precision,
    _fold_levels,
    Verdict,
    deriv_ladder,
    factorial_valuation,
    intrinsic_radius,
    oc_ir_test,
    spectral_base_exponent,
    taylor_probe,
)

R1 = (LogRadius.one(),)


def test_spectral_base_exponent():
    assert spectral_base_exponent(2) == Fraction(1)
    assert spectral_base_exponent(3) == Fraction(1, 2)
    assert spectral_base_exponent(5) == Fraction(1, 4)


@given(s=st.integers(0, 300), p=st.sampled_from([2, 3, 5, 7]))
def test_factorial_valuation_against_factorial(s, p):
    expected = 0 if s < 2 else int_valuation(math.factorial(s), p)
    assert factorial_valuation(s, p) == expected


def counting_ladder(monkeypatch):
    """Record every matrix the walk pulls from the recursion."""
    pulled = []
    original = radius.iter_deriv_matrices

    def counting(module, direction):
        for G in original(module, direction):
            pulled.append(G)
            yield G

    monkeypatch.setattr(radius, "iter_deriv_matrices", counting)
    return pulled


def exact_walk(fn, *args):
    """fn(*args) with every ladder walked in exact arithmetic."""
    original = radius.iter_deriv_matrices

    def exact(module, direction):
        return original(replace(module, _ladder_precision=None), direction)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius, "iter_deriv_matrices", exact)
        return fn(*args)


def recording_walks(monkeypatch):
    """Record the precision of every module the ladder is walked on."""
    precisions = []
    original = radius.iter_deriv_matrices

    def recording(module, direction):
        precisions.append(module._ladder_precision)
        return original(module, direction)

    monkeypatch.setattr(radius, "iter_deriv_matrices", recording)
    return precisions


class TestDerivLadder:
    def test_stops_right_after_first_vanishing_matrix(self, monkeypatch):
        # t^3-twist at p = 5: G_s = 3(3-1)...(3-s+1) / t^s vanishes from s = 4.
        pulled = counting_ladder(monkeypatch)
        module = corpus_by_label()["power-int3-p5"].descriptor.module
        walk = list(deriv_ladder(module, 0, 16))
        assert [s for s, _, _ in walk] == [1, 2, 3, 4]
        assert walk[-1][1].is_zero and not walk[-2][1].is_zero
        assert len(pulled) == 5  # G_0 .. G_4, nothing past the first zero

    def test_bounded_by_depth(self, monkeypatch):
        pulled = counting_ladder(monkeypatch)
        walk = list(deriv_ladder(exponential_module(3), 0, 7))
        assert [s for s, _, _ in walk] == list(range(1, 8))
        assert len(pulled) == 8  # G_0 .. G_7, G_8 is never computed

    def test_goes_on_exactly_after_a_zero_mod_p_k(self, monkeypatch):
        # N = 81 + 3**20 t, walked at K = ceil(12 * 1/2) + 1 = 7: H_1 is 81
        # mod p**K, and H_2 = 3**20 + 3**8 + 2 * 3**24 t + 3**40 t**2 is zero
        # mod p**K, so from s = 2 on the walk is the exact one.
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix([[LaurentPoly(3, 1, 0, {(0,): 81, (1,): 3**20})]]),))
        exact = [H for _, H, _ in deriv_ladder(module, 0, 12)]
        precisions = recording_walks(monkeypatch)
        walk = [H for _, H, _ in deriv_ladder(module, 0, 12, R1)]
        assert precisions == [7, None]
        assert walk[0] == PolyMatrix([[LaurentPoly(3, 1, 0, {(0,): 81})]]) != exact[0]
        assert walk[1:] == exact[1:]
        assert len(walk) == 12 and not any(H.is_zero for H in walk)


class TestIntrinsicRadius:
    def test_input_validation(self):
        module = exponential_module(3)
        with pytest.raises(ValueError):
            intrinsic_radius(module, R1, depth=7)
        with pytest.raises(DepthCapError):
            intrinsic_radius(module, R1, depth=600)
        with pytest.raises(ValueError):
            intrinsic_radius(module, R1, depth=16, window=Fraction(0))
        with pytest.raises(ValueError):
            intrinsic_radius(module, (LogRadius.one(),) * 2, depth=16)
        with pytest.raises(TypeError):
            intrinsic_radius(module, (LogRadius(None),), depth=16)

    def test_non_integrable_rejected(self):
        p = 3
        t2 = LaurentPoly.variable(p, 2, 0, 1)
        bad = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
        )
        with pytest.raises(NotIntegrableError):
            intrinsic_radius(bad, (LogRadius.one(),) * 2, depth=16)

    def test_trivial_module_exact_radius_one(self):
        report = intrinsic_radius(trivial_module(3, 2, 1, 2), (LogRadius.one(),) * 3, depth=8)
        assert report.ir_estimate == 0
        assert report.exact_flag
        for d in report.directions:
            assert d.exact and d.vanished_at == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exponential_hits_spectral_bound(self, p):
        # N = [1]: every window estimate is exactly 1/(p-1).
        report = intrinsic_radius(exponential_module(p), R1, depth=48, window=Fraction(1))
        d = report.directions[0]
        assert len(d.estimates) == 48
        assert all(e == spectral_base_exponent(p) for e in d.estimates)
        assert d.stability == 0
        assert not d.exact
        assert report.ir_estimate == spectral_base_exponent(p)

    def test_integer_power_vanishes_to_exact_one(self):
        report = intrinsic_radius(power_module(5, Fraction(3)), R1, depth=16)
        d = report.directions[0]
        assert d.exact and d.vanished_at == 4
        assert d.point_estimate == 0
        assert report.exact_flag

    def test_vanishing_after_the_window_opens(self):
        # t^6-twist at p = 7: the window opens at s = 6 and G_7 vanishes, so
        # the exact-one result replaces the estimate G_6 gave.
        report = intrinsic_radius(power_module(7, 6), R1, depth=8)
        d = report.directions[0]
        assert d.window_start == 7
        assert d.estimates == (0,)
        assert d.vanished_at == 7
        assert d.exact and d.point_estimate == 0 and d.stability == 0

    def test_fractional_power_estimates_match_oracle(self):
        # G_s = (1/2)(1/2 - 1)...(1/2 - s + 1) t**-s; window estimates are
        # max(0, 1/2 - w_s/s) with w_s the falling-factorial valuation.
        p, a, depth = 3, Fraction(1, 2), 200
        report = intrinsic_radius(power_module(p, a), R1, depth=depth)
        d = report.directions[0]
        assert d.window_start == 150
        assert falling_factorial_valuation(a, 150, p) == 76
        assert falling_factorial_valuation(a, 200, p) == 98
        for offset, est in enumerate(d.estimates):
            s = d.window_start + offset
            w = falling_factorial_valuation(a, s, p)
            expected = max(Fraction(0), Fraction(1, 2) - Fraction(w, s))
            assert est == expected
        assert d.point_estimate == Fraction(1, 88)
        assert max(d.estimates) < Fraction(1, 50)

    def test_constant_module_closed_form(self):
        # N = [c]: estimate exponent is max(0, 1/(p-1) - r - v(c)), constant in s.
        cases = [
            (Fraction(1, 3), Fraction(0), Fraction(3, 2)),
            (Fraction(1, 3), Fraction(1, 8), Fraction(11, 8)),
            (Fraction(3), Fraction(0), Fraction(0)),
            (Fraction(2), Fraction(1, 4), Fraction(1, 4)),
        ]
        for c, r, expected in cases:
            rho = (LogRadius(r),)
            report = intrinsic_radius(constant_annulus_module(3, c), rho, depth=12)
            d = report.directions[0]
            assert d.point_estimate == expected
            assert d.stability == 0

    def test_two_var_takes_min_over_directions(self):
        # Direction 0 estimates 1/2; direction 1 vanishes exactly.
        report = intrinsic_radius(exponential_two_var_module(3), (LogRadius.one(),) * 2, depth=16)
        d0, d1 = report.directions
        assert d0.point_estimate == Fraction(1, 2)
        assert d1.exact and d1.vanished_at == 1
        assert report.ir_estimate == Fraction(1, 2)
        assert not report.exact_flag

    def test_window_start_rule(self):
        report = intrinsic_radius(exponential_module(3), R1, depth=16)
        assert report.directions[0].window_start == 12
        assert len(report.directions[0].estimates) == 5

    def test_estimates_agree_with_direct_norms(self):
        # Cross-check the windowed formula against the matrices themselves.
        module = power_module(3, Fraction(1, 2))
        rho = (LogRadius(Fraction(1, 3)),)
        depth = 12
        report = intrinsic_radius(module, rho, depth=depth, window=Fraction(1, 2))
        d = report.directions[0]
        seq = list(islice(iter_deriv_matrices(module, 0), depth + 1))
        for offset, est in enumerate(d.estimates):
            s = d.window_start + offset
            w = seq[s].gauss_lognorm(rho)
            raw = Fraction(1, 2) - Fraction(1, 3) - Fraction(w, s)
            assert est == max(Fraction(0), raw)


class TestReducedWalk:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5]),
        rank=st.integers(1, 2),
        rates=st.lists(
            st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5, 2)]),
            min_size=2, max_size=2,
        ),
        depth=st.integers(8, 60),
    )
    def test_report_equals_exact_walk(self, seed, p, rank, rates, depth):
        module = random_integrable_module(Random(seed), p, rank)
        rho = tuple(LogRadius(r) for r in rates)
        assert intrinsic_radius(module, rho, depth) == exact_walk(intrinsic_radius, module, rho, depth)

    def test_zero_mod_p_k_falls_back_to_exact_walk(self, monkeypatch):
        # N = 3**100: H_s = 3**(100 s) is nonzero but divisible by p**K.
        precisions = recording_walks(monkeypatch)
        module = constant_annulus_module(3, Fraction(3**100))
        report = intrinsic_radius(module, R1, depth=12)
        assert precisions == [7, None]  # K = ceil(12 * 1/2) + 1, then exact
        d = report.directions[0]
        assert not d.exact and d.vanished_at is None
        assert d.estimates == (0,) * 4 and not report.exact_flag

    def test_zero_connection_vanishes_at_one(self, monkeypatch):
        precisions = recording_walks(monkeypatch)
        report = intrinsic_radius(trivial_module(3, 1, 0, 2), R1, depth=8)
        assert precisions == [5, None]
        d = report.directions[0]
        assert d.exact and d.vanished_at == 1 and report.exact_flag

    def test_huge_precision_walks_exactly(self, monkeypatch):
        # N = t**-(10**8) at r = 1: mu = -10**8, so K passes 10**8 and p**K
        # would have more than 10**8 bits.  The walk is exact instead.
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix([[LaurentPoly(3, 1, 0, {(-10**8,): 1})]]),))
        rho = (LogRadius(1),)
        assert _clip_precision(module, 0, rho, 8) is None
        precisions = recording_walks(monkeypatch)
        report = intrinsic_radius(module, rho, 8)
        assert precisions == [None]
        assert report == exact_walk(intrinsic_radius, module, rho, 8)
        assert report.ir_estimate == Fraction(2 * 10**8 - 1, 2)

    def test_nonzero_walk_is_never_repeated(self, monkeypatch):
        precisions = recording_walks(monkeypatch)
        intrinsic_radius(exponential_module(3), R1, depth=16)
        assert precisions == [_clip_precision(exponential_module(3), 0, R1, 16)]

    def test_reduction_never_enlarges_a_coefficient(self):
        # Negative coefficients are common here; a residue in [0, p**K)
        # would turn a small -a into p**K - a.
        module = random_integrable_module(Random(7), 3, 2)
        rho = (LogRadius.one(),) * 2
        for direction in range(2):
            K = _clip_precision(module, direction, rho, 40)
            q = 3**K
            reduced = deriv_ladder(module, direction, 40, rho)
            exact = deriv_ladder(module, direction, 40)
            wide = negative = 0
            for (s, H, _), (_, E, _) in zip(reduced, exact):
                for row, exact_row in zip(H.rows, E.rows):
                    for entry, exact_entry in zip(row, exact_row):
                        for J, a in entry.terms.items():
                            b = exact_entry.terms[J]
                            assert (a - b) % q == 0
                            assert a.bit_length() <= b.bit_length()
                            negative += a < 0
                        wide += any(abs(b) >= q for b in exact_entry.terms.values())
            assert wide and negative


class TestOcVerdict:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exponential_is_negative_evidence(self, p):
        v = oc_ir_test(exponential_module(p), depth=24)
        assert v.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert v.witness_direction == 0
        assert v.report.ir_estimate == spectral_base_exponent(p)

    def test_trivial_is_positive_evidence(self):
        v = oc_ir_test(trivial_module(3, 1, 1, 2), depth=8)
        assert v.verdict is Verdict.OVERCONVERGENT_EVIDENCE
        assert v.witness_direction is None

    def test_vanishing_direction_not_a_witness(self):
        v = oc_ir_test(exponential_two_var_module(3), depth=24)
        assert v.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert v.witness_direction == 0

    def test_fractional_power_inconclusive_then_positive(self):
        module = power_module(3, Fraction(1, 2))
        early = oc_ir_test(module, depth=16)
        assert early.verdict is Verdict.INCONCLUSIVE
        assert early.witness_direction is None
        late = oc_ir_test(module, depth=200)
        assert late.verdict is Verdict.OVERCONVERGENT_EVIDENCE

    def test_near_one_constant_is_positive(self):
        # estimate exponent 0 in every window slot without exact vanishing
        v = oc_ir_test(constant_annulus_module(3, Fraction(3)), depth=12)
        assert v.verdict is Verdict.OVERCONVERGENT_EVIDENCE
        assert not v.report.exact_flag

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            oc_ir_test(exponential_module(3), depth=16, tol=Fraction(0))

    @pytest.mark.parametrize("label", ["trivial-rk2-mixed", "power-int3-p5"])
    def test_exact_directions_are_positive_under_any_tol(self, label):
        module = corpus_by_label()[label].descriptor.module
        v = oc_ir_test(module, depth=16, tol=Fraction(1, 10**9))
        assert all(d.exact for d in v.report.directions)
        assert v.verdict is Verdict.OVERCONVERGENT_EVIDENCE

    def test_unit_constant_stays_negative_under_loose_tol(self):
        # c = 2 is a unit, so the estimate exponent is exactly 1/2 at rho = 1;
        # any tol below 1/2 yields a stable negative witness.
        module = constant_annulus_module(3, Fraction(2))
        v = oc_ir_test(module, depth=12, tol=Fraction(1, 4))
        assert v.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert v.report.directions[0].point_estimate == Fraction(1, 2)


class TestTaylorProbe:
    def test_input_validation(self):
        module = exponential_module(3)
        eta = LogRadius(Fraction(1, 4))
        with pytest.raises(ValueError):
            taylor_probe(module, eta, LogRadius.one(), 7)
        with pytest.raises(DepthCapError):
            taylor_probe(module, eta, LogRadius.one(), 600)
        with pytest.raises(ValueError):
            taylor_probe(module, LogRadius.one(), LogRadius.one(), 12)  # eta = 1
        with pytest.raises(TypeError):
            taylor_probe(module, LogRadius(None), LogRadius.one(), 12)
        with pytest.raises(TypeError):
            taylor_probe(module, eta, LogRadius(None), 12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exponential_fail_and_pass_thresholds(self, p):
        module = exponential_module(p)
        lam = LogRadius.one()
        inside = LogRadius(Fraction(1, 2 * (p - 1)))
        outside = LogRadius(Fraction(2, p - 1))
        fail = taylor_probe(module, inside, lam, 16)
        assert fail.outcome is ProbeOutcome.FAIL
        assert fail.witness is not None
        ok = taylor_probe(module, outside, lam, 16)
        assert ok.outcome is ProbeOutcome.PASS
        assert ok.witness is None

    def test_exponential_level_values_match_hand_formula(self):
        # G_s = [1], so e(s) = s*h - v_p(s!) with h the eta exponent.
        p, h, J = 3, Fraction(1, 4), 16
        report = taylor_probe(exponential_module(p), LogRadius(h), LogRadius.one(), J)
        for k, e in report.level_minima:
            expected = k * h - int_valuation(math.factorial(k), p) if k >= 2 else k * h
            assert e == expected

    def test_exponential_borderline_inconclusive(self):
        # At eta exponent exactly 1/(p-1) the tail oscillates: level minima
        # stay positive but drift down across the window.
        report = taylor_probe(
            exponential_module(3), LogRadius(Fraction(1, 2)), LogRadius.one(), 12
        )
        assert report.outcome is ProbeOutcome.INCONCLUSIVE
        frozen = [(7, Fraction(3, 2)), (8, Fraction(2)), (9, Fraction(1, 2)),
                  (10, Fraction(1)), (11, Fraction(3, 2)), (12, Fraction(1))]
        assert list(report.level_minima[7:]) == frozen

    def test_trivial_module_passes_vacuously(self):
        report = taylor_probe(
            trivial_module(3, 1, 0, 2), LogRadius(Fraction(1, 3)), LogRadius.one(), 10
        )
        assert report.outcome is ProbeOutcome.PASS
        assert all(e is None for k, e in report.level_minima if k >= 1)

    def test_fractional_power_passes_inside(self):
        # Hand recursion oracle for the scalar case, independent of the
        # matrix machinery: G_s = a(a-1)...(a-s+1) t**-s.
        p, a, J = 3, Fraction(1, 2), 24
        h, L = Fraction(1, 4), Fraction(1, 8)
        report = taylor_probe(power_module(p, a), LogRadius(h), LogRadius(L), J)
        coeff = Fraction(1)
        for s in range(J + 1):
            if s:
                coeff *= a - (s - 1)
            v = int_valuation(coeff.numerator, p) - int_valuation(coeff.denominator, p)
            # sup over vertices r in {L, 0} of v + (-s)*r
            w = min(v, v - s * L)
            expected = w - factorial_valuation(s, p) + s * h
            assert report.level_minima[s][1] == expected
        assert report.outcome is ProbeOutcome.PASS

    def test_two_var_levels_use_min_composition(self):
        # Direction 1 vanishes, so only j = (k, 0) contributes.
        module = exponential_two_var_module(3)
        h = Fraction(1)
        report = taylor_probe(module, LogRadius(h), LogRadius.one(), 10)
        for k, e in report.level_minima:
            expected = k * h - factorial_valuation(k, 3)
            assert e == expected
        assert report.outcome is ProbeOutcome.PASS


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerated_levels(per_direction, j_bound):
    """Reference: every multi-index of every level, in order; None entries
    are exact zeros and drop the index, and the first strict minimum wins."""
    minima, argmins = [], []
    for k in range(j_bound + 1):
        best = best_j = None
        for j in compositions(k, len(per_direction)):
            values = [per_direction[l][jl] for l, jl in enumerate(j)]
            if any(e is None for e in values):
                continue
            total = sum(values, Fraction(0))
            if best is None or total < best:
                best, best_j = total, j
        minima.append(best)
        argmins.append(best_j)
    return minima, argmins


# small numerators over denominators 1..3 make equal sums across indices common
tie_prone_value = st.one_of(
    st.none(),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)


@st.composite
def direction_sequences(draw):
    j_bound = draw(st.integers(0, 10))
    dims = draw(st.integers(1, 4))
    seq = st.lists(tie_prone_value, min_size=j_bound + 1, max_size=j_bound + 1)
    return [draw(seq) for _ in range(dims)], j_bound


class TestFoldLevels:
    @settings(max_examples=300, deadline=None)
    @given(direction_sequences())
    def test_fold_equals_enumeration(self, case):
        per_direction, j_bound = case
        assert _fold_levels(per_direction, j_bound) == enumerated_levels(per_direction, j_bound)

    def test_ties_keep_the_lexicographically_first_index(self):
        flat = [[Fraction(0)] * 3 for _ in range(3)]
        minima, argmins = _fold_levels(flat, 2)
        assert minima == [0, 0, 0]
        assert argmins == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]

    def test_exact_zeros_drop_indices(self):
        minima, argmins = _fold_levels([[Fraction(1), None], [None, Fraction(2)]], 1)
        assert minima == [None, 3]
        assert argmins == [None, (0, 1)]

    def test_wide_and_deep_without_enumeration(self):
        # 6 directions at J = 200: C(206, 6) ~ 1e11 multi-indices to enumerate.
        # Direction l has slope 1/(l + 1), the last one vanishes past s = 0, so
        # level k is cheapest all on direction 4: k/5 at (0, 0, 0, 0, k, 0).
        J = 200
        per_direction = [[Fraction(s, l + 1) for s in range(J + 1)] for l in range(5)]
        per_direction.append([Fraction(0)] + [None] * J)
        minima, argmins = _fold_levels(per_direction, J)
        assert minima == [Fraction(k, 5) for k in range(J + 1)]
        assert argmins == [(0, 0, 0, 0, k, 0) for k in range(J + 1)]
