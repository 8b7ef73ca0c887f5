import math
from fractions import Fraction
from itertools import islice
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from nabla_radius import radius
from nabla_radius.connection import (
    DEFAULT_DEPTH_CAP,
    DepthCapError,
    NotIntegrableError,
    iter_deriv_matrices,
    ladder_matrix,
)
from nabla_radius.corpus import (
    corpus_by_label,
    exponential_module,
    exponential_two_var_module,
    falling_factorial_valuation,
    power_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius.curves import curve_witness_search
from nabla_radius.laurent import LaurentPoly
from nabla_radius.connection import ConnectionModule, PolyMatrix
from nabla_radius.padic import POWER_BITS_CAP, LogRadius, int_valuation
from nabla_radius.radius import (
    ProbeOutcome,
    _Taper,
    _fold_levels,
    _walk_plan,
    Verdict,
    deriv_ladder,
    factorial_valuation,
    intrinsic_radius,
    oc_ir_test,
    spectral_base_exponent,
    taylor_probe,
    unit_step,
)

from test_connection import benchmark_anchor_modules, potential_module

R1 = (LogRadius.one(),)


def test_spectral_base_exponent():
    assert spectral_base_exponent(2) == Fraction(1)
    assert spectral_base_exponent(3) == Fraction(1, 2)
    assert spectral_base_exponent(5) == Fraction(1, 4)


@given(s=st.integers(0, 300), p=st.sampled_from([2, 3, 5, 7]))
def test_factorial_valuation_against_factorial(s, p):
    expected = 0 if s < 2 else int_valuation(math.factorial(s), p)
    assert factorial_valuation(s, p) == expected


def test_factorial_valuation_refuses_a_negative_integer():
    with pytest.raises(ValueError, match="^factorial of a negative integer$"):
        factorial_valuation(-1, 3)


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

    def exact(walked, direction):
        return original(walked[0] if isinstance(walked, tuple) else walked, direction)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius, "iter_deriv_matrices", exact)
        return fn(*args)


def recording_walks(monkeypatch):
    """Record the precision of every level the ladder is walked at: an
    int K, None (exact), or the list of a tapered walk's precisions."""
    precisions = []
    original = radius.iter_deriv_matrices

    def recording(walked, direction):
        precisions.append(walked[1] if isinstance(walked, tuple) else None)
        return original(walked, direction)

    monkeypatch.setattr(radius, "iter_deriv_matrices", recording)
    return precisions


TAPERED = "tapered"


def chain(precisions):
    """The levels that `recording_walks` saw, a tapered one as TAPERED."""
    return [TAPERED if isinstance(k, list) else k for k in precisions]


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

    def test_every_level_walks_the_callers_module(self, monkeypatch):
        # A reduced level travels as the pair (module, precision), so the
        # walk builds no module of its own, and a module's fields are its
        # descriptor's alone.
        assert list(ConnectionModule.__annotations__) == [
            "prime", "nvars_annulus", "nvars_disc", "rank", "matrices"
        ]
        walked = []
        original = radius.iter_deriv_matrices

        def recording(first, direction):
            walked.append(first)
            return original(first, direction)

        monkeypatch.setattr(radius, "iter_deriv_matrices", recording)
        anchors = benchmark_anchor_modules()
        oc_module, cut_module = anchors["oc-deep"], anchors["cutcheck-dense"]
        oc_ir_test(oc_module, 150)
        oc_walks = walked[:]
        walked.clear()
        curve_witness_search(cut_module, depth=48, trials=10, seed=0)
        for module, walks in ((oc_module, oc_walks), (cut_module, walked)):
            assert any(isinstance(w, tuple) and w[1] is not None for w in walks)
            assert all((w[0] if isinstance(w, tuple) else w) is module for w in walks)

    @pytest.mark.parametrize("rho", [None, R1])
    def test_depth_is_checked_before_the_first_step(self, monkeypatch, rho):
        pulled = counting_ladder(monkeypatch)
        with pytest.raises(DepthCapError):
            next(deriv_ladder(exponential_module(3), 0, DEFAULT_DEPTH_CAP + 88, rho))
        with pytest.raises(TypeError):
            next(deriv_ladder(exponential_module(3), 0, True, rho))
        with pytest.raises(ValueError):
            next(deriv_ladder(exponential_module(3), 0, 0, rho))
        assert pulled == []

    def test_goes_on_exactly_after_a_zero_mod_p_k(self, monkeypatch):
        # N = 81 + 3**20 t, first walked at k0 = v_3(81) + 1 = 5, then
        # tapered, then at K = ceil(12 * 1/2) + 1 = 7: H_1 is 81 mod p**k0,
        # and H_2 = 3**20 + 3**8 + 2 * 3**24 t + 3**40 t**2 is zero mod
        # p**k0, reaches the taper's floor and is zero mod p**K, so from
        # s = 2 on the walk is the exact one.
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix([[LaurentPoly(3, 1, 0, {(0,): 81, (1,): 3**20})]]),))
        exact = [H for _, H, _ in deriv_ladder(module, 0, 12)]
        precisions = recording_walks(monkeypatch)
        walk = [H for _, H, _ in deriv_ladder(module, 0, 12, R1)]
        assert chain(precisions) == [5, TAPERED, 7, None]
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

    def test_rho_is_kept_as_a_tuple_of_log_radii(self):
        module = exponential_two_var_module(3)
        report = intrinsic_radius(module, [LogRadius.one(), LogRadius.one()], depth=8)
        assert type(report.rho) is tuple and report.rho == (LogRadius.one(),) * 2
        assert hash(report) == hash(intrinsic_radius(module, (LogRadius.one(),) * 2, depth=8))
        with pytest.raises(TypeError, match="^rho entries must be LogRadius, not Fraction$"):
            intrinsic_radius(module, [LogRadius.one(), Fraction(1, 2)], depth=8)
        with pytest.raises(ValueError, match="^got 1 radius values for a module with 2 variables$"):
            intrinsic_radius(module, [LogRadius.one()], depth=8)

    def test_non_integrable_rejected(self):
        p = 3
        t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
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
            module = ConnectionModule(3, 1, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[c]]),))
            report = intrinsic_radius(module, rho, depth=12)
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
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[3**100]]),))
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
        assert _walk_plan(module, 0, 8, rho) == (0, None, None)
        precisions = recording_walks(monkeypatch)
        report = intrinsic_radius(module, rho, 8)
        assert precisions == [None]
        assert report == exact_walk(intrinsic_radius, module, rho, 8)
        assert report.ir_estimate == Fraction(2 * 10**8 - 1, 2)

    def test_nonzero_walk_is_never_repeated(self, monkeypatch):
        # N = [1]: no H_s vanishes mod p, so the rung's walk is the only one
        precisions = recording_walks(monkeypatch)
        intrinsic_radius(exponential_module(3), R1, depth=16)
        assert precisions == [_walk_plan(exponential_module(3), 0, 16, R1)[1]] == [1]

    def test_reduction_never_enlarges_a_coefficient(self):
        # Negative coefficients are common here; a residue in [0, p**k)
        # would turn a small -a into p**k - a.  The module is walked at
        # each fixed precision that the unit-radius walk starts from, the
        # rung's k0 = 2 and K, and compared with the exact walk.
        module = random_integrable_module(Random(7), 3, 2)
        rho = (LogRadius.one(),) * 2
        for direction in range(2):
            exact = list(islice(iter_deriv_matrices(module, direction), 41))
            ks = _walk_plan(module, direction, 40, rho)[1:]
            assert ks[0] == 2 < ks[1]
            for k in ks:
                q = 3**k
                wide = negative = False
                for H, E in zip(islice(iter_deriv_matrices((module, k), direction), 41), exact):
                    for row, exact_row in zip(H.rows, E.rows):
                        for entry, exact_entry in zip(row, exact_row):
                            a_terms, b_terms = entry.terms, exact_entry.terms
                            for J in a_terms.keys() | b_terms.keys():
                                a, b = a_terms.get(J, 0), b_terms.get(J, 0)
                                assert (a - b) % q == 0
                                assert a.bit_length() <= b.bit_length()
                                negative |= a < 0
                            wide |= any(abs(b) >= q for b in b_terms.values())
                assert wide and negative


class TestWalkPlan:
    """`_walk_plan` decides a walk's fixed precisions: the rung's k0 at the
    unit radius only, and K, each within the bits cap."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5]),
        rank=st.integers(1, 3),
        rates=st.one_of(
            st.just((0, 0)),
            st.tuples(*[st.fractions(0, 3, max_denominator=6)] * 2),
        ),
        depth=st.integers(1, DEFAULT_DEPTH_CAP),
    )
    def test_plan_against_the_exact_walk(self, seed, p, rank, rates, depth):
        module = random_integrable_module(Random(seed), p, rank)
        rho = tuple(LogRadius(r) for r in rates)
        bits = p.bit_length()
        for direction in range(module.dims):
            step, k0, K = _walk_plan(module, direction, depth, rho)
            assert step == int_valuation(ladder_matrix(module, direction)[0], p)
            assert _walk_plan(module, direction, depth, None) == (step, None, None)
            assert k0 is None or K is None or k0 < K
            assert all(k is None or 0 < k and k * bits <= POWER_BITS_CAP for k in (k0, K))
            if any(rates):
                assert k0 is None
                continue
            closed = math.ceil(depth * (step + Fraction(1, p - 1))) + 1
            assert K == (closed if closed * bits <= POWER_BITS_CAP else None)
            # w_1, the least coefficient valuation of the exact H_1
            H1 = next(islice(iter_deriv_matrices(module, direction), 1, None))
            w1 = min(
                (int_valuation(a, p) for row in H1.rows for e in row for a in e.terms.values()),
                default=None,
            )
            if k0 is not None:
                assert k0 - 1 == w1
            else:
                assert w1 is None or K is not None and w1 + 1 >= K or (w1 + 1) * bits > POWER_BITS_CAP


def residues(record, p):
    """A unit-radius record as the rung and the exact walk share it: each
    depth's norm exponent full, with its leading parts mod p**(full + 1)."""
    return [
        (full, [{J: a % p ** (full + 1) for J, a in e.terms.items()} for e in leading])
        for full, leading in record
    ]


class TestUnitRung:
    """At the unit radius the walk runs mod p**k0, k0 = v_p(content of M)
    + 1, up to its first zero, and only then at the clip precision K."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5]),
        rank=st.integers(1, 2),
        depth=st.integers(8, 60),
    )
    def test_verdict_records_and_witness_equal_the_exact_walk(self, seed, p, rank, depth):
        module = random_integrable_module(Random(seed), p, rank)

        def run():
            records = []
            verdict = oc_ir_test(module, depth, _records=records)
            search = curve_witness_search(module, depth, trials=4, seed=seed)
            return verdict, [residues(record, p) for record in records], search

        assert run() == exact_walk(run)

    def test_rung_fails_then_clip_precision(self, monkeypatch):
        # N = 1/(2t): the rung mod 3 meets a zero at s = 3, the walk goes
        # on tapered, and at depth 512 it reaches the taper's floor and goes
        # on mod 3**257, K = ceil(512 * 1/2) + 1.  The walk that keeps a
        # record and the one for the estimates alone are the same walk.
        module = corpus_by_label()["power-half-p3"].descriptor.module
        precisions = recording_walks(monkeypatch)
        records = []
        verdict = oc_ir_test(module, 512, _records=records)
        assert chain(precisions) == [1, TAPERED, 257]
        recorded = precisions[:]
        precisions.clear()
        report = intrinsic_radius(module, R1, 512)
        assert precisions == recorded
        assert report == verdict.report == exact_walk(intrinsic_radius, module, R1, 512)
        exact_records = []
        exact_walk(lambda: oc_ir_test(module, 512, _records=exact_records))
        assert residues(records[0], 3) == residues(exact_records[0], 3)

    def test_cutcheck_dense_walks_once_per_direction_mod_p(self, monkeypatch):
        module = benchmark_anchor_modules()["cutcheck-dense"]
        precisions = recording_walks(monkeypatch)
        report = curve_witness_search(module, depth=48, trials=10, seed=0)
        assert report.verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert precisions == [1, 1]

    def test_other_radii_walk_at_the_clip_precision(self, monkeypatch):
        rho = (LogRadius(Fraction(1, 3)),)
        precisions = recording_walks(monkeypatch)
        intrinsic_radius(exponential_module(3), rho, depth=16)
        _, k0, K = _walk_plan(exponential_module(3), 0, 16, rho)
        assert k0 is None and precisions == [K]

    def test_no_rung_when_k0_reaches_k(self, monkeypatch):
        # N = [81]: k0 = v_3(81) + 1 = 5 = K = ceil(8 * 1/2) + 1, so the walk
        # starts at K; H_2 = 3**8 vanishes mod p**K and it goes on exactly.
        # One step deeper K = 6 > k0, and the rung is kept.
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[81]]),))
        assert _walk_plan(module, 0, 8, R1) == (0, None, 5)
        assert _walk_plan(module, 0, 9, R1) == (0, 5, 6)
        precisions = recording_walks(monkeypatch)
        intrinsic_radius(module, R1, 8)
        assert precisions == [5, None]

    def test_rung_kept_when_the_clip_walk_is_exact(self, monkeypatch):
        # N = [3**-30000]: c = 3**30000 asks for a K past the bits cap, but
        # M = [1] has content 1, so the walk runs mod 3
        module = ConnectionModule(
            3, 1, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[Fraction(1, 3**30000)]]),)
        )
        assert _walk_plan(module, 0, 8, R1) == (30000, 1, None)
        precisions = recording_walks(monkeypatch)
        report = intrinsic_radius(module, R1, 8)
        assert precisions == [1]
        assert report == exact_walk(intrinsic_radius, module, R1, 8)


def tapered_yields(module, direction, depth):
    """(s, H_s, the exact H_s) for every depth that the unit-radius walk
    in one direction yields from its tapered level."""
    exact = [H for _, H, _ in deriv_ladder(module, direction, depth)]
    unit = (LogRadius.one(),) * module.dims
    with pytest.MonkeyPatch.context() as mp:
        precisions = recording_walks(mp)
        return [
            (s, H, exact[s - 1])
            for s, H, _ in deriv_ladder(module, direction, depth, unit)
            if isinstance(precisions[-1], list)
        ]


@st.composite
def taper_modules(draw):
    """A seeded `random_integrable_module` of rank 1 to 3, or a potential
    module d + d(phi) C whose coefficients have p in their denominators,
    as the golden files' FRACTIONAL modules do, so that v_p(c) > 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return random_integrable_module(Random(draw(st.integers(0, 2**32 - 1))), p, rank)
    unit = st.sampled_from([1, -1, 2, -2, 4, 5, -7])
    exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    terms = draw(st.dictionaries(
        exponents, st.builds(lambda a, k: Fraction(a, p**k), unit, st.integers(1, 2)),
        min_size=1, max_size=2,
    ))
    C = draw(st.lists(
        st.lists(st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, p])), min_size=rank, max_size=rank),
        min_size=rank, max_size=rank,
    ).filter(lambda C: any(any(row) for row in C)))
    return potential_module(p, 2, 0, terms, C)


class TestTaper:
    """At the unit radius the walk runs, after the rung, mod p**kappa_s:
    the Leibniz-tapered precisions of `_Taper`."""

    @settings(max_examples=40, deadline=None)
    @given(module=taper_modules(), depth=st.integers(16, 40))
    def test_no_error_reaches_below_its_floor(self, module, depth):
        # Each dropped digit moves H_t by valuation >= T_t + 1, T_t = t *
        # (v_p(c) + 1/(p-1)), at every depth t <= depth, not only in the
        # window: equal reports alone would not show a plan that drops too
        # much, since the window's estimates are often clipped to 0.
        p = module.prime
        for direction in range(module.dims):
            v = int_valuation(ladder_matrix(module, direction)[0], p)
            for s, H, exact in tapered_yields(module, direction, depth):
                floor = s * (v + Fraction(1, p - 1)) + 1
                for row, exact_row in zip(H.rows, exact.rows):
                    for entry, exact_entry in zip(row, exact_row):
                        a, b = entry.terms, exact_entry.terms
                        for J in a.keys() | b.keys():
                            error = a.get(J, 0) - b.get(J, 0)
                            assert not error or int_valuation(error, p) >= floor
        assert oc_ir_test(module, depth) == exact_walk(oc_ir_test, module, depth)

    @pytest.mark.parametrize("name", ["oc-deep", "exp-t9"])
    def test_the_walk_is_tapered_to_the_depth(self, name):
        # the oc-deep anchor, and d + 9 t^8 (exp(t^9)) at p = 3
        if name == "oc-deep":
            module = benchmark_anchor_modules()[name]
        else:
            module = ConnectionModule(3, 1, 0, 1, (PolyMatrix([[LaurentPoly(3, 1, 0, {(8,): 9})]]),))
        for direction in range(module.dims):
            assert len(tapered_yields(module, direction, 64)) >= 60

    @pytest.mark.parametrize("p, rank, depth", [(2, 1, 16), (3, 2, 150), (5, 3, 512)])
    def test_with_no_norm_read_every_precision_is_k(self, p, rank, depth):
        # F(k) = -k v_p(c) gives kappa_s = ceil(T_depth) + 1 at every s: the
        # plan with no read keeps the K that the taper is given, and that K
        # is the closed form
        for module in (random_integrable_module(Random(1), p, rank), exponential_module(p, Fraction(1, p**3))):
            step, _, K = _walk_plan(module, 0, depth, (LogRadius.one(),) * module.dims)
            assert step == int_valuation(ladder_matrix(module, 0)[0], p)
            assert K == math.ceil(depth * (step + Fraction(1, p - 1))) + 1
            assert _Taper(p, step, depth, K).kappa[1:] == [K] * depth

    @pytest.mark.parametrize("a", [12, 20, 40])
    @pytest.mark.parametrize("depth", [64, 150])
    def test_a_tapered_zero_falls_back_to_k_then_exactly(self, monkeypatch, a, depth):
        # G_s = a (a-1) ... (a-s+1) t**-s first vanishes at s = a + 1.  That
        # zero reaches the tapered walk's floor, and the walk restarts mod
        # p**K, where it vanishes too, and only then exactly.
        module = power_module(3, a)
        precisions = recording_walks(monkeypatch)
        verdict = oc_ir_test(module, depth)
        d = verdict.report.directions[0]
        assert d.vanished_at == a + 1 and d.exact
        _, k0, K = _walk_plan(module, 0, depth, R1)
        assert chain(precisions) == [k0, TAPERED, K, None]
        assert verdict == exact_walk(oc_ir_test, module, depth)

    def test_a_zero_past_the_first_plan(self, monkeypatch):
        # N = P diag(10, 13) P^-1 / t, P = [[1, 1], [0, 1]]: G_s = P
        # diag((10)_s, (13)_s) P^-1 t**-s vanishes first at s = 14, after the
        # walk has planned below K from the norms it read up to s = 8
        def entry(a):
            return LaurentPoly(3, 1, 0, {(-1,): a})

        N = PolyMatrix([[entry(10), entry(3)], [LaurentPoly.zero(3, 1, 0), entry(13)]])
        module = ConnectionModule(3, 1, 0, 2, (N,))
        precisions = recording_walks(monkeypatch)
        verdict = oc_ir_test(module, 64)
        assert verdict.report.directions[0].vanished_at == 14
        K = _walk_plan(module, 0, 64, R1)[2]
        assert chain(precisions) == [1, TAPERED, K, None]
        assert max(precisions[1][9:15]) < K
        assert verdict == exact_walk(oc_ir_test, module, 64)

    def test_a_floor_reached_above_zero_goes_on_mod_p_k(self, monkeypatch):
        # N = 3/(2t): some H_s reaches the tapered walk's floor, but no H_s
        # vanishes mod p**K, so the walk goes on mod p**K to the depth
        module = power_module(3, Fraction(3, 2))
        precisions = recording_walks(monkeypatch)
        report = intrinsic_radius(module, R1, 64)
        assert chain(precisions) == [2, TAPERED, _walk_plan(module, 0, 64, R1)[2]]
        assert report == exact_walk(intrinsic_radius, module, R1, 64)

    @settings(max_examples=30, deadline=None)
    @given(module=taper_modules(), depth=st.integers(16, 48))
    # N = 3/(2t) and N = 12/t: each walk reaches the taper's floor and goes
    # on mod p**K (the tests above); the random draws often do too
    @example(module=power_module(3, Fraction(3, 2)), depth=64)
    @example(module=power_module(3, 12), depth=64)
    def test_the_tapered_record_is_the_exact_walks(self, module, depth):
        # at every depth: the same full, the same entries attaining it, and
        # the same keys and residues mod p**(full + 1) of their leading parts
        records = []
        oc_ir_test(module, depth, _records=records)
        unit = (LogRadius.one(),) * module.dims
        for direction, record in enumerate(records):
            walk = [H for _, H, _ in deriv_ladder(module, direction, depth, unit)]
            exact = [H for _, H, _ in deriv_ladder(module, direction, len(walk))]
            assert record == [unit_step(H) for H in walk]
            assert [leading_residues(H) for H in walk] == [leading_residues(H) for H in exact]

    def test_a_walk_that_never_leaves_the_rung_builds_no_taper(self, monkeypatch):
        built = []
        original = radius._Taper

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(radius, "_Taper", counting)
        precisions = recording_walks(monkeypatch)
        curve_witness_search(benchmark_anchor_modules()["cutcheck-dense"], depth=48, trials=10, seed=0)
        oc_ir_test(exponential_module(3), 64)
        assert precisions == [1, 1, 1] and built == []
        # N = 1/(2t): the rung's first zero is at s = 3, after w_1 = w_2 = 0,
        # and the taper is given K = ceil(64 * 1/2) + 1
        oc_ir_test(corpus_by_label()["power-half-p3"].descriptor.module, 64)
        assert built == [(3, 0, 64, 33, [0, 0])]


def leading_residues(H):
    """The unit-radius norm exponent full of a ladder matrix, with the
    position of each entry attaining it and that entry's nonzero terms
    mod p**(full + 1)."""
    full, _ = unit_step(H)
    if full is None:
        return None, {}
    q = H.prime ** (full + 1)
    return full, {
        (i, j): {J: a % q for J, a in e.terms.items() if a % q}
        for i, row in enumerate(H.rows) for j, e in enumerate(row)
        if any(a % q for a in e.terms.values())
    }


def conjugated(module, P, P_inverse):
    """The module in the basis P: every N_i becomes P^-1 N_i P."""
    p, n, m = module.prime, module.nvars_annulus, module.nvars_disc
    P = PolyMatrix.from_scalar_rows(p, n, m, P)
    P_inverse = PolyMatrix.from_scalar_rows(p, n, m, P_inverse)
    return ConnectionModule(p, n, m, module.rank, tuple(P_inverse @ N @ P for N in module.matrices))


@st.composite
def unimodular(draw, p, rank):
    """P in GL_rank(Z_p) with its inverse, both integral: a product of
    elementary matrices, each adding an int multiple of one row to another
    or scaling a row by a unit of Z_p."""
    P = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    P_inverse = [row[:] for row in P]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(rank)))[:2]
        if draw(st.booleans()):
            # row i times a unit a; the inverse's column i over a
            a = Fraction(draw(st.sampled_from([x for x in range(-4, 5) if x % p])))
            P = [[e * a if r == i else e for e in row] for r, row in enumerate(P)]
            P_inverse = [[e / a if c == i else e for c, e in enumerate(row)] for row in P_inverse]
        else:
            # row i plus a times row j; the inverse's column j minus a times its column i
            a = draw(st.integers(-4, 4))
            P = [[e + a * P[j][c] if r == i else e for c, e in enumerate(row)] for r, row in enumerate(P)]
            P_inverse = [
                [e - a * row[i] if c == j else e for c, e in enumerate(row)] for row in P_inverse
            ]
    return P, P_inverse


class TestGauge:
    """The intrinsic radius is an invariant of the differential module;
    two exact invariances of the windowed reports."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5]),
           rank=st.integers(2, 3), depth=st.integers(8, 40))
    def test_a_constant_change_of_basis_keeps_every_report(self, data, seed, p, rank, depth):
        # G'_s = P^-1 G_s P with P and P^-1 integral, so every norm is kept,
        # at every radius
        module = random_integrable_module(Random(seed), p, rank)
        P, P_inverse = data.draw(unimodular(p, rank))
        assert [[sum(P[i][k] * P_inverse[k][j] for k in range(rank)) for j in range(rank)]
                for i in range(rank)] == [[int(i == j) for j in range(rank)] for i in range(rank)]
        gauged = conjugated(module, P, P_inverse)
        unit = (LogRadius.one(),) * 2
        assert oc_ir_test(gauged, depth) == oc_ir_test(module, depth)
        assert intrinsic_radius(gauged, unit, depth) == intrinsic_radius(module, unit, depth)
        rho = (LogRadius(Fraction(1, 5)), LogRadius(Fraction(1, 3)))
        assert intrinsic_radius(gauged, rho, depth) == intrinsic_radius(module, rho, depth)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5]),
           rank=st.integers(1, 3), depth=st.integers(8, 40))
    def test_swapping_the_variables_swaps_the_directions(self, seed, p, rank, depth):
        module = random_integrable_module(Random(seed), p, rank)

        def swap(entry):
            return LaurentPoly(p, 2, 0, {(J[1], J[0]): a for J, a in entry.terms.items()})

        swapped = ConnectionModule(p, 2, 0, rank, tuple(
            PolyMatrix([[swap(e) for e in row] for row in N.rows]) for N in reversed(module.matrices)
        ))
        verdict, swapped_verdict = oc_ir_test(module, depth), oc_ir_test(swapped, depth)
        assert swapped_verdict.verdict is verdict.verdict
        ir, swapped_ir = verdict.report, swapped_verdict.report
        assert [d.to_json_dict() for d in reversed(swapped_ir.directions)] == [
            dict(d.to_json_dict(), direction=1 - d.direction) for d in ir.directions
        ]
        assert (swapped_ir.ir_estimate, swapped_ir.exact_flag) == (ir.ir_estimate, ir.exact_flag)

    def test_oc_evidence_depends_on_the_basis_under_a_non_constant_gauge(self):
        # D = diag(1, t_0**2) presents the same module, N'_i = D^-1 N_i D +
        # D^-1 d_i(D), but other G_s, so a finite window reads other norms:
        # a dependence recorded here, not an invariance (ROADMAP item 16).
        # Random(1), rank 2, p = 3: INCONCLUSIVE at depth 60 (IR exponent
        # 1/13) and OVERCONVERGENT_EVIDENCE once gauged; at depth 200 both
        # are OVERCONVERGENT_EVIDENCE, with IR exponent 1/32 against 0.
        p = 3
        module = random_integrable_module(Random(1), p, 2)
        D = PolyMatrix.from_scalar_rows(p, 2, 0, [[1, 0], [0, LaurentPoly(p, 2, 0, {(2, 0): 1})]])
        D_inverse = PolyMatrix.from_scalar_rows(p, 2, 0, [[1, 0], [0, LaurentPoly(p, 2, 0, {(-2, 0): 1})]])

        def gauged(N, i):
            A = D_inverse @ N @ D
            B = D_inverse @ PolyMatrix([[e.partial(i) for e in row] for row in D.rows])
            return PolyMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A.rows, B.rows)])

        gauge = ConnectionModule(p, 2, 0, 2, tuple(gauged(N, i) for i, N in enumerate(module.matrices)))
        outcomes = {
            depth: [(v.verdict, v.report.ir_estimate) for v in (oc_ir_test(module, depth), oc_ir_test(gauge, depth))]
            for depth in (60, 200)
        }
        assert outcomes == {
            60: [(Verdict.INCONCLUSIVE, Fraction(1, 13)), (Verdict.OVERCONVERGENT_EVIDENCE, 0)],
            200: [(Verdict.OVERCONVERGENT_EVIDENCE, Fraction(1, 32)), (Verdict.OVERCONVERGENT_EVIDENCE, 0)],
        }


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
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[3]]),))
        v = oc_ir_test(module, depth=12)
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
        module = ConnectionModule(3, 1, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[2]]),))
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
        assert len(report.level_minima) == J + 1 and report.to_json_dict()["bound"] == J
        for k, e in enumerate(report.level_minima):
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
        assert list(enumerate(report.level_minima))[7:] == frozen

    def test_trivial_module_passes_vacuously(self):
        report = taylor_probe(
            trivial_module(3, 1, 0, 2), LogRadius(Fraction(1, 3)), LogRadius.one(), 10
        )
        assert report.outcome is ProbeOutcome.PASS
        assert all(e is None for e in report.level_minima[1:])

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
            assert report.level_minima[s] == expected
        assert report.outcome is ProbeOutcome.PASS

    @pytest.mark.parametrize("seed", range(12))
    def test_integer_fold_equals_the_fraction_fold(self, seed):
        """taylor_probe folds the e_l(s) as integers over one common
        denominator; the fold over the Fractions themselves gives the same
        minima, and the witness is the argmin of its level there."""
        rng = Random(seed)
        p = rng.choice([2, 3, 5])
        module = random_integrable_module(rng, p, rng.randint(1, 2))
        eta = LogRadius(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        lam = LogRadius(Fraction(rng.randint(0, 3), rng.randint(1, 8)))
        J = 12
        per_direction = []
        for l in range(module.dims):
            exps = [Fraction(0)]
            for s, H, shift in deriv_ladder(module, l, J):
                if H.is_zero:
                    break
                w = H.sup_vertex_lognorm(lam)
                exps.append(w - shift - factorial_valuation(s, p) + s * eta.exponent)
            per_direction.append(exps + [None] * (J + 1 - len(exps)))
        minima, argmins = _fold_levels(per_direction, J)
        report = taylor_probe(module, eta, lam, J)
        assert report.level_minima == tuple(minima)
        assert all(e is None or type(e) is Fraction for e in report.level_minima)
        if report.witness is not None:
            assert report.witness == argmins[sum(report.witness)]

    def test_two_var_levels_use_min_composition(self):
        # Direction 1 vanishes, so only j = (k, 0) contributes.
        module = exponential_two_var_module(3)
        h = Fraction(1)
        report = taylor_probe(module, LogRadius(h), LogRadius.one(), 10)
        for k, e in enumerate(report.level_minima):
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
