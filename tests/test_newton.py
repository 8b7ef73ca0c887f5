from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.laurent import LaurentPoly, SignatureError
from nabla_radius.newton import (
    AlignedInterval,
    DominanceCertificate,
    DominantTerm,
    dominant_term,
    shrink_interval,
    sup_norm_on_interval,
    UnitCheck,
    unit_certificate_check,
)
from nabla_radius.padic import LogRadius, fraction_valuation


def poly(p, terms):
    return LaurentPoly(p, 1, 0, terms)


coeff_st = st.fractions(
    min_value=Fraction(-300), max_value=Fraction(300), max_denominator=240
).filter(lambda x: x != 0)

polys_st = st.builds(
    lambda p, terms: LaurentPoly(p, 1, 0, terms),
    st.sampled_from([2, 3, 5]),
    st.dictionaries(
        st.tuples(st.integers(-6, 6)), coeff_st, min_size=1, max_size=8
    ),
)

exp_st = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(4), max_denominator=16)

intervals_st = st.builds(
    lambda a, b: AlignedInterval.from_exponents(max(a, b), min(a, b)),
    exp_st,
    exp_st,
)


class TestAlignedInterval:
    def test_validation(self):
        AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        AlignedInterval.from_exponents(Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            AlignedInterval.from_exponents(Fraction(1, 2), Fraction(2))
        with pytest.raises(ValueError):
            AlignedInterval.from_exponents(Fraction(2), Fraction(0))
        with pytest.raises(TypeError):
            AlignedInterval(LogRadius(None), LogRadius(Fraction(1)))

    def test_json(self):
        I = AlignedInterval.from_exponents(Fraction(3, 4), Fraction(1, 2))
        assert I.to_json_dict() == {"alpha_exponent": "3/4", "beta_exponent": "1/2"}


class TestSupNorm:
    def test_single_term(self):
        # |p t**-2| peaks at the inner radius: exponent 1 - 2*ra.
        a = poly(2, {(-2,): Fraction(2)})
        I = AlignedInterval.from_exponents(Fraction(3), Fraction(1))
        assert sup_norm_on_interval(a, I) == Fraction(-5)

    def test_two_terms_split_endpoints(self):
        # p + t on [2, 1/2]: constant line 1 vs slope line r.
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        assert sup_norm_on_interval(a, I) == Fraction(1, 2)

    def test_rejects_bad_input(self):
        I = AlignedInterval.from_exponents(Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            sup_norm_on_interval(LaurentPoly.zero(3, 1, 0), I)
        with pytest.raises(SignatureError):
            sup_norm_on_interval(LaurentPoly.one(3, 2, 0), I)

    @given(a=polys_st, I=intervals_st)
    @settings(max_examples=80)
    def test_matches_gauss_norms_at_endpoints(self, a, I):
        # Term lines are affine in r, so the sup over the closed interval
        # is attained at an endpoint; compare with the Gauss-norm route.
        end_a = a.gauss_lognorm((I.alpha,))
        end_b = a.gauss_lognorm((I.beta,))
        # the larger norm is the smaller exponent
        assert sup_norm_on_interval(a, I) == min(end_a, end_b)

    @given(a=polys_st, I=intervals_st, t=st.integers(0, 16))
    @settings(max_examples=80)
    def test_dominates_interior_radii(self, a, I, t):
        r = I.r_beta + (I.r_alpha - I.r_beta) * Fraction(t, 16)
        interior = a.gauss_lognorm((LogRadius(r),))
        assert sup_norm_on_interval(a, I) <= interior  # |sup| >= |interior|


class TestDominantTerm:
    def test_outer_endpoint_selection(self):
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        d = dominant_term(a, I)
        assert (set(d.A), set(d.B), d.n0) == (set(), {1}, 1)

    def test_inner_endpoint_takes_precedence(self):
        # 2/t + 1 over Q_2: the t**-1 line wins at the inner radius.
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        d = dominant_term(a, I)
        assert (set(d.A), set(d.B), d.n0) == ({-1}, set(), -1)

    def test_constant_attains_both(self):
        a = poly(2, {(0,): Fraction(1), (1,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        d = dominant_term(a, I)
        assert (set(d.A), set(d.B), d.n0) == ({0}, {0}, 0)

    def test_degenerate_tie_lists_both(self):
        # 2/t + 1 at the single radius where the lines cross.
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(1), Fraction(1))
        d = dominant_term(a, I)
        assert (set(d.A), set(d.B), d.n0) == ({-1, 0}, {0}, 0)

    @given(a=polys_st, I=intervals_st)
    @settings(max_examples=80)
    def test_n0_attains_the_sup(self, a, I):
        d = dominant_term(a, I)
        sup = sup_norm_on_interval(a, I)
        v = fraction_valuation(a.coefficient((d.n0,)), a.prime)
        attained = []
        if d.n0 <= 0:
            attained.append(v + d.n0 * I.r_alpha)
        if d.n0 >= 0:
            attained.append(v + d.n0 * I.r_beta)
        assert sup in attained


class TestShrinkInterval:
    def test_shrinks_toward_outer_endpoint(self):
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        cert = shrink_interval(a, I)
        assert cert.n0 == 1
        assert cert.interval.r_alpha == Fraction(3, 4)
        assert cert.interval.r_beta == Fraction(1, 2)
        assert cert.sup_norm == Fraction(1, 2)
        assert cert.margin == Fraction(1, 4)

    def test_shrinks_toward_inner_endpoint(self):
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        cert = shrink_interval(a, I)
        assert cert.n0 == -1
        assert cert.interval.r_alpha == Fraction(2)
        assert cert.interval.r_beta == Fraction(3, 2)
        assert cert.margin == Fraction(1, 2)

    def test_no_shrink_needed(self):
        a = poly(2, {(0,): Fraction(1), (1,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        cert = shrink_interval(a, I)
        assert cert.n0 == 0
        assert cert.interval == I
        assert cert.margin == Fraction(1, 2)

    def test_monomial_has_infinite_margin(self):
        a = poly(3, {(2,): Fraction(5)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 3))
        cert = shrink_interval(a, I)
        assert cert.margin is None
        assert cert.interval == I

    def test_degenerate_tie_is_infeasible(self):
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(1), Fraction(1))
        with pytest.raises(ValueError, match="no dominance window"):
            shrink_interval(a, I)

    @given(a=polys_st, I=intervals_st)
    @settings(max_examples=100, deadline=None)
    def test_certificates_verify(self, a, I):
        try:
            cert = shrink_interval(a, I)
        except ValueError:
            # Only degenerate single-point ties are allowed to fail.
            assert I.r_alpha == I.r_beta
            return
        assert I.r_beta <= cert.interval.r_beta <= cert.interval.r_alpha <= I.r_alpha
        assert cert.margin is None or cert.margin > 0
        assert cert.sup_norm == sup_norm_on_interval(a, I)
        assert cert.dominant == dominant_term(a, I)
        check = unit_certificate_check(a, cert)
        assert check.ok, check.counterexample


class TestUnitCheck:
    def test_detects_wrong_dominant_term(self):
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        good = shrink_interval(a, AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2)))
        bad = DominanceCertificate(
            dominant=DominantTerm(A=frozenset(), B=frozenset({0}), n0=0),
            interval=good.interval,
            sup_norm=good.sup_norm,
            margin=good.margin,
        )
        check = unit_certificate_check(a, bad)
        assert not check.ok
        assert check.counterexample is not None

    def test_absent_term_rejected(self):
        a = poly(2, {(0,): Fraction(1)})
        cert = shrink_interval(a, AlignedInterval.from_exponents(Fraction(1), Fraction(1, 2)))
        fake = DominanceCertificate(
            dominant=DominantTerm(A=frozenset(), B=frozenset({3}), n0=3),
            interval=cert.interval, sup_norm=cert.sup_norm, margin=None,
        )
        with pytest.raises(ValueError):
            unit_certificate_check(a, fake)

    def test_checks_the_two_endpoints(self):
        a = poly(2, {(0,): Fraction(1)})
        cert = shrink_interval(a, AlignedInterval.from_exponents(Fraction(1), Fraction(1, 2)))
        check = unit_certificate_check(a, cert)
        assert check.ok
        assert check.sampled == (cert.interval.beta, cert.interval.alpha)

    def test_degenerate_certified_interval_single_radius(self):
        a = poly(2, {(0,): Fraction(1), (1,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(3, 4), Fraction(3, 4))
        cert = shrink_interval(a, I)
        check = unit_certificate_check(a, cert)
        assert check.ok
        assert len(check.sampled) == 1

    def test_inner_endpoint_catches_what_the_outer_one_passes(self):
        # 2/t + 1 over Q_2: the constant dominates at exponent 1/2, but the
        # 2/t term takes over from exponent 1 on, so n0 = 0 is wrong at 2.
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval.from_exponents(Fraction(2), Fraction(1, 2))
        bad = DominanceCertificate(
            dominant=DominantTerm(A=frozenset(), B=frozenset({0}), n0=0),
            interval=I, sup_norm=Fraction(0), margin=None,
        )
        check = unit_certificate_check(a, bad)
        assert not check.ok
        assert check.counterexample == I.alpha
        assert check.to_json_dict() == {
            "ok": False, "counterexample": "2", "samples": ["1/2", "2"],
        }

    @given(a=polys_st, I=intervals_st, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_endpoints_agree_with_a_dense_grid(self, a, I, data):
        # any term may be named n0, so many certificates are wrong
        n0 = data.draw(st.sampled_from(sorted(n for (n,) in a.terms)))
        cert = DominanceCertificate(
            dominant=DominantTerm(A=frozenset(), B=frozenset({n0}), n0=n0),
            interval=I, sup_norm=Fraction(0), margin=None,
        )
        c0 = a.coefficient((n0,))
        v0 = fraction_valuation(c0, a.prime)
        f = poly(a.prime, {(n - n0,): c / c0 for (n,), c in a.terms.items() if n != n0})

        def holds(r):
            f_exp = f.gauss_lognorm((LogRadius(r),))
            return ((f_exp is None or f_exp > 0)
                    and a.gauss_lognorm((LogRadius(r),)) == v0 + n0 * r)

        # 65 radii from beta to alpha, both endpoints included
        grid = [I.r_beta + (I.r_alpha - I.r_beta) * Fraction(k, 64) for k in range(65)]
        assert unit_certificate_check(a, cert).ok == all(holds(r) for r in grid)

    @given(a=polys_st, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_norm_per_endpoint_matches_the_two_norm_check(self, a, data):
        # any term may be named n0, so many certificates are wrong
        n0 = data.draw(st.sampled_from(sorted(n for (n,) in a.terms)))
        c0 = a.coefficient((n0,))
        v0 = fraction_valuation(c0, a.prime)
        f = poly(a.prime, {(n - n0,): c / c0 for (n,), c in a.terms.items() if n != n0})
        # endpoints also where some term of f has norm exactly 1
        ties = sorted({
            Fraction(v0 - fraction_valuation(c, a.prime), n - n0)
            for (n,), c in a.terms.items() if n != n0
        })
        ties = [r for r in ties if r > 0]
        endpoint = st.one_of(exp_st, st.sampled_from(ties)) if ties else exp_st
        r1, r2 = data.draw(endpoint), data.draw(endpoint)
        I = AlignedInterval.from_exponents(max(r1, r2), min(r1, r2))
        cert = DominanceCertificate(
            dominant=DominantTerm(A=frozenset(), B=frozenset({n0}), n0=n0),
            interval=I, sup_norm=Fraction(0), margin=None,
        )

        # the reference also asks |a| = |a_{n0}| rho^{n0} at each endpoint
        def two_norm_check():
            ends = tuple(dict.fromkeys((I.beta, I.alpha)))
            for radius in ends:
                f_exp = f.gauss_lognorm((radius,))
                if f_exp is not None and f_exp <= 0:
                    return UnitCheck(radius, ends)
                if a.gauss_lognorm((radius,)) != v0 + n0 * radius.exponent:
                    return UnitCheck(radius, ends)
            return UnitCheck(None, ends)

        assert unit_certificate_check(a, cert) == two_norm_check()
