from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.laurent import LaurentPoly, SignatureError
from nabla_radius.newton import (
    AlignedInterval,
    DominanceCertificate,
    _dominance,
    _line_data,
    shrink_interval,
    unit_certificate_check,
)
from nabla_radius.padic import check_radius, fraction_valuation


def poly(p, terms):
    return LaurentPoly(p, 1, 0, terms)


def naming(n0, interval, sup_norm=Fraction(0), margin=None):
    """A certificate that names n0, right or wrong, on the interval."""
    return DominanceCertificate(frozenset(), frozenset({n0}), n0, interval, sup_norm, margin)


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
    lambda a, b: AlignedInterval(max(a, b), min(a, b)),
    exp_st,
    exp_st,
)


class TestAlignedInterval:
    def test_validation(self):
        AlignedInterval(Fraction(2), Fraction(1, 2))
        AlignedInterval(Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            AlignedInterval(Fraction(1, 2), Fraction(2))
        with pytest.raises(ValueError):
            AlignedInterval(Fraction(2), Fraction(0))
        with pytest.raises(TypeError):
            AlignedInterval(None, Fraction(1))

    @pytest.mark.parametrize("bad", [2.0, 0.5, True, False])
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_float_and_bool_exponents_are_refused(self, bad, which):
        args = (bad, Fraction(1, 2)) if which == "alpha" else (Fraction(2), bad)
        with pytest.raises(TypeError, match="^radius exponent must be int or Fraction, not "):
            AlignedInterval(*args)

    def test_int_exponents_are_stored_as_fractions(self):
        I = AlignedInterval(2, 1)
        assert (type(I.r_alpha), type(I.r_beta)) == (Fraction, Fraction)
        assert I == AlignedInterval(Fraction(2), Fraction(1))
        assert I.to_json_dict() == {"alpha_exponent": "2", "beta_exponent": "1"}

    def test_negative_exponent_keeps_its_message(self):
        with pytest.raises(ValueError, match="radius exponent must be >= 0, got -1$"):
            AlignedInterval(-1, Fraction(1, 2))
        # a long value is named whole; the command line bounds it on its way out
        with pytest.raises(ValueError, match=r"got -9{4000}$"):
            AlignedInterval(-int("9" * 4000), Fraction(1, 2))

    def test_one_check_serves_both_radius_records(self):
        # both endpoints go through the one radius door, with its message
        for bad in (-1, Fraction(-1, 3), -int("9" * 4000)):
            with pytest.raises(ValueError) as radius_error:
                check_radius(bad, "radius exponent")
            for args in ((bad, Fraction(1, 2)), (Fraction(2), bad)):
                with pytest.raises(ValueError) as interval_error:
                    AlignedInterval(*args)
                assert str(interval_error.value) == str(radius_error.value)

    def test_json(self):
        I = AlignedInterval(Fraction(3, 4), Fraction(1, 2))
        assert I.to_json_dict() == {"alpha_exponent": "3/4", "beta_exponent": "1/2"}


class TestSupNorm:
    def test_single_term(self):
        # |p t**-2| peaks at the inner radius: exponent 1 - 2*ra.
        a = poly(2, {(-2,): Fraction(2)})
        I = AlignedInterval(Fraction(3), Fraction(1))
        assert shrink_interval(a, I).sup_norm == Fraction(-5)

    def test_two_terms_split_endpoints(self):
        # p + t on [2, 1/2]: constant line 1 vs slope line r.
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        assert shrink_interval(a, I).sup_norm == Fraction(1, 2)

    def test_rejects_bad_input(self):
        I = AlignedInterval(Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            shrink_interval(LaurentPoly.zero(3, 1, 0), I)
        with pytest.raises(SignatureError):
            shrink_interval(LaurentPoly.constant(3, 2, 0, 1), I)

    @given(a=polys_st, I=intervals_st)
    @settings(max_examples=80)
    def test_matches_gauss_norms_at_endpoints(self, a, I):
        # Term lines are affine in r, so the sup over the closed interval
        # is attained at an endpoint; compare with the Gauss-norm route.
        end_a = a.gauss_lognorm((I.r_alpha,))
        end_b = a.gauss_lognorm((I.r_beta,))
        # the larger norm is the smaller exponent
        assert _dominance(_line_data(a), I)[0] == min(end_a, end_b)

    @given(a=polys_st, I=intervals_st, t=st.integers(0, 16))
    @settings(max_examples=80)
    def test_dominates_interior_radii(self, a, I, t):
        r = I.r_beta + (I.r_alpha - I.r_beta) * Fraction(t, 16)
        interior = a.gauss_lognorm((r,))
        assert _dominance(_line_data(a), I)[0] <= interior  # |sup| >= |interior|


class TestDominantTerm:
    def test_outer_endpoint_selection(self):
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        d = shrink_interval(a, I)
        assert (set(d.A), set(d.B), d.n0) == (set(), {1}, 1)

    def test_inner_endpoint_takes_precedence(self):
        # 2/t + 1 over Q_2: the t**-1 line wins at the inner radius.
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        d = shrink_interval(a, I)
        assert (set(d.A), set(d.B), d.n0) == ({-1}, set(), -1)

    def test_constant_attains_both(self):
        a = poly(2, {(0,): Fraction(1), (1,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        d = shrink_interval(a, I)
        assert (set(d.A), set(d.B), d.n0) == ({0}, {0}, 0)

    def test_degenerate_tie_lists_both(self):
        # 2/t + 1 at the single radius where the lines cross: no window.
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval(Fraction(1), Fraction(1))
        _, A, B, n0 = _dominance(_line_data(a), I)
        assert (set(A), set(B), n0) == ({-1, 0}, {0}, 0)

    @given(a=polys_st, I=intervals_st)
    @settings(max_examples=80)
    def test_n0_attains_the_sup(self, a, I):
        sup, _, _, n0 = _dominance(_line_data(a), I)
        v = fraction_valuation(a.coefficient((n0,)), a.prime)
        attained = []
        if n0 <= 0:
            attained.append(v + n0 * I.r_alpha)
        if n0 >= 0:
            attained.append(v + n0 * I.r_beta)
        assert sup in attained


class TestShrinkInterval:
    def test_shrinks_toward_outer_endpoint(self):
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        cert = shrink_interval(a, I)
        assert cert.n0 == 1
        assert cert.interval.r_alpha == Fraction(3, 4)
        assert cert.interval.r_beta == Fraction(1, 2)
        assert cert.sup_norm == Fraction(1, 2)
        assert cert.margin == Fraction(1, 4)

    def test_shrinks_toward_inner_endpoint(self):
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        cert = shrink_interval(a, I)
        assert cert.n0 == -1
        assert cert.interval.r_alpha == Fraction(2)
        assert cert.interval.r_beta == Fraction(3, 2)
        assert cert.margin == Fraction(1, 2)

    def test_shrinks_from_both_sides(self):
        # t^-1 strictly dominates only for 1 < r < 2: 9 t^-2 ties it at
        # r = 2 and 1/3 at r = 1, so both sides of the window are open and
        # a quarter of its length is cut from each.
        a = poly(3, {(-1,): Fraction(1), (-2,): Fraction(9), (0,): Fraction(1, 3)})
        cert = shrink_interval(a, AlignedInterval(2, 1))
        assert (cert.n0, cert.A, cert.B) == (-1, frozenset({-2, -1}), frozenset())
        assert cert.interval == AlignedInterval(Fraction(7, 4), Fraction(5, 4))
        assert cert.sup_norm == -2
        assert cert.margin == Fraction(1, 4)
        assert unit_certificate_check(a, cert) is None

    def test_no_shrink_needed(self):
        a = poly(2, {(0,): Fraction(1), (1,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        cert = shrink_interval(a, I)
        assert cert.n0 == 0
        assert cert.interval == I
        assert cert.margin == Fraction(1, 2)

    def test_monomial_has_infinite_margin(self):
        a = poly(3, {(2,): Fraction(5)})
        I = AlignedInterval(Fraction(2), Fraction(1, 3))
        cert = shrink_interval(a, I)
        assert cert.margin is None
        assert cert.interval == I

    def test_degenerate_tie_is_infeasible(self):
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval(Fraction(1), Fraction(1))
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
        assert cert.sup_norm == min(
            a.gauss_lognorm((I.r_alpha,)), a.gauss_lognorm((I.r_beta,))
        )
        assert (cert.A, cert.B, cert.n0) == _dominance(_line_data(a), I)[1:]
        assert unit_certificate_check(a, cert) is None


class TestUnitCheck:
    def test_detects_wrong_dominant_term(self):
        a = poly(2, {(0,): Fraction(2), (1,): Fraction(1)})
        good = shrink_interval(a, AlignedInterval(Fraction(2), Fraction(1, 2)))
        bad = naming(0, good.interval, good.sup_norm, good.margin)
        assert unit_certificate_check(a, bad) is not None

    def test_absent_term_rejected(self):
        a = poly(2, {(0,): Fraction(1)})
        cert = shrink_interval(a, AlignedInterval(Fraction(1), Fraction(1, 2)))
        fake = naming(3, cert.interval, cert.sup_norm)
        with pytest.raises(ValueError):
            unit_certificate_check(a, fake)

    def test_checks_the_two_endpoints(self, monkeypatch):
        a = poly(2, {(0,): Fraction(1)})
        cert = shrink_interval(a, AlignedInterval(Fraction(1), Fraction(1, 2)))
        radii = []
        original = LaurentPoly.gauss_lognorm

        def recording(self, rho):
            radii.append(rho[0])
            return original(self, rho)

        monkeypatch.setattr(LaurentPoly, "gauss_lognorm", recording)
        assert unit_certificate_check(a, cert) is None
        assert tuple(radii) == cert.interval.endpoints == (Fraction(1, 2), Fraction(1))

    def test_degenerate_certified_interval_single_radius(self):
        a = poly(2, {(0,): Fraction(1), (1,): Fraction(1)})
        I = AlignedInterval(Fraction(3, 4), Fraction(3, 4))
        cert = shrink_interval(a, I)
        assert unit_certificate_check(a, cert) is None
        assert cert.interval.endpoints == (Fraction(3, 4),)

    def test_inner_endpoint_catches_what_the_outer_one_passes(self):
        # 2/t + 1 over Q_2: the constant dominates at exponent 1/2, but the
        # 2/t term takes over from exponent 1 on, so n0 = 0 is wrong at 2.
        a = poly(2, {(-1,): Fraction(2), (0,): Fraction(1)})
        I = AlignedInterval(Fraction(2), Fraction(1, 2))
        assert unit_certificate_check(a, naming(0, I)) == I.r_alpha

    @given(a=polys_st, I=intervals_st, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_endpoints_agree_with_a_dense_grid(self, a, I, data):
        # any term may be named n0, so many certificates are wrong
        n0 = data.draw(st.sampled_from(sorted(n for (n,) in a.terms)))
        cert = naming(n0, I)
        c0 = a.coefficient((n0,))
        v0 = fraction_valuation(c0, a.prime)
        f = poly(a.prime, {(n - n0,): c / c0 for (n,), c in a.terms.items() if n != n0})

        def holds(r):
            f_exp = f.gauss_lognorm((r,))
            return ((f_exp is None or f_exp > 0)
                    and a.gauss_lognorm((r,)) == v0 + n0 * r)

        # 65 radii from beta to alpha, both endpoints included
        grid = [I.r_beta + (I.r_alpha - I.r_beta) * Fraction(k, 64) for k in range(65)]
        assert (unit_certificate_check(a, cert) is None) == all(holds(r) for r in grid)

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
        I = AlignedInterval(max(r1, r2), min(r1, r2))
        cert = naming(n0, I)

        # the reference also asks |a| = |a_{n0}| rho^{n0} at each endpoint
        def two_norm_check():
            for r in tuple(dict.fromkeys((I.r_beta, I.r_alpha))):
                f_exp = f.gauss_lognorm((r,))
                if f_exp is not None and f_exp <= 0:
                    return r
                if a.gauss_lognorm((r,)) != v0 + n0 * r:
                    return r
            return None

        assert unit_certificate_check(a, cert) == two_norm_check()
