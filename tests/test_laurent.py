from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.connection import _least_exponent
from nabla_radius.laurent import LaurentPoly, SignatureError
from nabla_radius.padic import LogRadius, fraction_valuation

PRIMES = [2, 3, 5, 7]

coeff_st = st.fractions(
    min_value=Fraction(-400), max_value=Fraction(400), max_denominator=360
).filter(lambda x: x != 0)


@st.composite
def polys(draw, n, m, prime=None, max_terms=6):
    p = prime if prime is not None else draw(st.sampled_from(PRIMES))
    ann = st.integers(min_value=-4, max_value=4)
    disc = st.integers(min_value=0, max_value=4)
    key_st = st.tuples(*([ann] * n + [disc] * m))
    terms = draw(st.dictionaries(key_st, coeff_st, max_size=max_terms))
    return LaurentPoly(p, n, m, terms)


@st.composite
def radii(draw, n, m):
    pos = st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=12)
    return tuple(LogRadius(draw(pos)) for _ in range(n + m))


SIGNATURES = [(1, 0), (2, 0), (1, 1), (0, 2)]


def norm_at_most(a, b) -> bool:
    """|a| <= |b| for norms given by exponents, None being the zero norm."""
    return a is None or (b is not None and a >= b)


def evaluate(f: LaurentPoly, coords) -> Fraction:
    """Plain evaluation at nonzero rational coordinates (test oracle)."""
    total = Fraction(0)
    for key, coeff in f.terms.items():
        v = coeff
        for c, j in zip(coords, key):
            v *= Fraction(c) ** j
        total += v
    return total


class TestConstruction:
    def test_rejects_bad_shapes(self):
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, {(1, 2): 1})
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 1, {(0, -1): 1})  # disc exponent < 0
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, {(Fraction(1, 2),): 1})

    def test_rejects_boolean_exponents(self):
        # True == 1 would otherwise be stored, and serialized, as `true`.
        for key in ((True,), (False,), (1, True)):
            with pytest.raises(SignatureError, match="integers"):
                LaurentPoly(3, len(key), 0, {key: 1})

    def test_rejects_float_and_bool_coefficients(self):
        # 0.1 would enter as 3602879701896397/36028797018963968.
        for coeff in (0.1, 1.0, True, False):
            with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
                LaurentPoly(3, 1, 0, {(0,): coeff})
            with pytest.raises(TypeError):
                LaurentPoly.constant(3, 1, 0, coeff)

    def test_drops_zero_terms(self):
        f = LaurentPoly(3, 1, 0, {(0,): 0, (2,): 1})
        assert list(f.terms) == [(2,)]
        assert LaurentPoly.zero(3, 1, 0).is_zero

    def test_duplicate_keys_raise(self):
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, [((1,), Fraction(1)), ((1,), Fraction(2))])

    def test_negative_annulus_exponents_allowed(self):
        f = LaurentPoly(3, 1, 1, {(-3, 2): Fraction(1, 2)})
        assert f.coefficient((-3, 2)) == Fraction(1, 2)
        assert f.coefficient((0, 0)) == 0
        assert type(f.coefficient((0, 0))) is Fraction

    def test_terms_view_is_read_only(self):
        f = LaurentPoly.one(3, 1, 0)
        with pytest.raises(TypeError):
            f.terms[(5,)] = Fraction(1)  # type: ignore[index]


class TestRingOps:
    def test_add_sub_cancellation(self):
        f = LaurentPoly(5, 1, 0, {(1,): 2, (0,): 3})
        g = LaurentPoly(5, 1, 0, {(1,): -2, (2,): 1})
        s = f + g
        assert s == LaurentPoly(5, 1, 0, {(0,): 3, (2,): 1})
        assert (s - g) == f

    def test_mul_known_product(self):
        t = LaurentPoly.variable(5, 1, 0, 0)
        tinv = LaurentPoly.monomial(5, 1, 0, (-1,), 1)
        assert t * tinv == LaurentPoly.one(5, 1, 0)
        f = t + LaurentPoly.one(5, 1, 0)
        assert f * f == LaurentPoly(5, 1, 0, {(2,): 1, (1,): 2, (0,): 1})

    def test_scalar_mul_and_pow(self):
        f = LaurentPoly(3, 1, 0, {(1,): Fraction(1, 2)})
        assert (2 * f) == LaurentPoly(3, 1, 0, {(1,): 1})
        assert f * Fraction(0) == LaurentPoly.zero(3, 1, 0)
        assert f * f * f == LaurentPoly(3, 1, 0, {(3,): Fraction(1, 8)})
        for k in (3, -1):  # powers are not defined; products are spelled out
            with pytest.raises(TypeError):
                f ** k

    def test_scalar_mul_rejects_float_and_bool(self):
        f = LaurentPoly(3, 1, 0, {(1,): Fraction(1, 2)})
        for scalar in (0.1, 2.0, True, False):
            with pytest.raises(TypeError, match="scalar factors must be int or Fraction"):
                f.scalar_mul(scalar)
            with pytest.raises(TypeError):
                f * scalar
            with pytest.raises(TypeError):
                scalar * f

    def test_signature_mismatch(self):
        f = LaurentPoly.one(3, 1, 0)
        g = LaurentPoly.one(3, 2, 0)
        h = LaurentPoly.one(5, 1, 0)
        for other in (g, h):
            with pytest.raises(SignatureError):
                f + other

    @given(f=polys(2, 0, prime=3), g=polys(2, 0, prime=3), h=polys(2, 0, prime=3))
    def test_ring_axioms(self, f, g, h):
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def assert_no_zero_terms(f: LaurentPoly) -> None:
    assert all(v != 0 for v in f.terms.values()), f


class TestNoZeroCoefficients:
    """The ring operations build results through the trusted `_new`, which
    stores its terms as given: no operation may hand it a zero."""

    @given(f=polys(1, 1, prime=3), g=polys(1, 1, prime=3), i=st.integers(0, 1))
    def test_ring_ops_and_partial(self, f, g, i):
        for h in (f + g, f - g, f * g, f - f, -f, f + (-f), f.partial(i), f * Fraction(1, 3)):
            assert_no_zero_terms(h)
        assert (f - f).is_zero
        # Sums that cancel only part of the terms.
        assert_no_zero_terms((f + g) - g)
        assert_no_zero_terms(f * g - g * f)
        assert (f * g - g * f).is_zero

    @given(
        f=polys(2, 0, prime=3),
        c=st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-4, 5)]),
    )
    def test_specialize(self, f, c):
        pt = (c,)
        for direction in (0, 1):
            assert_no_zero_terms(f.specialize(direction, pt))

    def test_specialize_cancellation(self):
        # t1 * t2 - 2 t1 at t2 = 2 cancels to zero.
        f = LaurentPoly(3, 2, 0, {(1, 1): 1, (1, 0): -2})
        g = f.specialize(0, (Fraction(2),))
        assert g.is_zero

    def test_partial_of_constants_is_empty(self):
        f = LaurentPoly(3, 1, 1, {(0, 0): 5, (0, 2): 1})
        assert f.partial(0).is_zero


class TestPartial:
    def test_known_derivatives(self):
        # d/dt (t**3 + 2 t**-2 + 5) = 3 t**2 - 4 t**-3
        f = LaurentPoly(3, 1, 0, {(3,): 1, (-2,): 2, (0,): 5})
        assert f.partial(0) == LaurentPoly(3, 1, 0, {(2,): 3, (-3,): -4})

    def test_mixed_direction(self):
        f = LaurentPoly(3, 1, 1, {(2, 3): 1})
        assert f.partial(0) == LaurentPoly(3, 1, 1, {(1, 3): 2})
        assert f.partial(1) == LaurentPoly(3, 1, 1, {(2, 2): 3})
        with pytest.raises(IndexError):
            f.partial(2)

    @given(f=polys(1, 1, prime=5), g=polys(1, 1, prime=5), i=st.integers(0, 1))
    def test_leibniz_rule(self, f, g, i):
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)

    @given(f=polys(2, 0, prime=3))
    def test_mixed_partials_commute(self, f):
        assert f.partial(0).partial(1) == f.partial(1).partial(0)


class TestGaussNorm:
    def test_tie_between_terms(self):
        # p=3: |3 t**2| = 3**-1, |(1/3) t**-1| = 3**1 at rho = 1.
        f = LaurentPoly(3, 1, 0, {(2,): Fraction(3), (-1,): Fraction(1, 3)})
        assert f.gauss_lognorm((LogRadius.one(),)) == Fraction(-1)
        # rho = 3**-1: min(1 + 2*1, -1 + (-1)*1) = -2.
        rho = (LogRadius(Fraction(1)),)
        assert f.gauss_lognorm(rho) == Fraction(-2)

    def test_zero_polynomial_has_zero_norm(self):
        assert LaurentPoly.zero(3, 1, 0).gauss_lognorm((LogRadius.one(),)) is None

    def test_wrong_arity_rejected(self):
        f = LaurentPoly.one(3, 2, 0)
        with pytest.raises(SignatureError):
            f.gauss_lognorm((LogRadius.one(),))

    @pytest.mark.parametrize("n,m", SIGNATURES)
    def test_multiplicative_random(self, n, m):
        @given(f=polys(n, m, prime=3), g=polys(n, m, prime=3), rho=radii(n, m))
        @settings(max_examples=60)
        def run(f, g, rho):
            a, b = f.gauss_lognorm(rho), g.gauss_lognorm(rho)
            # norms multiply, so exponents add; the zero norm absorbs
            expected = None if a is None or b is None else a + b
            assert (f * g).gauss_lognorm(rho) == expected

        run()

    @pytest.mark.parametrize("n,m", SIGNATURES)
    def test_ultrametric_random(self, n, m):
        @given(f=polys(n, m, prime=3), g=polys(n, m, prime=3), rho=radii(n, m))
        @settings(max_examples=60)
        def run(f, g, rho):
            a = f.gauss_lognorm(rho)
            b = g.gauss_lognorm(rho)
            s = (f + g).gauss_lognorm(rho)
            larger = _least_exponent([a, b])
            assert norm_at_most(s, larger)
            if a != b:
                assert s == larger

        run()

    @given(data=st.data(), n=st.integers(0, 3), m=st.integers(0, 2))
    @settings(max_examples=150)
    def test_matches_per_term_reference(self, data, n, m):
        if n + m == 0:
            n = 1
        f = data.draw(polys(n, m))
        rho = data.draw(radii(n, m))
        exps = [r.exponent for r in rho]
        # Reference: the smallest term exponent v(a_J) + sum_l J_l r_l.
        term_exps = [
            Fraction(fraction_valuation(c, f.prime)) + sum(j * r for j, r in zip(key, exps))
            for key, c in f.terms.items()
        ]
        expected = min(term_exps) if term_exps else None
        assert f.gauss_lognorm(rho) == expected

    @given(f=polys(1, 0, prime=3))
    @settings(max_examples=60)
    def test_exponent_concave_in_radius(self, f):
        """w(r) = min of affine functions of r, hence midpoint-concave."""
        if f.is_zero:
            return
        r1, r2 = Fraction(1, 3), Fraction(2)
        mid = (r1 + r2) / 2

        def w(r):
            return f.gauss_lognorm((LogRadius(r),))

        assert w(mid) >= Fraction(w(r1) + w(r2), 2)


class TestSupVertexNorm:
    def test_vertex_example(self):
        # p=3, f = t**-1 + t: inner radius 3**-1 gives max(1*1, -1*... ) on
        # vertices r in {1, 1/3}: at r=1 both terms give 0; at exponent 1
        # the t**-1 term gives -1.  Sup norm exponent is -1.
        f = LaurentPoly(3, 1, 0, {(-1,): 1, (1,): 1})
        lam = LogRadius(Fraction(1))
        assert f.sup_vertex_lognorm(lam) == Fraction(-1)

    def test_unit_annulus_single_vertex(self):
        f = LaurentPoly(3, 1, 0, {(-2,): Fraction(1, 3)})
        assert f.sup_vertex_lognorm(LogRadius.one()) == Fraction(-1)

    def test_disc_vars_at_radius_one(self):
        f = LaurentPoly(3, 1, 1, {(0, 2): Fraction(9)})
        assert f.sup_vertex_lognorm(LogRadius(Fraction(1))) == Fraction(2)

    @given(f=polys(2, 1, prime=5), lam=st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=8))
    @settings(max_examples=60)
    def test_dominates_interior_gauss_norms(self, f, lam):
        sup = f.sup_vertex_lognorm(LogRadius(lam))
        grid = sorted({Fraction(0), lam, lam / 2, lam * Fraction(3, 4)})
        for r1 in grid:
            for r2 in grid:
                rho = (LogRadius(r1), LogRadius(r2), LogRadius.one())
                assert norm_at_most(f.gauss_lognorm(rho), sup)

    @given(
        data=st.data(),
        n=st.integers(1, 4),
        m=st.integers(0, 2),
        lam=st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=8),
    )
    @settings(max_examples=100)
    def test_matches_corner_enumeration(self, data, n, m, lam):
        # Reference: the largest Gauss norm over all 2^n corners {lam, 1}^n x {1}^m.
        f = data.draw(polys(n, m))
        disc = (LogRadius.one(),) * m
        reference = _least_exponent(
            f.gauss_lognorm(tuple(LogRadius(c) for c in combo) + disc)
            for combo in product((lam, Fraction(0)), repeat=n)
        )
        assert f.sup_vertex_lognorm(LogRadius(lam)) == reference


class TestSpecialize:
    def test_matches_direct_evaluation(self):
        f = LaurentPoly(5, 2, 0, {(2, -1): Fraction(1, 2), (0, 3): 4, (1, 0): -1})
        c = Fraction(2, 3)
        g = f.specialize(0, (c,))
        assert g.nvars_annulus == 1 and g.nvars_disc == 0
        for t_val in (Fraction(1), Fraction(7, 2)):
            assert evaluate(g, (t_val,)) == evaluate(f, (t_val, c))

    def test_int_coordinates_stay_exact(self):
        # 2 ** -1 would be the float 0.5 without the conversion to Fraction.
        f = LaurentPoly(3, 2, 0, {(1, -1): 1, (0, -2): 1})
        g = f.specialize(0, (2,))
        assert g == LaurentPoly(3, 1, 0, {(1,): Fraction(1, 2), (0,): Fraction(1, 4)})
        assert all(type(c) is Fraction for c in g.terms.values())

    def test_wrong_coordinate_count(self):
        f = LaurentPoly.one(5, 2, 0)
        with pytest.raises(SignatureError, match="expected 1 coordinates, got 2"):
            f.specialize(0, (Fraction(2), Fraction(2)))

    def test_disc_direction_signature(self):
        f = LaurentPoly(3, 1, 1, {(2, 1): 1})
        g = f.specialize(1, (Fraction(2),))
        assert g.nvars_annulus == 0 and g.nvars_disc == 1
        assert g == LaurentPoly(3, 0, 1, {(1,): 4})

    @given(
        f=polys(2, 0, prime=3),
        g=polys(2, 0, prime=3),
        c=st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-4)]),
    )
    @settings(max_examples=60)
    def test_specialization_is_a_ring_map(self, f, g, c):
        pt = (c,)
        assert (f * g).specialize(0, pt) == f.specialize(0, pt) * g.specialize(0, pt)
        assert (f + g).specialize(0, pt) == f.specialize(0, pt) + g.specialize(0, pt)


class TestRecords:
    def test_round_trip_sorted(self):
        f = LaurentPoly(3, 1, 1, {(2, 0): Fraction(1, 3), (-1, 2): 5})
        recs = f.to_records()
        assert recs == [
            {"exps": [-1, 2], "coeff": "5"},
            {"exps": [2, 0], "coeff": "1/3"},
        ]
        assert LaurentPoly.from_records(3, 1, 1, recs) == f

    def test_malformed_record(self):
        with pytest.raises(SignatureError):
            LaurentPoly.from_records(3, 1, 0, [{"exps": [0], "coeff": 7}])
        with pytest.raises(SignatureError):
            LaurentPoly.from_records(3, 1, 0, [[[0], "1"]])

    def test_unknown_record_fields_rejected(self):
        with pytest.raises(SignatureError, match="zzz"):
            LaurentPoly.from_records(3, 1, 0, [{"exps": [0], "coeff": "1", "zzz": 5}])

    @pytest.mark.parametrize(
        "coeff", ["1e3", "1_000", "0.5", " 1", "1/2 ", "+1", "1/-2", "-", "1/", "\u0663", ""]
    )
    def test_coefficient_must_be_num_over_den(self, coeff):
        with pytest.raises(SignatureError, match="num/den"):
            LaurentPoly.from_records(3, 1, 0, [{"exps": [0], "coeff": coeff}])

    def test_accepted_coefficient_spellings(self):
        recs = [{"exps": [0], "coeff": "-12/8"}, {"exps": [1], "coeff": "007"}]
        f = LaurentPoly.from_records(3, 1, 0, recs)
        assert f == LaurentPoly(3, 1, 0, {(0,): Fraction(-3, 2), (1,): 7})
        with pytest.raises(ValueError):
            LaurentPoly.from_records(3, 1, 0, [{"exps": [0], "coeff": "1/0"}])

    @given(f=polys(1, 1, prime=5))
    def test_round_trip_random(self, f):
        assert LaurentPoly.from_records(5, 1, 1, f.to_records()) == f
