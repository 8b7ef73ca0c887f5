from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.laurent import LaurentPoly, RadiusVector, SignatureError
from nabla_radius.padic import (
    NORM_ZERO,
    LogNorm,
    LogRadius,
    PAdicRational,
    fraction_valuation,
)

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
def radii(draw, n, m, allow_center=True):
    pos = st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=12)
    entries = [LogRadius(draw(pos)) for _ in range(n)]
    for _ in range(m):
        if allow_center and draw(st.booleans()):
            entries.append(LogRadius.center())
        else:
            entries.append(LogRadius(draw(pos)))
    return RadiusVector(tuple(entries))


SIGNATURES = [(1, 0), (2, 0), (1, 1), (0, 2)]


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

    def test_rejects_coefficient_prime_mismatch(self):
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, {(0,): PAdicRational(Fraction(1), 5)})

    def test_drops_zero_terms(self):
        f = LaurentPoly(3, 1, 0, {(0,): 0, (2,): 1})
        assert list(f.terms) == [(2,)]
        assert LaurentPoly.zero(3, 1, 0).is_zero

    def test_duplicate_keys_raise(self):
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, [((1,), Fraction(1)), ((1,), Fraction(2))])

    def test_negative_annulus_exponents_allowed(self):
        f = LaurentPoly(3, 1, 1, {(-3, 2): Fraction(1, 2)})
        assert f.coefficient((-3, 2)).value == Fraction(1, 2)

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
        assert f ** 3 == LaurentPoly(3, 1, 0, {(3,): Fraction(1, 8)})
        with pytest.raises(ValueError):
            f ** -1

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
        assert f.gauss_lognorm(RadiusVector.ones(1)).exponent == Fraction(-1)
        # rho = 3**-1: min(1 + 2*1, -1 + (-1)*1) = -2.
        rho = RadiusVector((LogRadius(Fraction(1)),))
        assert f.gauss_lognorm(rho).exponent == Fraction(-2)

    def test_zero_polynomial_has_zero_norm(self):
        assert LaurentPoly.zero(3, 1, 0).gauss_lognorm(RadiusVector.ones(1)) is NORM_ZERO

    def test_disc_center_kills_positive_exponents(self):
        # f = u + 3 on the disc: at the center only the constant survives.
        f = LaurentPoly(3, 0, 1, {(1,): 1, (0,): 3})
        center = RadiusVector((LogRadius.center(),))
        assert f.gauss_lognorm(center).exponent == Fraction(1)
        u_only = LaurentPoly(3, 0, 1, {(1,): 1})
        assert u_only.gauss_lognorm(center) is NORM_ZERO

    def test_annulus_center_rejected(self):
        f = LaurentPoly.one(3, 1, 0)
        with pytest.raises(ValueError):
            f.gauss_lognorm(RadiusVector((LogRadius.center(),)))

    def test_wrong_arity_rejected(self):
        f = LaurentPoly.one(3, 2, 0)
        with pytest.raises(SignatureError):
            f.gauss_lognorm(RadiusVector.ones(1))

    @pytest.mark.parametrize("n,m", SIGNATURES)
    def test_multiplicative_random(self, n, m):
        @given(f=polys(n, m, prime=3), g=polys(n, m, prime=3), rho=radii(n, m))
        @settings(max_examples=60)
        def run(f, g, rho):
            assert (f * g).gauss_lognorm(rho) == f.gauss_lognorm(rho) * g.gauss_lognorm(rho)

        run()

    @pytest.mark.parametrize("n,m", SIGNATURES)
    def test_ultrametric_random(self, n, m):
        @given(f=polys(n, m, prime=3), g=polys(n, m, prime=3), rho=radii(n, m))
        @settings(max_examples=60)
        def run(f, g, rho):
            a = f.gauss_lognorm(rho)
            b = g.gauss_lognorm(rho)
            s = (f + g).gauss_lognorm(rho)
            assert not (max(a, b) < s)
            if a != b:
                assert s == max(a, b)

        run()

    @given(f=polys(1, 0, prime=3))
    @settings(max_examples=60)
    def test_exponent_concave_in_radius(self, f):
        """w(r) = min of affine functions of r, hence midpoint-concave."""
        if f.is_zero:
            return
        r1, r2 = Fraction(1, 3), Fraction(2)
        mid = (r1 + r2) / 2

        def w(r):
            return f.gauss_lognorm(RadiusVector((LogRadius(r),))).exponent

        assert w(mid) >= Fraction(w(r1) + w(r2), 2)


class TestSupVertexNorm:
    def test_vertex_example(self):
        # p=3, f = t**-1 + t: inner radius 3**-1 gives max(1*1, -1*... ) on
        # vertices r in {1, 1/3}: at r=1 both terms give 0; at exponent 1
        # the t**-1 term gives -1.  Sup norm exponent is -1.
        f = LaurentPoly(3, 1, 0, {(-1,): 1, (1,): 1})
        lam = LogRadius(Fraction(1))
        assert f.sup_vertex_lognorm(lam).exponent == Fraction(-1)

    def test_unit_annulus_single_vertex(self):
        f = LaurentPoly(3, 1, 0, {(-2,): Fraction(1, 3)})
        assert f.sup_vertex_lognorm(LogRadius.one()).exponent == Fraction(-1)

    def test_disc_vars_at_radius_one(self):
        f = LaurentPoly(3, 1, 1, {(0, 2): Fraction(9)})
        assert f.sup_vertex_lognorm(LogRadius(Fraction(1))).exponent == Fraction(2)

    @given(f=polys(2, 1, prime=5), lam=st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=8))
    @settings(max_examples=60)
    def test_dominates_interior_gauss_norms(self, f, lam):
        sup = f.sup_vertex_lognorm(LogRadius(lam))
        grid = sorted({Fraction(0), lam, lam / 2, lam * Fraction(3, 4)})
        for r1 in grid:
            for r2 in grid:
                rho = RadiusVector((LogRadius(r1), LogRadius(r2), LogRadius.one()))
                assert not (sup < f.gauss_lognorm(rho))

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
        reference = max(
            f.gauss_lognorm(RadiusVector(tuple(LogRadius(c) for c in combo) + disc))
            for combo in product((lam, Fraction(0)), repeat=n)
        )
        assert f.sup_vertex_lognorm(LogRadius(lam)) == reference


class TestSpecialize:
    def test_matches_direct_evaluation(self):
        f = LaurentPoly(5, 2, 0, {(2, -1): Fraction(1, 2), (0, 3): 4, (1, 0): -1})
        c = PAdicRational(Fraction(2, 3), 5)
        g = f.specialize(0, (c,))
        assert g.nvars_annulus == 1 and g.nvars_disc == 0
        for t_val in (Fraction(1), Fraction(7, 2)):
            assert evaluate(g, (t_val,)) == evaluate(f, (t_val, c.value))

    def test_non_unit_rejected(self):
        f = LaurentPoly.one(5, 2, 0)
        with pytest.raises(ValueError):
            f.specialize(0, (PAdicRational(Fraction(5), 5),))

    def test_disc_direction_signature(self):
        f = LaurentPoly(3, 1, 1, {(2, 1): 1})
        g = f.specialize(1, (PAdicRational(Fraction(2), 3),))
        assert g.nvars_annulus == 0 and g.nvars_disc == 1
        assert g == LaurentPoly(3, 0, 1, {(1,): 4})

    @given(
        f=polys(2, 0, prime=3),
        g=polys(2, 0, prime=3),
        c=st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-4)]),
    )
    @settings(max_examples=60)
    def test_specialization_is_a_ring_map(self, f, g, c):
        pt = (PAdicRational(c, 3),)
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

    @given(f=polys(1, 1, prime=5))
    def test_round_trip_random(self, f):
        assert LaurentPoly.from_records(5, 1, 1, f.to_records()) == f
