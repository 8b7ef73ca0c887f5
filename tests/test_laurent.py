import tracemalloc
from fractions import Fraction
from itertools import islice, product
from math import lcm
from operator import add
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius import laurent
from nabla_radius.connection import _least_exponent, iter_deriv_matrices
from nabla_radius.corpus import random_integrable_module
from nabla_radius.laurent import LaurentPoly, SignatureError
from nabla_radius.padic import POWER_BITS_CAP, LogRadius, fraction_valuation

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


@st.composite
def ladder_polys(draw, n, m, p, kind):
    """Polynomials built by `LaurentPoly._new`, as the derivative ladder
    builds them: int values +-u*p**e with e <= 600 ("int"), Fractions
    +-u/(p**k * q) with k >= 1 ("fraction"), or a mix of both ("mixed")."""
    ann = st.integers(min_value=-2, max_value=2)
    disc = st.integers(min_value=0, max_value=2)
    keys = draw(st.lists(st.tuples(*([ann] * n + [disc] * m)), unique=True, max_size=10))
    terms = {}
    for key in keys:
        sign = draw(st.sampled_from([1, -1]))
        u = draw(st.integers(min_value=1, max_value=2 ** 64))
        if kind == "int" or (kind == "mixed" and draw(st.booleans())):
            terms[key] = sign * u * p ** draw(st.integers(min_value=0, max_value=600))
        else:
            k = draw(st.integers(min_value=1, max_value=5))
            q = draw(st.integers(min_value=1, max_value=60))
            terms[key] = Fraction(sign * u, p ** k * q)
    return LaurentPoly._new(p, n, m, terms)


@st.composite
def class_radii(draw, n, m):
    """Radius vectors from a few small exponents, so that weights collide."""
    pos = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    return tuple(LogRadius(draw(pos)) for _ in range(n + m))


def per_term_lognorm(f: LaurentPoly, rho) -> Fraction | None:
    """Reference norm: the smallest term exponent v(a_J) + sum_l J_l r_l."""
    exps = [r.exponent for r in rho]
    term_exps = [
        Fraction(fraction_valuation(c, f.prime)) + sum(j * r for j, r in zip(key, exps))
        for key, c in f.terms.items()
    ]
    return min(term_exps) if term_exps else None


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


def per_term_specialize(f: LaurentPoly, direction: int, coords) -> dict:
    """Reference substitution: each term times its coordinate powers, in
    Fractions, summed term by term into the kept exponent."""
    others = [l for l in range(f.nvars) if l != direction]
    acc: dict = {}
    for key, coeff in f.terms.items():
        c = Fraction(coeff)
        for l, cl in zip(others, coords):
            c *= Fraction(cl) ** key[l]
        k = (key[direction],)
        acc[k] = acc.get(k, 0) + c
    return {k: v for k, v in acc.items() if v}


@st.composite
def specialize_cases(draw):
    """(f, direction, coords): f on 1 to 4 variables with int or Fraction
    coefficients (denominators may be divisible by p), exponents of both
    signs, and nonzero coordinates of either sign, int or Fraction."""
    p = draw(st.sampled_from(PRIMES))
    n, m = draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 3), (4, 0)]))
    ann = st.integers(min_value=-5, max_value=5)
    disc = st.integers(min_value=0, max_value=5)
    keys = draw(st.lists(st.tuples(*([ann] * n + [disc] * m)), unique=True, max_size=10))
    nonzero = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool)
    fraction = st.builds(
        Fraction, nonzero, st.sampled_from([1, 2, p, p ** 3, 7 * p ** 2, 360])
    )
    terms = {key: draw(st.one_of(nonzero, fraction)) for key in keys}
    direction = draw(st.integers(min_value=0, max_value=n + m - 1))
    small = st.integers(min_value=-12, max_value=12).filter(bool)
    coord = st.one_of(small, st.builds(Fraction, small, st.integers(min_value=1, max_value=12)))
    coords = tuple(draw(coord) for _ in range(n + m - 1))
    if coords and draw(st.booleans()):
        # Add some terms a t^J once more as -a c_l**-k t^(J + k e_l), which
        # specializes to -a t^J, so that output coefficients cancel.
        i = draw(st.integers(min_value=0, max_value=len(coords) - 1))
        l = [l for l in range(n + m) if l != direction][i]
        k = draw(st.integers(min_value=1, max_value=3))
        for key, a in list(terms.items()):
            if not draw(st.booleans()):
                continue
            moved = key[:l] + (key[l] + k,) + key[l + 1:]
            total = terms.get(moved, 0) - a / Fraction(coords[i]) ** k
            if total:
                terms[moved] = total
            else:
                terms.pop(moved, None)
    return LaurentPoly._new(p, n, m, terms), direction, coords


class TestConstruction:
    def test_rejects_bad_shapes(self):
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, {(1, 2): 1})
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 1, {(0, -1): 1})  # disc exponent < 0
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, {(Fraction(1, 2),): 1})
        for n, m in ((-1, 0), (1, -1)):
            with pytest.raises(SignatureError, match="^variable counts must be >= 0$"):
                LaurentPoly(3, n, m)

    def test_assignment_is_refused(self):
        f = LaurentPoly.constant(3, 1, 0, 1)
        with pytest.raises(AttributeError, match="^LaurentPoly is immutable$"):
            f.prime = 5
        assert f.prime == 3

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

    def test_refuses_an_int_past_the_digit_limit_with_its_own_message(self):
        # str() of such an int raises ValueError itself: the refusal must
        # still be a SignatureError that names the value without converting it
        huge = 10**5000
        for args, message in (
            ((1, 0, {(huge, 0): 1}), "exponent vector <tuple past the int/str digit limit> has length 2"),
            ((0, 1, {(-huge,): 1}), "disc variable 0 cannot have negative exponent in <tuple past"),
            ((1, 0, [((huge,), 1), ((huge,), 2)]), "duplicate exponent vector <tuple past"),
            ((2, 0, {(huge, 0.5): 1}), "exponents must be integers: <tuple past"),
        ):
            with pytest.raises(SignatureError, match=f"^{message}"):
                LaurentPoly(3, *args)
        f = LaurentPoly.constant(3, 1, 0, 1)
        for call in (lambda: f.partial(huge), lambda: f.specialize(huge, ())):
            with pytest.raises(
                ValueError,
                match="^direction <int past the int/str digit limit> out of range for a module with 1 variables$",
            ):
                call()
        with pytest.raises(SignatureError, match="^malformed term record <dict past"):
            LaurentPoly.from_records(3, 1, 0, [{"exps": huge, "coeff": 1}])

    def test_duplicate_keys_raise(self):
        with pytest.raises(SignatureError):
            LaurentPoly(3, 1, 0, [((1,), Fraction(1)), ((1,), Fraction(2))])

    def test_negative_annulus_exponents_allowed(self):
        f = LaurentPoly(3, 1, 1, {(-3, 2): Fraction(1, 2)})
        assert f.coefficient((-3, 2)) == Fraction(1, 2)
        assert f.coefficient((0, 0)) == 0
        assert type(f.coefficient((0, 0))) is Fraction

    def test_terms_view_is_read_only(self):
        f = LaurentPoly.constant(3, 1, 0, 1)
        with pytest.raises(TypeError):
            f.terms[(5,)] = Fraction(1)  # type: ignore[index]


class TestRingOps:
    def test_add_sub_cancellation(self):
        f = LaurentPoly(5, 1, 0, {(1,): 2, (0,): 3})
        g = LaurentPoly(5, 1, 0, {(1,): -2, (2,): 1})
        s = f + g
        assert s == LaurentPoly(5, 1, 0, {(0,): 3, (2,): 1})
        assert s + g.scalar_mul(-1) == f

    def test_mul_known_product(self):
        t = LaurentPoly(5, 1, 0, {(1,): 1})
        tinv = LaurentPoly(5, 1, 0, {(-1,): 1})
        assert t * tinv == LaurentPoly.constant(5, 1, 0, 1)
        f = t + LaurentPoly.constant(5, 1, 0, 1)
        assert f * f == LaurentPoly(5, 1, 0, {(2,): 1, (1,): 2, (0,): 1})

    def test_scalar_mul_and_pow(self):
        f = LaurentPoly(3, 1, 0, {(1,): Fraction(1, 2)})
        assert f.scalar_mul(2) == LaurentPoly(3, 1, 0, {(1,): 1})
        assert f.scalar_mul(Fraction(0)) == LaurentPoly.zero(3, 1, 0)
        assert f * f * f == LaurentPoly(3, 1, 0, {(3,): Fraction(1, 8)})
        for k in (2, Fraction(1, 3)):  # `*` takes polynomials; scalars go through scalar_mul
            with pytest.raises(TypeError):
                f * k
            with pytest.raises(TypeError):
                k * f
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

    def test_a_foreign_operand_is_left_to_python(self):
        # __eq__ and __add__ return NotImplemented for a non-polynomial, so
        # == falls back to identity and + raises TypeError
        f = LaurentPoly.constant(3, 1, 0, 1)
        assert (f == "x") is False
        assert (f == 1) is False
        for other in (1, "x"):
            with pytest.raises(TypeError):
                f + other

    def test_signature_mismatch(self):
        f = LaurentPoly.constant(3, 1, 0, 1)
        g = LaurentPoly.constant(3, 2, 0, 1)
        h = LaurentPoly.constant(5, 1, 0, 1)
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
        minus_f, minus_g = f.scalar_mul(-1), g.scalar_mul(-1)
        for h in (f + g, f + minus_g, f * g, minus_f, f + minus_f, f.partial(i),
                  f.scalar_mul(Fraction(1, 3))):
            assert_no_zero_terms(h)
        assert (f + minus_f).is_zero
        # Sums that cancel only part of the terms.
        assert_no_zero_terms((f + g) + minus_g)
        assert_no_zero_terms(f * g + (g * f).scalar_mul(-1))
        assert (f * g + (g * f).scalar_mul(-1)).is_zero

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
        with pytest.raises(ValueError, match="^direction 2 out of range for a module with 2 variables$"):
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
        f = LaurentPoly.constant(3, 2, 0, 1)
        with pytest.raises(ValueError, match="^got 1 radius values for a module with 2 variables$"):
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
        assert f.gauss_lognorm(rho) == per_term_lognorm(f, rho)

    @given(data=st.data(), n=st.integers(0, 2), m=st.integers(0, 2),
           p=st.sampled_from([2, 3, 5]), kind=st.sampled_from(["int", "fraction", "mixed"]))
    @settings(max_examples=200, deadline=None)
    def test_weight_classes_match_per_term_reference(self, data, n, m, p, kind):
        """Ladder-like coefficients, with radii that put several terms in
        one weight class (all of them at the unit radius)."""
        if n + m == 0:
            n = 1
        f = data.draw(ladder_polys(n, m, p, kind))
        rho = data.draw(class_radii(n, m))
        assert f.gauss_lognorm(rho) == per_term_lognorm(f, rho)

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


class TestWeightClassSkip:
    """Classes are visited in ascending weight, and an all-integer class
    whose weight has reached the best exponent is skipped: its gcd has
    valuation >= 0.  A class with a denominator is still evaluated after
    a skipped one, and here it wins."""

    # weights -2, -1 and 0 at r = 1 (Gauss) and at lam = 1 (sup over the
    # annulus): exponents -2, skipped (-1 >= -2) and 0 + v(1/27) = -3
    TERMS = {(-2,): 1, (-1,): 1, (0,): Fraction(1, 27)}

    @pytest.mark.parametrize("build", [
        lambda terms: LaurentPoly(3, 1, 0, terms),
        lambda terms: LaurentPoly._new(3, 1, 0, dict(terms)),  # int coefficients, as the ladder's
    ])
    @pytest.mark.parametrize("norm", [
        lambda f: f.gauss_lognorm((LogRadius(Fraction(1)),)),
        lambda f: f.sup_vertex_lognorm(LogRadius(Fraction(1))),
    ])
    def test_a_later_fraction_class_wins(self, monkeypatch, build, norm):
        f = build(self.TERMS)
        seen = []

        def valuation(x, p):
            seen.append(x)
            return fraction_valuation(x, p)

        monkeypatch.setattr(laurent, "fraction_valuation", valuation)
        assert norm(f) == -3
        assert seen == [1, Fraction(1, 27)]
        assert per_term_lognorm(f, (LogRadius(Fraction(1)),)) == -3


class TestSupVertexNorm:
    def test_vertex_example(self):
        # p=3, f = t**-1 + t: inner radius 3**-1 gives max(1*1, -1*... ) on
        # vertices r in {1, 1/3}: at r=1 both terms give 0; at exponent 1
        # the t**-1 term gives -1.  Sup norm exponent is -1.
        f = LaurentPoly(3, 1, 0, {(-1,): 1, (1,): 1})
        lam = LogRadius(Fraction(1))
        assert f.sup_vertex_lognorm(lam) == Fraction(-1)
        # Both terms weigh -1/2 at lam = 1/2; v(9) = 2 comes first, but the
        # norm takes v(gcd(9, 3)) = 1.
        f = LaurentPoly(3, 2, 0, {(-1, 1): 9, (-1, 0): 3})
        assert f.sup_vertex_lognorm(LogRadius(Fraction(1, 2))) == Fraction(1, 2)

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
        lam=st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
            st.fractions(min_value=Fraction(0), max_value=Fraction(2), max_denominator=8),
        ),
        kind=st.sampled_from(["polys", "int", "fraction", "mixed"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_corner_enumeration(self, data, n, m, lam, kind):
        """Reference: the largest per-term norm over all 2^n corners
        {lam, 1}^n x {1}^m.  Ladder-like coefficients with exponents in
        [-2, 2] put several terms in one weight class (all of them at
        lam = 0)."""
        if kind == "polys":
            f = data.draw(polys(n, m))
        else:
            f = data.draw(ladder_polys(n, m, data.draw(st.sampled_from([2, 3, 5])), kind))
        disc = (LogRadius.one(),) * m
        reference = _least_exponent(
            per_term_lognorm(f, tuple(LogRadius(c) for c in combo) + disc)
            for combo in product((lam, Fraction(0)), repeat=n)
        )
        assert f.sup_vertex_lognorm(LogRadius(lam)) == reference


def least_term_valuation(f: LaurentPoly) -> Fraction | None:
    """Reference norm at the unit radius, where every term weighs 0: the
    least v_p(a_J) over the terms, read without unpacking a packed key."""
    valuations = [fraction_valuation(c, f.prime) for c in f._store.values()]
    return Fraction(min(valuations)) if valuations else None


def assert_unit_norms_match_reference(f: LaurentPoly) -> None:
    bits = f._bits
    expected = least_term_valuation(f)
    assert f.gauss_lognorm((LogRadius.one(),) * f.nvars) == expected
    assert f.gauss_lognorm((LogRadius(Fraction(0)),) * f.nvars) == expected
    assert f.sup_vertex_lognorm(LogRadius(Fraction(0))) == expected
    assert f._bits == bits  # a packed entry is normed in place


class TestZeroRates:
    """Gauss norms at all-zero radii and sup norms at lam = 0 take the
    whole polynomial as one weight class, from its values alone."""

    @given(data=st.data(), n=st.integers(0, 3), m=st.integers(0, 2),
           kind=st.sampled_from(["polys", "int", "fraction", "mixed"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_least_term_valuation(self, data, n, m, kind):
        """Fraction coefficients from `polys` (denominators up to 360, so
        often divisible by p) and ladder-like ones: ints, Fractions over
        p**k * q with k >= 1, and a mix."""
        if n + m == 0:
            n = 1
        if kind == "polys":
            f = data.draw(polys(n, m))
        else:
            f = data.draw(ladder_polys(n, m, data.draw(st.sampled_from([2, 3, 5])), kind))
        assert_unit_norms_match_reference(f)

    @pytest.mark.parametrize("n,m", SIGNATURES)
    def test_zero_polynomial(self, n, m):
        assert_unit_norms_match_reference(LaurentPoly.zero(3, n, m))
        assert_unit_norms_match_reference(LaurentPoly._new(3, n, m, {}, laurent.pack_width(4)))

    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5]),
           rank=st.integers(1, 3), direction=st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_packed_ladder_entries(self, seed, p, rank, direction):
        """Every entry of H_0 .. H_12 of a seeded draw: packed int dicts."""
        module = random_integrable_module(Random(seed), p, rank)
        for H in islice(iter_deriv_matrices(module, direction), 13):
            for row in H.rows:
                for entry in row:
                    assert entry._bits
                    assert_unit_norms_match_reference(entry)


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

    def test_zero_coordinate_on_a_negative_exponent_is_refused(self):
        f = LaurentPoly(3, 2, 0, {(1, -1): 1})
        with pytest.raises(ValueError, match="^coordinate 0 for variable 1, which has a negative exponent$"):
            f.specialize(0, (0,))
        with pytest.raises(ValueError, match="^coordinate 0 for variable 0, "):
            LaurentPoly(3, 2, 0, {(-2, 1): 1, (3, 0): 1}).specialize(1, (Fraction(0),))
        # a zero coordinate is fine where every exponent of its slot is >= 0
        g = LaurentPoly(3, 2, 1, {(1, 2, 0): 5, (-1, 0, 3): 7, (2, 0, 0): 1})
        assert g.specialize(0, (0, 0)) == LaurentPoly(3, 1, 0, {(2,): 1})

    def test_wrong_coordinate_count(self):
        f = LaurentPoly.constant(5, 2, 0, 1)
        with pytest.raises(SignatureError, match="expected 1 coordinates, got 2"):
            f.specialize(0, (Fraction(2), Fraction(2)))

    def test_disc_direction_signature(self):
        f = LaurentPoly(3, 1, 1, {(2, 1): 1})
        g = f.specialize(1, (Fraction(2),))
        assert g.nvars_annulus == 0 and g.nvars_disc == 1
        assert g == LaurentPoly(3, 0, 1, {(1,): 4})

    @given(case=specialize_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_term_reference(self, case):
        f, direction, coords = case
        g = f.specialize(direction, coords)
        assert (g.nvars_annulus, g.nvars_disc) == (
            (1, 0) if direction < f.nvars_annulus else (0, 1)
        )
        assert dict(g.terms) == per_term_specialize(f, direction, coords)
        assert_no_zero_terms(g)
        assert all(type(v) in (int, Fraction) for v in g.terms.values())

    def test_huge_exponent_takes_one_power(self):
        # A power table over 0..15000 would hold thousands of bignums, some
        # 15000 bits long; one power per distinct exponent holds one.
        f = LaurentPoly(3, 2, 0, {(1, 15000): 1})
        tracemalloc.start()
        try:
            g = f.specialize(0, (2,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == LaurentPoly(3, 1, 0, {(1,): 2 ** 15000})
        assert peak < 100_000, peak

    def test_power_past_the_bit_cap_is_refused(self):
        cap = POWER_BITS_CAP
        assert cap == 2**16
        # (b - 1) * E against the cap, b the bits of max(|n|, d): 2 and 1/3
        # have b = 2, -4 and 5/4 have b = 3
        for c, e in ((2, cap), (Fraction(1, 3), cap), (-4, cap // 2), (Fraction(5, 4), cap // 2)):
            f = LaurentPoly(3, 2, 0, {(1, e): 1, (0, -e): 1})
            power = Fraction(c) ** e
            assert f.specialize(0, (c,)) == LaurentPoly(3, 1, 0, {(1,): power, (0,): 1 / power})
            g = LaurentPoly(3, 2, 0, {(1, e + 1): 1})
            with pytest.raises(ValueError, match=f"to the power {e + 1} needs more than {cap} bits$"):
                g.specialize(0, (c,))
        # the largest |exponent| counts, here a negative one
        with pytest.raises(ValueError, match=f"^coordinate 1/2 to the power {cap + 1} "):
            LaurentPoly(3, 2, 0, {(0, -cap - 1): 1}).specialize(0, (Fraction(1, 2),))

    def test_bit_cap_reads_exponents_only(self):
        e = 10**12
        # +-1 and 0 take no bits, however large the exponent
        f = LaurentPoly(3, 2, 0, {(1, e): 1, (0, e - 1): 2})
        assert f.specialize(0, (1,)) == LaurentPoly(3, 1, 0, {(1,): 1, (0,): 2})
        assert f.specialize(0, (-1,)) == LaurentPoly(3, 1, 0, {(1,): 1, (0,): -2})
        assert f.specialize(0, (0,)).is_zero
        # 2**e * (1/2)**e - 1 is 0, but its powers are refused before the sum
        g = LaurentPoly(3, 3, 0, {(0, e, e): 1, (0, 0, 0): -1})
        with pytest.raises(ValueError, match="needs more than"):
            g.specialize(0, (2, Fraction(1, 2)))

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


class TestPackedKeys:
    """The codec of the derivative ladder's keys: one int per exponent
    vector, digits of width b biased by 2**(b-1)."""

    @given(
        bound=st.integers(0, 10**13),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_keys_round_trip_and_add_as_vectors(self, bound, data):
        bits = laurent.pack_width(bound)
        assert 2 ** (bits - 2) <= bound < 2 ** (bits - 1) or bound == 0
        dims = data.draw(st.integers(1, 4))
        vector = st.tuples(*[st.integers(-bound, bound)] * dims)
        J, K = data.draw(vector), data.draw(vector)
        key = laurent.pack_key(J, bits)
        assert laurent.unpack_key(key, dims, bits) == J
        moved = tuple(map(add, J, K))
        if all(abs(j) <= bound for j in moved):
            origin = laurent.pack_key((0,) * dims, bits)
            assert key + laurent.pack_key(K, bits) - origin == laurent.pack_key(moved, bits)

    @given(f=polys(2, 1, prime=3), direction=st.integers(0, 2), scale=st.integers(-9, 9).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_packed_partial_is_the_partial(self, f, direction, scale):
        f = f.scalar_mul(lcm(*[a.denominator for a in f.terms.values()]))  # int coefficients, as on the ladder
        bits = laurent.pack_width(max([1] + [abs(j) for J in f.terms for j in J]))
        packed = {laurent.pack_key(J, bits): int(a) for J, a in f.terms.items()}
        d = laurent.packed_partial(packed, direction, bits, scale)
        assert LaurentPoly._new(3, 2, 1, d, bits) == f.partial(direction).scalar_mul(scale)

    @given(f=polys(2, 1, prime=3), rho=radii(2, 1), lam=radii(1, 0))
    @settings(max_examples=100, deadline=None)
    def test_norms_read_packed_digits_in_place(self, f, rho, lam):
        f = f.scalar_mul(lcm(*[a.denominator for a in f.terms.values()]))
        bits = laurent.pack_width(4)
        packed = LaurentPoly._new(3, 2, 1, {laurent.pack_key(J, bits): int(a) for J, a in f.terms.items()}, bits)
        assert packed.gauss_lognorm(rho) == f.gauss_lognorm(rho)
        assert packed.sup_vertex_lognorm(lam[0]) == f.sup_vertex_lognorm(lam[0])
        assert packed._bits == bits  # no key was unpacked

    def test_a_packed_entry_unpacks_once_when_its_keys_are_read(self, monkeypatch):
        # norms read the packed digits in place; a read of the keys unpacks
        # them into a fresh dict, once per read, and leaves the entry packed
        bits = laurent.pack_width(5)
        store = {laurent.pack_key((5, -5), bits): 9, laurent.pack_key((0, 2), bits): 6}
        entry = LaurentPoly._new(3, 2, 0, store, bits)
        calls = []
        unpack = laurent.unpack_key
        monkeypatch.setattr(laurent, "unpack_key", lambda *args: calls.append(args) or unpack(*args))
        assert not entry.is_zero
        assert entry.gauss_lognorm((LogRadius.one(),) * 2) == 1
        assert entry.gauss_lognorm((LogRadius(Fraction(1, 2)), LogRadius(Fraction(1, 3)))) == Fraction(5, 3)
        assert entry.sup_vertex_lognorm(LogRadius(Fraction(1, 2))) == Fraction(-1, 2)
        assert calls == []
        first, second = entry.terms, entry.terms
        assert first == second == {(5, -5): 9, (0, 2): 6}
        assert len(calls) == 4
        for read in (repr, LaurentPoly.to_records):
            calls.clear()
            read(entry)
            assert len(calls) == 2  # one read, one unpack per key
        assert repr(entry) == "LaurentPoly(p=3, 2+0 vars, 6*t^(0, 2) + 9*t^(5, -5))"
        assert entry == LaurentPoly(3, 2, 0, {(5, -5): 9, (0, 2): 6})
        assert entry._store is store and entry._bits == bits
        assert entry.gauss_lognorm((LogRadius(Fraction(1, 2)),) * 2) == 2
