import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.connection import PolyMatrix, _least_exponent
from nabla_radius.laurent import LaurentPoly
from nabla_radius.padic import (
    PRIME_BOUND,
    PrimeError,
    check_prime,
    check_radius,
    exact,
    fraction_valuation,
    int_valuation,
    parse_fraction,
)

PRIMES = [2, 3, 5, 7, 11, 13]

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=720
)
nonzero_rationals = rationals.filter(lambda x: x != 0)
prime_st = st.sampled_from(PRIMES)


def test_check_prime_accepts_primes():
    for p in PRIMES + [101, 997]:
        assert check_prime(p) == p


@pytest.mark.parametrize("bad", [1, 0, -3, 4, 9, 100, True, False])
def test_check_prime_rejects(bad):
    with pytest.raises(PrimeError):
        check_prime(bad)


def test_check_prime_is_fast_on_large_primes():
    # Trial division needed ~10**7.5 steps for this 15-digit prime.
    start = time.perf_counter()
    for p in (2, 3, 999999999999989):
        assert check_prime.__wrapped__(p) == p
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "composite",
    [
        3215031751,  # 151 * 751 * 28351: strong pseudoprime to bases 2, 3, 5, 7
        999999999999989 * 1000000007,
        341550071728321,  # strong pseudoprime to bases 2..17
    ],
)
def test_check_prime_rejects_strong_pseudoprimes_and_semiprimes(composite):
    with pytest.raises(PrimeError, match="not a prime"):
        check_prime(composite)


def test_check_prime_refuses_above_the_deterministic_bound():
    with pytest.raises(PrimeError, match=str(PRIME_BOUND)):
        check_prime(PRIME_BOUND)
    with pytest.raises(PrimeError, match=str(PRIME_BOUND)):
        check_prime(2**89 - 1)  # a Mersenne prime, but beyond the bound


def test_check_prime_refuses_an_int_past_the_digit_limit_with_prime_error():
    # str() of such an int raises ValueError itself: the refusal must still
    # be a PrimeError, and name the value without converting it
    with pytest.raises(PrimeError) as info:
        check_prime(10**5000)
    assert str(info.value) == (
        f"<int past the int/str digit limit> is at or above the bound {PRIME_BOUND}"
        " of the primality test"
    )
    with pytest.raises(PrimeError, match="^not a prime: <int past the int/str digit limit>$"):
        check_prime(-(10**5000))
    # a value that str() takes keeps its message
    with pytest.raises(PrimeError, match=f"^618970019642690137449562111 is at or above the bound {PRIME_BOUND}"):
        check_prime(2**89 - 1)


def test_check_prime_matches_trial_division():
    for k in range(2, 3000):
        is_prime = all(k % d for d in range(2, int(k**0.5) + 1))
        if is_prime:
            assert check_prime.__wrapped__(k) == k
        else:
            with pytest.raises(PrimeError):
                check_prime.__wrapped__(k)


def loop_valuation(k: int, p: int) -> int:
    """Reference: strip one factor of p at a time."""
    v = 0
    k = abs(k)
    while k % p == 0:
        k //= p
        v += 1
    return v


@given(
    k=st.integers(min_value=1, max_value=10**40),
    sign=st.sampled_from([1, -1]),
    e=st.integers(min_value=0, max_value=600),
    p=st.sampled_from([2, 3, 5, 7, 10007]),
)
@settings(max_examples=300)
def test_int_valuation_matches_loop_reference(k, sign, e, p):
    n = sign * k * p**e
    assert int_valuation(n, p) == loop_valuation(n, p)


@given(
    num=st.integers(min_value=-(10**30), max_value=10**30).filter(lambda k: k != 0),
    den=st.integers(min_value=1, max_value=10**30),
    e=st.integers(min_value=-300, max_value=300),
    p=st.sampled_from([2, 3, 5, 7, 10007]),
)
@settings(max_examples=300)
def test_fraction_valuation_matches_loop_reference(num, den, e, p):
    x = Fraction(num, den) * Fraction(p) ** e
    reference = loop_valuation(x.numerator, p) - loop_valuation(x.denominator, p)
    assert fraction_valuation(x, p) == reference


def test_int_valuation_small_cases():
    assert int_valuation(9, 3) == 2
    assert int_valuation(12, 2) == 2
    assert int_valuation(-50, 5) == 2
    assert int_valuation(7, 3) == 0
    with pytest.raises(ValueError):
        int_valuation(0, 3)


def test_fraction_valuation_cases():
    assert fraction_valuation(Fraction(9, 2), 3) == 2
    assert fraction_valuation(Fraction(1, 9), 3) == -2
    assert fraction_valuation(Fraction(10, 6), 5) == 1
    assert fraction_valuation(Fraction(0), 3) is None


@given(x=nonzero_rationals, y=nonzero_rationals, p=prime_st)
def test_valuation_is_additive(x, y, p):
    assert fraction_valuation(x * y, p) == fraction_valuation(x, p) + fraction_valuation(y, p)


@given(x=rationals, y=rationals, p=prime_st)
def test_valuation_ultrametric(x, y, p):
    """v(x + y) >= min(v(x), v(y)), with equality when the two differ."""
    vx = fraction_valuation(x, p)
    vy = fraction_valuation(y, p)
    vs = fraction_valuation(x + y, p)
    if vx is None:
        assert vs == vy
    elif vy is None:
        assert vs == vx
    else:
        assert vs is None or vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-7") == Fraction(-7)
    assert parse_fraction(" 1/2 ") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_fraction("x")
    with pytest.raises(ValueError):
        parse_fraction("1/0")


@pytest.mark.parametrize(
    "text", ["0.5", "1e-3", "1_000", "1e3000000", "+1/2", "+3", "\u0661/\u0662"]
)
def test_parse_fraction_accepts_only_num_over_den(text):
    # Fraction itself reads each of these; "1e3000000" would be a
    # three-million-digit integer, and "\u0661/\u0662" is 1/2 in
    # Arabic-Indic digits, which descriptors do not take either
    with pytest.raises(ValueError, match="malformed rational"):
        parse_fraction(text)


def test_parse_fraction_names_a_long_text_whole():
    # the library names the value whole; `cli.one_line` bounds it on its way out
    text = "1" * 100001
    with pytest.raises(ValueError) as info:
        parse_fraction(text)
    assert str(info.value) == f"malformed rational {text!r}"


class TestPAdicRational:
    """Rationals viewed in Q_p: plain Fractions, with the prime passed to
    `fraction_valuation` alongside them."""

    def test_construction_and_str(self):
        assert str(Fraction(3, 4)) == "3/4"
        assert parse_fraction("-2/7") == Fraction(-2, 7)
        # the prime is checked where it is stored, on the polynomial
        with pytest.raises(PrimeError):
            LaurentPoly.constant(6, 1, 0, Fraction(1))

    def test_zero_one_flags(self):
        p = 3
        assert fraction_valuation(Fraction(0), p) is None
        assert fraction_valuation(Fraction(1), p) == 0
        assert fraction_valuation(Fraction(3), p) == 1
        assert fraction_valuation(Fraction(1, 3), p) == -1
        assert fraction_valuation(Fraction(2, 5), p) == 0

    @given(x=rationals, p=prime_st)
    def test_lognorm_matches_valuation(self, x, p):
        # The norm of a scalar is the Gauss norm of the constant polynomial.
        w = LaurentPoly.constant(p, 1, 0, x).gauss_lognorm((Fraction(0),))
        if x == 0:
            assert w is None
        else:
            assert type(w) is Fraction
            assert w == fraction_valuation(x, p)

    @given(x=nonzero_rationals, y=nonzero_rationals, p=prime_st)
    def test_norm_is_multiplicative(self, x, y, p):
        def norm(c):
            return LaurentPoly.constant(p, 1, 0, c).gauss_lognorm((Fraction(0),))

        assert norm(x * y) == norm(x) + norm(y)


class TestLogNorm:
    """Norms p**(-w) are held as their exponent w: an Optional[Fraction],
    with None for the zero norm.  A larger norm is a smaller exponent."""

    def test_ordering_by_magnitude(self):
        # p**-1 < p**0: the matrix norm is the entry with the least exponent,
        # and the zero norm loses to every nonzero one.
        p = 3
        M = PolyMatrix.from_scalar_rows(p, 1, 0, [[0, 3], [1, 0]])
        assert M.gauss_lognorm((Fraction(0),)) == 0
        assert PolyMatrix.from_scalar_rows(p, 1, 0, [[0, 3]] * 2).gauss_lognorm(
            (Fraction(0),)
        ) == 1
        assert PolyMatrix.zeros(p, 1, 0, 2).gauss_lognorm((Fraction(0),)) is None
        assert PolyMatrix.zeros(p, 1, 0, 2).sup_vertex_lognorm(Fraction(0)) is None

    def test_multiplication(self):
        # At radius 3**(-1/6): |t**3| has exponent 1/2, |t**2| 1/3, |t**5| 5/6.
        rho = (Fraction(1, 6),)
        a = LaurentPoly(3, 1, 0, {(3,): 1})
        b = LaurentPoly(3, 1, 0, {(2,): 1})
        assert a.gauss_lognorm(rho) == Fraction(1, 2)
        assert b.gauss_lognorm(rho) == Fraction(1, 3)
        assert (a * b).gauss_lognorm(rho) == Fraction(5, 6)
        zero = LaurentPoly.zero(3, 1, 0)
        assert (a * zero).gauss_lognorm(rho) is None
        assert (zero * zero).gauss_lognorm(rho) is None

    def test_helpers(self):
        assert _least_exponent([Fraction(2), Fraction(1, 7)]) == Fraction(1, 7)
        assert _least_exponent([Fraction(2), None, Fraction(0)]) == 0
        assert _least_exponent([None, None]) is None
        assert _least_exponent([]) is None

    @given(
        w=st.lists(
            st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60),
            min_size=2,
            max_size=6,
        ),
        zeros=st.integers(0, 3),
    )
    def test_max_is_min_exponent(self, w, zeros):
        assert _least_exponent(w + [None] * zeros) == min(w)


class TestExact:
    def test_int_and_fraction_become_fractions(self):
        half = Fraction(1, 2)
        assert exact(half, "x") is half
        for value in (0, -7, 10**5000):
            r = exact(value, "x")
            assert type(r) is Fraction and r == value

    @pytest.mark.parametrize("value", [0.5, 2.0, True, False, "1/2", None, Decimal("0.5"), 1j])
    def test_anything_else_is_refused_by_name(self, value):
        with pytest.raises(TypeError, match=f"^tol must be int or Fraction, not {type(value).__name__}$"):
            exact(value, "tol")

    def test_subclasses_are_refused(self):
        class Int(int):
            pass

        class Ratio(Fraction):
            pass

        for value in (Int(2), Ratio(1, 2)):
            with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
                exact(value, "window")


class TestLogRadius:
    """A radius p**(-r) in (0, 1] is held on the log scale as its exponent
    r >= 0, a Fraction; `check_radius` is the one door for it."""

    def test_center_and_one(self):
        # A radius is positive: there is no center (radius 0) value.
        with pytest.raises(TypeError, match="^radius exponent must be int or Fraction, not NoneType$"):
            check_radius(None, "radius exponent")
        with pytest.raises(ValueError, match="malformed rational 'center'"):
            check_radius(parse_fraction("center"), "radius exponent")
        assert check_radius(0, "radius exponent") == 0
        assert str(check_radius(Fraction(1, 2), "radius exponent")) == "1/2"
        # the door coerces an int exponent
        assert type(check_radius(2, "radius exponent")) is Fraction

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="^radius exponent must be >= 0, got -1/2$"):
            check_radius(Fraction(-1, 2), "radius exponent")
        with pytest.raises(ValueError, match="^eta must be >= 0, got -1$"):
            check_radius(-1, "eta")
        # an int past the int/str digit limit is named without converting it
        with pytest.raises(ValueError) as info:
            check_radius(-(10**5000), "radius exponent")
        assert str(info.value) == "radius exponent must be >= 0, got <int past the int/str digit limit>"

    def test_rejects_float_and_bool_exponents(self):
        for e in (0.1, 0.5, True, False):
            with pytest.raises(TypeError, match="^lam must be int or Fraction, not "):
                check_radius(e, "lam")

    def test_parse_round_trip(self):
        for text in ["0", "7/3"]:
            assert str(check_radius(parse_fraction(text), "radius exponent")) == text
