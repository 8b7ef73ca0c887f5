import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.padic import (
    NORM_ONE,
    NORM_ZERO,
    PRIME_BOUND,
    LogNorm,
    LogRadius,
    PAdicRational,
    PrimeError,
    check_prime,
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


class TestPAdicRational:
    def test_construction_and_str(self):
        x = PAdicRational(Fraction(3, 4), 5)
        assert str(x) == "3/4"
        assert PAdicRational.from_str("-2/7", 3).value == Fraction(-2, 7)
        with pytest.raises(PrimeError):
            PAdicRational(Fraction(1), 6)

    def test_zero_one_flags(self):
        p = 3
        assert PAdicRational.zero(p).is_zero
        assert PAdicRational.one(p).is_unit
        assert not PAdicRational(Fraction(3), p).is_unit
        assert not PAdicRational(Fraction(1, 3), p).is_unit
        assert PAdicRational(Fraction(2, 5), 3).is_unit

    @given(x=rationals, p=prime_st)
    def test_lognorm_matches_valuation(self, x, p):
        a = PAdicRational(x, p)
        n = a.lognorm()
        if x == 0:
            assert n is NORM_ZERO
        else:
            assert n.exponent == fraction_valuation(x, p)

    @given(x=nonzero_rationals, y=nonzero_rationals, p=prime_st)
    def test_norm_is_multiplicative(self, x, y, p):
        a = PAdicRational(x, p)
        b = PAdicRational(y, p)
        product = PAdicRational(x * y, p)
        assert product.lognorm() == LogNorm(a.lognorm().exponent + b.lognorm().exponent)


class TestLogNorm:
    def test_ordering_by_magnitude(self):
        # p**-1 < p**0: larger exponent means smaller norm.
        small = LogNorm(Fraction(1))
        assert small < NORM_ONE
        assert NORM_ZERO < small
        assert max(NORM_ZERO, small, NORM_ONE) == NORM_ONE
        assert min(NORM_ZERO, small, NORM_ONE) == NORM_ZERO

    def test_multiplication(self):
        a = LogNorm(Fraction(1, 2))
        b = LogNorm(Fraction(1, 3))
        assert (a * b).exponent == Fraction(5, 6)
        assert (a * NORM_ZERO).is_zero
        assert (NORM_ZERO * NORM_ZERO).is_zero

    def test_helpers(self):
        a = LogNorm(Fraction(2))
        b = LogNorm(Fraction(1, 7))
        assert max(a, b) == b
        assert min([a, b, NORM_ONE]) == a

    def test_parse_round_trip(self):
        for text in ["0", "1/2", "-3", "inf"]:
            assert LogNorm.parse(text).exponent_str() == text

    @given(
        w=st.lists(
            st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60),
            min_size=2,
            max_size=6,
        )
    )
    def test_max_is_min_exponent(self, w):
        norms = [LogNorm(e) for e in w]
        assert max(norms).exponent == min(w)


class TestLogRadius:
    def test_center_and_one(self):
        assert LogRadius.center().is_center
        assert LogRadius.center() == LogRadius(None)
        assert LogRadius.one().exponent == 0
        assert LogRadius.from_exponent(Fraction(1, 2)).exponent_str() == "1/2"

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            LogRadius(Fraction(-1, 2))

    def test_parse_round_trip(self):
        for text in ["0", "7/3", "center"]:
            assert LogRadius.parse(text).exponent_str() == text
