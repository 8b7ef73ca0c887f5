from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    NotIntegrableError,
    PolyMatrix,
    curvature,
    integrability_check,
    iter_deriv_matrices,
    ladder_denominator,
    require_integrable,
)
from nabla_radius.corpus import (
    exponential_module,
    exponential_two_var_module,
    falling_factorial_valuation,
    power_module,
    trivial_module,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.padic import LogRadius, int_valuation
from nabla_radius.radius import deriv_ladder, intrinsic_radius, taylor_probe


def scalar(p, n, m, value):
    return LaurentPoly.constant(p, n, m, value)


def scaled(A, factor):
    """factor * A, entry by entry."""
    return PolyMatrix(tuple(tuple(e.scalar_mul(factor) for e in row) for row in A.rows))


def ladder(module, direction, depth):
    """G_0 .. G_depth of the derivative recursion in one direction: the
    ladder's numerators H_s divided by c**s."""
    c = ladder_denominator(module, direction)
    numerators = islice(iter_deriv_matrices(module, direction), depth + 1)
    return [scaled(H, Fraction(1, c ** s)) for s, H in enumerate(numerators)]


def reference_ladder(module, direction, depth):
    """G_0 .. G_depth by the plain recursion G_{s+1} = d(G_s) + N G_s."""
    N = module.matrices[direction]
    G = PolyMatrix.identity(module.prime, module.nvars_annulus, module.nvars_disc, module.rank)
    seq = [G]
    for _ in range(depth):
        G = G.partial(direction) + N @ G
        seq.append(G)
    return seq


class TestPolyMatrix:
    def test_construction_checks(self):
        p = 3
        with pytest.raises(ValueError):
            PolyMatrix([[LaurentPoly.one(p, 1, 0)], []])
        with pytest.raises(ValueError):
            PolyMatrix([[LaurentPoly.one(p, 1, 0), LaurentPoly.one(p, 1, 0)]])
        with pytest.raises(ValueError):
            PolyMatrix([[LaurentPoly.one(p, 1, 0), LaurentPoly.one(p, 2, 0)],
                        [LaurentPoly.one(p, 1, 0), LaurentPoly.one(p, 1, 0)]])

    def test_identity_and_matmul(self):
        p = 3
        I = PolyMatrix.identity(p, 1, 0, 2)
        t = LaurentPoly.variable(p, 1, 0, 0)
        A = PolyMatrix([[t, LaurentPoly.one(p, 1, 0)],
                        [LaurentPoly.zero(p, 1, 0), t]])
        assert I @ A == A
        assert A @ I == A
        sq = A @ A
        assert sq.rows[0][0] == t * t
        assert sq.rows[0][1] == 2 * t
        assert sq.rows[1][1] == t * t

    def test_add_sub_zero(self):
        p = 5
        A = PolyMatrix.from_scalar_rows(p, 1, 0, [[1, 2], [3, 4]])
        Z = PolyMatrix.zeros(p, 1, 0, 2)
        assert A + Z == A
        assert (A - A).is_zero

    def test_partial_entrywise(self):
        p = 3
        t = LaurentPoly.variable(p, 1, 0, 0)
        A = PolyMatrix([[t * t]])
        assert A.partial(0) == PolyMatrix([[2 * t]])

    def test_gauss_norm_is_max_entry(self):
        p = 3
        A = PolyMatrix.from_scalar_rows(p, 1, 0, [[Fraction(3), Fraction(1, 9)],
                                                  [Fraction(1), Fraction(27)]])
        assert A.gauss_lognorm((LogRadius.one(),)) == Fraction(-2)
        assert PolyMatrix.zeros(p, 1, 0, 2).gauss_lognorm((LogRadius.one(),)) is None

    def test_specialize_entrywise(self):
        p = 3
        t2 = LaurentPoly.variable(p, 2, 0, 1)
        A = PolyMatrix([[t2]])
        B = A.specialize(0, (Fraction(2),))
        assert B.rows[0][0] == LaurentPoly.constant(p, 1, 0, 2)


class TestIntegrability:
    def test_known_curvature_witness(self):
        # N1 = [t2], N2 = [0]: K_12 = d1(N2) - d2(N1) + [N1, N2] = [-1].
        p = 3
        t2 = LaurentPoly.variable(p, 2, 0, 1)
        module = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
        )
        K = curvature(module, 0, 1)
        assert K == PolyMatrix.from_scalar_rows(p, 2, 0, [[-1]])
        violation = integrability_check(module)
        assert violation is not None
        assert (violation.i, violation.j) == (0, 1)
        for _ in range(2):  # the second call answers from the first one's result
            with pytest.raises(NotIntegrableError):
                require_integrable(module)

    def test_commuting_diagonal_matrices_pass(self):
        p = 3
        t1 = LaurentPoly.variable(p, 2, 0, 0)
        t2 = LaurentPoly.variable(p, 2, 0, 1)
        # N_i = d_i(phi) * I for phi = t1*t2 is integrable by construction.
        module = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[t2]]), PolyMatrix([[t1]])),
        )
        assert integrability_check(module) is None

    def test_one_variable_always_integrable(self):
        assert integrability_check(power_module(5, Fraction(3))) is None

    def test_module_validation(self):
        p = 3
        with pytest.raises(ValueError):
            ConnectionModule(prime=p, nvars_annulus=1, nvars_disc=0, rank=1, matrices=())
        with pytest.raises(ValueError):
            ConnectionModule(
                prime=p, nvars_annulus=1, nvars_disc=0, rank=2,
                matrices=(PolyMatrix([[LaurentPoly.one(p, 1, 0)]]),),
            )


class TestIteratedDerivatives:
    def test_trivial_module_all_identity_derivatives(self):
        module = trivial_module(3, 1, 0, 2)
        seq = ladder(module, 0, 5)
        assert seq[0] == PolyMatrix.identity(3, 1, 0, 2)
        for s in range(1, 6):
            assert seq[s].is_zero

    def test_exponential_closed_form(self):
        # N = [1]: G_s = [1] for every s.
        module = exponential_module(3)
        seq = ladder(module, 0, 6)
        one = PolyMatrix.from_scalar_rows(3, 0, 1, [[1]])
        for s in range(7):
            assert seq[s] == one

    @pytest.mark.parametrize("a", [Fraction(3), Fraction(1, 2), Fraction(-2, 3)])
    def test_power_module_closed_form(self, a):
        # N = [a/t]: G_s = a(a-1)...(a-s+1) / t**s.
        p = 5
        module = power_module(p, a)
        seq = ladder(module, 0, 6)
        coeff = Fraction(1)
        for s in range(7):
            expected = LaurentPoly(p, 1, 0, {(-s,): coeff})
            assert seq[s] == PolyMatrix([[expected]])
            coeff *= a - s

    def test_integer_power_vanishes_exactly(self):
        module = power_module(5, Fraction(3))
        seq = ladder(module, 0, 8)
        assert not seq[3].is_zero
        for s in range(4, 9):
            assert seq[s].is_zero

    def test_matches_falling_factorial_oracle(self):
        p, a = 3, Fraction(1, 2)
        module = power_module(p, a)
        seq = ladder(module, 0, 40)
        for s in range(41):
            w = falling_factorial_valuation(a, s, p)
            got = seq[s].gauss_lognorm((LogRadius.one(),))
            assert got == w

    def test_recursion_invariant(self):
        # G_{s+1} = d(G_s) + N G_s, checked directly on a two-var module.
        module = exponential_two_var_module(3)
        for i in range(2):
            seq = ladder(module, i, 6)
            N = module.matrices[i]
            for s in range(6):
                assert seq[s + 1] == seq[s].partial(i) + N @ seq[s]

    def test_direction_out_of_range(self):
        module = exponential_module(3)
        with pytest.raises(IndexError):
            next(iter_deriv_matrices(module, 1))
        with pytest.raises(IndexError):
            list(deriv_ladder(module, 1, 3))

    def test_depth_cap(self):
        # The recursion itself is unbounded; the analyses refuse depths
        # above the cap and accept the cap itself.
        module = exponential_module(3)
        assert len(ladder(module, 0, 600)) == 601
        with pytest.raises(DepthCapError):
            intrinsic_radius(module, (LogRadius.one(),), DEFAULT_DEPTH_CAP + 1)
        report = intrinsic_radius(module, (LogRadius.one(),), DEFAULT_DEPTH_CAP)
        assert report.depth == DEFAULT_DEPTH_CAP

    def test_non_integrable_rejected(self):
        p = 3
        t2 = LaurentPoly.variable(p, 2, 0, 1)
        module = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
        )
        with pytest.raises(NotIntegrableError):
            require_integrable(module)
        with pytest.raises(NotIntegrableError):
            taylor_probe(module, LogRadius(Fraction(1, 4)), LogRadius.one(), 8)

    def test_generator_matches_sequence(self):
        module = power_module(3, Fraction(1, 2))
        gen = iter_deriv_matrices(module, 0)
        walk = list(deriv_ladder(module, 0, 5))
        assert next(gen) == PolyMatrix.identity(3, 1, 0, 1)
        assert [s for s, _, _ in walk] == [1, 2, 3, 4, 5]
        assert [shift for _, _, shift in walk] == [0] * 5  # c = 2, a 3-adic unit
        for _, H, _ in walk:
            assert next(gen) == H

    def test_shift_is_s_times_the_denominator_valuation(self):
        # N = [a/t] with a = 1/6 at p = 3: c = 6 and v_3(c) = 1.
        module = power_module(3, Fraction(1, 6))
        assert ladder_denominator(module, 0) == 6
        walk = list(deriv_ladder(module, 0, 6))
        assert [shift for _, _, shift in walk] == [1, 2, 3, 4, 5, 6]
        seq = ladder(module, 0, 6)
        for s, H, shift in walk:
            w = H.gauss_lognorm((LogRadius.one(),))
            assert w - shift == seq[s].gauss_lognorm((LogRadius.one(),))

    @given(
        e1=st.integers(-3, 3).filter(bool),
        e2=st.integers(-3, 3).filter(bool),
        c=st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(-5)]),
    )
    @settings(max_examples=25, deadline=None)
    def test_potential_modules_integrable_and_consistent(self, e1, e2, c):
        """N_i = d_i(phi) for a monomial potential phi = c t1**e1 t2**e2."""
        p = 3
        phi = LaurentPoly(p, 2, 0, {(e1, e2): c})
        module = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[phi.partial(0)]]), PolyMatrix([[phi.partial(1)]])),
        )
        assert integrability_check(module) is None
        seq = ladder(module, 0, 4)
        N = module.matrices[0]
        for s in range(4):
            assert seq[s + 1] == seq[s].partial(0) + N @ seq[s]


_EXPONENTS = st.sampled_from([-2, -1, 1, 2])
_C_ENTRIES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def fractional_modules(draw):
    """Integrable modules N_i = d_i(phi) C on one annulus and one disc
    variable.  phi's first monomial has a coefficient whose denominator is
    divisible by p and by another prime q; its exponents are +-1 or +-2
    and p, q > 2, so d_i keeps both primes in every direction."""
    p, q = draw(st.sampled_from([(3, 5), (3, 7), (5, 3), (5, 7)]))
    num = draw(st.integers(-20, 20).filter(lambda k: k % p and k % q))
    den = p ** draw(st.integers(1, 2)) * q
    terms = {(draw(_EXPONENTS), draw(st.integers(1, 2))): Fraction(num, den)}
    key = (draw(_EXPONENTS), draw(st.integers(0, 3)))
    if draw(st.booleans()) and key not in terms:
        terms[key] = draw(st.integers(-4, 4))
    phi = LaurentPoly(p, 1, 1, terms)
    rank = draw(st.sampled_from([1, 2]))
    C = [[1]] if rank == 1 else [[1, draw(_C_ENTRIES)], [draw(_C_ENTRIES), draw(_C_ENTRIES)]]
    matrices = tuple(
        PolyMatrix(tuple(
            tuple(phi.partial(i).scalar_mul(C[r][c]) for c in range(rank))
            for r in range(rank)
        ))
        for i in range(2)
    )
    return ConnectionModule(prime=p, nvars_annulus=1, nvars_disc=1, rank=rank, matrices=matrices)


class TestIntegerLadder:
    @given(module=fractional_modules())
    @settings(max_examples=30, deadline=None)
    def test_numerators_over_c_power_match_the_fraction_recursion(self, module):
        assert integrability_check(module) is None
        for i in range(module.dims):
            c = ladder_denominator(module, i)
            assert c % module.prime == 0 and c // module.prime ** int_valuation(c, module.prime) > 1
            numerators = list(islice(iter_deriv_matrices(module, i), 13))
            for s, (H, G) in enumerate(zip(numerators, reference_ladder(module, i, 12))):
                assert scaled(H, Fraction(1, c ** s)) == G, (i, s)
                for row in H.rows:
                    for entry in row:
                        assert all(type(v) is int for v in entry.terms.values()), (i, s)

    def test_denominator_is_one_on_an_integral_module(self):
        # Integer values stored as Fractions still have denominator 1.
        for module in (exponential_two_var_module(3), power_module(5, Fraction(3))):
            assert all(ladder_denominator(module, i) == 1 for i in range(module.dims))
            H = list(islice(iter_deriv_matrices(module, 0), 4))
            assert H == reference_ladder(module, 0, 3)

    def test_coefficient_of_an_int_term_is_a_fraction(self):
        one = PolyMatrix.identity(3, 1, 0, 1).rows[0][0]
        assert type(one.terms[(0,)]) is int
        for exps, value in (((0,), 1), ((1,), 0)):
            assert one.coefficient(exps) == value
            assert type(one.coefficient(exps)) is Fraction

    def test_denominator_is_the_lcm_over_every_entry(self):
        p = 3
        module = ConnectionModule(
            prime=p, nvars_annulus=1, nvars_disc=0, rank=2,
            matrices=(PolyMatrix.from_scalar_rows(
                p, 1, 0, [[Fraction(1, 6), 0], [Fraction(5, 4), Fraction(2, 9)]]
            ),),
        )
        assert ladder_denominator(module, 0) == 36
        with pytest.raises(IndexError):
            ladder_denominator(module, 1)
