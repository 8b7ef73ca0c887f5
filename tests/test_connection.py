from collections import defaultdict
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import add
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius.connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    NotIntegrableError,
    PolyMatrix,
    check_count,
    curvature,
    integrability_check,
    iter_deriv_matrices,
    ladder_matrix,
    require_integrable,
)
from nabla_radius.corpus import (
    exponential_module,
    exponential_two_var_module,
    falling_factorial_valuation,
    power_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius import laurent
from nabla_radius.descriptor import parse_module_descriptor
from nabla_radius.laurent import LaurentPoly, SignatureError
from nabla_radius.padic import LogRadius, fraction_valuation, int_valuation
from nabla_radius.radius import (
    Verdict,
    _walk_plan,
    deriv_ladder,
    intrinsic_radius,
    oc_ir_test,
    taylor_probe,
    unit_step,
)
from test_golden_reports import FRACTIONAL


def scalar(p, n, m, value):
    return LaurentPoly.constant(p, n, m, value)


def scaled(A, factor):
    """factor * A, entry by entry."""
    return PolyMatrix(tuple(tuple(e.scalar_mul(factor) for e in row) for row in A.rows))


def ladder(module, direction, depth):
    """G_0 .. G_depth of the derivative recursion in one direction: the
    ladder's numerators H_s divided by c**s."""
    c = ladder_matrix(module, direction)[0]
    numerators = islice(iter_deriv_matrices(module, direction), depth + 1)
    return [scaled(H, Fraction(1, c ** s)) for s, H in enumerate(numerators)]


def potential_module(p, n, m, terms, C):
    """d + d(phi) C: N_i = d_i(phi) C for phi = sum of terms and a constant
    matrix C.  Every pair of these matrices commutes and d_i d_j phi is
    symmetric, so the module is integrable."""
    phi = LaurentPoly(p, n, m, terms)
    rank = len(C)
    return ConnectionModule(
        prime=p, nvars_annulus=n, nvars_disc=m, rank=rank,
        matrices=tuple(
            PolyMatrix(tuple(
                tuple(phi.partial(i).scalar_mul(C[r][k]) for k in range(rank))
                for r in range(rank)
            ))
            for i in range(n + m)
        ),
    )


def plain_step(G, N, direction):
    """d(G) + N G, entry by entry: one step of the plain recursion."""
    return PolyMatrix(tuple(
        tuple(g.partial(direction) + ng for g, ng in zip(row, products))
        for row, products in zip(G.rows, (N @ G).rows)
    ))


def identity(p, n, m, size):
    """The identity matrix of the given signature and size."""
    return PolyMatrix.from_scalar_rows(p, n, m, [[int(i == j) for j in range(size)] for i in range(size)])


def reference_ladder(module, direction, depth):
    """G_0 .. G_depth by the plain recursion G_{s+1} = d(G_s) + N G_s."""
    N = module.matrices[direction]
    G = identity(module.prime, module.nvars_annulus, module.nvars_disc, module.rank)
    seq = [G]
    for _ in range(depth):
        G = plain_step(G, N, direction)
        seq.append(G)
    return seq


class TestPolyMatrix:
    def test_construction_checks(self):
        p = 3
        with pytest.raises(ValueError):
            PolyMatrix([[LaurentPoly.constant(p, 1, 0, 1)], []])
        with pytest.raises(ValueError):
            PolyMatrix([[LaurentPoly.constant(p, 1, 0, 1), LaurentPoly.constant(p, 1, 0, 1)]])
        with pytest.raises(ValueError):
            PolyMatrix([[LaurentPoly.constant(p, 1, 0, 1), LaurentPoly.constant(p, 2, 0, 1)],
                        [LaurentPoly.constant(p, 1, 0, 1), LaurentPoly.constant(p, 1, 0, 1)]])

    def test_a_foreign_operand_is_left_to_python(self):
        # __eq__ and __matmul__ return NotImplemented for a non-matrix, so
        # == falls back to identity and @ raises TypeError
        A = identity(3, 1, 0, 1)
        assert (A == 1) is False
        assert (A == "x") is False
        with pytest.raises(TypeError):
            A @ 1

    def test_matmul_refuses_a_size_mismatch(self):
        with pytest.raises(SignatureError, match="^matrix size mismatch$"):
            identity(3, 1, 0, 1) @ identity(3, 1, 0, 2)

    def test_assignment_is_refused(self):
        A = identity(3, 1, 0, 1)
        with pytest.raises(AttributeError, match="^PolyMatrix is immutable$"):
            A.prime = 5
        assert A.prime == 3

    def test_identity_and_matmul(self):
        p = 3
        I = identity(p, 1, 0, 2)
        t = LaurentPoly(p, 1, 0, {(1,): 1})
        A = PolyMatrix([[t, LaurentPoly.constant(p, 1, 0, 1)],
                        [LaurentPoly.zero(p, 1, 0), t]])
        assert I @ A == A
        assert A @ I == A
        sq = A @ A
        assert sq.rows[0][0] == t * t
        assert sq.rows[0][1] == t.scalar_mul(2)
        assert sq.rows[1][1] == t * t

    def test_gauss_norm_is_max_entry(self):
        p = 3
        A = PolyMatrix.from_scalar_rows(p, 1, 0, [[Fraction(3), Fraction(1, 9)],
                                                  [Fraction(1), Fraction(27)]])
        assert A.gauss_lognorm((LogRadius.one(),)) == Fraction(-2)
        assert PolyMatrix.zeros(p, 1, 0, 2).gauss_lognorm((LogRadius.one(),)) is None

    def test_unit_radius_norm_takes_one_valuation_per_nonzero_entry(self, monkeypatch):
        p = 3
        t = LaurentPoly(p, 1, 0, {(1,): 1})
        corner = LaurentPoly(p, 1, 0, {(-1,): Fraction(2, 9), (0,): 1})
        N = PolyMatrix([[t + scalar(p, 1, 0, Fraction(1, 3)), LaurentPoly.zero(p, 1, 0)],
                        [(t * t).scalar_mul(Fraction(5, 4)), corner]])
        module = ConnectionModule(prime=p, nvars_annulus=1, nvars_disc=0, rank=2, matrices=(N,))
        H = next(islice(iter_deriv_matrices(module, 0), 6, None))
        entries = [e for row in H.rows for e in row if not e.is_zero]
        assert len(entries) == 3 and all(len(e.terms) > 1 for e in entries)
        expected = min(fraction_valuation(c, p) for e in entries for c in e.terms.values())
        calls = []

        def counting(x, prime):
            calls.append(x)
            return fraction_valuation(x, prime)

        monkeypatch.setattr(laurent, "fraction_valuation", counting)
        assert H.gauss_lognorm((LogRadius.one(),)) == expected
        assert len(calls) == len(entries)

    def test_specialize_entrywise(self):
        p = 3
        t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
        A = PolyMatrix([[t2]])
        B = A.specialize(0, (Fraction(2),))
        assert B.rows[0][0] == LaurentPoly.constant(p, 1, 0, 2)


@st.composite
def random_modules(draw):
    """Modules that need not be integrable: p in {2, 3, 5}, rank 1 to 3, and
    one to three variables, any of them disc variables.  A third of the
    matrices are zero and a third constant multiples of the identity, so
    that some curvatures vanish and others do not."""
    p = draw(st.sampled_from([2, 3, 5]))
    dims = draw(st.integers(1, 3))
    n = draw(st.integers(0, dims))
    m, rank = dims - n, draw(st.integers(1, 3))
    key = st.tuples(*[st.integers(-2, 2)] * n, *[st.integers(0, 2)] * m)
    coeff = st.sampled_from([1, -1, 2, p, Fraction(1, 2), Fraction(-2, 3), Fraction(1, p)])
    entry = st.dictionaries(key, coeff, max_size=2)
    matrices = []
    for _ in range(dims):
        kind = draw(st.sampled_from(["zero", "scalar", "random"]))
        if kind == "random":
            rows = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                                 min_size=rank, max_size=rank))
            matrices.append(PolyMatrix([[LaurentPoly(p, n, m, e) for e in row] for row in rows]))
        else:
            c = 0 if kind == "zero" else draw(coeff)
            matrices.append(PolyMatrix.from_scalar_rows(
                p, n, m, [[c if r == k else 0 for k in range(rank)] for r in range(rank)]))
    return ConnectionModule(prime=p, nvars_annulus=n, nvars_disc=m, rank=rank,
                            matrices=tuple(matrices))


def reference_curvature(module, i, j):
    """d_i(N_j) - d_j(N_i) + N_i N_j - N_j N_i in plain dict arithmetic: one
    {exponents: coefficient} dict per entry, with no zero coefficient."""
    def d(f, l):
        return {J[:l] + (J[l] - 1,) + J[l + 1:]: a * J[l] for J, a in f.items() if J[l]}

    def times(f, g):
        return [(tuple(map(add, J, K)), a * b) for J, a in f.items() for K, b in g.items()]

    Ni, Nj = ([[dict(e.terms) for e in row] for row in module.matrices[l].rows] for l in (i, j))
    K = []
    for r in range(module.rank):
        row = []
        for c in range(module.rank):
            acc = defaultdict(Fraction)
            for sign, pairs in (
                (1, d(Nj[r][c], i).items()),
                (-1, d(Ni[r][c], j).items()),
                *((1, times(Ni[r][k], Nj[k][c])) for k in range(module.rank)),
                *((-1, times(Nj[r][k], Ni[k][c])) for k in range(module.rank)),
            ):
                for J, a in pairs:
                    acc[J] += sign * a
            row.append({J: a for J, a in acc.items() if a})
        K.append(row)
    return K


class TestIntegrability:
    @given(module=random_modules())
    @settings(max_examples=100, deadline=None)
    def test_curvature_matches_a_dict_reference(self, module):
        first = None
        for i in range(module.dims):
            for j in range(module.dims):
                expected = reference_curvature(module, i, j)
                K = curvature(module, i, j)
                assert [[dict(e.terms) for e in row] for row in K.rows] == expected, (i, j)
                if i < j and first is None and any(map(any, expected)):
                    first = (i, j, K)
        violation = integrability_check(module)
        if first is None:
            assert violation is None
        else:
            assert (violation.i, violation.j, violation.curvature) == first

    def test_known_curvature_witness(self):
        # N1 = [t2], N2 = [0]: K_12 = d1(N2) - d2(N1) + [N1, N2] = [-1].
        p = 3
        t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
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
        t1 = LaurentPoly(p, 2, 0, {(1, 0): 1})
        t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
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
                matrices=(PolyMatrix([[LaurentPoly.constant(p, 1, 0, 1)]]),),
            )


class TestIteratedDerivatives:
    def test_trivial_module_all_identity_derivatives(self):
        module = trivial_module(3, 1, 0, 2)
        seq = ladder(module, 0, 5)
        assert seq[0] == identity(3, 1, 0, 2)
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
                assert seq[s + 1] == plain_step(seq[s], N, i)

    def test_bool_counts_are_refused_by_name(self):
        # True == 1, so a bool rank used to pass every check and reach the
        # descriptor as "rank": true
        with pytest.raises(TypeError, match="^rank must be int, not bool$"):
            trivial_module(3, 1, 0, True)
        with pytest.raises(TypeError, match="^nvars_annulus must be int, not bool$"):
            LaurentPoly(3, True, 0, {(1,): 1})

    def test_rank_zero_and_no_variables_are_refused(self):
        with pytest.raises(SignatureError, match="^rank must be >= 1$"):
            ConnectionModule(3, 1, 0, 0, (identity(3, 1, 0, 1),))
        with pytest.raises(SignatureError, match="^need at least one variable$"):
            ConnectionModule(3, 0, 0, 1, ())
        with pytest.raises(ValueError, match="^generator supports rank 1 to 3$"):
            random_integrable_module(Random(0), 3, 4)

    def test_direction_out_of_range(self):
        module = exponential_module(3)
        message = "^direction 1 out of range for a module with 1 variables$"
        with pytest.raises(ValueError, match=message):
            next(iter_deriv_matrices(module, 1))
        with pytest.raises(ValueError, match=message):
            list(deriv_ladder(module, 1, 3))

    def test_depth_cap(self):
        # The recursion yields up to the cap and refuses the matrix past
        # it; the analyses refuse depths above the cap and accept the cap
        # itself.
        module = exponential_module(3)
        assert len(ladder(module, 0, DEFAULT_DEPTH_CAP)) == DEFAULT_DEPTH_CAP + 1
        with pytest.raises(DepthCapError, match="^H_513 is past the depth cap 512$"):
            ladder(module, 0, DEFAULT_DEPTH_CAP + 1)
        with pytest.raises(DepthCapError):
            intrinsic_radius(module, (LogRadius.one(),), DEFAULT_DEPTH_CAP + 1)
        report = intrinsic_radius(module, (LogRadius.one(),), DEFAULT_DEPTH_CAP)
        assert report.depth == DEFAULT_DEPTH_CAP

    def test_one_bounded_count_check(self):
        check_count("trials", 1, 1)
        check_count("trials", DEFAULT_DEPTH_CAP, 1)
        with pytest.raises(ValueError, match="^bound must be at least 8$") as below:
            check_count("bound", 7, 8)
        assert below.type is ValueError
        with pytest.raises(DepthCapError, match="^samples 513 exceeds cap 512$"):
            check_count("samples", DEFAULT_DEPTH_CAP + 1, 1)

    def test_count_past_the_digit_limit_is_a_depth_cap_error(self):
        # str() of such an int raises ValueError itself: the refusal must
        # still be a DepthCapError
        with pytest.raises(DepthCapError) as info:
            check_count("depth", 10**5000, 1)
        assert str(info.value) == "depth <int past the int/str digit limit> exceeds cap 512"
        with pytest.raises(DepthCapError, match="^depth 513 exceeds cap 512$"):
            check_count("depth", 513, 1)

    def test_non_integrable_rejected(self):
        p = 3
        t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
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
        assert next(gen) == identity(3, 1, 0, 1)
        assert [s for s, _, _ in walk] == [1, 2, 3, 4, 5]
        assert [shift for _, _, shift in walk] == [0] * 5  # c = 2, a 3-adic unit
        for _, H, _ in walk:
            assert next(gen) == H

    def test_shift_is_s_times_the_denominator_valuation(self):
        # N = [a/t] with a = 1/6 at p = 3: c = 6 and v_3(c) = 1.
        module = power_module(3, Fraction(1, 6))
        assert ladder_matrix(module, 0)[0] == 6
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
            assert seq[s + 1] == plain_step(seq[s], N, 0)


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
    rank = draw(st.sampled_from([1, 2]))
    C = [[1]] if rank == 1 else [[1, draw(_C_ENTRIES)], [draw(_C_ENTRIES), draw(_C_ENTRIES)]]
    return potential_module(p, 1, 1, terms, C)


# u v^T with v . u = 0, so its square vanishes: in M H_1 = c**2 (d phi)**2 C**2
# every product of the step cancels.
_NILPOTENT = [[1, 1, 1], [-1, -1, -1], [0, 0, 0]]
_SMALL_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 4)])


@st.composite
def wide_modules(draw):
    """Rank-3 modules d + d(phi) C on two annulus and one disc variable.
    phi has two or three monomials; the first has p or p**2 in its
    denominator and exponents of absolute value 1 or 2 (below p) in every
    variable, so v_p(c) > 0 in every direction.  C is the nilpotent matrix
    above or a small integer matrix, so that products collide and cancel."""
    p = draw(st.sampled_from([3, 5]))
    num = draw(st.integers(-20, 20).filter(lambda k: k % p))
    first = (draw(_EXPONENTS), draw(_EXPONENTS), draw(st.integers(1, 2)))
    terms = {first: Fraction(num, p ** draw(st.integers(1, 2)))}
    monomial = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2))
    for key in draw(st.lists(monomial, min_size=1, max_size=2, unique=True)):
        terms.setdefault(key, draw(_SMALL_COEFFS))
    if draw(st.booleans()):
        C = _NILPOTENT
    else:
        row = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
        C = draw(st.lists(row, min_size=3, max_size=3).filter(lambda C: any(map(any, C))))
    return potential_module(p, 2, 1, terms, C)


def assert_integral_entries(H, n):
    """Every stored coefficient of H is a nonzero int, and every disc
    exponent (after the first n annulus slots) is >= 0."""
    for row in H.rows:
        for entry in row:
            for J, v in entry.terms.items():
                assert type(v) is int and v != 0, (J, v)
                assert all(j >= 0 for j in J[n:]), J


class TestIntegerLadder:
    @given(module=fractional_modules())
    @settings(max_examples=30, deadline=None)
    def test_numerators_over_c_power_match_the_fraction_recursion(self, module):
        assert integrability_check(module) is None
        for i in range(module.dims):
            c = ladder_matrix(module, i)[0]
            assert c % module.prime == 0 and c // module.prime ** int_valuation(c, module.prime) > 1
            numerators = list(islice(iter_deriv_matrices(module, i), 13))
            for s, (H, G) in enumerate(zip(numerators, reference_ladder(module, i, 12))):
                assert scaled(H, Fraction(1, c ** s)) == G, (i, s)
                assert_integral_entries(H, module.nvars_annulus)

    @given(module=wide_modules())
    @settings(max_examples=25, deadline=None)
    def test_rank_three_in_every_direction_matches_the_fraction_recursion(self, module):
        assert integrability_check(module) is None
        for i in range(module.dims):  # the last direction is the disc variable
            c = ladder_matrix(module, i)[0]
            assert int_valuation(c, module.prime) > 0
            numerators = list(islice(iter_deriv_matrices(module, i), 9))
            for s, (H, G) in enumerate(zip(numerators, reference_ladder(module, i, 8))):
                assert scaled(H, Fraction(1, c ** s)) == G, (i, s)
                assert_integral_entries(H, module.nvars_annulus)

    def test_products_that_cancel_leave_no_term(self):
        # With C**2 = 0, H_2 = c d(H_1) + M H_1 = c**2 d^2(phi) C: every
        # product of M H_1 cancels.
        p = 3
        terms = {(1, -2, 1): Fraction(2, 9), (-1, 0, 2): 1, (2, 1, 0): -3}
        module = potential_module(p, 2, 1, terms, _NILPOTENT)
        phi = LaurentPoly(p, 2, 1, terms)
        for i in range(3):
            c = ladder_matrix(module, i)[0]
            assert c == 9
            H2 = next(islice(iter_deriv_matrices(module, i), 2, None))
            d2 = phi.partial(i).partial(i).scalar_mul(c * c)
            assert H2 == PolyMatrix(tuple(
                tuple(d2.scalar_mul(x) for x in row) for row in _NILPOTENT
            ))
            assert_integral_entries(H2, 2)

    def test_denominator_is_one_on_an_integral_module(self):
        # Integer values stored as Fractions still have denominator 1.
        for module in (exponential_two_var_module(3), power_module(5, Fraction(3))):
            assert all(ladder_matrix(module, i)[0] == 1 for i in range(module.dims))
            H = list(islice(iter_deriv_matrices(module, 0), 4))
            assert H == reference_ladder(module, 0, 3)

    def test_coefficient_of_an_int_term_is_a_fraction(self):
        # the int 1 of the H_0 that the walk yields first
        one = next(iter_deriv_matrices(trivial_module(3, 1, 0, 1), 0)).rows[0][0]
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
        assert ladder_matrix(module, 0)[0] == 36
        with pytest.raises(ValueError, match="^direction 1 out of range"):
            ladder_matrix(module, 1)[0]


FRACTIONAL_MODULES = [parse_module_descriptor(doc).module for doc in FRACTIONAL.values()]


@st.composite
def ladder_modules(draw):
    """A seeded `random_integrable_module` with p in {2, 3, 5} and rank 1
    to 3, or one of the golden files' FRACTIONAL modules."""
    fractional = draw(st.sampled_from([None, *FRACTIONAL_MODULES]))
    if fractional is not None:
        return fractional
    p, rank = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))
    return random_integrable_module(Random(draw(st.integers(0, 2**32 - 1))), p, rank)


def prime_divisors(n):
    """The primes dividing an int n >= 1, by trial division."""
    found, q = [], 2
    while q * q <= n:
        if n % q == 0:
            found.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return found + [n] if n > 1 else found


class TestLadderMatrix:
    """`ladder_matrix(module, i)` is (c, M): c the least common denominator
    of N_i's coefficients and M = c N_i as int terms, one list per entry."""

    @settings(max_examples=60, deadline=None)
    @given(module=ladder_modules(), depth=st.integers(1, DEFAULT_DEPTH_CAP))
    def test_c_is_least_and_m_is_c_times_n(self, module, depth):
        p = module.prime
        unit = (LogRadius.one(),) * module.dims
        for i in range(module.dims):
            c, M = ladder_matrix(module, i)
            rows = module.matrices[i].rows
            coefficients = [v for row in rows for e in row for v in e.terms.values()]
            assert M == [[[(J, c * v) for J, v in e.terms.items()] for e in row] for row in rows]
            assert all(type(a) is int for row in M for terms in row for _, a in terms)
            for q in prime_divisors(c):
                # (c / q) N has a coefficient that is not an integer
                assert any((c // q * v).denominator > 1 for v in coefficients)
            _, k0, _ = _walk_plan(module, i, depth, unit)
            if k0 is not None:
                content = gcd(*[a for row in M for terms in row for _, a in terms])
                assert k0 - 1 == int_valuation(content, p)


def benchmark_anchor_modules():
    """The anchor modules of the benchmark workloads, rebuilt from the
    public API: oc-deep, cutcheck-dense and taylor-wide."""
    p = 3
    return {
        "oc-deep": random_integrable_module(Random(7), p, 2),
        "cutcheck-dense": potential_module(
            p, 2, 0, {(-2, -2): Fraction(-2, 3), (1, 1): Fraction(1, 3)}, [[-1, 2], [2, 1]]
        ),
        "taylor-wide": potential_module(p, 4, 0, {(-1, -2, 1, 2): 1}, [[1]]),
    }


RING_OPERATIONS = (
    (LaurentPoly, "__mul__"),
    (LaurentPoly, "__add__"),
    (LaurentPoly, "partial"),
    (PolyMatrix, "__matmul__"),
)


def count_calls(monkeypatch, operations):
    """Patch each (class, method) with a counting wrapper; return the counts."""
    counts = {}
    for cls, name in operations:
        key = f"{cls.__name__}.{name}"
        counts[key] = 0

        def counting(*args, _method=getattr(cls, name), _key=key, **kwargs):
            counts[_key] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return counts


class TestLadderStep:
    def test_the_step_does_no_generic_ring_operation(self, monkeypatch):
        module = random_integrable_module(Random(7), 3, 2)
        counts = count_calls(monkeypatch, RING_OPERATIONS)
        walk = list(islice(iter_deriv_matrices(module, 0), 21))
        assert counts == dict.fromkeys(counts, 0)
        assert not walk[20].is_zero

    @pytest.mark.parametrize("name", ["oc-deep", "cutcheck-dense", "taylor-wide"])
    def test_the_curvature_still_uses_the_ring_operations(self, monkeypatch, name):
        module = benchmark_anchor_modules()[name]
        counts = count_calls(monkeypatch, RING_OPERATIONS[:4])
        assert integrability_check(module) is None
        assert all(counts.values()), counts


def symmetric_residues(A, q):
    """A, with int coefficients, mod q: each coefficient its residue in
    (-q/2, q/2], the zero ones dropped."""
    def residue(a):
        r = int(a) % q
        return r - q if r > q // 2 else r

    return PolyMatrix(tuple(
        tuple(
            LaurentPoly(e.prime, e.nvars_annulus, e.nvars_disc, {J: residue(a) for J, a in e.terms.items()})
            for e in row
        )
        for row in A.rows
    ))


def assert_walk_matches_reference(module, direction, depth, precision=None):
    """H_s = c**s G_s for s <= depth, G_s from the plain recursion, and with
    a precision K the walk of the pair (module, K) is H_s mod p**K."""
    c = ladder_matrix(module, direction)[0]
    exact = islice(iter_deriv_matrices(module, direction), depth + 1)
    expected = [scaled(G, c ** s) for s, G in enumerate(reference_ladder(module, direction, depth))]
    assert list(exact) == expected
    if precision is not None:
        q = module.prime ** precision
        walk = islice(iter_deriv_matrices((module, precision), direction), depth + 1)
        assert list(walk) == [symmetric_residues(H, q) for H in expected]


class TestPackedWalk:
    """The walk keys its terms by packed exponent vectors; what it yields
    must be the plain recursion's matrices, whatever the digit width."""

    @given(
        seed=st.integers(0, 2**32),
        p=st.sampled_from([2, 3, 5]),
        rank=st.integers(1, 2),
        precision=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference_ladder_exactly_and_mod_p_power(self, seed, p, rank, precision):
        module = random_integrable_module(Random(seed), p, rank)
        for direction in range(module.dims):
            assert_walk_matches_reference(module, direction, 10, precision)

    def test_a_walk_to_the_cap_fits_its_digit_width(self):
        # phi = t0**3 t1**2: N_1 = 2 t0**3 t1 raises the t0 exponent by
        # E = 3 at every step, and 2**s t0**(3s) t1**s is a term of H_s, so
        # the exponents reach the bound s * E of the width rule, at every
        # step up to the cap, with one digit width throughout.
        module = potential_module(3, 2, 0, {(3, 2): 1}, [[1]])
        cap = DEFAULT_DEPTH_CAP
        walk = list(islice(iter_deriv_matrices(module, 1), cap + 1))
        widths = {e._bits for H in walk for row in H.rows for e in row}
        assert widths == {laurent.pack_width(cap * 3)}
        assert walk[:41] == reference_ladder(module, 1, 40)
        for s in (40, 129, cap):
            terms = walk[s].rows[0][0].terms
            assert max(J[0] for J in terms) == 3 * s
            assert terms[(3 * s, s)] == 2**s
        assert_walk_matches_reference(module, 0, 12, precision=5)

    def test_exponents_of_ten_to_the_twelfth(self):
        # phi = t0 * t1**(10**12), the potential of the hugeexp CLI row
        e = 10**12
        module = potential_module(3, 2, 0, {(1, e): 1}, [[1]])
        for direction in range(2):
            assert_walk_matches_reference(module, direction, 4, precision=3)
        H = next(islice(iter_deriv_matrices(module, 1), 3, None))
        assert H.rows[0][0]._bits == laurent.pack_width(DEFAULT_DEPTH_CAP * e)
        # N_1**3 = (e t0 t1**(e-1))**3 is the term with the largest exponents
        assert H.rows[0][0].terms[(3, 3 * e - 3)] == e ** 3
        assert max(J[1] for J in H.rows[0][0].terms) == 3 * e - 3

    def test_a_disc_direction_moves_down_a_disc_slot(self):
        # direction 1 is a disc variable: the shift -e_1 lowers a disc
        # exponent, and a term whose disc exponent is 0 has no derivative
        p = 3
        module = potential_module(p, 1, 1, {(-1, 2): 1, (2, 1): Fraction(1, 3)}, [[1, 2], [0, 1]])
        assert integrability_check(module) is None
        assert ladder_matrix(module, 1)[0] == 3
        assert_walk_matches_reference(module, 1, 10, precision=4)
        for H in islice(iter_deriv_matrices(module, 1), 11):
            assert_integral_entries(H, 1)

    def test_the_unit_radius_verdict_never_unpacks_a_key(self, monkeypatch):
        # oc at the unit radius reads coefficients only: every norm is the
        # valuation of a gcd, so no exponent vector is ever built
        def refuse(*args):
            raise AssertionError("a packed key was unpacked")

        module = benchmark_anchor_modules()["oc-deep"]
        monkeypatch.setattr(laurent, "unpack_key", refuse)
        verdict = oc_ir_test(module, 150)
        assert verdict.verdict is Verdict.OVERCONVERGENT_EVIDENCE
        H = next(islice(iter_deriv_matrices(module, 0), 40, None))
        full, leading = unit_step(H)
        assert full is not None and leading
        assert all(e._bits for e in leading)
        # reading the keys is what unpacks them
        with pytest.raises(AssertionError, match="unpacked"):
            leading[0].terms
