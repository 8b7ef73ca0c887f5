import random
from fractions import Fraction
from itertools import islice

import pytest

from nabla_radius import connection
from nabla_radius.connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    NotIntegrableError,
    PolyMatrix,
    integrability_check,
    iter_deriv_matrices,
    ladder_denominator,
)
from nabla_radius.corpus import exponential_two_var_module, trivial_module
from nabla_radius.curves import (
    _unit_point,
    curve_witness_search,
    generic_equality_check,
    sample_unit_point,
    specialize,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.padic import LogRadius, fraction_valuation
from nabla_radius.radius import Verdict, intrinsic_radius


def g_ladder(module, direction, depth):
    """G_0 .. G_depth: the ladder's numerators H_s divided by c**s."""
    c = ladder_denominator(module, direction)
    return [
        PolyMatrix(tuple(tuple(e.scalar_mul(Fraction(1, c ** s)) for e in row) for row in H.rows))
        for s, H in enumerate(islice(iter_deriv_matrices(module, direction), depth + 1))
    ]


def curve_radius(module, witness, depth):
    """The witness curve's radius, computed by its own recursion."""
    curve = specialize(module, witness.direction, witness.point)
    return intrinsic_radius(curve, (LogRadius.one(),), depth).ir_estimate


def potential_module(p, phi):
    """Rank-1 module with N_i = d_i(phi); integrable by construction."""
    mats = tuple(PolyMatrix([[phi.partial(i)]]) for i in range(phi.nvars))
    return ConnectionModule(
        prime=p,
        nvars_annulus=phi.nvars_annulus,
        nvars_disc=phi.nvars_disc,
        rank=1,
        matrices=mats,
    )


# phi = t1 * (t2 - 1): direction-0 matrices are powers of t2 - 1.
def shifted_module(p=3):
    phi = LaurentPoly(p, 2, 0, {(1, 1): 1, (1, 0): -1})
    return potential_module(p, phi)


# phi = t1 * (t2**2 - 1): |c**2 - 1| < 1 for every unit c mod 3, so no
# unit point can reproduce the direction-0 norms.
def fermat_module(p=3):
    phi = LaurentPoly(p, 2, 0, {(1, 2): 1, (1, 0): -1})
    return potential_module(p, phi)


class TestUnitPoint:
    """A unit point is a tuple of Fractions, checked against the module once."""

    def test_accepts_units(self):
        module = trivial_module(3, 2, 1, 1)
        pt = _unit_point(module, (Fraction(2, 5), -1))
        assert pt == (Fraction(2, 5), Fraction(-1))
        assert all(type(c) is Fraction for c in pt)

    def test_rejects_non_units(self):
        module = exponential_two_var_module(3)
        for bad in (3, Fraction(1, 3), Fraction(0)):
            with pytest.raises(ValueError, match="not a unit"):
                specialize(module, 0, (bad,))
            with pytest.raises(ValueError, match="not a unit"):
                generic_equality_check(module, 0, (bad,), depth=5)
        for bad in (1.0, True, "1"):
            with pytest.raises(TypeError):
                specialize(module, 0, (bad,))
            with pytest.raises(TypeError):
                generic_equality_check(module, 0, (bad,), depth=5)


class TestSpecialize:
    def test_shapes_and_retained_matrix(self):
        module = exponential_two_var_module(3)
        pt = (Fraction(2),)
        curve0 = specialize(module, 0, pt)
        assert (curve0.nvars_annulus, curve0.nvars_disc, curve0.rank) == (1, 0, 1)
        assert len(curve0.matrices) == 1
        curve1 = specialize(module, 1, pt)
        assert curve1.matrices[0].is_zero

    def test_wrong_arity(self):
        module = exponential_two_var_module(3)
        with pytest.raises(ValueError):
            specialize(module, 0, (Fraction(1), Fraction(1)))
        with pytest.raises(IndexError):
            specialize(module, 2, (Fraction(1),))

    def test_disc_direction_keeps_disc_signature(self):
        # phi = t * u on one annulus and one disc variable.
        p = 3
        phi = LaurentPoly(p, 1, 1, {(1, 1): 1})
        module = potential_module(p, phi)
        assert integrability_check(module) is None
        curve = specialize(module, 1, (Fraction(2),))
        assert (curve.nvars_annulus, curve.nvars_disc) == (0, 1)
        assert curve.matrices[0] == PolyMatrix.from_scalar_rows(p, 0, 1, [[2]])

    @pytest.mark.parametrize("direction", [0, 1])
    def test_naturality_exact(self, direction):
        # Specializing the matrices commutes with the derivative recursion.
        module = shifted_module()
        pt = (Fraction(Fraction(5, 2)),)
        curve = specialize(module, direction, pt)
        full = g_ladder(module, direction, 12)
        reduced = g_ladder(curve, 0, 12)
        for s in range(13):
            assert full[s].specialize(direction, pt) == reduced[s]


class TestGenericEquality:
    def test_holds_at_generic_point(self):
        # (c - 1) is a unit for c = 2, so every power keeps norm 1.
        assert generic_equality_check(
            shifted_module(), 0, (Fraction(2),), depth=10
        ) is None

    def test_fails_on_valuation_drop(self):
        # c = 4 gives c - 1 = 3, so the evaluated norm drops at s = 1.
        assert generic_equality_check(
            shifted_module(), 0, (Fraction(4),), depth=10
        ) == 1

    def test_fails_at_exact_zero(self):
        # c = 1 evaluates t2 - 1 to zero: the norm collapses entirely.
        assert generic_equality_check(
            shifted_module(), 0, (Fraction(1),), depth=10
        ) == 1

    def test_vanishing_sequence_agrees_everywhere(self):
        module = exponential_two_var_module(3)
        assert generic_equality_check(
            module, 1, (Fraction(2),), depth=10
        ) is None

    def test_input_validation(self):
        module = exponential_two_var_module(3)
        pt = (Fraction(2),)
        with pytest.raises(ValueError):
            generic_equality_check(module, 0, pt, depth=0)
        with pytest.raises(DepthCapError):
            generic_equality_check(module, 0, pt, depth=DEFAULT_DEPTH_CAP + 1)

    def test_non_integrable_rejected(self):
        p = 3
        t2 = LaurentPoly.variable(p, 2, 0, 1)
        bad = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
        )
        with pytest.raises(NotIntegrableError):
            generic_equality_check(bad, 0, (Fraction(2),), depth=5)


class TestSampleUnitPoint:
    def test_deterministic_and_unit(self):
        a = sample_unit_point(random.Random(11), 3, 4)
        b = sample_unit_point(random.Random(11), 3, 4)
        assert a == b
        assert len(a) == 4
        assert all(type(c) is Fraction and fraction_valuation(c, 3) == 0 for c in a)

    def test_respects_prime(self):
        pt = sample_unit_point(random.Random(0), 2, 8)
        assert all(c.numerator % 2 != 0 and c.denominator % 2 != 0 for c in pt)


class TestCurveWitnessSearch:
    def test_two_var_exponential_yields_witness(self):
        module = exponential_two_var_module(3)
        report = curve_witness_search(module, depth=24, trials=10, seed=0)
        assert report.verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        w = report.witness
        assert w is not None
        assert w.direction == 0
        assert w.ir_curve == w.ir_full
        assert w.ir_curve == Fraction(1, 2)
        assert w.ir_curve == curve_radius(module, w, 24)

    def test_deterministic_in_seed(self):
        module = exponential_two_var_module(3)
        a = curve_witness_search(module, depth=24, trials=5, seed=7)
        b = curve_witness_search(module, depth=24, trials=5, seed=7)
        assert a.witness is not None and b.witness is not None
        assert a.witness.point == b.witness.point
        c = curve_witness_search(module, depth=24, trials=5, seed=8)
        assert c.witness is not None
        for report in (a, c):
            assert report.witness.ir_curve == curve_radius(module, report.witness, 24)

    def test_positive_verdict_skips_search(self):
        report = curve_witness_search(trivial_module(3, 2, 0, 1), depth=8, trials=3, seed=0)
        assert report.verdict.verdict is Verdict.OVERCONVERGENT_EVIDENCE
        assert report.witness is None

    def test_no_witness_is_a_legal_outcome(self):
        # Every unit c mod 3 satisfies c**2 = 1, so all sampled points drop
        # the direction-0 norm and the search must come back empty-handed.
        report = curve_witness_search(fermat_module(), depth=12, trials=8, seed=3)
        assert report.verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert report.verdict.witness_direction == 0
        assert report.witness is None

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            curve_witness_search(exponential_two_var_module(3), depth=12, trials=0, seed=0)

    def test_integrability_is_checked_once_per_module(self, monkeypatch):
        # Every trial fails (see above), so the search compares 8 points;
        # the check oc_ir_test made on the module answers all of them.
        calls = []
        original = connection.integrability_check

        def counting(module):
            calls.append(module)
            return original(module)

        monkeypatch.setattr(connection, "integrability_check", counting)
        report = curve_witness_search(fermat_module(), depth=12, trials=8, seed=3)
        assert report.witness is None
        assert len(calls) == 1
