import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from nabla_radius import connection, curves, radius
from nabla_radius.connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    NotIntegrableError,
    PolyMatrix,
    integrability_check,
    iter_deriv_matrices,
    ladder_matrix,
)
from nabla_radius.corpus import (
    build_corpus,
    corpus_by_label,
    exponential_two_var_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius.curves import (
    _unit_point,
    curve_witness_search,
    generic_equality_check,
    sample_unit_point,
    specialize,
)
from nabla_radius.laurent import LaurentPoly
from nabla_radius.padic import LogRadius, fraction_valuation
from nabla_radius.radius import (
    Verdict,
    deriv_ladder,
    intrinsic_radius,
    oc_ir_test,
    unit_step,
)
from test_connection import FRACTIONAL_MODULES
from test_radius import conjugated, exact_walk, recording_walks, unimodular


def g_ladder(module, direction, depth):
    """G_0 .. G_depth: the ladder's numerators H_s divided by c**s."""
    c = ladder_matrix(module, direction)[0]
    return [
        PolyMatrix(tuple(tuple(e.scalar_mul(Fraction(1, c ** s)) for e in row) for row in H.rows))
        for s, H in enumerate(islice(iter_deriv_matrices(module, direction), depth + 1))
    ]


def full_matrix_check(module, direction, point, depth):
    """Reference check: the first s <= depth at which the whole matrix H_s
    and its evaluation H_s(point) differ in unit-radius norm, else None."""
    multi = (LogRadius.one(),) * module.dims
    single = (LogRadius.one(),)
    for s, H, _ in deriv_ladder(module, direction, depth):
        if H.gauss_lognorm(multi) != H.specialize(direction, point).gauss_lognorm(single):
            return s
    return None


def curve_radius(module, report, depth):
    """The radius of a search report's witness curve, computed by its own recursion."""
    curve = specialize(module, report.verdict.witness_direction, report.witness)
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


# diag(t2 - 1, t2) in direction 0: at t2 = 4 the first entry's norm drops
# (4 - 1 = 3) and the second's does not, so the matrix keeps its norm.
def split_module(p=3):
    parts = (shifted_module(p), potential_module(p, LaurentPoly(p, 2, 0, {(1, 1): 1})))
    zero = LaurentPoly.zero(p, 2, 0)
    mats = tuple(
        PolyMatrix([[A.rows[0][0], zero], [zero, B.rows[0][0]]])
        for A, B in zip(*(part.matrices for part in parts))
    )
    return ConnectionModule(prime=p, nvars_annulus=2, nvars_disc=0, rank=2, matrices=mats)


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
        # a coordinate past the int/str digit limit is named without converting it
        message = "^coordinate <Fraction past the int/str digit limit> is not a unit$"
        with pytest.raises(ValueError, match=message):
            specialize(module, 0, (3 * 10**5000,))
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
        with pytest.raises(ValueError, match="^direction 2 out of range"):
            specialize(module, 2, (Fraction(1),))

    @pytest.mark.parametrize("direction", [5, -1])
    def test_direction_out_of_range_is_a_value_error(self, direction):
        module = exponential_two_var_module(3)
        message = f"^direction {direction} out of range for a module with 2 variables$"
        with pytest.raises(ValueError, match=message):
            specialize(module, direction, (Fraction(1),))
        with pytest.raises(ValueError, match=message):
            generic_equality_check(module, direction, (Fraction(1),), depth=5)

    def test_direction_past_the_digit_limit_is_named_without_converting_it(self):
        module = exponential_two_var_module(3)
        message = "^direction <int past the int/str digit limit> out of range"
        for call in (specialize, lambda *args: generic_equality_check(*args, depth=5)):
            with pytest.raises(ValueError, match=message):
                call(module, 10**5000, (Fraction(1),))

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

    def test_one_entry_keeping_the_norm_suffices(self):
        module = split_module()
        assert full_matrix_check(module, 0, (Fraction(4),), 10) is None
        assert generic_equality_check(module, 0, (Fraction(4),), depth=10) is None

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
        t2 = LaurentPoly(p, 2, 0, {(0, 1): 1})
        bad = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(PolyMatrix([[t2]]), PolyMatrix([[LaurentPoly.zero(p, 2, 0)]])),
        )
        with pytest.raises(NotIntegrableError):
            generic_equality_check(bad, 0, (Fraction(2),), depth=5)


class TestGenericEqualityMatchesFullMatrix:
    """The entrywise check gives the first differing depth of the
    full-matrix comparison, while specializing fewer entries."""

    def test_same_answer_as_the_full_matrix(self):
        rng = random.Random(2024)
        modules = [random_integrable_module(rng, 3, rank) for rank in (1, 2) for _ in range(4)]
        modules += [exponential_two_var_module(3), shifted_module(), fermat_module(), split_module()]
        outcomes = []
        for module in modules:
            for direction in (0, 1):
                for _ in range(3):
                    point = sample_unit_point(rng, 3, 1)
                    expected = full_matrix_check(module, direction, point, 16)
                    assert generic_equality_check(module, direction, point, 16) == expected, (
                        module, direction, point,
                    )
                    outcomes.append(expected)
        assert None in outcomes
        assert any(s is not None for s in outcomes)

    def test_specializes_fewer_entries_than_the_whole_matrix(self, monkeypatch):
        # Every entry of H_1 .. H_16 is nonzero and the point passes, so the
        # full-matrix comparison specializes all rank**2 entries per depth.
        module = random_integrable_module(random.Random(7), 3, 2)
        point = (Fraction(2),)
        depth = 16
        assert all(
            not e.is_zero
            for _, H, _ in deriv_ladder(module, 0, depth) for row in H.rows for e in row
        )
        calls = []
        original = LaurentPoly.specialize

        def counting(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(LaurentPoly, "specialize", counting)
        assert generic_equality_check(module, 0, point, depth) is None
        assert depth <= len(calls) < module.rank ** 2 * depth


def unfolded_check(module, direction, point, depth):
    """The check with each leading part specialized as it is, its
    exponents not folded mod p - 1."""
    single = (LogRadius.one(),)
    for s, H, _ in deriv_ladder(module, direction, depth):
        full, leading = unit_step(H)
        if leading and not any(
            e.specialize(direction, point).gauss_lognorm(single) == full for e in leading
        ):
            return s
    return None


@st.composite
def wide_exponent_modules(draw):
    """A potential module on 2 or 3 annulus variables whose potential has
    up to four terms, with exponents up to 3p in size and coefficients
    p**v times a unit.  The t1 exponents are 1 or p, so terms often share
    one in direction 0, and the others differ by multiples of p - 1 that
    fold together: leading residues cancel at some unit points."""
    p = draw(st.sampled_from([2, 3, 5]))
    dims = draw(st.integers(2, 3))
    others = st.sampled_from([0, 1, -1, p - 1, 2 - 2 * p, 3 * p, -3 * p])
    exps = st.tuples(st.sampled_from([1, p]), *[others] * (dims - 1))
    units = st.integers(-9, 9).filter(lambda u: u % p)
    valuations = st.sampled_from([0, 0, 0, 1, -1])
    coeffs = st.builds(lambda u, v: Fraction(u) * Fraction(p) ** v, units, valuations)
    phi = LaurentPoly(p, dims, 0, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    return potential_module(p, phi)


class TestFoldedLeadingParts:
    """Folding the exponents outside the kept direction mod p - 1 keeps
    the answer of the check."""

    @settings(max_examples=100, deadline=None)
    @given(
        module=wide_exponent_modules(),
        direction=st.integers(0, 2),
        point_seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 12),
    )
    def test_same_answer_as_the_unfolded_check(self, module, direction, point_seed, depth):
        direction %= module.dims
        point = sample_unit_point(random.Random(point_seed), module.prime, module.dims - 1)
        expected = unfolded_check(module, direction, point, depth)
        assert generic_equality_check(module, direction, point, depth) == expected

    def test_a_folded_residue_can_vanish(self):
        # N_0 = t2**(p-1) - 1 at p = 3 folds to 1 - 1 = 0 at every unit point
        module = fermat_module()
        assert generic_equality_check(module, 0, (Fraction(2),), 4) == 1
        assert unfolded_check(module, 0, (Fraction(2),), 4) == 1


@st.composite
def seeded_modules(draw):
    """A seeded `random_integrable_module`, one of the golden files'
    modules whose ladders run over a denominator c with v_3(c) > 0, or a
    fixture above on which some unit points drop the norm."""
    fractional = draw(st.sampled_from([None, *FRACTIONAL_MODULES]))
    if fractional is not None:
        return fractional
    p = draw(st.sampled_from([2, 3, 5]))
    fixture = draw(st.sampled_from([None, shifted_module, fermat_module, split_module]))
    if fixture is not None:
        # p**k N stays integrable, and every H_s (s >= 1) is divisible by
        # p**k, so k = 30 sends walks with K <= 30 to the exact restart
        scale = p ** draw(st.sampled_from([0, 3, 30]))
        module = fixture(p)
        return ConnectionModule(
            module.prime, module.nvars_annulus, module.nvars_disc, module.rank,
            tuple(
                PolyMatrix([[e.scalar_mul(scale) for e in row] for row in N.rows])
                for N in module.matrices
            ),
        )
    seed = draw(st.integers(0, 2**32 - 1))
    return random_integrable_module(random.Random(seed), p, draw(st.integers(1, 2)))


class TestReducedWitnessWalk:
    """The check walks H_s reduced, as the unit-radius verdict does."""

    @settings(max_examples=60, deadline=None)
    @given(
        module=seeded_modules(),
        direction=st.integers(0, 1),
        point_seed=st.integers(0, 2**32 - 1),
        depth=st.integers(4, 40),
    )
    def test_same_result_as_the_exact_walk(self, module, direction, point_seed, depth):
        point = sample_unit_point(random.Random(point_seed), module.prime, 1)
        with pytest.MonkeyPatch.context() as mp:
            precisions = recording_walks(mp)
            reduced = generic_equality_check(module, direction, point, depth)
        assert precisions[0] is not None
        assert reduced == exact_walk(generic_equality_check, module, direction, point, depth)

    def test_zero_mod_p_k_goes_on_exactly(self, monkeypatch):
        # N_1 = 3**100: H_s = 3**(100 s) is nonzero but vanishes mod p**K.
        p = 3
        module = ConnectionModule(
            prime=p, nvars_annulus=2, nvars_disc=0, rank=1,
            matrices=(
                PolyMatrix([[LaurentPoly.constant(p, 2, 0, 3**100)]]),
                PolyMatrix([[LaurentPoly.zero(p, 2, 0)]]),
            ),
        )
        precisions = recording_walks(monkeypatch)
        assert generic_equality_check(module, 0, (Fraction(2),), depth=12) is None
        assert precisions == [7, None]  # K = ceil(12 * 1/2) + 1, then exact


class TestUnitStep:
    # ladder matrices have int coefficients, which only `_new` stores
    @staticmethod
    def matrix(rows):
        return PolyMatrix([[LaurentPoly._new(3, 1, 0, terms) for terms in row] for row in rows])

    def test_full_and_leading_parts(self):
        H = self.matrix([
            [{(0,): 9, (1,): 3, (2,): -6}, {(0,): 27}],
            [{}, {(2,): 6, (0,): 18}],
        ])
        full, leading = unit_step(H)
        assert full == 1 == H.gauss_lognorm((LogRadius.one(),))
        assert [dict(e.terms) for e in leading] == [{(1,): 3, (2,): -6}, {(2,): 6}]

    @pytest.mark.parametrize("v", [0, 2, 7, 40])
    def test_full_is_the_least_valuation(self, v):
        H = self.matrix([[{(0,): 3**v * 2, (1,): 3**(v + 1)}, {(3,): 3**(v + 4)}]] * 2)
        lead = LaurentPoly._new(3, 1, 0, {(0,): 3**v * 2})
        assert unit_step(H) == (v, (lead, lead))

    def test_zero_matrix(self):
        assert unit_step(PolyMatrix.zeros(3, 2, 0, 2)) == (None, ())


def counting_steps(monkeypatch):
    """Count, per direction, the steps H_1, H_2, ... pulled from every walk."""
    steps = Counter()
    original = radius.iter_deriv_matrices

    def counting(module, direction):
        for s, H in enumerate(original(module, direction)):
            if s:
                steps[direction] += 1
            yield H

    monkeypatch.setattr(radius, "iter_deriv_matrices", counting)
    return steps


class TestOneWalkPerDirection:
    """The checks read the record that the verdict walk keeps, so the
    search walks every direction exactly once, however many trial points
    it compares."""

    @pytest.mark.parametrize("name, trials, found", [
        ("fermat", 8, False),  # every trial fails
        ("exp-two-var-p3", 10, True),
    ])
    def test_one_walk_per_direction(self, monkeypatch, name, trials, found):
        module = fermat_module() if name == "fermat" else corpus_by_label()[name].descriptor.module
        depth = 16
        checks = []
        original = curves.generic_equality_check

        def counting(*args, **kwargs):
            checks.append(original(*args, **kwargs))
            return checks[-1]

        monkeypatch.setattr(curves, "generic_equality_check", counting)
        steps = counting_steps(monkeypatch)
        oc_ir_test(module, depth)
        verdict_walks = dict(steps)
        steps.clear()
        report = curve_witness_search(module, depth=depth, trials=trials, seed=3)
        assert report.verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert (report.witness is not None) == found
        assert len(checks) == (1 if found else trials)
        assert steps == verdict_walks
        assert verdict_walks[report.verdict.witness_direction] == depth


class TestRecordedWitnessCheck:
    """The verdict walk records the `unit_step` of every depth it walks,
    and the check gives one answer whether it reads that record or walks
    the ladder itself, and that is the full-matrix one."""

    @settings(max_examples=60, deadline=None)
    @given(
        module=seeded_modules(),
        direction=st.integers(0, 1),
        point_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        depth=st.integers(8, 40),
    )
    def test_record_matches_the_standalone_check(self, module, direction, point_seeds, depth):
        records = []
        oc_ir_test(module, depth, _records=records)
        unit = (LogRadius.one(),) * module.dims
        walk = [H for _, H, _ in deriv_ladder(module, direction, depth, unit)]
        streamed = [unit_step(H) for H in walk]
        assert [full for full, _ in streamed] == [H.gauss_lognorm(unit) for H in walk]
        # every depth, up to a vanishing one
        assert records[direction] == streamed
        record = records[direction]
        for seed in point_seeds:
            point = sample_unit_point(random.Random(seed), module.prime, 1)
            recorded = generic_equality_check(module, direction, point, depth, _record=record)
            assert recorded == generic_equality_check(module, direction, point, depth)
            assert recorded == full_matrix_check(module, direction, point, depth)


    def test_vanishing_direction_records_up_to_the_zero(self):
        # t^3-twist at p = 5: H_4 is the first zero matrix
        module = corpus_by_label()["power-int3-p5"].descriptor.module
        records = []
        oc_ir_test(module, 8, _records=records)
        assert len(records) == 1 and len(records[0]) == 4
        assert records[0][-1] == (None, ())
        assert all(full is not None for full, _ in records[0][:-1])


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


CORPUS_MODULES = [entry.descriptor.module for entry in build_corpus()]


class TestWitnessJson:
    """A witness is a point; its JSON reads the witness direction and both
    radii from the verdict, and the point is the first seeded draw that a
    check walking the ladder afresh accepts."""

    @settings(max_examples=40, deadline=None)
    @given(
        module=st.one_of(
            st.sampled_from(CORPUS_MODULES),
            st.builds(
                lambda k, p, rank: random_integrable_module(random.Random(k), p, rank),
                st.integers(0, 63), st.sampled_from([2, 3, 5]), st.integers(1, 2),
            ),
        ),
        seed=st.integers(0, 3),
    )
    def test_witness_json_equals_the_verdicts_facts(self, module, seed):
        depth, trials = 16, 4
        report = curve_witness_search(module, depth=depth, trials=trials, seed=seed)
        verdict = report.verdict.to_json_dict()
        doc = report.to_json_dict()
        assert doc["verdict"] == verdict and doc["depth"] == depth
        expected = None
        if verdict["verdict"] == "NOT_OVERCONVERGENT_EVIDENCE":
            rng = random.Random(seed)
            for _ in range(trials):
                point = sample_unit_point(rng, module.prime, module.dims - 1)
                if generic_equality_check(module, verdict["witness_direction"], point, depth) is None:
                    expected = point
                    break
        assert report.witness == expected
        if expected is None:
            assert doc["witness"] is None
            return
        direction = verdict["witness_direction"]
        radii = verdict["radius_report"]
        assert doc["witness"] == {
            "direction": direction,
            "point": [str(c) for c in expected],
            "ir_full_exponent": radii["ir_exponent"],
            "ir_curve_exponent": radii["directions"][direction]["point_estimate"],
        }

    def test_one_variable_witness_is_the_empty_point(self):
        # a one-variable module has no coordinate to fix: its witness is ()
        report = curve_witness_search(corpus_by_label()["exp-disc-p3"].descriptor.module,
                                      depth=16, trials=1, seed=0)
        assert report.witness == ()
        assert report.to_json_dict()["witness"] == {
            "direction": 0, "point": [], "ir_full_exponent": "1/2", "ir_curve_exponent": "1/2",
        }


class TestCurveWitnessSearch:
    def test_two_var_exponential_yields_witness(self):
        module = exponential_two_var_module(3)
        report = curve_witness_search(module, depth=24, trials=10, seed=0)
        assert report.verdict.verdict is Verdict.NOT_OVERCONVERGENT_EVIDENCE
        assert report.witness is not None
        w = report.to_json_dict()["witness"]
        assert w["direction"] == report.verdict.witness_direction == 0
        assert w["point"] == [str(c) for c in report.witness]
        assert w["ir_curve_exponent"] == w["ir_full_exponent"] == "1/2"
        assert curve_radius(module, report, 24) == Fraction(1, 2)

    def test_deterministic_in_seed(self):
        module = exponential_two_var_module(3)
        a = curve_witness_search(module, depth=24, trials=5, seed=7)
        b = curve_witness_search(module, depth=24, trials=5, seed=7)
        assert a.witness is not None and b.witness is not None
        assert a.witness == b.witness
        c = curve_witness_search(module, depth=24, trials=5, seed=8)
        assert c.witness is not None
        for report in (a, c):
            ir_curve = report.to_json_dict()["witness"]["ir_curve_exponent"]
            assert Fraction(ir_curve) == curve_radius(module, report, 24)

    def test_draws_only_the_points_it_tries(self, monkeypatch):
        draws = []
        original = curves.sample_unit_point

        def counting(*args):
            draws.append(original(*args))
            return draws[-1]

        monkeypatch.setattr(curves, "sample_unit_point", counting)
        module = corpus_by_label()["exp-two-var-p3"].descriptor.module
        report = curve_witness_search(module, depth=16, trials=10, seed=0)
        assert report.witness is not None
        assert report.witness == (Fraction(-8, 5),)
        assert draws == [report.witness]

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

    def test_checks_read_the_witness_direction(self):
        # phi = t2 * (t1**9 - t1**3): N_1 = t1**9 - t1**3 is divisible by 3
        # at every unit t1, so no point keeps direction 1's norms, while
        # N_0 = t2 * (9 t1**8 - 3 t1**2) has norm 1/3, a positive direction
        module = potential_module(3, LaurentPoly(3, 2, 0, {(9, 1): 1, (3, 1): -1}))
        report = curve_witness_search(module, depth=12, trials=8, seed=3)
        assert report.verdict.witness_direction == 1
        assert report.witness is None

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            curve_witness_search(exponential_two_var_module(3), depth=12, trials=0, seed=0)
        with pytest.raises(ValueError, match="exceeds cap 512"):
            curve_witness_search(exponential_two_var_module(3), depth=12, trials=513, seed=0)

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


def norm_exponents(module, direction, depth):
    """The unit-radius norm exponent of G_s for s = 1, 2, ..., up to depth
    or an exact zero (None): w(H_s) minus the module's own shift s v_p(c)."""
    unit = (LogRadius.one(),) * module.dims
    return [
        None if H.is_zero else H.gauss_lognorm(unit) - shift
        for _, H, shift in deriv_ladder(module, direction, depth)
    ]


class TestCurveInvariants:
    """What the cut-by-curves step rests on, checked on seeded draws: a
    curve never raises a norm, and the search does not see the basis."""

    @settings(max_examples=40, deadline=None)
    @given(
        module=seeded_modules(),
        direction=st.integers(0, 1),
        point_seed=st.integers(0, 2**32 - 1),
        depth=st.integers(4, 24),
    )
    def test_a_curve_never_raises_a_norm(self, module, direction, point_seed, depth):
        # w_s(curve) >= w_s(module) on the exponents of G_s, each after its
        # own module's shift: the curve's c may differ from the module's
        point = sample_unit_point(random.Random(point_seed), module.prime, 1)
        full = norm_exponents(module, direction, depth)
        curve = norm_exponents(specialize(module, direction, point), 0, depth)
        assert len(curve) <= len(full)
        for w, w_curve in zip(full, curve):
            assert w_curve is None or w is not None and w_curve >= w

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        p=st.sampled_from([2, 3, 5]),
        rank=st.integers(2, 3),
        depth=st.sampled_from([16, 48]),
    )
    def test_a_constant_change_of_basis_keeps_the_report(self, data, seed, p, rank, depth):
        # G'_s = P^-1 G_s P, and its evaluation at a point is P^-1 G_s(point)
        # P: P and P^-1 are integral, so every norm on either side is kept
        module = random_integrable_module(random.Random(seed), p, rank)
        gauged = conjugated(module, *data.draw(unimodular(p, rank)))
        report = curve_witness_search(module, depth, trials=4, seed=seed)
        assert curve_witness_search(gauged, depth, trials=4, seed=seed).to_json_dict() == report.to_json_dict()
