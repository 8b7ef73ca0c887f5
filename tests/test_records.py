"""The immutable record classes: construction, equality, hashing, repr and
immutability, the behaviour their callers and reports rely on."""

from fractions import Fraction

import pytest

from nabla_radius.connection import ConnectionModule, IntegrabilityViolation, PolyMatrix
from nabla_radius.corpus import CorpusEntry, exponential_two_var_module, trivial_module
from nabla_radius.curves import CutCheckReport
from nabla_radius.descriptor import ModuleDescriptor
from nabla_radius.laurent import SignatureError
from nabla_radius.newton import AlignedInterval, DominanceCertificate
from nabla_radius.radius import (
    DirectionRadius,
    OcVerdict,
    ProbeOutcome,
    RadiusReport,
    TaylorReport,
    Verdict,
    intrinsic_radius,
)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def interval():
    return AlignedInterval(HALF, QUARTER)


def radius_report():
    return RadiusReport(
        (Fraction(0),), 8, QUARTER, (DirectionRadius(0, 6, (HALF, QUARTER), None),)
    )


def oc_verdict():
    return OcVerdict(Verdict.NOT_OVERCONVERGENT_EVIDENCE, 0, "why", radius_report())


def module():
    return trivial_module(3, 1, 0, 1)


# One sample of every record class, built from scratch on each call so that
# two calls give equal but distinct instances.
SAMPLES = {
    "IntegrabilityViolation": lambda: IntegrabilityViolation(
        0, 1, PolyMatrix.zeros(3, 2, 0, 1)
    ),
    "ConnectionModule": module,
    "ModuleDescriptor": lambda: ModuleDescriptor(module(), "rk1", {"oc": "positive"}),
    "DirectionRadius": lambda: DirectionRadius(0, 6, (HALF, QUARTER), None),
    "RadiusReport": radius_report,
    "OcVerdict": oc_verdict,
    "TaylorReport": lambda: TaylorReport(
        ProbeOutcome.PASS, (1, 2), QUARTER, HALF, (None, HALF)
    ),
    "CutCheckReport": lambda: CutCheckReport(oc_verdict(), (Fraction(1),), 4, 7),
    "AlignedInterval": interval,
    "DominanceCertificate": lambda: DominanceCertificate(
        frozenset({-1}), frozenset(), -1, interval(), HALF, None
    ),
    "CorpusEntry": lambda: CorpusEntry(
        ModuleDescriptor(module(), "rk1"), QUARTER, Fraction(1, 8), 24
    ),
}

# Records holding a PolyMatrix or a dict cannot be hashed.
UNHASHABLE = {"IntegrabilityViolation", "ConnectionModule", "ModuleDescriptor", "CorpusEntry"}


class TestEveryRecord:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_equality_is_field_wise(self, name):
        a, b = SAMPLES[name](), SAMPLES[name]()
        assert a is not b and a == b and not a != b
        assert type(a).__name__ == name

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_equal_only_within_the_class(self, name):
        a = SAMPLES[name]()
        values = tuple(vars(a).values())
        assert a != values and a != values[0]
        others = [SAMPLES[other]() for other in sorted(SAMPLES) if other != name]
        assert all(a != other for other in others)

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_hash(self, name):
        a, b = SAMPLES[name](), SAMPLES[name]()
        if name in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        a = SAMPLES[name]()
        first = next(iter(vars(a)))
        before = repr(a)
        with pytest.raises(AttributeError):
            setattr(a, first, None)
        with pytest.raises(AttributeError):
            delattr(a, first)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert repr(a) == before


class TestEquality:
    def test_a_differing_field_breaks_equality(self):
        report = radius_report()
        assert report != RadiusReport((HALF,), report.depth, report.window, report.directions)
        assert DirectionRadius(0, 6, (HALF,), None) != DirectionRadius(0, 6, (HALF,), 6)
        assert ModuleDescriptor(module(), "a") != ModuleDescriptor(module(), "b")
        assert trivial_module(3, 1, 0, 1) != trivial_module(5, 1, 0, 1)

    def test_a_differing_field_of_a_changed_record_breaks_equality(self):
        assert AlignedInterval(HALF, QUARTER) != AlignedInterval(HALF, Fraction(1, 8))
        certificate = SAMPLES["DominanceCertificate"]()
        assert certificate != DominanceCertificate(
            frozenset({-1}), frozenset({0}), -1, interval(), HALF, None
        )
        assert CutCheckReport(oc_verdict(), None, 4, 7) != CutCheckReport(
            oc_verdict(), (Fraction(1),), 4, 7
        )
        taylor = SAMPLES["TaylorReport"]()
        assert taylor != TaylorReport(
            taylor.outcome, taylor.witness, taylor.eta, taylor.lam, (None, HALF, None)
        )

    def test_int_and_fraction_interval_exponents_hash_equal(self):
        a, b = AlignedInterval(2, 1), AlignedInterval(Fraction(4, 2), Fraction(1))
        assert type(a.r_alpha) is Fraction and type(a.r_beta) is Fraction
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_equal_log_radii_hash_equal(self):
        # a radius exponent given as an int is kept as the equal Fraction
        m = exponential_two_var_module(3)
        a, b = intrinsic_radius(m, (1, 0), 8), intrinsic_radius(m, (Fraction(2, 2), Fraction(0, 5)), 8)
        assert [type(r) for r in a.rho] == [Fraction, Fraction]
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"


class TestConstruction:
    def test_positional_and_keyword_with_defaults(self):
        matrices = module().matrices
        positional = ConnectionModule(3, 1, 0, 1, matrices)
        keyword = ConnectionModule(
            prime=3, nvars_annulus=1, nvars_disc=0, rank=1, matrices=matrices
        )
        mixed = ConnectionModule(3, 1, nvars_disc=0, rank=1, matrices=matrices)
        assert positional == keyword == mixed
        d = ModuleDescriptor(positional, "label")
        assert (d.module, d.label, d.expected) == (positional, "label", None)
        assert ModuleDescriptor(module=positional) == ModuleDescriptor(positional, None, None)

    def test_field_order(self):
        report = CutCheckReport(oc_verdict(), None, 4, 7)
        assert (report.witness, report.trials, report.seed) == (None, 4, 7)
        assert (interval().r_alpha, interval().r_beta) == (HALF, QUARTER)
        cert = DominanceCertificate(frozenset({1}), frozenset({2}), 1, interval(), HALF, QUARTER)
        assert (cert.A, cert.B, cert.n0) == (frozenset({1}), frozenset({2}), 1)
        assert (cert.interval, cert.sup_norm, cert.margin) == (interval(), HALF, QUARTER)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {}),
            ((HALF, QUARTER, QUARTER), {}),
            ((HALF, QUARTER), {"r_alpha": HALF}),
            ((), {"r_alpha": HALF, "r_beta": QUARTER, "other": 1}),
            ((HALF,), {"other": QUARTER}),
        ],
        ids=["missing", "too-many", "twice", "unknown", "unknown-for-missing"],
    )
    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            AlignedInterval(*args, **kwargs)

    def test_module_matrices_become_a_tuple_and_are_checked(self):
        N = module().matrices[0]
        assert ConnectionModule(3, 1, 0, 1, [N]).matrices == (N,)
        with pytest.raises(SignatureError, match="expected 1 connection matrices"):
            ConnectionModule(3, 1, 0, 1, (N, N))
        with pytest.raises(SignatureError, match="signature mismatch"):
            ConnectionModule(5, 1, 0, 1, (N,))

    def test_post_init_checks_run(self):
        with pytest.raises(ValueError, match="radius exponent must be >= 0"):
            AlignedInterval(Fraction(-1), QUARTER)
        with pytest.raises(ValueError, match="alpha must not exceed beta"):
            AlignedInterval(QUARTER, HALF)

    def test_integrability_is_checked_once(self):
        m = exponential_two_var_module(3)
        assert "_violation" not in vars(m)
        assert m._violation is None
        assert "_violation" in vars(m) and m._violation is None


class TestRepr:
    def test_repr_text(self):
        assert repr(interval()) == "AlignedInterval(r_alpha=Fraction(1, 2), r_beta=Fraction(1, 4))"
        assert repr(SAMPLES["TaylorReport"]()) == (
            "TaylorReport(outcome=<ProbeOutcome.PASS: 'pass'>, witness=(1, 2),"
            " eta=Fraction(1, 4), lam=Fraction(1, 2),"
            " level_minima=(None, Fraction(1, 2)))"
        )
        assert repr(SAMPLES["CutCheckReport"]()).endswith(
            ", witness=(Fraction(1, 1),), trials=4, seed=7)"
        )
        assert repr(DominanceCertificate(frozenset({1}), frozenset(), 1, interval(), HALF, None)) == (
            "DominanceCertificate(A=frozenset({1}), B=frozenset(), n0=1,"
            " interval=AlignedInterval(r_alpha=Fraction(1, 2), r_beta=Fraction(1, 4)),"
            " sup_norm=Fraction(1, 2), margin=None)"
        )
        assert repr(DirectionRadius(0, 1, (Fraction(1),), None)) == (
            "DirectionRadius(direction=0, window_start=1,"
            " estimates=(Fraction(1, 1),), vanished_at=None)"
        )
        assert repr(oc_verdict()).startswith(
            "OcVerdict(verdict=<Verdict.NOT_OVERCONVERGENT_EVIDENCE: 'NOT_OVERCONVERGENT_EVIDENCE'>,"
            " witness_direction=0, rationale='why', report=RadiusReport(rho=("
        )

    def test_module_and_corpus_entry_repr(self):
        module_text = (
            "ConnectionModule(prime=3, nvars_annulus=1, nvars_disc=0, rank=1,"
            " matrices=(PolyMatrix(size=1, p=3),))"
        )
        assert repr(module()) == module_text
        assert repr(CorpusEntry(ModuleDescriptor(module(), "rk1"), QUARTER, HALF, 24)) == (
            f"CorpusEntry(descriptor=ModuleDescriptor(module={module_text}, label='rk1',"
            " expected=None), taylor_eta=Fraction(1, 4), taylor_lambda=Fraction(1, 2),"
            " taylor_bound=24)"
        )
