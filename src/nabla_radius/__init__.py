"""Exact radius-of-convergence analysis for connections on p-adic polyannuli.

Scalars are plain ``int``/``Fraction`` values with the prime passed
alongside; norms and radii live on a log scale as exact ``Fraction``
exponents of ``p`` (a norm of None is the zero norm).  A radius is a
``LogRadius``, whose exponent is >= 0, and a radius vector is a plain
tuple of them, one per variable, annulus radii first.  On top of that sit
Laurent polynomials with rho-Gauss norms, matrix connections with the
iterated derivative recursion (run on integer numerators over a power of
one common denominator), windowed intrinsic-radius estimates,
overconvergence verdicts, curve specializations, and a dominant-term
interval lemma.
"""

from .connection import (
    DEFAULT_DEPTH_CAP,
    ConnectionModule,
    DepthCapError,
    IntegrabilityViolation,
    NotIntegrableError,
    PolyMatrix,
    curvature,
    integrability_check,
    iter_deriv_matrices,
    ladder_denominator,
    require_integrable,
)
from .corpus import (
    CorpusEntry,
    build_corpus,
    constant_annulus_module,
    corpus_by_label,
    exponential_module,
    exponential_two_var_module,
    falling_factorial_valuation,
    power_module,
    random_integrable_module,
    trivial_module,
)
from .curves import (
    CurveWitness,
    CutCheckReport,
    curve_witness_search,
    generic_equality_check,
    sample_unit_point,
    specialize,
)
from .descriptor import (
    DescriptorError,
    ModuleDescriptor,
    canonical_json,
    descriptor_sha256,
    load_module_descriptor,
    load_poly_descriptor,
    module_descriptor_to_dict,
    parse_module_descriptor,
    save_module_descriptor,
)
from .laurent import LaurentPoly, SignatureError
from .newton import (
    AlignedInterval,
    DominanceCertificate,
    DominantTerm,
    UnitCheck,
    dominant_term,
    shrink_interval,
    sup_norm_on_interval,
    unit_certificate_check,
)
from .padic import (
    LogRadius,
    PrimeError,
    check_prime,
    fraction_valuation,
    int_valuation,
    parse_fraction,
)
from .radius import (
    DirectionRadius,
    OcVerdict,
    ProbeOutcome,
    RadiusReport,
    TaylorReport,
    Verdict,
    factorial_valuation,
    intrinsic_radius,
    oc_ir_test,
    spectral_base_exponent,
    taylor_probe,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DEPTH_CAP",
    "AlignedInterval",
    "ConnectionModule",
    "CorpusEntry",
    "CurveWitness",
    "CutCheckReport",
    "DepthCapError",
    "DescriptorError",
    "DirectionRadius",
    "DominanceCertificate",
    "DominantTerm",
    "IntegrabilityViolation",
    "LaurentPoly",
    "LogRadius",
    "ModuleDescriptor",
    "NotIntegrableError",
    "OcVerdict",
    "PolyMatrix",
    "PrimeError",
    "ProbeOutcome",
    "RadiusReport",
    "SignatureError",
    "TaylorReport",
    "UnitCheck",
    "Verdict",
    "build_corpus",
    "canonical_json",
    "check_prime",
    "constant_annulus_module",
    "corpus_by_label",
    "curvature",
    "curve_witness_search",
    "descriptor_sha256",
    "dominant_term",
    "exponential_module",
    "exponential_two_var_module",
    "factorial_valuation",
    "falling_factorial_valuation",
    "fraction_valuation",
    "generic_equality_check",
    "int_valuation",
    "integrability_check",
    "intrinsic_radius",
    "iter_deriv_matrices",
    "ladder_denominator",
    "load_module_descriptor",
    "load_poly_descriptor",
    "module_descriptor_to_dict",
    "oc_ir_test",
    "parse_fraction",
    "parse_module_descriptor",
    "power_module",
    "random_integrable_module",
    "require_integrable",
    "sample_unit_point",
    "save_module_descriptor",
    "shrink_interval",
    "specialize",
    "spectral_base_exponent",
    "sup_norm_on_interval",
    "taylor_probe",
    "trivial_module",
    "unit_certificate_check",
]
