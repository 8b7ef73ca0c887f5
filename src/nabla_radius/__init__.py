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

Every exported name is resolved from its submodule on first use (PEP 562),
so importing the package loads no submodule and a CLI subcommand loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each exported name.
_EXPORTS = {
    "connection": (
        "DEFAULT_DEPTH_CAP", "ConnectionModule", "DepthCapError", "IntegrabilityViolation",
        "NotIntegrableError", "PolyMatrix", "curvature", "integrability_check",
        "iter_deriv_matrices", "ladder_matrix", "require_integrable",
    ),
    "corpus": (
        "CorpusEntry", "build_corpus", "corpus_by_label", "exponential_module",
        "exponential_two_var_module", "falling_factorial_valuation", "power_module",
        "random_integrable_module", "trivial_module",
    ),
    "curves": (
        "CutCheckReport", "curve_witness_search", "generic_equality_check", "sample_unit_point",
        "specialize",
    ),
    "descriptor": (
        "DescriptorError", "ModuleDescriptor", "canonical_json", "descriptor_sha256",
        "load_module_descriptor", "load_poly_descriptor", "module_descriptor_to_dict",
        "parse_module_descriptor",
    ),
    "laurent": ("LaurentPoly", "SignatureError"),
    "newton": (
        "AlignedInterval", "DominanceCertificate", "shrink_interval", "unit_certificate_check",
    ),
    "padic": (
        "LogRadius", "PrimeError", "check_prime", "fraction_valuation", "int_valuation",
        "parse_fraction",
    ),
    "radius": (
        "DirectionRadius", "OcVerdict", "ProbeOutcome", "RadiusReport", "TaylorReport",
        "Verdict", "factorial_valuation", "intrinsic_radius", "oc_ir_test",
        "spectral_base_exponent", "taylor_probe",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    # Not cached in the package namespace: the submodule attribute stays
    # the one binding, so patching it (as a tracer does) is seen here too.
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
