"""Norm exponents and report values stay exact Fractions, never ints or floats.

At unit radius a Gauss norm exponent is a bare valuation, an int; if it
leaked out as one, `w / s` in the window estimates would be a float.

Every rational a caller passes enters through `padic.exact`, every count
through `connection.check_count`, and every direction through
`padic.check_direction`: the table at the end lists each entry point with
its rational, count or direction parameters.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import islice

import pytest

from nabla_radius.connection import ConnectionModule, PolyMatrix, iter_deriv_matrices, ladder_matrix
from nabla_radius.corpus import (
    build_corpus,
    exponential_module,
    falling_factorial_valuation,
    exponential_two_var_module,
    power_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius.curves import curve_witness_search, generic_equality_check, specialize
from nabla_radius.descriptor import ModuleDescriptor, module_descriptor_to_dict
from nabla_radius.laurent import LaurentPoly
from nabla_radius.newton import AlignedInterval, shrink_interval, unit_certificate_check
from nabla_radius.radius import intrinsic_radius, oc_ir_test, taylor_probe

MODULES = {
    "exp-p3": exponential_module(3),
    "power-half-p3": power_module(3, Fraction(1, 2)),
    "power-int3-p5": power_module(5, 3),
    "trivial": trivial_module(3, 1, 1, 2),
    "exp-two-var-p3": exponential_two_var_module(3),
    "random-rank2": random_integrable_module(random.Random(7), 3, 2),
}


def test_gauss_norm_at_unit_radius_is_a_fraction():
    f = LaurentPoly(3, 2, 0, {(1, -2): 9, (0, 3): Fraction(1, 3)})
    w = f.gauss_lognorm((Fraction(0),) * 2)
    assert w == -1 and type(w) is Fraction
    M = PolyMatrix([[f, f], [f, LaurentPoly.zero(3, 2, 0)]])
    assert type(M.gauss_lognorm((Fraction(0),) * 2)) is Fraction


def test_sup_norm_without_negative_exponents_is_a_fraction():
    f = LaurentPoly(3, 1, 1, {(2, 0): 9, (0, 1): 27})
    w = f.sup_vertex_lognorm(Fraction(1, 2))
    assert w == 2 and type(w) is Fraction
    assert type(PolyMatrix([[f]]).sup_vertex_lognorm(Fraction(0))) is Fraction


@pytest.mark.parametrize("name", sorted(MODULES))
def test_radius_estimates_at_unit_radius_are_fractions(name):
    module = MODULES[name]
    report = intrinsic_radius(module, (Fraction(0),) * module.dims, depth=16)
    assert type(report.ir_estimate) is Fraction
    for d in report.directions:
        assert type(d.point_estimate) is Fraction
        assert type(d.stability) is Fraction
        assert d.estimates and all(type(e) is Fraction for e in d.estimates)


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.label)
def test_finite_taylor_level_minima_are_fractions(entry):
    report = taylor_probe(
        entry.descriptor.module, entry.taylor_eta, entry.taylor_lambda, 16
    )
    finite = [e for e in report.level_minima if e is not None]
    assert finite and all(type(e) is Fraction for e in finite)


def test_witness_and_certificate_exponents_are_fractions():
    module = exponential_two_var_module(3)
    report = curve_witness_search(module, depth=16, trials=3, seed=0)
    assert report.witness is not None
    radii = report.verdict.report
    assert type(radii.ir_estimate) is Fraction
    assert type(radii.directions[report.verdict.witness_direction].point_estimate) is Fraction
    assert all(type(c) is Fraction for c in report.witness)
    a = LaurentPoly(2, 1, 0, {(0,): 2, (1,): 1})
    # int exponents, stored as Fractions
    interval = AlignedInterval(2, 1)
    assert type(interval.r_alpha) is Fraction and type(interval.r_beta) is Fraction
    cert = shrink_interval(a, interval)
    assert unit_certificate_check(a, cert) is None
    exponents = (cert.sup_norm, cert.margin, cert.interval.r_alpha, cert.interval.r_beta)
    assert all(type(e) is Fraction for e in (*exponents, *cert.interval.endpoints))


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
def test_float_and_bool_coordinates_are_refused(bad):
    module = exponential_two_var_module(3)
    with pytest.raises(TypeError):
        specialize(module, 0, (bad,))
    with pytest.raises(TypeError):
        generic_equality_check(module, 0, (bad,), depth=4)


EXP2 = MODULES["exp-two-var-p3"]
UNIT2 = (Fraction(0),) * 2
ETA, LAM = Fraction(1, 4), Fraction(1, 8)
POLY = LaurentPoly(3, 2, 0, {(1, -2): Fraction(9, 2), (0, 3): Fraction(1, 3), (2, 5): 7})

# (entry point, the call on a direction): each takes a direction of one
# of two variables.
DIRECTIONS = [
    ("ladder_matrix", lambda x: ladder_matrix(EXP2, x)),
    ("iter_deriv_matrices", lambda x: list(islice(iter_deriv_matrices(EXP2, x), 3))[-1]),
    ("LaurentPoly.partial", POLY.partial),
    ("LaurentPoly.specialize", lambda x: POLY.specialize(x, (2,))),
    ("PolyMatrix.specialize", lambda x: PolyMatrix([[POLY]]).specialize(x, (2,))),
    ("curves.specialize", lambda x: specialize(EXP2, x, (2,))),
    ("generic_equality_check", lambda x: generic_equality_check(EXP2, x, (2,), 8)),
]

# (entry point and parameter, the name its message gives, the call, values
# that must be accepted, values that must raise TypeError).  Each refused
# tuple holds a float, a bool and a str, and for a count or the seed a
# Fraction too.  Where an input used to be coerced, or to fail deep inside
# the call (tol=0.1, window=0.3, scale=0.1, trials=True, bound=8.0, ...),
# it is one of them.
RATIONAL, COUNT = (0.5, True, "1/2"), (8.0, True, "8", Fraction(8))
ENTRY_POINTS = [
    ("LaurentPoly-coefficients", "coefficients", lambda x: LaurentPoly(3, 1, 0, {(1,): x}),
     (Fraction(2, 3), 5), (0.1, False, "2/3")),
    ("LaurentPoly-nvars_annulus", "nvars_annulus", lambda x: LaurentPoly(3, x, 0, {(1,): 1}), (1,),
     (1.0, True, "1", Fraction(1))),
    ("LaurentPoly-nvars_disc", "nvars_disc", lambda x: LaurentPoly(3, 0, x, {(1,): 1}), (1,),
     (1.0, True, "1", Fraction(1))),
    ("ConnectionModule-nvars_annulus", "nvars_annulus",
     lambda x: ConnectionModule(3, x, 0, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[1]]),)), (1,),
     (1.0, True, "1", Fraction(1))),
    ("ConnectionModule-nvars_disc", "nvars_disc",
     lambda x: ConnectionModule(3, 1, x, 1, (PolyMatrix.from_scalar_rows(3, 1, 0, [[1]]),)), (0,),
     (0.0, False, "0", Fraction(0))),
    ("ConnectionModule-rank", "rank",
     lambda x: ConnectionModule(3, 1, 0, x, (PolyMatrix.from_scalar_rows(3, 1, 0, [[1, 0], [0, 1]]),)),
     (2,), (2.0, True, "2", Fraction(2))),
    ("LaurentPoly.scalar_mul", "scalar factors", POLY.scalar_mul, (Fraction(2, 3), -5), (2.0, True, "5")),
    ("LaurentPoly.specialize", "coordinates", lambda x: POLY.specialize(0, (x,)),
     (Fraction(1, 2), 2), (0.5, True, "1/2")),
    ("AlignedInterval-r_alpha", "radius exponent", lambda x: AlignedInterval(x, Fraction(1, 4)),
     (Fraction(1, 2), 1), (0.5, True, "1/2")),
    ("AlignedInterval-r_beta", "radius exponent", lambda x: AlignedInterval(2, x),
     (Fraction(1, 2), 1), (0.5, True, "1/2")),
    ("curves.specialize-point", "unit point coordinates", lambda x: specialize(EXP2, 0, (x,)),
     (Fraction(-8, 5), 2), (0.5, True, "2")),
    ("generic_equality_check-point", "unit point coordinates",
     lambda x: generic_equality_check(EXP2, 0, (x,), 8), (Fraction(-8, 5), 2), (0.5, True, "2")),
    ("generic_equality_check-depth", "depth", lambda x: generic_equality_check(EXP2, 0, (2,), x),
     (8,), COUNT),
    ("intrinsic_radius-window", "window", lambda x: intrinsic_radius(EXP2, UNIT2, 16, window=x),
     (Fraction(3, 10), 1), (0.3, True, "3/10")),
    ("intrinsic_radius-depth", "depth", lambda x: intrinsic_radius(EXP2, UNIT2, x), (16,), COUNT),
    ("oc_ir_test-tol", "tol", lambda x: oc_ir_test(EXP2, 16, tol=x), (Fraction(1, 10), 1),
     (0.1, True, "1/10")),
    ("oc_ir_test-window", "window", lambda x: oc_ir_test(EXP2, 16, window=x), (Fraction(1, 2), 1),
     RATIONAL),
    ("oc_ir_test-depth", "depth", lambda x: oc_ir_test(EXP2, x), (16,), COUNT),
    ("curve_witness_search-tol", "tol", lambda x: curve_witness_search(EXP2, 16, 2, 0, tol=x),
     (Fraction(1, 10), 1), (0.1, True, "1/10")),
    ("curve_witness_search-window", "window",
     lambda x: curve_witness_search(EXP2, 16, 2, 0, window=x), (Fraction(1, 2), 1), RATIONAL),
    ("curve_witness_search-depth", "depth", lambda x: curve_witness_search(EXP2, x, 2, 0), (16,), COUNT),
    ("curve_witness_search-trials", "trials", lambda x: curve_witness_search(EXP2, 16, x, 0), (1, 3),
     (True, 1.0, "1", Fraction(1))),
    ("curve_witness_search-seed", "seed", lambda x: curve_witness_search(EXP2, 16, 2, x), (0, 5),
     (0.5, True, "x", Fraction(5))),
    ("taylor_probe-bound", "bound", lambda x: taylor_probe(EXP2, ETA, LAM, x), (8,), COUNT),
    ("exponential_module-scale", "scale", lambda x: exponential_module(3, x), (Fraction(1, 10), 2),
     (0.1, True, "1/10")),
    ("power_module-a", "a", lambda x: power_module(3, x), (Fraction(1, 2), 3), RATIONAL),
    ("falling_factorial_valuation-a", "a", lambda x: falling_factorial_valuation(x, 3, 3),
     (Fraction(1, 2), 9), RATIONAL),
    *[(f"{entry}-direction", "direction", call, (0, 1), (True, 1.0, "1")) for entry, call in DIRECTIONS],
]


def _result_digest(result: object) -> str:
    """The first 16 hex digits of the SHA-256 of a result's JSON form."""
    if isinstance(result, ConnectionModule):
        doc = module_descriptor_to_dict(ModuleDescriptor(result))
    elif isinstance(result, (LaurentPoly, PolyMatrix)):
        doc = result.to_records()
    elif hasattr(result, "to_json_dict"):
        doc = result.to_json_dict()
    else:
        doc = repr(result)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# _result_digest of each accepted value's result, recorded before these
# entry points went through `exact`: accepting a value must not change what
# the call returns.
ACCEPTED_DIGESTS = {
    "LaurentPoly-coefficients-Fraction(2, 3)": "5bc3bfdd4b023a1e",
    "LaurentPoly-coefficients-5": "1e6a5f24c2ce0d9c",
    "LaurentPoly-nvars_annulus-1": "4e3d3187faeafa55",
    "LaurentPoly-nvars_disc-1": "4e3d3187faeafa55",
    "ConnectionModule-nvars_annulus-1": "ba89c2d9287afab1",
    "ConnectionModule-nvars_disc-0": "ba89c2d9287afab1",
    "ConnectionModule-rank-2": "9afbbaac0c47731f",
    "LaurentPoly.scalar_mul-Fraction(2, 3)": "49fee6497f7bc370",
    "LaurentPoly.scalar_mul--5": "7e61e9727d128cb7",
    "LaurentPoly.specialize-Fraction(1, 2)": "981a34769e7f9c81",
    "LaurentPoly.specialize-2": "6b458a1fc0342fe3",
    "AlignedInterval-r_alpha-Fraction(1, 2)": "118784766565b0ab",
    "AlignedInterval-r_alpha-1": "c3666ff7913df8cf",
    "AlignedInterval-r_beta-Fraction(1, 2)": "a58c04e3456eccc9",
    "AlignedInterval-r_beta-1": "d08b721b5c7e7da7",
    "curves.specialize-point-Fraction(-8, 5)": "ba89c2d9287afab1",
    "curves.specialize-point-2": "ba89c2d9287afab1",
    "generic_equality_check-point-Fraction(-8, 5)": "f2953d2931e36d0c",
    "generic_equality_check-point-2": "f2953d2931e36d0c",
    "generic_equality_check-depth-8": "f2953d2931e36d0c",
    "intrinsic_radius-window-Fraction(3, 10)": "ce1e41cf444c8d95",
    "intrinsic_radius-window-1": "7dffc124e56b693a",
    "intrinsic_radius-depth-16": "0e2d8c4be915955b",
    "oc_ir_test-tol-Fraction(1, 10)": "2688eb3670aa7c61",
    "oc_ir_test-tol-1": "3d5640408c8c441c",
    "oc_ir_test-window-Fraction(1, 2)": "4842dec43c963925",
    "oc_ir_test-window-1": "7f44bc130a915755",
    "oc_ir_test-depth-16": "a9cb246271ba096f",
    "curve_witness_search-tol-Fraction(1, 10)": "63fe2a12cabf759f",
    "curve_witness_search-tol-1": "fc1155f0628e0dcc",
    "curve_witness_search-window-Fraction(1, 2)": "efd538b2ba6be28f",
    "curve_witness_search-window-1": "b97ea53b647ddda7",
    "curve_witness_search-depth-16": "336ecd8722ca38e9",
    "curve_witness_search-trials-1": "3a42461b67e293f9",
    "curve_witness_search-trials-3": "e831d98390902541",
    "curve_witness_search-seed-0": "336ecd8722ca38e9",
    "curve_witness_search-seed-5": "4c92109cdddf5288",
    "taylor_probe-bound-8": "00977c3a3e27c338",
    "exponential_module-scale-Fraction(1, 10)": "1361c906ecf9dbc6",
    "exponential_module-scale-2": "f7054f2e3ee7c598",
    "power_module-a-Fraction(1, 2)": "1f587ce316f48f92",
    "power_module-a-3": "d2b0c0324470acb2",
    "falling_factorial_valuation-a-Fraction(1, 2)": "391552c099c101b1",
    "falling_factorial_valuation-a-9": "cc11310c456c3690",
    "ladder_matrix-direction-0": "e5b6cb1548e70ee6",
    "ladder_matrix-direction-1": "911d1451b2d958bd",
    "iter_deriv_matrices-direction-0": "67dbdaad0662b32e",
    "iter_deriv_matrices-direction-1": "33ea8a78f520f455",
    "LaurentPoly.partial-direction-0": "130e5bc07b490ff0",
    "LaurentPoly.partial-direction-1": "2a96385ff2b30e11",
    "LaurentPoly.specialize-direction-0": "6b458a1fc0342fe3",
    "LaurentPoly.specialize-direction-1": "5877a92452ae64e2",
    "PolyMatrix.specialize-direction-0": "09bc023fbac6334c",
    "PolyMatrix.specialize-direction-1": "c96402b9c2881af0",
    "curves.specialize-direction-0": "ba89c2d9287afab1",
    "curves.specialize-direction-1": "cf6b42ab7f347a41",
    "generic_equality_check-direction-0": "f2953d2931e36d0c",
    "generic_equality_check-direction-1": "f2953d2931e36d0c",
}


@pytest.mark.parametrize(
    "call, name, bad",
    [(call, name, bad) for entry, name, call, _, refused in ENTRY_POINTS for bad in refused],
    ids=[f"{entry}-{bad!r}" for entry, _, _, _, refused in ENTRY_POINTS for bad in refused],
)
def test_inexact_input_is_refused_by_name(call, name, bad):
    with pytest.raises(TypeError, match=f"^{name} must be int.*, not {type(bad).__name__}$"):
        call(bad)


@pytest.mark.parametrize(
    "key, call, good",
    [(f"{entry}-{good!r}", call, good) for entry, _, call, accepted, _ in ENTRY_POINTS for good in accepted],
    ids=[f"{entry}-{good!r}" for entry, _, _, accepted, _ in ENTRY_POINTS for good in accepted],
)
def test_exact_input_gives_the_same_result(key, call, good):
    assert _result_digest(call(good)) == ACCEPTED_DIGESTS[key]


@pytest.mark.parametrize("call", [call for _, call in DIRECTIONS], ids=[entry for entry, _ in DIRECTIONS])
@pytest.mark.parametrize("bad", [-1, 2, 10**4000 - 1], ids=["-1", "dims", "4000-nines"])
def test_a_direction_out_of_range_is_one_value_error(call, bad):
    message = f"direction {bad} out of range for a module with 2 variables"
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message


# (entry point, the name its messages give, the call on one radius
# exponent): every radius entry point, each through `padic.check_radius`;
# rho is one exponent per variable of two.  The two tests below check the
# door at each: the types it refuses, and the values it reads.
RADII = [
    ("LaurentPoly.gauss_lognorm", "rho entries", lambda x: POLY.gauss_lognorm((Fraction(0), x))),
    ("PolyMatrix.gauss_lognorm", "rho entries",
     lambda x: PolyMatrix([[POLY]]).gauss_lognorm((Fraction(0), x))),
    ("LaurentPoly.sup_vertex_lognorm", "lam", POLY.sup_vertex_lognorm),
    ("PolyMatrix.sup_vertex_lognorm", "lam", PolyMatrix([[POLY]]).sup_vertex_lognorm),
    ("intrinsic_radius", "rho entries", lambda x: intrinsic_radius(EXP2, (Fraction(0), x), 8)),
    ("taylor_probe-eta", "eta", lambda x: taylor_probe(EXP2, x, LAM, 8)),
    ("taylor_probe-lam", "lam", lambda x: taylor_probe(EXP2, ETA, x, 8)),
    ("AlignedInterval-r_alpha", "radius exponent", lambda x: AlignedInterval(x, Fraction(1, 4))),
    ("AlignedInterval-r_beta", "radius exponent", lambda x: AlignedInterval(2, x)),
]


@pytest.mark.parametrize("call, name", [(call, name) for _, name, call in RADII], ids=[e for e, _, _ in RADII])
@pytest.mark.parametrize("bad", [0.5, True, "0", None], ids=repr)
def test_a_radius_that_is_not_a_log_radius_is_refused_by_name(call, name, bad):
    with pytest.raises(TypeError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be int or Fraction, not {type(bad).__name__}"


def _outcome(call, value):
    """What call(value) returns, or the type and message of what it raises."""
    try:
        return call(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call, name", [(call, name) for _, name, call in RADII], ids=[e for e, _, _ in RADII])
@pytest.mark.parametrize("value", [0, 1, Fraction(1, 2), Fraction(1, 3), -1, Fraction(-1, 3)], ids=repr)
def test_every_radius_door_on_exact_values(call, name, value):
    # a whole exponent gives what the equal Fraction gives, a refusal too
    # where the radius must be below 1 (eta, the outer end of an interval);
    # 1/2 and 1/3 are taken everywhere, and a negative exponent is one
    # ValueError
    if value < 0:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be >= 0, got {value}"
    elif isinstance(value, int):
        assert _outcome(call, value) == _outcome(call, Fraction(value))
    else:
        call(value)


@pytest.mark.parametrize("call", [
    POLY.gauss_lognorm,
    PolyMatrix([[POLY]]).gauss_lognorm,
    lambda rho: intrinsic_radius(EXP2, rho, 8),
], ids=["LaurentPoly.gauss_lognorm", "PolyMatrix.gauss_lognorm", "intrinsic_radius"])
@pytest.mark.parametrize("n", [1, 3], ids=["short", "long"])
def test_a_radius_vector_of_another_length_is_one_value_error(call, n):
    with pytest.raises(ValueError) as info:
        call((Fraction(0),) * n)
    assert str(info.value) == f"got {n} radius values for a module with 2 variables"
