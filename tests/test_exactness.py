"""Norm exponents and report values stay exact Fractions, never ints or floats.

At unit radius a Gauss norm exponent is a bare valuation, an int; if it
leaked out as one, `w / s` in the window estimates would be a float.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nabla_radius.connection import PolyMatrix
from nabla_radius.corpus import (
    build_corpus,
    exponential_module,
    exponential_two_var_module,
    power_module,
    random_integrable_module,
    trivial_module,
)
from nabla_radius.curves import curve_witness_search, generic_equality_check, specialize
from nabla_radius.laurent import LaurentPoly
from nabla_radius.newton import AlignedInterval, shrink_interval, unit_certificate_check
from nabla_radius.padic import LogRadius
from nabla_radius.radius import intrinsic_radius, taylor_probe

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
    w = f.gauss_lognorm((LogRadius.one(),) * 2)
    assert w == -1 and type(w) is Fraction
    M = PolyMatrix([[f, f], [f, LaurentPoly.zero(3, 2, 0)]])
    assert type(M.gauss_lognorm((LogRadius.one(),) * 2)) is Fraction


def test_sup_norm_without_negative_exponents_is_a_fraction():
    f = LaurentPoly(3, 1, 1, {(2, 0): 9, (0, 1): 27})
    w = f.sup_vertex_lognorm(LogRadius(Fraction(1, 2)))
    assert w == 2 and type(w) is Fraction
    assert type(PolyMatrix([[f]]).sup_vertex_lognorm(LogRadius.one())) is Fraction


@pytest.mark.parametrize("name", sorted(MODULES))
def test_radius_estimates_at_unit_radius_are_fractions(name):
    module = MODULES[name]
    report = intrinsic_radius(module, (LogRadius.one(),) * module.dims, depth=16)
    assert type(report.ir_estimate) is Fraction
    for d in report.directions:
        assert type(d.point_estimate) is Fraction
        assert type(d.stability) is Fraction
        assert d.estimates and all(type(e) is Fraction for e in d.estimates)


@pytest.mark.parametrize("entry", build_corpus(), ids=lambda e: e.label)
def test_finite_taylor_level_minima_are_fractions(entry):
    report = taylor_probe(
        entry.descriptor.module, LogRadius(entry.taylor_eta), LogRadius(entry.taylor_lambda), 16
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
