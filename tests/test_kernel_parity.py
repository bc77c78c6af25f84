"""Bit-for-bit parity of the deficit kernels with the per-form formulas.

Each reference below assembles one report the way the library did before
the log-Sobolev and Fisher kernels were shared: one function per domain
and form. Reports and certificate residuals must agree with ``==``, not
within a tolerance. Both sides run on the same machine, so no computed
float is frozen here.
"""

import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    FOUR_PI_SQUARED,
    FunctionalReport,
    Interval,
    PI_SQUARED,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    affine_normalize,
    differentiate,
    dirichlet_energy,
    entropy,
    lsi_deficit_circle,
    lsi_deficit_density_form,
    lsi_deficit_general,
    lsi_deficit_interval,
    reflect_to_circle,
    sample_family,
    sqrt_lift,
    squared_mass,
)
from lsilab.experiments import random_admissible_function
from lsilab.function_space import quadrature_weights


def _ratio(energy, ent):
    return energy / ent if ent > 0.0 else None


def ref_unit_mass(f, constant):
    mass = squared_mass(f)
    ent = entropy(f)
    energy = dirichlet_energy(f)
    return FunctionalReport(mass, ent, energy, constant, energy - constant * ent, _ratio(energy, ent))


def ref_general(f):
    length = f.domain.length
    mass = squared_mass(f)
    m = math.sqrt(max(mass, 0.0) / length)
    ent = entropy(f)
    energy = dirichlet_energy(f)
    constant = PI_SQUARED / length**2
    correction = length * m * m * math.log(m)
    deficit = energy - constant * (ent - correction)
    return FunctionalReport(mass, ent, energy, constant, deficit, _ratio(energy, ent), correction)


def ref_circle_mass_corrected(f):
    mass = squared_mass(f)
    m = math.sqrt(max(mass, 0.0))
    ent = entropy(f)
    energy = dirichlet_energy(f)
    correction = m * m * math.log(m)
    deficit = energy - FOUR_PI_SQUARED * (ent - correction)
    return FunctionalReport(mass, ent, energy, FOUR_PI_SQUARED, deficit, _ratio(energy, ent), correction)


def ref_integral(f, integrand):
    """Simpson weights @ integrand on intervals; on circles the sum of the
    integrand times the step L/n, taken in blocks of 8192 nodes (one block
    at these sizes)."""
    if isinstance(f.domain, Circle):
        assert f.n <= 8192
        return float(np.sum(integrand * (f.domain.circumference / f.n)))
    return float(quadrature_weights(f.domain, f.n) @ integrand)


def ref_fisher_integrals(f):
    d = differentiate(f).values
    return ref_integral(f, d * d / f.values), ref_integral(f, f.values * np.log(f.values))


def ref_fisher(f):
    fisher, log_mass = ref_fisher_integrals(f)
    mass = ref_integral(f, f.values)
    length = f.domain.length
    if isinstance(f.domain, Interval):
        constant = 2.0 * PI_SQUARED / length**2
        m = mass / length
        correction = length * m * math.log(m)
    else:
        constant = 2.0 * FOUR_PI_SQUARED
        m = mass
        correction = m * math.log(m)
    deficit = fisher - constant * (log_mass - correction)
    return FunctionalReport(mass, log_mass, fisher, constant, deficit, _ratio(fisher, log_mass), correction)


#: What a 49-point unit-circle grid file reads back as; the unit forms treat it as circumference 1.
ROUNDED_UNIT_CIRCLE = Circle(49 * (1 / 49))


def _random(domain, seed, n, normalize):
    return random_admissible_function(domain, 8, seed, n, normalize=normalize)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [257, 256])
def test_unit_mass_forms(seed, n):
    for f in (_random(UNIT_INTERVAL, seed, n, True), sample_family("constant", [1.0], UNIT_INTERVAL, n)):
        assert lsi_deficit_interval(f) == ref_unit_mass(f, PI_SQUARED)
    for circle in (UNIT_CIRCLE, ROUNDED_UNIT_CIRCLE):
        for g in (_random(circle, seed, n, True), sample_family("constant", [1.0], circle, n)):
            assert lsi_deficit_circle(g) == ref_unit_mass(g, FOUR_PI_SQUARED)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("domain", [Interval(0.0, 1.0), Interval(0.0, 2.0), Interval(-1.0, 0.5)])
def test_general_form(seed, domain):
    for f in (_random(domain, seed, 257, False), _random(domain, seed, 256, False),
              sample_family("constant", [2.0], domain, 129)):
        assert lsi_deficit_general(f) == ref_general(f)


@pytest.mark.parametrize("seed", range(3))
def test_reflection_reports_and_residuals(seed):
    # off unit mass, the circle side is the mass-corrected circle form
    f = _random(UNIT_INTERVAL, seed, 257, False)
    g, cert = reflect_to_circle(f)
    rep_in, rep_out = ref_general(f), ref_circle_mass_corrected(g)
    assert (cert.input_report, cert.output_report) == (rep_in, rep_out)
    assert cert.identity_residuals == {
        "mass": abs(rep_out.mass - rep_in.mass),
        "entropy": abs(rep_out.entropy - rep_in.entropy),
        "energy": abs(rep_out.energy - 4.0 * rep_in.energy),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("domain", [Interval(0.0, 2.0), Interval(-1.0, 0.5)])
def test_affine_normalize_reports_and_residuals(seed, domain):
    f = _random(domain, seed, 257, False)
    g, m, cert = affine_normalize(f)
    length = domain.length
    assert m == math.sqrt(max(squared_mass(f), 0.0) / length)
    assert np.array_equal(g.values, f.values / m)
    rep_in, rep_out = ref_general(f), ref_general(g)
    assert (cert.input_report, cert.output_report) == (rep_in, rep_out)
    entropy_identity = (rep_in.entropy - length * m * m * math.log(m)) / (length * m * m)
    assert cert.identity_residuals == {
        "mass": abs(rep_out.mass - 1.0),
        "energy": abs(rep_out.energy - length / (m * m) * rep_in.energy),
        "entropy": abs(rep_out.entropy - entropy_identity),
        "deficit": abs(rep_in.deficit - (m * m / length) * rep_out.deficit),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "domain",
    [UNIT_INTERVAL, Interval(0.0, 2.0), Interval(-1.0, 0.5), UNIT_CIRCLE, ROUNDED_UNIT_CIRCLE],
)
def test_fisher_form_and_sqrt_lift(seed, domain):
    f = _random(domain, seed, 257, False)
    if isinstance(domain, Interval):
        assert lsi_deficit_density_form(f) == ref_fisher(f)
    g, cert = sqrt_lift(f)
    assert np.array_equal(g.values, np.sqrt(f.values))
    rep_out = ref_general(g) if isinstance(domain, Interval) else ref_circle_mass_corrected(g)
    assert (cert.input_report, cert.output_report) == (ref_fisher(f), rep_out)
    fisher, log_mass = ref_fisher_integrals(f)
    assert cert.identity_residuals == {
        "fisher_chain_rule": abs(4.0 * rep_out.energy - fisher),
        "entropy_halving": abs(rep_out.entropy - 0.5 * log_mass),
    }
