"""Bit-for-bit parity of the deficit kernels with the per-form formulas.

Each reference in ``references.py`` assembles one report the way the
library did before the log-Sobolev and Fisher kernels were shared: one
function per domain and form. Reports and certificate residuals must agree
with ``==``, not within a tolerance. Both sides run on the same machine, so
no computed float is frozen here.
"""

import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    FOUR_PI_SQUARED,
    Interval,
    PI_SQUARED,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    affine_normalize,
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

from references import fisher_integrals, fisher_report, mass_corrected_report, unit_mass_report


#: What a 49-point unit-circle grid file reads back as; the unit forms treat it as circumference 1.
ROUNDED_UNIT_CIRCLE = Circle(49 * (1 / 49))


def _random(domain, seed, n, normalize):
    return random_admissible_function(domain, 8, seed, n, normalize=normalize)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [257, 256])
def test_unit_mass_forms(seed, n):
    for f in (_random(UNIT_INTERVAL, seed, n, True), sample_family("constant", [1.0], UNIT_INTERVAL, n)):
        assert lsi_deficit_interval(f) == unit_mass_report(f, PI_SQUARED)
    for circle in (UNIT_CIRCLE, ROUNDED_UNIT_CIRCLE):
        for g in (_random(circle, seed, n, True), sample_family("constant", [1.0], circle, n)):
            assert lsi_deficit_circle(g) == unit_mass_report(g, FOUR_PI_SQUARED)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("domain", [Interval(0.0, 1.0), Interval(0.0, 2.0), Interval(-1.0, 0.5)])
def test_general_form(seed, domain):
    for f in (_random(domain, seed, 257, False), _random(domain, seed, 256, False),
              sample_family("constant", [2.0], domain, 129)):
        assert lsi_deficit_general(f) == mass_corrected_report(f)


@pytest.mark.parametrize("seed", range(3))
def test_reflection_reports_and_residuals(seed):
    # off unit mass, the circle side is the mass-corrected circle form
    f = _random(UNIT_INTERVAL, seed, 257, False)
    g, cert = reflect_to_circle(f)
    rep_in, rep_out = mass_corrected_report(f), mass_corrected_report(g)
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
    rep_in, rep_out = mass_corrected_report(f), mass_corrected_report(g)
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
        assert lsi_deficit_density_form(f) == fisher_report(f)
    g, cert = sqrt_lift(f)
    assert np.array_equal(g.values, np.sqrt(f.values))
    rep_out = mass_corrected_report(g)
    assert (cert.input_report, cert.output_report) == (fisher_report(f), rep_out)
    fisher, log_mass = fisher_integrals(f)
    assert cert.identity_residuals == {
        "fisher_chain_rule": abs(4.0 * rep_out.energy - fisher),
        "entropy_halving": abs(rep_out.entropy - 0.5 * log_mass),
    }
