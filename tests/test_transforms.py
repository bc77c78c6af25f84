"""Reflection doubling, affine normalization and the square-root lift."""

import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    DomainMismatchError,
    EvenSampleCountError,
    Family,
    Interval,
    NonPositiveFunctionError,
    UNIT_INTERVAL,
    affine_normalize,
    from_callable,
    integrate,
    lsi_deficit_circle,
    lsi_deficit_general,
    lsi_deficit_interval,
    reflect_to_circle,
    sample_family,
    sqrt_lift,
    squared_mass,
)
from lsilab.experiments import random_admissible_function


# ---------------------------------------------------------------------------
# reflection doubling
# ---------------------------------------------------------------------------

def test_reflect_constant():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 65)
    g, cert = reflect_to_circle(f)
    assert isinstance(g.domain, Circle)
    assert g.n == 2 * (f.n - 1)
    assert np.all(g.values == 1.0)
    assert cert.identity_residuals["entropy"] <= 1e-12
    assert cert.identity_residuals["energy"] <= 1e-12


def test_reflect_fold_indexing():
    f = from_callable(UNIT_INTERVAL, 17, lambda x: x)
    g, _ = reflect_to_circle(f)
    # g(x) = f(2x) left of the fold, f(2 - 2x) right of it
    assert g.values[0] == f.values[0]
    assert g.values[16] == f.values[16]
    assert g.values[17] == f.values[15]
    assert g.values[-1] == f.values[1]


def test_reflect_smooth_family_identities():
    f = sample_family(Family.SHARPNESS, [0.4], UNIT_INTERVAL, 1025)
    g, cert = reflect_to_circle(f)
    assert cert.identity_residuals["entropy"] <= 1e-6
    assert cert.identity_residuals["energy"] <= 1e-6
    assert cert.identity_residuals["mass"] <= 1e-10
    # the circle deficit of the reflection is four times the interval deficit
    circle = lsi_deficit_circle(g)
    interval = lsi_deficit_interval(f)
    assert abs(circle.deficit - 4.0 * interval.deficit) <= 1e-7


def test_reflect_corner_degrades_energy_only():
    # f' does not vanish at x = 0, so the folded function has a corner:
    # the entropy identity survives, the spectral energy identity degrades
    # to the corner's spectral tail (measured ~6e-3 at this resolution).
    f = from_callable(UNIT_INTERVAL, 1025, lambda x: math.sqrt(2) * np.sin(math.pi * x / 2))
    assert squared_mass(f) == pytest.approx(1.0, abs=1e-12)
    g, cert = reflect_to_circle(f)
    assert cert.identity_residuals["entropy"] <= 1e-6
    assert 1e-4 <= cert.identity_residuals["energy"] <= 1e-2


def test_reflect_requires_odd_sample_count():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 64)
    with pytest.raises(EvenSampleCountError):
        reflect_to_circle(f)


def test_reflect_requires_unit_interval():
    f = sample_family(Family.CONSTANT, [1.0], Interval(0.0, 2.0), 65)
    with pytest.raises(DomainMismatchError):
        reflect_to_circle(f)


@pytest.mark.parametrize("seed", range(5))
def test_reflect_mass_conservation_on_fold_compatible_inputs(seed):
    # interval random functions are cosine series: f'(0) = f'(1) = 0;
    # eight modes keeps the fifth derivative (and with it the interval
    # finite-difference truncation) representative of the smooth families
    f = random_admissible_function(UNIT_INTERVAL, 8, seed, 1025)
    g, cert = reflect_to_circle(f)
    assert cert.identity_residuals["mass"] <= 1e-10
    assert cert.identity_residuals["energy"] <= 1e-6


# ---------------------------------------------------------------------------
# affine normalization
# ---------------------------------------------------------------------------

def test_affine_constant():
    f = sample_family(Family.CONSTANT, [3.0], Interval(2.0, 5.0), 65)
    g, m, cert = affine_normalize(f)
    assert m == pytest.approx(3.0, abs=1e-14)
    np.testing.assert_allclose(g.values, 1.0, atol=1e-14)
    assert g.domain == UNIT_INTERVAL


def test_affine_unit_mass_output():
    f = from_callable(Interval(-2.0, 1.0), 1025, lambda x: np.exp(x) + 0.5)
    g, m, cert = affine_normalize(f)
    assert abs(squared_mass(g) - 1.0) <= 1e-10
    assert cert.identity_residuals["mass"] <= 1e-10


def test_affine_recovers_rescaled_sharpness_member():
    eps = 0.25
    f = from_callable(
        Interval(2.0, 5.0),
        1025,
        lambda y: math.sqrt(1 - eps**2) + math.sqrt(2) * eps * np.cos(math.pi * (y - 2.0) / 3.0),
    )
    g, m, cert = affine_normalize(f)
    reference = sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, 1025)
    assert m == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(g.values, reference.values, atol=1e-10)
    assert cert.identity_residuals["deficit"] <= 1e-8
    assert cert.identity_residuals["energy"] <= 1e-8
    assert cert.identity_residuals["entropy"] <= 1e-8


def test_affine_deficit_equivalence_scaling():
    f = from_callable(Interval(0.0, 2.0), 1025, lambda x: np.cosh(x - 1.0))
    g, m, cert = affine_normalize(f)
    length = 2.0
    general = lsi_deficit_general(f)
    unit = lsi_deficit_interval(g)
    assert abs(general.deficit - (m * m / length) * unit.deficit) <= 1e-8


def test_affine_on_unit_interval_unit_mass_is_identity():
    f = random_admissible_function(UNIT_INTERVAL, 10, 4, 513)
    g, m, _ = affine_normalize(f)
    assert m == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(g.values, f.values, atol=1e-10)


# ---------------------------------------------------------------------------
# square-root lift
# ---------------------------------------------------------------------------

def test_sqrt_lift_constant():
    f = sample_family(Family.CONSTANT, [4.0], UNIT_INTERVAL, 65)
    g, cert = sqrt_lift(f)
    np.testing.assert_allclose(g.values, 2.0, atol=1e-14)
    # integral g^2 log g = (1/2) integral f log f exactly for constants
    assert cert.identity_residuals["entropy_halving"] <= 1e-12
    assert cert.identity_residuals["fisher_chain_rule"] <= 1e-12


@pytest.mark.parametrize("b", [0.5, 2.0, 3.0])
def test_sqrt_lift_constant_off_unit_length_has_zero_input_deficit(b):
    f = sample_family(Family.CONSTANT, [2.0], Interval(0.0, b), 65)
    _, cert = sqrt_lift(f)
    assert abs(cert.input_report.deficit) <= 1e-9
    assert abs(cert.output_report.deficit) <= 1e-9


def test_sqrt_lift_of_squared_sharpness_member():
    base = sample_family(Family.SHARPNESS, [0.25], UNIT_INTERVAL, 1025)
    f = base.with_values(base.values**2)
    g, cert = sqrt_lift(f)
    np.testing.assert_allclose(g.values, base.values, atol=1e-12)
    assert cert.identity_residuals["fisher_chain_rule"] <= 1e-7
    assert cert.identity_residuals["entropy_halving"] <= 1e-7


def test_sqrt_lift_exponential_family():
    f = from_callable(UNIT_INTERVAL, 1025, lambda x: np.exp(-0.1 * np.cos(math.pi * x)))
    _, cert = sqrt_lift(f)
    assert cert.identity_residuals["fisher_chain_rule"] <= 1e-7
    assert cert.identity_residuals["entropy_halving"] <= 1e-7


def test_sqrt_lift_inverts_pointwise_square():
    f = random_admissible_function(UNIT_INTERVAL, 8, 11, 257)
    squared = f.with_values(f.values**2)
    g, _ = sqrt_lift(squared)
    np.testing.assert_allclose(g.values, f.values, atol=1e-12)


def test_sqrt_lift_requires_positivity():
    f = from_callable(UNIT_INTERVAL, 65, lambda x: x)
    with pytest.raises(NonPositiveFunctionError):
        sqrt_lift(f)


def test_sqrt_lift_requires_unit_circle():
    f = sample_family(Family.CONSTANT, [4.0], Circle(2.0), 64)
    with pytest.raises(DomainMismatchError, match="circumference 1, got 2.0"):
        sqrt_lift(f)


def test_certificate_serialization_shape(tmp_path):
    from lsilab.function_space import write_json
    import json

    f = sample_family(Family.SHARPNESS, [0.4], UNIT_INTERVAL, 129)
    _, cert = reflect_to_circle(f)
    path = tmp_path / "cert.json"
    write_json(cert.to_dict(), path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"input_report", "output_report", "residuals"}
    assert set(payload["residuals"]) == {"mass", "entropy", "energy"}
    for key in ("mass", "entropy", "energy", "constant", "deficit", "ratio"):
        assert key in payload["input_report"]
