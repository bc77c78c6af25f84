"""Scalar functionals, deficits and the Fourier-side bound.

[frozen] constants were computed with the mpmath oracles in oracles.py
(40-digit quadrature of the closed-form integrands); test_oracles.py
re-derives them.
"""

import math
import re
import warnings

import numpy as np
import pytest

from lsilab import (
    Circle,
    DomainMismatchError,
    Family,
    FOUR_PI_SQUARED,
    GridFunction,
    Interval,
    InvalidInputError,
    NegativeFunctionError,
    NonPositiveFunctionError,
    NotNormalizedError,
    PI_SQUARED,
    ParamOutOfRangeError,
    UNIT_INTERVAL,
    WeightPower,
    ZeroMassError,
    diaz_deficit,
    differentiate,
    dirichlet_energy,
    entropy,
    fourier_from_dict,
    from_callable,
    from_fourier,
    lsi_deficit_circle,
    lsi_deficit_density_form,
    lsi_deficit_general,
    lsi_deficit_interval,
    sample_family,
    squared_mass,
    to_fourier,
    weissler_bound,
    weissler_report,
    wirtinger_deficit,
)
from lsilab.experiments import random_admissible_function
from lsilab.function_space import quadrature_weights
from lsilab.functionals import _check_nonnegative, _entropy_integrand

from references import masked_square_log, weissler_payload

# [frozen] integral f_eps^2 log f_eps on [0, 1] for the sharpness family
ENTROPY_SHARPNESS = {
    0.1: 0.009962163027265682614302,
    0.5: 0.2192391247841614051139,
}
# [frozen] integral of 2 sin^2(pi x) log(sqrt(2) sin(pi x)) on [0, 1]
ENTROPY_SQRT2_SIN = 0.1534264097200273452914
# [frozen] deficit of (1 + 0.1 sin 2 pi x)/sqrt(1.005) on the unit circle
CIRCLE_SIN_DEFICIT = 0.0003680658891113822807475
# [frozen] rescaled deficit of sqrt(2) sin(pi x / 2) on [0, 2]
GENERAL_SIN_DEFICIT = 4.17767321623661879092
# [frozen] Fisher-form deficit of exp(-0.1 cos pi x) on [0, 1]
DENSITY_EXP_DEFICIT = 3.08510904823404419837e-05
# [frozen] power-mean deficit at q = 2 for the sharpness member eps = 0.3
DIAZ_Q2_E03_DEFICIT = 0.001726509735215250974172
# [frozen] entropy of 1 + 0.2 cos(2 pi x) on the unit circle
WEISSLER_EXAMPLE_ENTROPY = 0.02994966242856778494008


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_of_unit_constant_is_zero():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 101)
    assert entropy(f) == pytest.approx(0.0, abs=1e-15)


def test_entropy_of_constant_two():
    f = sample_family(Family.CONSTANT, [2.0], UNIT_INTERVAL, 101)
    assert entropy(f) == pytest.approx(4.0 * math.log(2.0), abs=1e-13)


def test_entropy_sharpness_against_oracle():
    f = sample_family(Family.SHARPNESS, [0.1], UNIT_INTERVAL, 4097)
    assert entropy(f) == pytest.approx(ENTROPY_SHARPNESS[0.1], abs=1e-9)


def test_entropy_zero_convention_and_clamp():
    values = np.zeros(33)
    values[16] = 1.0
    values[0] = -5e-13  # inside the clamp band
    f = from_callable(UNIT_INTERVAL, 33, lambda x: x).with_values(values)
    assert math.isfinite(entropy(f))


def test_entropy_integrand_is_bit_identical_to_the_masked_formula():
    rng = np.random.default_rng(7)
    with_zeros = rng.uniform(0.0, 3.0, 4097)
    with_zeros[::5] = 0.0
    clamped = with_zeros.copy()
    clamped[1::7] = -rng.uniform(0.0, 1e-12, clamped[1::7].size)
    clamped[3] = -0.0
    for values in (with_zeros, clamped, np.exp(rng.uniform(-690.0, 300.0, 257))):
        f = GridFunction(UNIT_INTERVAL, values)
        integrand = _entropy_integrand(_check_nonnegative(f.values))
        assert np.array_equal(integrand, masked_square_log(values))
        w = quadrature_weights(f.domain, f.n)
        assert entropy(f) == float(w @ masked_square_log(values))


def test_check_nonnegative_copies_only_to_clamp():
    values = np.array([0.0, 1.0, 2.0])
    assert _check_nonnegative(values) is values
    clamped = np.array([-1e-13, 1.0, 2.0])
    assert np.array_equal(_check_nonnegative(clamped), [0.0, 1.0, 2.0])
    assert clamped[0] == -1e-13


def test_entropy_rejects_negative_function():
    f = from_callable(UNIT_INTERVAL, 33, lambda x: x - 0.5)
    with pytest.raises(NegativeFunctionError):
        entropy(f)


# ---------------------------------------------------------------------------
# dirichlet_energy
# ---------------------------------------------------------------------------

def test_energy_of_constant_is_zero():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 64)
    assert dirichlet_energy(f) == 0.0


def test_energy_of_sharpness_family():
    eps = 0.2
    f = sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, 2049)
    assert dirichlet_energy(f) == pytest.approx(eps**2 * PI_SQUARED, abs=1e-7)


def test_energy_of_sine():
    f = from_callable(UNIT_INTERVAL, 2049, lambda x: math.sqrt(2) * np.sin(math.pi * x))
    assert dirichlet_energy(f) == pytest.approx(PI_SQUARED, abs=1e-6)


@pytest.mark.parametrize("circumference", [1.0, 2.0])
@pytest.mark.parametrize("n", [16, 17, 64, 65, 4096, 131072])
def test_circle_energy_parseval_matches_pointwise_derivative(n, circumference):
    # every bin populated, the Nyquist bin of even n included
    rng = np.random.default_rng(n)
    f = GridFunction(Circle(circumference), 2.0 + rng.standard_normal(n))
    d = differentiate(f).values  # one irfft of the derivative spectrum
    pointwise = circumference / n * float(d @ d)
    assert dirichlet_energy(f) == pytest.approx(pointwise, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# interval / circle deficits
# ---------------------------------------------------------------------------

def test_interval_deficit_constant_equality_case():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 2049)
    report = lsi_deficit_interval(f)
    assert report.deficit == pytest.approx(0.0, abs=1e-12)
    assert report.ratio is None
    assert report.constant == PI_SQUARED


def test_interval_deficit_sharpness_against_oracle():
    f = sample_family(Family.SHARPNESS, [0.5], UNIT_INTERVAL, 4097)
    report = lsi_deficit_interval(f)
    oracle = 0.25 * PI_SQUARED - PI_SQUARED * ENTROPY_SHARPNESS[0.5]
    assert report.deficit > 0.0
    assert report.deficit == pytest.approx(oracle, abs=1e-8)


def test_interval_deficit_sine():
    f = from_callable(UNIT_INTERVAL, 4097, lambda x: math.sqrt(2) * np.sin(math.pi * x))
    report = lsi_deficit_interval(f)
    oracle = PI_SQUARED - PI_SQUARED * ENTROPY_SQRT2_SIN
    assert report.deficit > 0.0
    assert report.deficit == pytest.approx(oracle, abs=1e-8)


def test_interval_deficit_requires_unit_interval_and_normalization():
    f = sample_family(Family.CONSTANT, [1.0], Interval(0.0, 2.0), 64)
    with pytest.raises(DomainMismatchError):
        lsi_deficit_interval(f)
    g = sample_family(Family.CONSTANT, [2.0], UNIT_INTERVAL, 64)
    with pytest.raises(NotNormalizedError):
        lsi_deficit_interval(g)


def test_circle_deficit_constant_equality_case():
    f = sample_family(Family.CONSTANT, [1.0], Circle(1.0), 2048)
    assert lsi_deficit_circle(f).deficit == pytest.approx(0.0, abs=1e-12)


def test_circle_deficit_against_oracle():
    c = math.sqrt(1.005)
    f = from_callable(Circle(1.0), 4096, lambda x: (1 + 0.1 * np.sin(2 * math.pi * x)) / c)
    report = lsi_deficit_circle(f)
    assert report.deficit >= 0.0
    assert report.deficit == pytest.approx(CIRCLE_SIN_DEFICIT, abs=1e-8)
    assert report.constant == FOUR_PI_SQUARED


def test_circle_deficit_requires_unit_circumference():
    f = sample_family(Family.CONSTANT, [1.0], Circle(2.0), 64)
    with pytest.raises(DomainMismatchError):
        lsi_deficit_circle(f)


# ---------------------------------------------------------------------------
# general and density-form deficits
# ---------------------------------------------------------------------------

def test_general_deficit_constant_cancels_exactly():
    f = sample_family(Family.CONSTANT, [2.5], Interval(1.0, 4.0), 257)
    report = lsi_deficit_general(f)
    assert report.deficit == pytest.approx(0.0, abs=1e-12)
    assert report.correction == pytest.approx(report.entropy, rel=1e-12)


def test_general_deficit_specializes_to_interval_form():
    f = random_admissible_function(UNIT_INTERVAL, 16, 5, 2049)
    general = lsi_deficit_general(f)
    unit = lsi_deficit_interval(f)
    assert abs(general.deficit - unit.deficit) <= 1e-10


def test_general_deficit_against_oracle():
    f = from_callable(Interval(0.0, 2.0), 2049, lambda x: math.sqrt(2) * np.sin(math.pi * x / 2))
    report = lsi_deficit_general(f)
    assert report.deficit >= 0.0
    assert report.deficit == pytest.approx(GENERAL_SIN_DEFICIT, abs=1e-7)


def test_general_deficit_zero_mass():
    f = sample_family(Family.CONSTANT, [0.0], UNIT_INTERVAL, 64)
    with pytest.raises(ZeroMassError):
        lsi_deficit_general(f)


def test_density_form_constant_equality_case():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 257)
    assert lsi_deficit_density_form(f).deficit == pytest.approx(0.0, abs=1e-12)


def test_density_form_matches_square_root_lift():
    # plugging sqrt(f) into the rescaled deficit multiplies it by 1/4
    base = sample_family(Family.SHARPNESS, [0.3], UNIT_INTERVAL, 2049)
    squared = base.with_values(base.values**2)
    density = lsi_deficit_density_form(squared)
    interval = lsi_deficit_interval(base)
    assert abs(density.deficit - 4.0 * interval.deficit) <= 1e-7


@pytest.mark.parametrize("b", [0.5, 2.0, 3.0])
def test_density_form_matches_square_root_lift_off_unit_length(b):
    # f = g^2 turns the rescaled deficit of g into a quarter of the Fisher deficit of f
    g = from_callable(Interval(0.0, b), 2049, lambda x: 1.5 + 0.4 * np.cos(math.pi * x / b))
    density = lsi_deficit_density_form(g.with_values(g.values**2))
    assert density.deficit >= 0.0
    assert abs(density.deficit - 4.0 * lsi_deficit_general(g).deficit) <= 1e-7


def test_density_form_against_oracle():
    f = from_callable(UNIT_INTERVAL, 2049, lambda x: np.exp(-0.1 * np.cos(math.pi * x)))
    report = lsi_deficit_density_form(f)
    assert report.deficit >= 0.0
    assert report.deficit == pytest.approx(DENSITY_EXP_DEFICIT, abs=1e-10)


def test_density_form_requires_strict_positivity():
    f = from_callable(UNIT_INTERVAL, 65, lambda x: x)
    with pytest.raises(NonPositiveFunctionError):
        lsi_deficit_density_form(f)


HUGE = from_callable(UNIT_INTERVAL, 65, lambda x: np.full_like(x, 1e200))
HUGE_COSINE = from_callable(UNIT_INTERVAL, 65, lambda x: 1e200 * (1.0 + 0.1 * np.cos(math.pi * x)))


@pytest.mark.parametrize("evaluate, f, name", [
    (squared_mass, HUGE, "integral of f^2"),
    (entropy, HUGE, "entropy"),
    (lsi_deficit_general, HUGE, "integral of f^2"),
    (dirichlet_energy, HUGE_COSINE, "Dirichlet energy"),
    (wirtinger_deficit, HUGE_COSINE, "Dirichlet energy"),
    (lsi_deficit_density_form, HUGE_COSINE, "Fisher information"),
])
def test_overflowing_integrals_raise_instead_of_returning_nan(evaluate, f, name):
    # the samples and (for HUGE_COSINE) the derivative are finite; their squares are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(name)} overflows float64"):
            evaluate(f)


# ---------------------------------------------------------------------------
# Fourier-side bound
# ---------------------------------------------------------------------------

def test_weissler_bound_constant_equality():
    series = fourier_from_dict(1.0, {0: 1.0})
    assert weissler_bound(series, WeightPower.ABS_N) == pytest.approx(0.0, abs=1e-15)
    f = from_fourier(series, 64)
    assert entropy(f) == pytest.approx(0.0, abs=1e-15)


def test_weissler_bound_worked_example():
    series = fourier_from_dict(1.0, {0: 1.0, 1: 0.1, -1: 0.1})
    bound = weissler_bound(series, WeightPower.ABS_N)
    expected = 0.02 + 1.02 * math.log(math.sqrt(1.02))
    assert bound == pytest.approx(expected, abs=1e-14)
    f = from_fourier(series, 4096)
    ent = entropy(f)  # unit circumference: already the unit-mass measure
    assert ent == pytest.approx(WEISSLER_EXAMPLE_ENTROPY, abs=1e-12)
    assert ent <= bound
    assert bound <= weissler_bound(series, WeightPower.N_SQUARED)


@pytest.mark.parametrize("entries", [{0: 1e160}, {1: 1e160, -1: 1e160}], ids=["a0", "a1"])
def test_overflowing_fourier_mass_raises_one_error_without_warnings(entries):
    series = fourier_from_dict(1.0, entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (series.mass, lambda: weissler_bound(series, WeightPower.ABS_N),
                         lambda: weissler_bound(series, WeightPower.N_SQUARED)):
            with pytest.raises(InvalidInputError) as raised:
                evaluate()
            assert str(raised.value) == "squared L2 norm overflows float64; rescale the input"


def test_a_bound_that_overflows_alone_raises_without_warnings():
    # M = 2e300 and the |n| bound are finite; the n^2 mode term is 2e310
    series = fourier_from_dict(1.0, {100_000: 1e150, -100_000: 1e150})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert series.mass() == pytest.approx(2e300, rel=1e-15)
        assert math.isfinite(weissler_bound(series, WeightPower.ABS_N))
        with pytest.raises(InvalidInputError) as raised:
            weissler_bound(series, WeightPower.N_SQUARED)
    assert str(raised.value) == "Fourier-side bound overflows float64; rescale the input"


@pytest.mark.parametrize("make, n", [
    # criterion 5's first and last series: 64 modes of a random admissible function at N = 4096
    (lambda: to_fourier(random_admissible_function(Circle(1.0), 64, 777, 4096, normalize=False), 64),
     4096),
    (lambda: to_fourier(random_admissible_function(Circle(1.0), 64, 876, 4096, normalize=False), 64),
     4096),
    # a_{-1} 1e-5 off conj(a_1), inside the conjugate-symmetry tolerance at a_0 = 1e6
    (lambda: fourier_from_dict(1.0, {-1: 87.2, 0: 1e6, 1: 87.2 + 1e-5}), 256),
    (lambda: fourier_from_dict(1.0, {-1: 87.2, 0: 1e6, 1: 87.2 + 1e-5}), 8192),
], ids=["criterion-5-seed-777", "criterion-5-seed-876", "near-symmetric-256", "near-symmetric-8192"])
def test_weissler_report_equals_the_arithmetic_it_replaced(make, n):
    series = make()
    report = weissler_report(series, n)
    assert report == weissler_payload(series, n)
    assert list(report) == ["entropy", "abs_n_bound", "n_squared_bound", "mass"]


@pytest.mark.parametrize("seed", range(8))
def test_weissler_dominance_random(seed):
    f = random_admissible_function(Circle(1.0), 32, seed, 1024, normalize=False)
    series = to_fourier(f, 32)
    ent = entropy(f)
    abs_bound = weissler_bound(series, WeightPower.ABS_N)
    sq_bound = weissler_bound(series, WeightPower.N_SQUARED)
    assert ent <= abs_bound + 1e-7
    assert abs_bound <= sq_bound + 1e-7


# ---------------------------------------------------------------------------
# Wirtinger deficit
# ---------------------------------------------------------------------------

def test_wirtinger_constant_is_zero():
    f = sample_family(Family.CONSTANT, [2.0], UNIT_INTERVAL, 64)
    assert wirtinger_deficit(f) == pytest.approx(0.0, abs=1e-12)


def test_wirtinger_equality_direction():
    f = sample_family(Family.COSINE_MODE, [1], UNIT_INTERVAL, 2049)
    assert wirtinger_deficit(f) == pytest.approx(0.0, abs=1e-8)


def test_wirtinger_second_mode():
    f = sample_family(Family.COSINE_MODE, [2], UNIT_INTERVAL, 2049)
    assert wirtinger_deficit(f) == pytest.approx(1.5 * PI_SQUARED, abs=1e-7)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_wirtinger_argmin_is_first_mode(k):
    f = sample_family(Family.COSINE_MODE, [k], UNIT_INTERVAL, 2049)
    # closed form: (k^2 - 1) pi^2 / 2
    assert wirtinger_deficit(f) > 1.0


# ---------------------------------------------------------------------------
# power-mean deficit
# ---------------------------------------------------------------------------

def test_diaz_constant_is_zero():
    f = sample_family(Family.CONSTANT, [2.0], UNIT_INTERVAL, 2049)
    assert diaz_deficit(f, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_diaz_sharpness_against_oracle():
    r = sample_family(Family.SHARPNESS, [0.3], UNIT_INTERVAL, 2049)
    d = diaz_deficit(r, 2.0)
    assert d >= 0.0
    assert d == pytest.approx(DIAZ_Q2_E03_DEFICIT, abs=1e-8)


def test_diaz_q_near_one_degenerates():
    r = sample_family(Family.SHARPNESS, [0.3], UNIT_INTERVAL, 2049)
    d = diaz_deficit(r, 1.0001)
    sup_slope = math.sqrt(2) * 0.3 * math.pi
    assert abs(d) <= 1e-3 * sup_slope**2


def test_diaz_deficit_validates_q():
    r = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 65)
    with pytest.raises(ParamOutOfRangeError, match=r"q must lie in \(1, 2\], got 1.0"):
        diaz_deficit(r, 1.0)
    with pytest.raises(ParamOutOfRangeError, match=r"q must lie in \(1, 2\], got 2.5"):
        diaz_deficit(r, 2.5)


# ---------------------------------------------------------------------------
# equality at constants, across all deficit operations
# ---------------------------------------------------------------------------

def test_every_deficit_vanishes_on_admissible_constants():
    interval_one = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 1025)
    circle_one = sample_family(Family.CONSTANT, [1.0], Circle(1.0), 1024)
    general_c = sample_family(Family.CONSTANT, [1.7], Interval(-1.0, 3.0), 1025)
    assert abs(lsi_deficit_interval(interval_one).deficit) <= 1e-9
    assert abs(lsi_deficit_circle(circle_one).deficit) <= 1e-9
    assert abs(lsi_deficit_general(general_c).deficit) <= 1e-9
    assert abs(lsi_deficit_density_form(interval_one).deficit) <= 1e-9
    assert abs(wirtinger_deficit(interval_one)) <= 1e-9
    assert abs(diaz_deficit(interval_one, 2.0)) <= 1e-9
    # off unit length the Fisher form must correct by L * m log m
    for b in (0.5, 2.0, 3.0):
        constant = sample_family(Family.CONSTANT, [2.0], Interval(0.0, b), 1025)
        assert abs(lsi_deficit_general(constant).deficit) <= 1e-9
        assert abs(lsi_deficit_density_form(constant).deficit) <= 1e-9
