"""The report integrals walk the samples in blocks of BLOCK nodes.

One walk gives the squared mass and the entropy, with slices of the
Simpson weights on intervals and the step L/n times the sum on circles.
Interval grids of up to BLOCK nodes must equal the full-grid ``w @
integrand`` with ``==``; every grid must agree with a ``math.fsum``
reference of the same weighted integrand within :func:`_fsum_bound`.
No computed float is frozen here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lsilab import (
    Circle,
    GridFunction,
    Interval,
    InvalidInputError,
    NegativeFunctionError,
    NotNormalizedError,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    differentiate,
    dirichlet_energy,
    entropy,
    from_callable,
    integrate,
    lsi_deficit_circle,
    lsi_deficit_interval,
    reflect_to_circle,
    sample_family,
    squared_mass,
)
from lsilab.function_space import BLOCK, DERIVATIVE_OVERFLOW, quadrature_weights
from lsilab.functionals import _check_nonnegative, _entropy_integrand, _log_sobolev_report

SIZES = [16, 17, 8191, 8192, 8193, 16387, 65537, 131072]
DOMAINS = [UNIT_INTERVAL, Interval(-1.0, 2.5), UNIT_CIRCLE]
CASES = ["positive", "with-zeros", "clamped"]


def _values(case, n):
    rng = np.random.default_rng(n)
    values = rng.uniform(0.0, 3.0, n)
    if case == "positive":
        values += 1e-3
    elif case == "with-zeros":
        values[::5] = 0.0
    else:  # entries of -1e-13 count as 0
        values[1::7] = -1e-13
    return values


def _weights(domain, n):
    """The weight of every node: Simpson on intervals, the step L/n on circles."""
    if isinstance(domain, Circle):
        return np.full(n, domain.circumference / n)
    return quadrature_weights(domain, n)


def _fsum_bound(terms, n):
    """How far a blocked sum of ``terms`` may lie from their exact sum: each
    block of at most BLOCK terms adds at most BLOCK roundings, the blocks add
    n / BLOCK more, and the products and the final scaling three more, each
    at most one unit roundoff of the sum of magnitudes."""
    return (BLOCK + n / BLOCK + 3) * np.finfo(float).eps * math.fsum(np.abs(terms))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("domain", DOMAINS, ids=["unit-interval", "interval", "circle"])
def test_blocked_integrals_agree_with_fsum_and_with_the_report(domain, n, case):
    values = _values(case, n)
    f = GridFunction(domain, values)
    w = _weights(domain, n)
    mass_terms = w * (values * values)
    ent_terms = w * _entropy_integrand(_check_nonnegative(values))
    mass, ent = squared_mass(f), entropy(f)
    assert abs(mass - math.fsum(mass_terms)) <= _fsum_bound(mass_terms, n)
    assert abs(ent - math.fsum(ent_terms)) <= _fsum_bound(ent_terms, n)
    report = _log_sobolev_report(f)
    assert (report.mass, report.entropy) == (mass, ent)
    if isinstance(domain, Circle):  # one circle rule: the mass is the integral of the square
        assert mass == integrate(GridFunction(domain, values * values))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", [n for n in SIZES if n <= BLOCK])
@pytest.mark.parametrize("domain", DOMAINS[:2], ids=["unit-interval", "interval"])
def test_interval_sums_up_to_one_block_equal_the_full_dot(domain, n, case):
    values = _values(case, n)
    f = GridFunction(domain, values)
    w = quadrature_weights(domain, n)
    assert squared_mass(f) == float(w @ (values * values))
    if case == "positive":
        want = float(w @ (values * values * np.log(values)))
    else:
        want = float(w @ _entropy_integrand(_check_nonnegative(values)))
    assert entropy(f) == want


def _circle_wave(n, scale):
    x = np.arange(n) / n
    return GridFunction(UNIT_CIRCLE, scale * (1.0 + 0.3 * np.cos(2 * np.pi * x)) / math.sqrt(1.045))


@pytest.mark.parametrize("n", [65536, 131072])
def test_huge_circle_energy_still_overflows_with_the_same_error(n):
    f = _circle_wave(n, 1e300)
    for evaluate in (dirichlet_energy, lsi_deficit_circle):
        with np.errstate(all="raise"), pytest.raises(InvalidInputError) as raised:
            evaluate(f)
        assert str(raised.value) == "Dirichlet energy overflows float64; rescale the input"


def test_huge_circle_samples_overflow_only_where_their_integral_does():
    # the step scales each node before the sums, as a weight vector did
    for scale in (1e152, 1e154):
        f = GridFunction(UNIT_CIRCLE, np.full(131072, scale))
        assert squared_mass(f) == pytest.approx(scale * scale, rel=1e-12)
    assert entropy(GridFunction(UNIT_CIRCLE, np.full(131072, 1e152))) == pytest.approx(
        1e304 * math.log(1e152), rel=1e-12)
    with pytest.raises(InvalidInputError, match="^entropy overflows"):
        entropy(GridFunction(UNIT_CIRCLE, np.full(131072, 1e154)))


@pytest.mark.parametrize("n", [65, 8193, 65537])
def test_not_normalized_comes_before_negative(n):
    values = np.full(n, 2.0)
    values[n - 5] = -0.5  # in the last block
    for domain, deficit in ((UNIT_INTERVAL, lsi_deficit_interval), (UNIT_CIRCLE, lsi_deficit_circle)):
        with pytest.raises(NotNormalizedError):
            deficit(GridFunction(domain, values))
        unit = values / math.sqrt(squared_mass(GridFunction(domain, values)))
        with pytest.raises(NegativeFunctionError):
            deficit(GridFunction(domain, unit))


def _peak_mib(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def test_reflection_and_circle_report_peaks_stay_below_the_full_grid_ones():
    # Peaks with full-grid weights, squares and logs: 4.00 and 3.00 MiB.
    f = sample_family("sharpness", [0.2], UNIT_INTERVAL, 65537)
    assert _peak_mib(lambda: reflect_to_circle(f)) < 4.0
    g = _circle_wave(131072, 1.0)
    assert _peak_mib(lambda: lsi_deficit_circle(g)) < 3.0


def test_a_family_sample_is_built_in_one_array():
    # the samples and the finiteness check's boolean mask; with temporaries, 1.5 arrays
    n = 65537
    assert _peak_mib(lambda: sample_family("sharpness", [0.3], UNIT_INTERVAL, n)) < 1.25 * 8 * n / 2**20


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_CIRCLE], ids=["interval", "circle"])
def test_each_derivative_is_checked_once(monkeypatch, domain):
    n = 64 if isinstance(domain, Circle) else 65
    f = from_callable(domain, n, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    sizes = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    differentiate(f)
    assert sizes.count(n) == 1
    monkeypatch.undo()
    huge = from_callable(domain, n, lambda x: 1e308 * (1.0 + 0.7 * np.cos(40.0 * x)))
    with np.errstate(all="ignore"), pytest.raises(InvalidInputError) as raised:
        differentiate(huge)
    assert str(raised.value) == DERIVATIVE_OVERFLOW == "derivative overflows float64; rescale the input"
