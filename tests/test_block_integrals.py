"""Every sampled integral walks the nodes in blocks of BLOCK.

``function_space._integrals`` holds the one loop over node blocks, with
slices of the Simpson weights on intervals and the step L/n times the sum
on circles, scaled in place in each writable integrand. The squared mass,
the entropy, the log-Sobolev report (one square per node for both),
``integrate``, the Fisher report, the Wirtinger deficit and the
power-mean deficits are walks of it. Grids of up to BLOCK
nodes must equal the full-grid ``w @ integrand`` (``sum((L/n) * integrand)``
on circles) with ``==``; every grid must agree with a ``math.fsum``
reference of the same weighted integrand within :func:`_fsum_bound`.
Apart from the interval Dirichlet energy, none of them builds the weights
of more than BLOCK nodes. The mass-entropy walk the report had before it
joined ``_integrals`` is ``references.mass_entropy_walk``, and the
"array-logs" pin of ``pins.py`` keeps every ``np.log`` of the library in its
four holders. No computed float is frozen here.
"""

import math

import numpy as np
import pytest

from lsilab import (
    PI_SQUARED,
    Circle,
    GridFunction,
    Interval,
    InvalidInputError,
    NegativeFunctionError,
    NotNormalizedError,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    diaz_deficit,
    diaz_probe,
    differentiate,
    dirichlet_energy,
    entropy,
    from_callable,
    integrate,
    lsi_deficit_circle,
    lsi_deficit_density_form,
    lsi_deficit_interval,
    reflect_to_circle,
    sample_family,
    squared_mass,
    wirtinger_deficit,
)
from lsilab import function_space
from lsilab.function_space import BLOCK, DERIVATIVE_OVERFLOW, is_unit_circle, quadrature_weights
from lsilab.functionals import (
    _check_nonnegative,
    _entropy_integrand,
    _fisher_report,
    _log_sobolev_report,
)

from pins import traced_peak
from references import mass_entropy_walk

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


def _merged_integrals(f):
    """The squared mass and the entropy, alone and from the report where its domain allows one."""
    got = [(squared_mass(f), entropy(f))]
    if not isinstance(f.domain, Circle) or is_unit_circle(f.domain):
        report = _log_sobolev_report(f)
        got.append((report.mass, report.entropy))
    return got


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("domain", DOMAINS[:2], ids=["unit-interval", "interval"])
def test_interval_integrals_equal_the_old_mass_entropy_walk(domain, n, case):
    f = GridFunction(domain, _values(case, n))
    got = _merged_integrals(f)
    assert got == [mass_entropy_walk(f)] * len(got)


#: Circles whose step L/n is a power of two, so scaling by it is exact in either order.
EXACT_STEP_CIRCLES = [(UNIT_CIRCLE, 16), (UNIT_CIRCLE, 8192), (UNIT_CIRCLE, 65536),
                      (UNIT_CIRCLE, 131072), (Circle(2.0), 4096)]

#: Circles whose step is not: the step scales f^2 log f, not f^2, and the last bit may move.
ROUNDED_STEP_CIRCLES = [(UNIT_CIRCLE, 17), (UNIT_CIRCLE, 8193), (Circle(3.0), 4096),
                        (Circle(3.0), 8193), (Circle(49 * (1 / 49)), 4096),
                        (Circle(49 * (1 / 49)), 8193)]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("domain, n", EXACT_STEP_CIRCLES,
                         ids=[f"L{d.circumference:g}-{n}" for d, n in EXACT_STEP_CIRCLES])
def test_circle_integrals_with_an_exact_step_equal_the_old_walk(domain, n, case):
    f = GridFunction(domain, _values(case, n))
    got = _merged_integrals(f)
    assert got == [mass_entropy_walk(f)] * len(got)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("domain, n", ROUNDED_STEP_CIRCLES,
                         ids=[f"L{d.circumference!r}-{n}" for d, n in ROUNDED_STEP_CIRCLES])
def test_other_circle_integrals_agree_with_the_old_walk(domain, n, case):
    values = _values(case, n)
    f = GridFunction(domain, values)
    old_mass, old_ent = mass_entropy_walk(f)
    step = domain.circumference / n
    mass_terms = step * (values * values)
    ent_terms = step * _entropy_integrand(_check_nonnegative(values))
    for mass, ent in _merged_integrals(f):
        assert abs(mass - old_mass) <= _fsum_bound(mass_terms, n)
        assert abs(ent - old_ent) <= _fsum_bound(ent_terms, n)


def _full(domain, x):
    """The full-grid expression a blocked integral replaced: ``w @ x`` with the
    Simpson weights on intervals, ``sum((L/n) * x)`` on circles."""
    if isinstance(domain, Circle):
        return float(np.sum(x * (domain.circumference / x.size)))
    return float(quadrature_weights(domain, x.size) @ x)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("domain", DOMAINS, ids=["unit-interval", "interval", "circle"])
def test_integrate_and_the_fisher_integrals_agree_with_the_full_grid_and_with_fsum(domain, n):
    values = _values("positive", n)
    f = GridFunction(domain, values)
    d = differentiate(f).values
    report = _fisher_report(f)
    w = _weights(domain, n)
    for got, x in [
        (integrate(f), values),
        (report.mass, values),
        (report.entropy, values * np.log(values)),
        (report.energy, d * d / values),
    ]:
        if n <= BLOCK:
            assert got == _full(domain, x)
        terms = w * x
        assert abs(got - math.fsum(terms)) <= _fsum_bound(terms, n)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", SIZES)
def test_wirtinger_and_power_mean_deficits_agree_with_the_full_grid_and_with_fsum(n, case):
    values = _values(case, n)
    f = GridFunction(UNIT_INTERVAL, values)
    w, eps = quadrature_weights(UNIT_INTERVAL, n), np.finfo(float).eps
    energy = dirichlet_energy(f)
    dev = values - integrate(f)  # the mean: ``w @ values`` up to BLOCK nodes, as checked above
    terms = w * (dev * dev)
    if n <= BLOCK:
        assert wirtinger_deficit(f) == energy - PI_SQUARED * float(w @ (dev * dev))
    want = energy - PI_SQUARED * math.fsum(terms)
    slack = 2.0 * eps * (abs(energy) + PI_SQUARED * math.fsum(terms))  # the product and the difference
    assert abs(wirtinger_deficit(f) - want) <= PI_SQUARED * _fsum_bound(terms, n) + slack

    v, d = _check_nonnegative(values), differentiate(f).values
    for q in (1.0001, 1.5, 2.0):
        root = np.sqrt(v * v + (q - 1.0) * d * d / PI_SQUARED)
        rhs_terms, lhs_terms = w * root, w * v**q
        if n <= BLOCK:
            assert diaz_deficit(f, q) == float(w @ root) - float(w @ v**q) ** (1.0 / q)
        rhs, power = math.fsum(rhs_terms), math.fsum(lhs_terms)
        lhs = power ** (1.0 / q)
        # a relative error r of the power integral moves its q-th root by at most r
        bound = _fsum_bound(rhs_terms, n) + lhs * _fsum_bound(lhs_terms, n) / power
        assert abs(diaz_deficit(f, q) - (rhs - lhs)) <= bound + 2.0 * eps * (rhs + lhs)


def test_only_the_interval_energy_builds_the_weights_of_more_than_one_block(monkeypatch):
    n, sizes = 65537, []
    simpson = function_space._simpson_weights

    def recording(domain, n, lo, hi):
        sizes.append(hi - lo)
        return simpson(domain, n, lo, hi)

    monkeypatch.setattr(function_space, "_simpson_weights", recording)
    f = sample_family("sharpness", [0.3], UNIT_INTERVAL, n)
    for call, full in [
        (lambda: lsi_deficit_density_form(f), 0),
        (lambda: wirtinger_deficit(f), 1),  # the vector of its dirichlet_energy
        (lambda: diaz_deficit(f, 1.5), 0),
        (lambda: diaz_probe([1.25, 2.0], 3, 7, n=n), 0),
    ]:
        sizes.clear()
        call()
        assert sizes and [size for size in sizes if size > BLOCK] == [n] * full


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


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_CIRCLE], ids=["interval", "circle"])
def test_a_spike_overflows_the_entropy_where_its_square_times_log_does(domain):
    # f^2 log f is formed before the weight or the step scales it, on both domains: a node
    # of 1e153 gives 3.5e308, past float64, though the integral itself would be finite
    for spike, overflows in ((1e152, False), (1e153, True)):
        values = np.ones(65536)
        values[12345] = spike
        f = GridFunction(domain, values)
        if overflows:
            with pytest.raises(InvalidInputError, match="^entropy overflows float64; rescale the input$"):
                entropy(f)
        else:
            assert math.isfinite(entropy(f))


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


def test_reflection_and_circle_report_peaks_stay_below_the_full_grid_ones():
    # Peaks with full-grid weights, squares and logs: 4.00 and 3.00 MiB.
    f = sample_family("sharpness", [0.2], UNIT_INTERVAL, 65537)
    assert traced_peak(lambda: reflect_to_circle(f)) < 4 * 2**20
    g = _circle_wave(131072, 1.0)
    assert traced_peak(lambda: lsi_deficit_circle(g)) < 3 * 2**20


def test_a_circle_walk_scales_each_fresh_integrand_in_place():
    # One block's square is 64 KiB; a scaled copy beside it made 128 KiB.
    g = _circle_wave(131072, 1.0)
    squared_mass(g)  # warm caches and imports
    assert traced_peak(lambda: squared_mass(g)) < 96 * 2**10


def test_a_family_sample_is_built_in_one_array():
    # the samples and the finiteness check's boolean mask; with temporaries, 1.5 arrays
    n = 65537
    assert traced_peak(lambda: sample_family("sharpness", [0.3], UNIT_INTERVAL, n)) < 1.25 * 8 * n


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
