"""Every grid harmonic is evaluated on its first half-wave and mirrored by its exact parity.

``function_space._half_wave`` evaluates cos (or sin) of k pi u on the first
ceil(n/2) interval nodes (floor(n/2) + 1 circle nodes) and writes each later
node as its partner times the parity sign. The samples are then exactly even
or odd about the midpoint, and the worst evaluated phase is k pi/2 on
intervals and k pi on circles, half the full wave's. So against mpmath each
sample is within (theta_max + 1) eps of the exact harmonic, a bound the
full-wave samples broke (15 eps against 12 eps at interval N = 4096, k = 7).
"""

import math

import numpy as np
import pytest
from mpmath import cospi, mp, mpf, sinpi

from lsilab import UNIT_CIRCLE, UNIT_INTERVAL, Circle, Interval
from lsilab.function_space import _harmonic

DOMAINS = [UNIT_INTERVAL, Interval(-1.0, 2.0), UNIT_CIRCLE, Circle(2.5)]
SIZES = [16, 17, 2048, 2049, 4096, 65537]
MODES = [1, 2, 7, 64]
EPS = np.finfo(float).eps


def _held(circle, n):
    """The modes of MODES that n nodes resolve: k <= n - 1 on intervals, 2k + 1 <= n on circles."""
    return [k for k in MODES if (2 * k + 1 <= n if circle else k <= n - 1)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("domain", DOMAINS, ids=["unit-interval", "interval", "unit-circle", "circle"])
def test_every_mirrored_node_is_its_partner_times_the_parity_sign(domain, n):
    circle = isinstance(domain, Circle)
    half = n // 2 + 1 if circle else (n + 1) // 2
    mirrored = np.arange(half, n)
    partners = n - mirrored if circle else n - 1 - mirrored
    for k in _held(circle, n):
        for sine in (False, True):
            sign = (-1.0 if sine else 1.0) if circle else (-1.0) ** (k + sine)
            h = _harmonic(domain, n, k, sine)
            assert h[mirrored].tobytes() == (sign * h[partners]).tobytes(), (k, sine)


_EXACT = {}


def _exact(circle, n, k, nodes):
    """cos and sin of k pi j/(n - 1) (2 pi k j/n on circles) at ``nodes`` from mpmath, rounded once."""
    key = (circle, n, k)
    if key not in _EXACT:
        with mp.workdps(30):
            turns = [mpf(2 * k * int(j)) / n if circle else mpf(k * int(j)) / (n - 1) for j in nodes]
            _EXACT[key] = (np.array([float(cospi(t)) for t in turns]),
                           np.array([float(sinpi(t)) for t in turns]))
    return _EXACT[key]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("circle", [False, True], ids=["interval", "circle"])
def test_samples_are_within_the_half_wave_phase_bound_of_mpmath(circle, n):
    nodes = np.unique(np.linspace(0, n - 1, 400).astype(int))
    for domain in (DOMAINS[2:] if circle else DOMAINS[:2]):
        for k in _held(circle, n):
            bound = ((k * math.pi if circle else k * math.pi / 2) + 1.0) * EPS
            for sine, exact in zip((False, True), _exact(circle, n, k, nodes)):
                error = np.max(np.abs(_harmonic(domain, n, k, sine)[nodes] - exact))
                assert error <= bound, (domain, k, sine, error / EPS)
