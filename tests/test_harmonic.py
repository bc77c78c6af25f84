"""One builder for every closed-form harmonic on a grid.

``function_space._harmonic`` evaluates cos (or sin) of k pi u on intervals
and of 2 pi k u on circles, u the unit coordinate. The families, the
sharpness sweep, the ODE residual and the optimizer basis take their
harmonics from it. The pins below compare it with ``==`` to the
expressions it replaced, which ``references.py`` keeps; the sharpness and
Wang families are pinned to their formulas in ``test_batch_parity.py``.
The "harmonics" pin of ``pins.py`` keeps every reference to ``np.cos``,
``np.sin``, ``math.cos`` or ``math.sin`` in the builder and the batched
cosine-series kernel of RANDOM_TRIG.
"""

import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    Family,
    Interval,
    PI_SQUARED,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    differentiate,
    sample_family,
    wang_ode_residual,
)
from lsilab.experiments import _basis_matrix
from lsilab.function_space import _harmonic, grid_points

from references import circle_basis_loop, harmonic_phase, interval_basis_loop

DOMAINS = [UNIT_INTERVAL, Interval(-1.0, 2.5), UNIT_CIRCLE, Circle(3.0)]
DOMAIN_IDS = ["unit-interval", "interval", "unit-circle", "circle"]


# ---------------------------------------------------------------------------
# the replaced expressions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 17, 2048, 2049, 65537])
@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_harmonic_equals_the_expressions_it_replaced(domain, n):
    x = grid_points(domain, n)
    for k in (1, 2, 7):
        phase = harmonic_phase(domain, n, k)
        cos, sin = _harmonic(domain, n, k), _harmonic(domain, n, k, sine=True)
        assert np.array_equal(cos, np.cos(phase))
        assert np.array_equal(sin, np.sin(phase))
        assert np.array_equal(sample_family(Family.COSINE_MODE, [k], domain, n).values, np.cos(phase))
        if domain == UNIT_INTERVAL:
            assert np.array_equal(cos, np.cos(k * math.pi * x))
        if domain == UNIT_CIRCLE:
            assert np.array_equal(cos, np.cos(2.0 * math.pi * k * x))
            assert np.array_equal(sin, np.sin(2.0 * math.pi * k * x))
    if domain == UNIT_INTERVAL:  # the sharpness and Wang families' cosine, and the residual's sine
        assert np.array_equal(_harmonic(domain, n, 1), np.cos(np.multiply(x, math.pi)))
        assert np.array_equal(_harmonic(domain, n, 1, sine=True), np.sin(math.pi * x))


@pytest.mark.parametrize("eps, n", [(0.1, 513), (0.2, 2049), (0.7, 8193)])
def test_wang_residual_equals_its_old_body(eps, n):
    f = sample_family(Family.WANG, [eps], UNIT_INTERVAL, n)
    first = differentiate(f)
    second = differentiate(first)
    lhs = second.values - math.pi * eps * np.sin(math.pi * f.x) * first.values
    rhs = -PI_SQUARED * f.values * np.log(f.values)
    assert wang_ode_residual(eps, n) == float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("n_modes", [2, 3, 9, 16])
@pytest.mark.parametrize("domain, n, old", [
    (UNIT_INTERVAL, 65, interval_basis_loop), (UNIT_INTERVAL, 2049, interval_basis_loop),
    (UNIT_CIRCLE, 64, circle_basis_loop), (UNIT_CIRCLE, 2048, circle_basis_loop),
    (UNIT_CIRCLE, 2049, circle_basis_loop),
], ids=["interval-65", "interval-2049", "circle-64", "circle-2048", "circle-2049"])
def test_basis_matrix_equals_the_old_loops(domain, n, old, n_modes):
    basis, _ = _basis_matrix(domain, n_modes, n)
    assert np.array_equal(basis, old(n_modes, n))
