"""One builder for every closed-form harmonic on a grid.

``function_space._harmonic`` evaluates cos (or sin) of k pi u on intervals
and of 2 pi k u on circles, u the unit coordinate. The families, the
sharpness sweep, the ODE residual and the optimizer basis take their
harmonics from it. The pins below compare it with ``==`` to the
expressions it replaced, which ``references.py`` keeps; the sharpness and
Wang families are pinned to their formulas in ``test_batch_parity.py``.
The tripwire walks the syntax tree of every library module and names the
function that holds each reference to ``np.cos``, ``np.sin``, ``math.cos``
or ``math.sin``: only the builder and the batched cosine-series kernel of
RANDOM_TRIG may.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import lsilab
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

PACKAGE = Path(lsilab.__file__).parent

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


# ---------------------------------------------------------------------------
# tripwire
# ---------------------------------------------------------------------------

#: The builder, and the RANDOM_TRIG kernel, which maps the grid once for all its modes.
HARMONIC_HOLDERS = {"_harmonic", "_cosine_series"}

TRIG = {(module, name) for module in ("np", "numpy", "math") for name in ("cos", "sin")}


def trig_owners(source: str) -> set[str | None]:
    """Names of the innermost functions that refer to a cosine or sine of ``TRIG``; None at
    module level, where ``from numpy import cos`` also counts."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and (node.value.id, node.attr) in TRIG:
            found.add(owner)
        if isinstance(node, ast.ImportFrom) \
                and any((node.module, alias.name) in TRIG for alias in node.names):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_the_tripwire_names_the_innermost_holder():
    source = (
        "from math import sin\n"
        "def f(x):\n    return np.cos(x)\n"
        "def g(x):\n    def h():\n        return (numpy.sin if x else math.cos)(x)\n    return h\n"
        "def k(x):\n    return np.tan(x), np.exp(x), cos(x)\n"
    )
    assert trig_owners(source) == {None, "f", "h"}


def test_only_the_builder_and_the_series_kernel_hold_a_cosine():
    holders = set().union(*(trig_owners(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert holders == HARMONIC_HOLDERS
