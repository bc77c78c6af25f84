"""The RANDOM_TRIG family: parity with the per-mode loop it replaced, and its parameter checks,
which COSINE_MODE's index shares.

On circles the family is one Fourier series synthesized by ``from_fourier``;
on intervals it is one row of ``function_space._cosine_series``, the kernel
that the power-mean probe calls on batches of trials.
``references.random_trig_loop`` keeps the per-mode loop that built both
before, draw for draw, as the reference.
"""

import math

import numpy as np
import pytest

from lsilab import (
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    Circle,
    Family,
    Interval,
    ParamOutOfRangeError,
    TruncationTooLargeError,
    sample_family,
    to_fourier,
)
from lsilab.experiments import random_admissible_function

from child import run_python_limited
from references import random_trig_loop

SEEDS = range(5)
GRIDS = [(n, modes) for n in (16, 17, 256, 257, 4096) for modes in (1, 8, (n - 1) // 2)]


def _drawn_coefficients(seed, modes):
    """a_0..a_modes of the circle series, from the loop's draws: a_k = (alpha_k - i beta_k) / (2 k^2)."""
    rng = np.random.default_rng(seed)
    half = [complex(rng.standard_normal())]
    for k in range(1, modes + 1):
        alpha, beta = rng.standard_normal(2)
        half.append(complex(alpha, -beta) / (2 * k**2))
    return np.array(half)


@pytest.mark.parametrize("n, modes", GRIDS, ids=[f"n{n}-modes{m}" for n, m in GRIDS])
def test_interval_samples_equal_the_loop(n, modes):
    for seed, want in zip(SEEDS, random_trig_loop(SEEDS, modes, UNIT_INTERVAL, n)):
        got = sample_family(Family.RANDOM_TRIG, [seed, modes], UNIT_INTERVAL, n)
        assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("domain", [UNIT_CIRCLE, Circle(2.5)], ids=["unit", "L2.5"])
@pytest.mark.parametrize("n, modes", GRIDS, ids=[f"n{n}-modes{m}" for n, m in GRIDS])
def test_circle_samples_match_the_loop_and_hold_the_drawn_coefficients(domain, n, modes):
    if 2 * modes + 1 > n:
        with pytest.raises(TruncationTooLargeError):
            sample_family(Family.RANDOM_TRIG, [0, modes], domain, n)
        return
    for seed, want in zip(SEEDS, random_trig_loop(SEEDS, modes, domain, n)):
        got = sample_family(Family.RANDOM_TRIG, [seed, modes], domain, n)
        assert got.domain == domain
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))
        # the analysis of an unshifted draw returns its coefficients, sine signs included
        half = to_fourier(got, modes).half
        assert np.max(np.abs(half - _drawn_coefficients(seed, modes))) <= 1e-15


def test_circle_draws_evaluate_no_cosine_or_sine(monkeypatch):
    def no_trig(*args, **kwargs):
        raise AssertionError("a random circle function evaluated a cosine or a sine")

    monkeypatch.setattr(np, "cos", no_trig)
    monkeypatch.setattr(np, "sin", no_trig)
    assert sample_family(Family.RANDOM_TRIG, [3, 64], UNIT_CIRCLE, 4096).n == 4096
    assert random_admissible_function(UNIT_CIRCLE, 64, 5, 4096).n == 4096


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_CIRCLE], ids=["interval", "circle"])
@pytest.mark.parametrize("family, params", [
    (Family.COSINE_MODE, [math.inf]),
    (Family.COSINE_MODE, [-math.inf]),
    (Family.COSINE_MODE, [math.nan]),
    (Family.COSINE_MODE, [1.5]),
    pytest.param(Family.COSINE_MODE, [10**400], id="cosine_mode-[10**400]"),
    (Family.RANDOM_TRIG, [1, math.nan]),
    (Family.RANDOM_TRIG, [1, math.inf]),
    (Family.RANDOM_TRIG, [math.nan, 1]),
    (Family.RANDOM_TRIG, [math.inf, 1]),
    (Family.RANDOM_TRIG, [-1, 1]),
    (Family.RANDOM_TRIG, [1, 0]),
], ids=lambda v: str(getattr(v, "value", v)).replace(" ", ""))
def test_nonfinite_or_fractional_integer_params_are_out_of_range(domain, family, params):
    with pytest.raises(ParamOutOfRangeError):
        sample_family(family, params, domain, 32)


def test_circle_refuses_more_modes_than_its_grid_holds_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew coefficients for modes the grid cannot hold")

    assert sample_family(Family.RANDOM_TRIG, [0, 15], UNIT_CIRCLE, 31).n == 31
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(TruncationTooLargeError, match="2\\*modes \\+ 1 = 33 exceeds the 32 grid samples"):
        sample_family(Family.RANDOM_TRIG, [0, 16], UNIT_CIRCLE, 32)
    with pytest.raises(TruncationTooLargeError):
        random_admissible_function(UNIT_CIRCLE, 16, 0, 32)


@pytest.mark.parametrize("domain, n, most", [
    (UNIT_INTERVAL, 16, 15),
    (UNIT_INTERVAL, 33, 32),
    (Interval(-1.0, 2.0), 32, 31),
    (UNIT_CIRCLE, 31, 15),
    (Circle(2.5), 33, 16),
], ids=["interval-16", "interval-33", "interval-shifted", "circle-31", "circle-33"])
def test_the_grid_holds_every_accepted_mode_and_refuses_one_more_before_drawing(
        monkeypatch, domain, n, most):
    # cos(k pi u) on n interval nodes aliases onto 2(n - 1) - k beyond k = n - 1
    got = sample_family(Family.RANDOM_TRIG, [2, most], domain, n)
    if isinstance(domain, Interval):
        assert got.values.tobytes() == random_trig_loop([2], most, domain, n)[0].tobytes()

    def no_draw(*args, **kwargs):
        raise AssertionError("drew coefficients for modes the grid cannot hold")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for modes in (most + 1, 10**5):
        with pytest.raises(TruncationTooLargeError):
            sample_family(Family.RANDOM_TRIG, [2, modes], domain, n)


@pytest.mark.parametrize("domain, n, most", [
    (UNIT_INTERVAL, 16, 15),
    (Interval(-1.0, 2.0), 33, 32),
    (UNIT_CIRCLE, 32, 15),
    (Circle(2.5), 33, 16),
], ids=["interval-16", "interval-shifted", "circle-32", "circle-33"])
def test_a_cosine_mode_one_past_the_grid_is_refused(domain, n, most):
    assert sample_family(Family.COSINE_MODE, [most], domain, n).n == n
    symbol = "k" if isinstance(domain, Interval) else "2\\*k \\+ 1"
    with pytest.raises(TruncationTooLargeError, match=f"^{symbol} = "):
        sample_family(Family.COSINE_MODE, [most + 1], domain, n)


OVERSIZED_MODES = """
from lsilab import UNIT_CIRCLE, UNIT_INTERVAL, Family, LsiLabError, sample_family
from lsilab.function_space import MAX_SAMPLES
for domain in (UNIT_CIRCLE, UNIT_INTERVAL):
    for modes in (1e300, MAX_SAMPLES + 1):
        try:
            sample_family(Family.RANDOM_TRIG, [1, modes], domain, 32)
        except LsiLabError as exc:
            print(type(exc).__name__, exc)
"""


def test_oversized_mode_counts_are_refused_without_looping(tmp_path):
    proc = run_python_limited(["-c", OVERSIZED_MODES], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("ParamOutOfRangeError mode count must be at most ") for line in lines)
