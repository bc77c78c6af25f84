"""Bit-for-bit parity of the batched and in-place kernels with the
per-call formulas they replace, and tripwires on the shared work.

The sharpness sweep evaluates cos(pi x) once per call, the power-mean
probe differentiates each trial once for all exponents and synthesizes its
random trials in batches that evaluate each cosine once, the log-Sobolev
report's one walk of ``_integrals`` squares each node once for the mass
and the entropy and skips the entropy's mask on positive input, and the
interval stencil and the closed-form families are built in place. Each
result must equal the per-call one with ``==``.
"""

import math

import numpy as np
import pytest

from lsilab import (
    Family,
    GridFunction,
    Interval,
    PI_SQUARED,
    ParamOutOfRangeError,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    Circle,
    diaz_deficit,
    diaz_probe,
    differentiate,
    dirichlet_energy,
    entropy,
    lsi_deficit_general,
    sample_family,
    sharpness_sweep,
    squared_mass,
    wirtinger_deficit,
)
from lsilab import experiments, function_space, functionals
from lsilab.cli import main
from lsilab.experiments import DIAZ_FLAG_TOL
from lsilab.function_space import grid_points, quadrature_weights
from lsilab.functionals import _check_nonnegative, _diaz_deficits, _entropy_integrand

from references import masked_square_log, probe_trials


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2049, 4097, 65537])
def test_sweep_records_equal_per_epsilon_sampling(n):
    eps_list = [0.025, 0.3, 0.1, 0.05, 0.5]
    records = sharpness_sweep(eps_list, n)
    assert [r.epsilon for r in records] == sorted(eps_list, reverse=True)
    for record in records:
        f = sample_family(Family.SHARPNESS, [record.epsilon], UNIT_INTERVAL, n)
        energy, ent = dirichlet_energy(f), entropy(f)
        assert (record.energy, record.entropy) == (energy, ent)
        assert record.ratio == energy / ent
        assert record.deficit == energy - PI_SQUARED * ent


def test_sweep_evaluates_cos_once(monkeypatch):
    calls = []
    cos = np.cos

    def counting_cos(*args, **kwargs):
        calls.append(args[0].size)
        return cos(*args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    sharpness_sweep([0.1, 0.05, 0.025], 2049)
    assert calls == [2049]


def test_sweep_checks_every_epsilon_before_any_grid_work(monkeypatch, tmp_path, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid work before the epsilon check")

    monkeypatch.setattr(function_space, "grid_points", no_grid)
    monkeypatch.setattr(experiments, "quadrature_weights", no_grid)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--eps", "0.1,1.5", "--N", "2049", "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "lsilab: error: eps must lie in (0, 1), got 1.5\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# power-mean probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, modes", [(2049, 16), (257, 8), (17, 8)])
def test_probe_minima_equal_per_exponent_deficits(n, modes):
    q_list, trials, seed = [1.25, 1.5, 2.0, 1.0001], 6, 21
    report = diaz_probe(q_list, trials, seed, n=n, modes=modes)
    functions = probe_trials(trials, seed, n, modes)
    counterexamples = []
    for q, result in zip(q_list, report.results):
        deficits = [diaz_deficit(f, q) for f in functions]
        argmin = int(np.argmin(deficits))
        assert (result.q, result.min_deficit, result.argmin_trial) == (q, deficits[argmin], argmin)
        counterexamples += [(q, t) for t, d in enumerate(deficits) if d < DIAZ_FLAG_TOL]
    assert [(q, t) for q, t, _ in report.counterexamples] == counterexamples


@pytest.mark.parametrize("clamped", [False, True])
def test_probe_kernel_equals_per_exponent_deficits(clamped):
    # a steep function, so that the derivative term carries the rounding
    rng = np.random.default_rng(5)
    values = 1.0 + 0.9 * np.cos(37.0 * math.pi * grid_points(UNIT_INTERVAL, 257)) * rng.uniform(0.5, 1.0, 257)
    if clamped:
        values[::4] = 0.0
        values[1::9] = -5e-13
    f = GridFunction(UNIT_INTERVAL, values)
    q_list = [1.0001, 1.25, 1.5, 1.9, 2.0]
    w = quadrature_weights(UNIT_INTERVAL, f.n)
    v, d = np.clip(f.values, 0.0, None), differentiate(f).values
    # the per-call expressions the shared kernel replaced
    want = [float(w @ np.sqrt(v * v + (q - 1.0) * d * d / PI_SQUARED)) - float(w @ v**q) ** (1.0 / q)
            for q in q_list]
    assert _diaz_deficits(_check_nonnegative(f.values), d, q_list) == want  # 257 nodes: one block
    assert [diaz_deficit(f, q) for q in q_list] == want


@pytest.mark.parametrize("tol", [DIAZ_FLAG_TOL, 1.0], ids=["default-tol", "every-trial"])
@pytest.mark.parametrize("n, modes", [(n, min(modes, n - 1)) for n in (17, 257, 2049) for modes in (1, 8, 64)])
def test_probe_batches_equal_per_trial_sampling(monkeypatch, n, modes, tol):
    # two trials per batch, so the six random trials of a 7-trial probe span three batches
    monkeypatch.setattr(experiments, "_PROBE_BATCH", 2 * n)
    monkeypatch.setattr(experiments, "DIAZ_FLAG_TOL", tol)
    batches = []
    real = experiments._cosine_series

    def recording(domain, draws, n):
        batches.append(len(draws))
        return real(domain, draws, n)

    monkeypatch.setattr(experiments, "_cosine_series", recording)
    q_list, trials, seed = [1.25, 1.5, 2.0], 7, 11
    report = diaz_probe(q_list, trials, seed, n=n, modes=modes)
    assert batches == [2, 2, 2]
    functions = probe_trials(trials, seed, n, modes)
    witnesses = []
    for q, result in zip(q_list, report.results):
        deficits = [diaz_deficit(f, q) for f in functions]
        argmin = int(np.argmin(deficits))
        assert (result.min_deficit, result.argmin_trial) == (deficits[argmin], argmin)
        assert result.flagged == (deficits[argmin] < tol)
        witnesses += [(q, t, functions[t].values.tobytes()) for t, d in enumerate(deficits) if d < tol]
    assert [(q, t, f.values.tobytes()) for q, t, f in report.counterexamples] == witnesses
    if tol == 1.0:
        assert len(witnesses) == len(q_list) * trials


def test_probe_evaluates_each_cosine_once_per_batch(monkeypatch):
    calls = []
    cos = np.cos

    def counting_cos(*args, **kwargs):
        calls.append(args[0].size)
        return cos(*args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    diaz_probe([1.25, 1.5, 2.0], 7, 3, n=257, modes=8)  # six random trials in one batch
    assert calls == [257] * 8


@pytest.mark.parametrize("seed, trials", [(-1, 5), (2.5, 1), (None, 1), (math.inf, 3)])
def test_probe_checks_its_seed_before_any_draw(monkeypatch, seed, trials):
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw before the seed check")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ParamOutOfRangeError, match="seed must be a nonnegative integer"):
        diaz_probe([1.5], trials, seed, n=65, modes=4)


def test_probe_differentiates_each_trial_once(monkeypatch):
    calls = []
    real = experiments.differentiate

    def counting(f):
        calls.append(f.n)
        return real(f)

    monkeypatch.setattr(experiments, "differentiate", counting)
    monkeypatch.setattr(functionals, "differentiate", counting)
    diaz_probe([1.25, 1.5, 2.0], 7, 3, n=257, modes=8)
    assert calls == [257] * 7


# ---------------------------------------------------------------------------
# shared mass and entropy integrals
# ---------------------------------------------------------------------------

def _entropy_inputs():
    rng = np.random.default_rng(17)
    positive = rng.uniform(1e-3, 3.0, 4097)
    with_zeros = rng.uniform(0.0, 3.0, 4097)
    with_zeros[::5] = 0.0
    clamped = rng.uniform(0.0, 3.0, 4097)
    clamped[1::7] = -rng.uniform(0.0, 1e-12, clamped[1::7].size)
    clamped[3] = -0.0
    return {"positive": positive, "with-zeros": with_zeros, "clamped": clamped}


@pytest.mark.parametrize("case", ["positive", "with-zeros", "clamped"])
def test_entropy_fast_path_equals_the_masked_integrand(case):
    values = _entropy_inputs()[case]
    for domain in (UNIT_INTERVAL, Interval(-1.0, 2.5), UNIT_CIRCLE):
        f = GridFunction(domain, values)
        integrand = _entropy_integrand(_check_nonnegative(values))
        if isinstance(domain, Interval):
            want = float(quadrature_weights(domain, f.n) @ integrand)
        else:  # log f times the square scaled by L/n in one block; the walker's (f^2 log f)
            # times L/n sums to the same bits on these inputs
            want = float(np.sum(masked_square_log(values, domain.circumference / f.n)))
        assert entropy(f) == want
        if isinstance(domain, Interval):
            report = lsi_deficit_general(f)
            assert (report.mass, report.entropy) == (squared_mass(f), want)


# ---------------------------------------------------------------------------
# in-place stencils and families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 17, 65, 65537])
def test_interval_stencil_equals_the_expression_it_replaced(n):
    rng = np.random.default_rng(n)
    domain = Interval(-0.5, 1.75)
    h = (domain.b - domain.a) / (n - 1)
    smooth = np.exp(np.sin(3.0 * grid_points(domain, n)))
    for values in (smooth, rng.standard_normal(n), 1e5 + rng.uniform(0.0, 1.0, n)):
        f = GridFunction(domain, values)
        v, d = f.values, differentiate(f).values
        old = (8.0 * (v[3:-1] - v[1:-3]) - (v[4:] - v[:-4])) / (12.0 * h)
        assert np.array_equal(d[2:-2], old)


def test_wirtinger_deficit_equals_the_expression_it_replaced():
    for eps in (0.05, 0.3, 0.9):
        f = sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, 4097)
        w = quadrature_weights(UNIT_INTERVAL, f.n)
        dev = f.values - float(w @ f.values)
        want = dirichlet_energy(f) - PI_SQUARED * float(w @ (dev * dev))
        assert wirtinger_deficit(f) == want


@pytest.mark.parametrize("n", [16, 17, 4097])
def test_families_equal_the_expressions_they_replaced(n):
    x = grid_points(UNIT_INTERVAL, n)
    for eps in (0.01, 0.5, 0.99):
        sharp = sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, n).values
        want = math.sqrt(1.0 - eps * eps) + math.sqrt(2.0) * eps * np.cos(math.pi * x)
        assert np.array_equal(sharp, want)
        wang = sample_family(Family.WANG, [eps], UNIT_INTERVAL, n).values
        assert np.array_equal(wang, np.exp(-eps * np.cos(math.pi * x)))
    for domain in (UNIT_INTERVAL, Interval(-1.0, 0.5), Interval(2.0, 7.0), UNIT_CIRCLE, Circle(3.0)):
        x = grid_points(domain, n)
        if isinstance(domain, Circle):
            assert np.array_equal(x, np.arange(n) * (domain.circumference / n))
        u = (x - domain.a) / domain.length if isinstance(domain, Interval) else x / domain.length
        for k in (1, 3):
            freq = math.pi * k if isinstance(domain, Interval) else 2.0 * math.pi * k
            mode = sample_family(Family.COSINE_MODE, [k], domain, n).values
            assert np.array_equal(mode, np.cos(freq * u))
