"""Sweeps, extrapolation, the ODE residual, the optimizer and the probes."""

import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    FOUR_PI_SQUARED,
    Family,
    InsufficientDataError,
    PI_SQUARED,
    ParamOutOfRangeError,
    SweepRecord,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    diaz_probe,
    eigenvalue_check,
    extrapolate_constant,
    minimize_deficit,
    sample_family,
    sharpness_sweep,
    wang_ode_residual,
)
from lsilab.experiments import (
    DIAZ_CSV_HEADER,
    DiazProbeReport,
    DiazQResult,
    SWEEP_CSV_HEADER,
    _basis_matrix,
    mode_quotient,
)
from lsilab.function_space import quadrature_weights, write_csv, write_json


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

def test_sweep_energy_closed_form():
    records = sharpness_sweep([0.5], 2049)
    assert records[0].energy == pytest.approx(0.25 * PI_SQUARED, abs=1e-7)


def test_sweep_sorted_descending_and_nonnegative_deficits():
    records = sharpness_sweep([0.1, 0.4, 0.2], 2049)
    assert [r.epsilon for r in records] == [0.4, 0.2, 0.1]
    for r in records:
        assert r.deficit >= 0.0
        assert r.entropy > 0.0


def test_sweep_ratio_approaches_sharp_constant():
    records = sharpness_sweep([0.1, 0.05, 0.025], 2049)
    deviations = [abs(r.ratio - PI_SQUARED) for r in records]
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 3e-3


def test_sweep_monotone_deviation_invariant():
    records = sharpness_sweep([0.4, 0.2, 0.1, 0.05], 2049)
    deviations = [abs(r.ratio - PI_SQUARED) for r in records]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))


def test_sweep_parameter_validation():
    with pytest.raises(ParamOutOfRangeError):
        sharpness_sweep([0.5], 1025)
    with pytest.raises(ParamOutOfRangeError):
        sharpness_sweep([1.5], 2049)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolate_reaches_pi_squared():
    records = sharpness_sweep([0.1, 0.05, 0.025], 8193)
    constant = extrapolate_constant(records)
    assert constant == pytest.approx(PI_SQUARED, abs=1e-4)


def test_extrapolate_constant_data_is_exact():
    records = [SweepRecord(eps, 1.0, 1.0, 7.25, 0.0) for eps in (0.1, 0.2, 0.4)]
    assert extrapolate_constant(records) == 7.25


@pytest.mark.parametrize("check", [
    lambda eps: SweepRecord(eps, 1.0, 1.0, 1.0, 0.0),
    lambda eps: wang_ode_residual(eps, 513),
    lambda eps: sample_family(Family.WANG, [eps], UNIT_INTERVAL, 65),
    lambda eps: sharpness_sweep([eps], 2049),
], ids=["SweepRecord", "wang_ode_residual", "sample_family", "sharpness_sweep"])
@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.nan])
def test_every_epsilon_check_raises_one_message(check, eps):
    with pytest.raises(ParamOutOfRangeError, match=rf"^eps must lie in \(0, 1\), got {eps}$"):
        check(eps)


def test_extrapolate_rejects_duplicate_epsilons():
    records = [SweepRecord(0.1, 1.0, 1.0, 9.9, 0.0)] * 5
    with pytest.raises(InsufficientDataError):
        extrapolate_constant(records)


# ---------------------------------------------------------------------------
# ODE residual of the exponential-cosine family
# ---------------------------------------------------------------------------

def test_wang_residual_small_at_reference_resolution():
    assert wang_ode_residual(0.2, 2049) <= 1e-6


def test_wang_residual_refinement_gain():
    coarse = wang_ode_residual(0.2, 513)
    fine = wang_ode_residual(0.2, 2049)
    assert coarse / fine >= 8.0


def test_wang_residual_convergence_order():
    coarse = wang_ode_residual(0.2, 513)
    fine = wang_ode_residual(0.2, 2049)
    order = math.log(coarse / fine, 4.0)
    assert order >= 3.5


def test_wang_residual_vanishes_with_eps():
    # f -> 1 and both sides -> 0 as eps -> 0
    assert wang_ode_residual(1e-4, 513) <= 1e-8


def test_wang_residual_validation():
    with pytest.raises(ParamOutOfRangeError):
        wang_ode_residual(0.0, 2049)
    with pytest.raises(ParamOutOfRangeError):
        wang_ode_residual(0.2, 257)


# ---------------------------------------------------------------------------
# deficit minimization
# ---------------------------------------------------------------------------

def test_optimizer_constant_start_converges_immediately():
    result = minimize_deficit(UNIT_INTERVAL, 2, 0, 100, init=[1.0, 0.0])
    assert result.converged
    assert abs(result.best_deficit) <= 1e-12
    assert result.iterations <= 2


def test_optimizer_from_sharpness_member():
    init = [math.sqrt(0.99), math.sqrt(2) * 0.1] + [0.0] * 6
    result = minimize_deficit(UNIT_INTERVAL, 8, 0, 4000, init=init)
    assert result.best_deficit >= -1e-6
    assert result.best_deficit <= 1e-8
    assert result.best_ratio is not None
    assert result.best_ratio <= PI_SQUARED + 1e-3


@pytest.mark.parametrize("seed", [0, 1])
def test_optimizer_interval_contract(seed):
    result = minimize_deficit(UNIT_INTERVAL, 16, seed, 5000)
    assert result.best_deficit >= -1e-6
    assert result.best_ratio is not None
    assert result.best_ratio <= PI_SQUARED + 1e-3
    assert result.iterations <= 5000


def test_optimizer_circle_contract():
    result = minimize_deficit(UNIT_CIRCLE, 9, 2, 4000)
    assert result.best_deficit >= -1e-6
    assert result.best_ratio is not None
    assert result.best_ratio <= FOUR_PI_SQUARED + 1e-3


def test_optimizer_budget_exhaustion_returns_best_so_far():
    result = minimize_deficit(UNIT_INTERVAL, 16, 0, 3)
    assert result.iterations == 3
    assert not result.converged
    assert math.isfinite(result.best_deficit)


def test_optimizer_validation():
    with pytest.raises(ParamOutOfRangeError):
        minimize_deficit(UNIT_INTERVAL, 1, 0, 100)
    with pytest.raises(ParamOutOfRangeError):
        minimize_deficit(Circle(2.0), 4, 0, 100)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_CIRCLE])
def test_optimizer_rejects_more_modes_than_the_grid_resolves(domain):
    # at 2 * n_modes = N the basis still fits; one mode more, or one node
    # fewer, and it aliases (a proven deficit read -1.8 on [0, 1] at N = 64)
    assert minimize_deficit(domain, 32, 0, 3, n=64).iterations >= 1
    with pytest.raises(ParamOutOfRangeError):
        minimize_deficit(domain, 33, 0, 3, n=64)
    with pytest.raises(ParamOutOfRangeError):
        minimize_deficit(domain, 32, 0, 3, n=63)


def _analytic_columns(domain, n_modes, n):
    """The optimizer basis and its derivative, column by column from the formulas."""
    x = np.linspace(0.0, 1.0, n) if domain == UNIT_INTERVAL else np.arange(n) / n
    basis, deriv = [np.ones(n)], [np.zeros(n)]
    for col in range(1, n_modes):
        if domain == UNIT_INTERVAL:
            freq, phase = col * math.pi, 0.0
        else:  # cos(2 pi k x) at odd columns, sin(2 pi k x) = cos(2 pi k x - pi/2) at even
            freq, phase = 2.0 * math.pi * ((col + 1) // 2), (col % 2 == 0) * math.pi / 2
        basis.append(np.cos(freq * x - phase))
        deriv.append(-freq * np.sin(freq * x - phase))
    return np.column_stack(basis), np.column_stack(deriv)


@pytest.mark.parametrize("domain, n", [(UNIT_INTERVAL, 65), (UNIT_CIRCLE, 64)])
def test_basis_matrix_matches_the_formulas(domain, n):
    basis, _ = _basis_matrix(domain, 9, n)
    np.testing.assert_allclose(basis, _analytic_columns(domain, 9, n)[0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n_modes", [2, 9, 16])
@pytest.mark.parametrize("domain, n", [
    (UNIT_INTERVAL, 65), (UNIT_INTERVAL, 2049), (UNIT_CIRCLE, 2048), (UNIT_CIRCLE, 2049),
])
def test_closed_form_energy_matches_the_assembled_form(domain, n, n_modes):
    # the optimizer's energy sum_j e_j c_j^2 against c^T (D^T W D) c, D the analytic
    # derivative columns and W the quadrature weights
    _, deriv = _analytic_columns(domain, n_modes, n)
    form = deriv.T @ (deriv * quadrature_weights(domain, n)[:, None])
    _, energy_weights = _basis_matrix(domain, n_modes, n)
    for c in np.random.default_rng(n_modes).standard_normal((5, n_modes)):
        assert energy_weights @ np.square(c) == pytest.approx(c @ form @ c, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# power-mean probe
# ---------------------------------------------------------------------------

def test_probe_constant_trial_has_zero_deficit():
    report = diaz_probe([1.5, 2.0], 1, 3)
    for r in report.results:
        assert abs(r.min_deficit) <= 1e-12
        assert r.argmin_trial == 0


def test_probe_finds_no_counterexample_at_desk_scale():
    report = diaz_probe([1.25, 2.0], 25, 11)
    assert not report.counterexamples
    for r in report.results:
        assert r.min_deficit >= -1e-7
        assert not r.flagged


def test_probe_is_bit_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        report = diaz_probe([1.5, 2.0], 10, 5)
        write_csv(DIAZ_CSV_HEADER, [r.csv_row() for r in report.results], path)
    assert a.read_bytes() == b.read_bytes()


def _reference_probe_dict(report):
    """The field-by-field DiazProbeReport.to_dict that asdict replaced."""
    return {
        "seed": report.seed,
        "trials": report.trials,
        "n": report.n,
        "modes": report.modes,
        "results": [
            {
                "q": r.q,
                "min_deficit": r.min_deficit,
                "argmin_trial": r.argmin_trial,
                "flagged": r.flagged,
            }
            for r in report.results
        ],
        "counterexamples": [{"q": q, "trial": trial} for q, trial, _ in report.counterexamples],
    }


def test_probe_to_dict_writes_the_bytes_of_the_field_by_field_dict(tmp_path):
    witness = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 64)
    reports = [
        diaz_probe([1.25, 2.0], 4, 7, n=257, modes=8),
        DiazProbeReport(
            seed=1, trials=2, n=64, modes=4,
            results=(DiazQResult(1.5, -1e-3, 1, True), DiazQResult(np.float64(2.0), 1e-17, 0, False)),
            counterexamples=((1.5, 1, witness),),
        ),
    ]
    for i, report in enumerate(reports):
        want, got = tmp_path / f"want{i}.json", tmp_path / f"got{i}.json"
        write_json(_reference_probe_dict(report), want)
        write_json(report.to_dict(), got)
        assert got.read_bytes() == want.read_bytes()


def test_probe_validation():
    with pytest.raises(ParamOutOfRangeError):
        diaz_probe([1.5], 0, 1)
    with pytest.raises(ParamOutOfRangeError):
        diaz_probe([2.5], 10, 1)


# ---------------------------------------------------------------------------
# spectral-gap check
# ---------------------------------------------------------------------------

def test_eigenvalue_check_matches_first_eigenvalue():
    assert eigenvalue_check(256, 8) == pytest.approx(FOUR_PI_SQUARED, abs=1e-8)


def test_minimizing_mode_is_first_harmonic():
    quotients = [mode_quotient(256, k) for k in range(1, 6)]
    assert quotients[0] == min(quotients)
    assert quotients[0] == pytest.approx(FOUR_PI_SQUARED, abs=1e-8)


def test_second_mode_quotient():
    assert mode_quotient(256, 2) == pytest.approx(16 * math.pi**2, abs=1e-7)


def test_eigenvalue_check_validation():
    with pytest.raises(ParamOutOfRangeError):
        eigenvalue_check(32, 4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_sweep_csv_shape(tmp_path):
    records = sharpness_sweep([0.2, 0.1], 2049)
    path = tmp_path / "sweep.csv"
    write_csv(SWEEP_CSV_HEADER, [r.csv_row() for r in records], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,energy,entropy,ratio,deficit"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.2
