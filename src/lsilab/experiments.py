"""Quantitative experiments: sharpness sweeps, extrapolation of the sharp
constant, the perturbation-family ODE residual, deficit minimization, the
power-mean conjecture probe, and the spectral-gap sanity check.

All experiments are deterministic given their seeds and evaluate every
functional through the same quadrature and differentiation machinery as
the functionals module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, ParamOutOfRangeError
from .function_space import (
    MAX_SAMPLES,
    Domain,
    Family,
    GridFunction,
    Interval,
    UNIT_INTERVAL,
    _check_eps,
    _check_modes,
    _check_size,
    _cosine_series,
    _harmonic,
    _listed,
    _random_trig_draws,
    _real,
    _samples,
    _sharpness_values,
    _whole,
    differentiate,
    fourier_from_dict,
    from_fourier,
    is_unit_circle,
    is_unit_interval,
    quadrature_weights,
    sample_family,
    write_grid_csv,
)
from .functionals import (
    PI_SQUARED,
    _check_nonnegative,
    _check_q,
    _diaz_deficits,
    _entropy_integrand,
    _geometry,
    _poincare_terms,
    lsi_deficit_interval,
    squared_mass,
)


# ---------------------------------------------------------------------------
# Sharpness sweep and extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """Functional values of the sharpness family member at one epsilon; as in
    ``FunctionalReport``, ``ratio`` is None (an empty CSV cell) unless the entropy is positive."""

    epsilon: float
    energy: float
    entropy: float
    ratio: Optional[float]
    deficit: float

    def __post_init__(self):
        _check_eps(self.epsilon)

    def csv_row(self) -> tuple:
        """The cells under :data:`SWEEP_CSV_HEADER`."""
        ratio = "" if self.ratio is None else self.ratio
        return (self.epsilon, self.energy, self.entropy, ratio, self.deficit)


SWEEP_CSV_HEADER = "epsilon,energy,entropy,ratio,deficit"


def sharpness_sweep(eps_list: Sequence[float], n: int) -> list[SweepRecord]:
    """Energy, entropy, ratio and deficit of the extremal family
    sqrt(1 - eps^2) + sqrt(2) eps cos(pi x) for each epsilon.

    Records are sorted by epsilon, descending. The ratio
    energy/entropy approaches pi^2 from above as epsilon decreases.

    Every epsilon is checked, and that n is a whole number in [2049,
    MAX_SAMPLES] (ParamOutOfRangeError otherwise), before any grid work.
    Each record is, bit for bit, the :func:`lsi_deficit_interval` report
    of ``sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, n)``, whose
    cos(pi x) comes from one :func:`_harmonic` call for all epsilons.
    """
    n = _check_size(n, 2049)
    eps_list = sorted(map(_check_eps, _listed(eps_list, "eps_list must be a list")), reverse=True)
    cos_pi_x = _harmonic(UNIT_INTERVAL, n, 1)
    records = []
    for eps in eps_list:  # one member's arrays at a time
        r = lsi_deficit_interval(GridFunction._adopt(UNIT_INTERVAL, _sharpness_values(eps, cos_pi_x)))
        records.append(SweepRecord(eps, r.energy, r.entropy, r.ratio, r.deficit))
    return records


def extrapolate_constant(records: Sequence[SweepRecord]) -> float:
    """Extrapolate the sweep ratios to epsilon = 0.

    The ratio admits an expansion in epsilon^2, so we run Neville
    polynomial extrapolation in t = epsilon^2 evaluated at t = 0 (which
    reduces to classical Richardson extrapolation on geometric epsilon
    sequences). Needs at least three distinct epsilon values; records whose
    ratio is None do not count, and of several with one epsilon the first does.
    """
    seen = {r.epsilon: r.ratio for r in reversed(records) if r.ratio is not None}
    if len(seen) < 3:
        raise InsufficientDataError(
            f"need >= 3 records with distinct epsilon, got {len(seen)}"
        )
    t, val = np.array([(eps * eps, ratio) for eps, ratio in sorted(seen.items())]).T
    for level in range(1, t.size):
        for i in range(t.size - level):
            val[i] = (t[i + level] * val[i] - t[i] * val[i + 1]) / (t[i + level] - t[i])
    return float(val[0])


# ---------------------------------------------------------------------------
# Perturbation-family ODE residual
# ---------------------------------------------------------------------------

def wang_ode_residual(eps: float, n: int) -> float:
    """Max-norm residual of the identity satisfied by exp(-eps cos(pi x)):
    f'' - pi eps sin(pi x) f' = -pi^2 f log f.

    Both derivative factors come from applying :func:`differentiate`
    twice and sin(pi x) from :func:`_harmonic`, so the identity is exact
    in the continuum and the returned value measures pure discretization error.
    """
    eps = _check_eps(eps)
    n = _check_size(n, 513)
    f = sample_family(Family.WANG, [eps], UNIT_INTERVAL, n)
    first = differentiate(f)
    second = differentiate(first)
    lhs = second.values - math.pi * eps * _harmonic(UNIT_INTERVAL, n, 1, sine=True) * first.values
    rhs = -PI_SQUARED * f.values * np.log(f.values)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Deficit minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of projected gradient descent on the log-Sobolev deficit.

    ``coefficients`` is the basis coefficient vector of the best iterate
    (cosine basis on the interval; constant plus cos/sin pairs on the
    circle). ``best_ratio`` is the smallest energy/entropy seen over
    iterates with entropy above 1e-10, or None if no such iterate
    occurred. ``converged`` is False when the iteration budget ran out
    before the gradient stalled.
    """

    best_deficit: float
    best_ratio: Optional[float]
    coefficients: np.ndarray
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "coefficients": self.coefficients.tolist()}


#: Entropy threshold below which the energy/entropy ratio is not recorded.
RATIO_ENTROPY_FLOOR = 1e-10


def _basis_matrix(domain: Domain, n_modes: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The optimizer basis on the grid, and the Dirichlet energy of each column.

    Column 0 is 1 and the others come from :func:`_harmonic`: column m is cos(m pi x) on [0, 1],
    and on the circle columns 2m - 1 and 2m are cos(2 pi m x) and sin(2 pi m x). Column j
    solves -u'' = c m_j^2 u, c the sharp constant, and the columns are
    orthogonal with squared mass 1/2 for j > 0. So the energy of
    ``basis @ coefficients`` is exactly the sum of c m_j^2 / 2 * coefficients_j^2.
    """
    circle = not isinstance(domain, Interval)
    harmonics = (np.arange(n_modes) + 1) // 2 if circle else np.arange(n_modes)
    basis = np.empty((n, n_modes))
    basis[:, 0] = 1.0
    for col in range(1, n_modes):
        basis[:, col] = _harmonic(domain, n, harmonics[col], sine=circle and col % 2 == 0)
    return basis, 0.5 * _geometry(domain)[1] * np.square(harmonics)


def minimize_deficit(
    domain: Domain,
    n_modes: int,
    seed: int,
    max_iters: int,
    *,
    n: int | None = None,
    init: Sequence[float] | None = None,
) -> OptimizerResult:
    """Minimize the log-Sobolev deficit over f = |c_0 + sum c_k basis_k|.

    Projected gradient descent with backtracking line search. Each iterate is
    scaled to unit squared mass, synthesized and scored once, and its gradient
    reuses that synthesis g. Because |g|^2 = g^2 and |g|' = sign(g) g' almost
    everywhere, the deficit and its (sub)gradient are evaluated on the signed
    synthesis, which keeps the quadrature clean across sign changes of g.

    The proven inequalities make the true deficit nonnegative, so
    ``best_deficit`` should never drop meaningfully below zero, and the
    sharp constants make ``best_ratio`` approach pi^2 (interval) or
    4 pi^2 (circle) from above. That needs a grid that resolves the
    basis, 2 * n_modes <= n: on a coarser grid the modes alias and the
    deficit can read below zero. The basis matrix holds n * n_modes
    floats; more than MAX_SAMPLES raises ParamOutOfRangeError before
    anything is allocated. So does an ``init`` that is not n_modes finite
    real numbers, and one whose squared mass overflows float64 raises it
    when the first iterate is scaled.
    """
    n_modes = _whole(n_modes, 2, f"need an integer n_modes >= 2, got {n_modes!s:.40}")
    max_iters = _whole(max_iters, 1, f"need an integer max_iters >= 1, got {max_iters!s:.40}")
    seed = _whole(seed, 0, "seed must be a nonnegative integer")
    if not (is_unit_interval(domain) or is_unit_circle(domain)):
        raise ParamOutOfRangeError("domain must be [0, 1] or the unit circle")
    _, constant = _geometry(domain)
    n = _check_size((2049 if isinstance(domain, Interval) else 2048) if n is None else n)
    if 2 * n_modes > n:
        raise ParamOutOfRangeError(f"{n_modes!s:.40} modes need N >= {2 * n_modes!s:.40}, got {n}")
    if n * n_modes > MAX_SAMPLES:  # the basis matrix holds n * n_modes floats
        raise ParamOutOfRangeError(
            f"a basis of {n_modes} modes on {n} samples has {n * n_modes} entries, "
            f"more than {MAX_SAMPLES}"
        )

    if init is None:
        decay = 1.0 / (1 + (np.arange(n_modes) + 1) // 2) ** 2
        c = np.random.default_rng(seed).standard_normal(n_modes) * decay
    else:
        c = _samples(init, "biuf", "init coefficients must be finite", ParamOutOfRangeError,
                     (lambda c: c.shape == (n_modes,), f"init must have {n_modes} coefficients"))

    basis, energy_weights = _basis_matrix(domain, n_modes, n)
    w = quadrature_weights(domain, n)
    mass_form = basis.T @ (basis * w[:, None])

    def state(c):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing mass raises here
            mass = _real(c @ mass_form @ c, "squared mass of the iterate overflows float64; "
                         "rescale init", ParamOutOfRangeError)
        if mass <= 0.0:
            raise ParamOutOfRangeError("iterate collapsed to the zero function")
        c = c / math.sqrt(mass)
        g = basis @ c
        ent = float(w @ _entropy_integrand(np.abs(g)))
        energy = float(energy_weights @ np.square(c))
        return c, energy, ent, energy - constant * ent, g

    iterate = state(c)
    best_deficit, best_c, best_ratio = math.inf, None, None
    step, converged, iterations = 1e-2, False, 0
    while True:
        c, energy, ent, deficit, g = iterate
        if deficit < best_deficit:
            best_deficit, best_c = deficit, c
        if ent > RATIO_ENTROPY_FLOOR and (best_ratio is None or energy / ent < best_ratio):
            best_ratio = energy / ent
        if iterations == max_iters:
            break
        iterations += 1
        # d/dg of g^2 log|g| is 2 g log|g| + g, which is 0 at g = 0 as it stands
        ent_slope = 2.0 * g * np.log(np.where(g != 0.0, np.abs(g), 1.0)) + g
        grad = 2.0 * energy_weights * c - constant * (basis.T @ (w * ent_slope))
        normal = mass_form @ c
        tangent = grad - (grad @ normal) / (normal @ normal) * normal
        gnorm2 = float(tangent @ tangent)
        if gnorm2 <= 1e-18:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            iterate = state(c - step * grad)
            if iterate[3] <= deficit - 1e-4 * step * gnorm2:  # the trial's deficit
                break
            step *= 0.5
        else:
            converged = True  # no descent direction left at float resolution
            break

    return OptimizerResult(best_deficit, best_ratio, best_c, iterations, converged)


# ---------------------------------------------------------------------------
# Power-mean conjecture probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiazQResult:
    q: float
    min_deficit: float
    argmin_trial: int
    flagged: bool

    def csv_row(self) -> tuple:
        """The cells under :data:`DIAZ_CSV_HEADER`."""
        return (self.q, self.min_deficit, "true" if self.flagged else "false")


@dataclass(frozen=True)
class DiazProbeReport:
    """Per-exponent minimum deficits over a randomized trial set.

    Trial 0 is always the constant function (deficit exactly zero in
    the continuum); the remaining trials are positive random
    trigonometric polynomials. Any deficit below the flag tolerance is
    reported as a counterexample candidate together with the offending
    function.
    """

    seed: int
    trials: int
    n: int
    modes: int
    results: tuple[DiazQResult, ...]
    counterexamples: tuple[tuple[float, int, GridFunction], ...]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n": self.n,
            "modes": self.modes,
            "results": [asdict(r) for r in self.results],
            "counterexamples": [
                {"q": q, "trial": trial} for q, trial, _ in self.counterexamples
            ],
        }


DIAZ_CSV_HEADER = "q,min_deficit,flag"

#: Deficits below this are flagged as counterexample candidates.
DIAZ_FLAG_TOL = -1e-7

#: Gap between zero and the minimum of a random admissible function.
ADMISSIBLE_SHIFT = 0.01

#: Most samples in one batch of the probe's random trials (256 KiB of float64).
_PROBE_BATCH = 2**15


def random_admissible_function(
    domain: Domain,
    modes: int,
    seed: int,
    n: int,
    *,
    normalize: bool = True,
) -> GridFunction:
    """Random trigonometric polynomial shifted so its minimum is
    ADMISSIBLE_SHIFT and, optionally, normalized to unit squared mass.

    The polynomial is ``sample_family(RANDOM_TRIG, [seed, modes], domain, n)``: a cosine series
    on intervals, which :func:`diaz_probe` builds with the same bytes in batches of 2**15 samples
    at most, and on circles a Fourier series synthesized by :func:`from_fourier` (2*modes + 1 <= n)."""
    values = _lift(sample_family(Family.RANDOM_TRIG, [seed, modes], domain, n).values.copy())
    f = GridFunction._adopt(domain, values)
    if normalize:
        f = GridFunction._adopt(domain, values / math.sqrt(squared_mass(f)))
    return f


def _lift(values: np.ndarray) -> np.ndarray:
    """``values`` shifted in place so that the minimum of each row is ADMISSIBLE_SHIFT."""
    values -= np.min(values, axis=-1, keepdims=True)
    values += ADMISSIBLE_SHIFT
    return values


def diaz_probe(
    q_list: Sequence[float],
    trials: int,
    seed: int,
    *,
    n: int = 2049,
    modes: int = 16,
) -> DiazProbeReport:
    """Evaluate the power-mean deficit over random positive functions.

    Trial 0 is the constant 1 and trial t >= 1 is, bit for bit, ``random_admissible_function(
    UNIT_INTERVAL, modes, seed + t, n, normalize=False)``, built in batches of at most _PROBE_BATCH
    samples, one at a time, that evaluate each cosine once. Every exponent sees the same trials, so
    each minimum equals the one per-exponent :func:`diaz_deficit` calls give. Only each exponent's
    running minimum and flagged trials, and the witnesses, are kept. trials lies in [1, MAX_SAMPLES].
    """
    message = f"need an integer trials in [1, {MAX_SAMPLES}], got {trials!s:.40}"
    trials = _whole(trials, 1, message)
    if trials > MAX_SAMPLES:
        raise ParamOutOfRangeError(message)
    n = _check_size(n)
    seed = _whole(seed, 0, "seed must be a nonnegative integer")
    modes = _check_modes(UNIT_INTERVAL, modes, n)
    q_list = _listed(q_list, "q_list must be a list")
    for q in q_list:  # before any trial is drawn
        _check_q(q)
    minima, flagged = [(math.inf, 0)] * len(q_list), [[] for _ in q_list]
    witnesses, step = {}, max(1, _PROBE_BATCH // n)
    for t in range(trials):
        if t == 0:
            f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, n)
        else:
            if (t - 1) % step == 0:  # release the last batch before the next is built
                f = batch = None
                draws = [_random_trig_draws(UNIT_INTERVAL, seed + s, modes, n) for s in range(t, trials)[:step]]
                batch = _lift(_cosine_series(UNIT_INTERVAL, np.array(draws), n))
            f = GridFunction._adopt(UNIT_INTERVAL, batch[(t - 1) % step])
        deficits = [float(d) for d in _diaz_deficits(
            _check_nonnegative(f.values), differentiate(f).values, q_list)]
        for i, d in enumerate(deficits):
            if d < minima[i][0]:  # strict, so the first trial of the least deficit is kept
                minima[i] = (d, t)
            if d < DIAZ_FLAG_TOL:
                flagged[i].append(t)
        if any(d < DIAZ_FLAG_TOL for d in deficits):
            witnesses[t] = GridFunction(UNIT_INTERVAL, f.values)  # a copy, which holds no batch
    results = tuple(DiazQResult(q, d, t, d < DIAZ_FLAG_TOL) for q, (d, t) in zip(q_list, minima))
    counterexamples = tuple((q, t, witnesses[t]) for q, ts in zip(q_list, flagged) for t in ts)
    return DiazProbeReport(seed, trials, n, modes, results, counterexamples)


def write_counterexamples(report: DiazProbeReport, stem: str | Path) -> list[Path]:
    """Serialize flagged trial functions as ``<stem>.witness-q<q>-t<trial>.csv``."""
    paths = []
    for q, trial, f in report.counterexamples:
        path = Path(f"{stem}.witness-q{q}-t{trial}.csv")
        write_grid_csv(f, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Spectral-gap sanity check
# ---------------------------------------------------------------------------

def mode_quotient(n: int, k: int) -> float:
    """Rayleigh quotient energy / centered mass of the k-th circle harmonic (Poincare kernel)."""
    k = _whole(k, 1, "mode index must be an integer >= 1")
    energy, centered = _poincare_terms(from_fourier(fourier_from_dict(1.0, {k: 0.5, -k: 0.5}), n))
    return energy / centered


def eigenvalue_check(n: int, n_max: int = 8) -> float:
    """Smallest Rayleigh quotient over the nonzero circle harmonics.

    Equals the first nonzero Laplacian eigenvalue on the unit circle,
    4 pi^2, attained by the single-oscillation modes.
    """
    n = _check_size(n, 64)
    n_max = _whole(n_max, 1, f"need an integer n_max >= 1, got {n_max!s:.40}")
    return min(mode_quotient(n, k) for k in range(1, n_max + 1))
