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
    _cos_pi_x,
    _sharpness_values,
    differentiate,
    fourier_from_dict,
    from_fourier,
    grid_points,
    integrate,
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
    dirichlet_energy,
    entropy,
    squared_mass,
)


# ---------------------------------------------------------------------------
# Sharpness sweep and extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """Functional values of the sharpness family member at one epsilon."""

    epsilon: float
    energy: float
    entropy: float
    ratio: float
    deficit: float

    def __post_init__(self):
        _check_eps(self.epsilon)

    def csv_row(self) -> tuple:
        """The cells under :data:`SWEEP_CSV_HEADER`."""
        return (self.epsilon, self.energy, self.entropy, self.ratio, self.deficit)


SWEEP_CSV_HEADER = "epsilon,energy,entropy,ratio,deficit"


def sharpness_sweep(eps_list: Sequence[float], n: int) -> list[SweepRecord]:
    """Energy, entropy, ratio and deficit of the extremal family
    sqrt(1 - eps^2) + sqrt(2) eps cos(pi x) for each epsilon.

    Records are sorted by epsilon, descending. The ratio
    energy/entropy approaches pi^2 from above as epsilon decreases.

    Every epsilon is checked before any grid work. Each record equals, bit
    for bit, :func:`dirichlet_energy` and :func:`entropy` of
    ``sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, n)``.
    """
    if n < 2049:
        raise ParamOutOfRangeError(f"sweep needs n >= 2049, got {n}")
    eps_list = sorted(eps_list, reverse=True)
    for eps in eps_list:
        _check_eps(eps)
    cos_pi_x = _cos_pi_x(UNIT_INTERVAL, n)
    return [_sweep_record(eps, cos_pi_x) for eps in eps_list]


def _sweep_record(eps: float, cos_pi_x: np.ndarray) -> SweepRecord:
    """One sweep member from the shared cos(pi x); its arrays die here."""
    f = GridFunction._adopt(UNIT_INTERVAL, _sharpness_values(eps, cos_pi_x))
    ent, energy = entropy(f), dirichlet_energy(f)
    return SweepRecord(eps, energy, ent, energy / ent, energy - PI_SQUARED * ent)


def extrapolate_constant(records: Sequence[SweepRecord]) -> float:
    """Extrapolate the sweep ratios to epsilon = 0.

    The ratio admits an expansion in epsilon^2, so we run Neville
    polynomial extrapolation in t = epsilon^2 evaluated at t = 0 (which
    reduces to classical Richardson extrapolation on geometric epsilon
    sequences). Needs at least three distinct epsilon values.
    """
    seen: dict[float, float] = {}
    for record in records:
        seen.setdefault(record.epsilon, record.ratio)
    if len(seen) < 3:
        raise InsufficientDataError(
            f"need >= 3 records with distinct epsilon, got {len(seen)}"
        )
    t = np.array([eps * eps for eps in seen])
    val = np.array(list(seen.values()))
    order = np.argsort(t)
    t, val = t[order], val[order]
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
    twice, so the identity is exact in the continuum and the returned
    value measures pure discretization error.
    """
    _check_eps(eps)
    if n < 513:
        raise ParamOutOfRangeError(f"need n >= 513, got {n}")
    f = sample_family(Family.WANG, [eps], UNIT_INTERVAL, n)
    first = differentiate(f)
    second = differentiate(first)
    lhs = second.values - math.pi * eps * np.sin(math.pi * f.x) * first.values
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

    On [0, 1] column m is cos(m pi x). On the circle column 0 is 1 and
    columns 2m - 1 and 2m are cos(2 pi m x) and sin(2 pi m x). Column j
    solves -u'' = c m_j^2 u, c the sharp constant, and the columns are
    orthogonal with squared mass 1/2 for j > 0. So the energy of
    ``basis @ coefficients`` is exactly the sum of c m_j^2 / 2 * coefficients_j^2.
    """
    x = grid_points(domain, n)
    basis = np.empty((n, n_modes))
    basis[:, 0] = 1.0
    if isinstance(domain, Interval):
        harmonics = np.arange(n_modes)
        for k in range(1, n_modes):
            basis[:, k] = np.cos(k * math.pi * x)
    else:
        harmonics = (np.arange(n_modes) + 1) // 2
        for col in range(1, n_modes):
            phase = 2.0 * math.pi * harmonics[col] * x
            basis[:, col] = np.cos(phase) if col % 2 == 1 else np.sin(phase)
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

    Projected gradient descent with backtracking line search; iterates
    are renormalized to unit squared mass after every step. Because
    |g|^2 = g^2 and |g|' = sign(g) g' almost everywhere, the deficit and
    its (sub)gradient are evaluated on the signed synthesis, which keeps
    the quadrature clean across sign changes of the synthesis.

    The proven inequalities make the true deficit nonnegative, so
    ``best_deficit`` should never drop meaningfully below zero, and the
    sharp constants make ``best_ratio`` approach pi^2 (interval) or
    4 pi^2 (circle) from above. That needs a grid that resolves the
    basis, 2 * n_modes <= n: on a coarser grid the modes alias and the
    deficit can read below zero. The basis matrix holds n * n_modes
    floats; more than MAX_SAMPLES raises ParamOutOfRangeError before
    anything is allocated.
    """
    if n_modes < 2:
        raise ParamOutOfRangeError(f"need n_modes >= 2, got {n_modes}")
    if max_iters < 1:
        raise ParamOutOfRangeError("need max_iters >= 1")
    if not (is_unit_interval(domain) or is_unit_circle(domain)):
        raise ParamOutOfRangeError("domain must be [0, 1] or the unit circle")
    _, constant = _geometry(domain)
    if n is None:
        n = 2049 if isinstance(domain, Interval) else 2048
    if 2 * n_modes > n:
        raise ParamOutOfRangeError(f"{n_modes} modes need N >= {2 * n_modes}, got {n}")
    if n * n_modes > MAX_SAMPLES:  # the basis matrix holds n * n_modes floats
        raise ParamOutOfRangeError(
            f"a basis of {n_modes} modes on {n} samples has {n * n_modes} entries, "
            f"more than {MAX_SAMPLES}"
        )

    basis, energy_weights = _basis_matrix(domain, n_modes, n)
    w = quadrature_weights(domain, n)
    mass_form = basis.T @ (basis * w[:, None])

    rng = np.random.default_rng(seed)
    if init is not None:
        c = np.asarray(init, dtype=float).copy()
        if c.size != n_modes:
            raise ParamOutOfRangeError(f"init must have {n_modes} coefficients")
    else:
        decay = np.array([1.0 / (1 + (k + 1) // 2) ** 2 for k in range(n_modes)])
        c = rng.standard_normal(n_modes) * decay

    def normalize(c):
        mass = c @ mass_form @ c
        if mass <= 0.0:
            raise ParamOutOfRangeError("iterate collapsed to the zero function")
        return c / math.sqrt(mass)

    def evaluate(c):
        ent = float(w @ _entropy_integrand(np.abs(basis @ c)))
        energy = float(energy_weights @ np.square(c))
        return energy, ent, energy - constant * ent

    def gradient(c):
        g = basis @ c
        ag = np.abs(g)
        # d/dg of g^2 log|g| is 2 g log|g| + g, zero at g = 0
        ent_slope = np.where(ag > 0.0, 2.0 * g * np.log(np.where(ag > 0.0, ag, 1.0)) + g, 0.0)
        return 2.0 * energy_weights * c - constant * (basis.T @ (w * ent_slope))

    c = normalize(c)
    energy, ent, deficit = evaluate(c)
    best_deficit = deficit
    best_c = c.copy()
    best_ratio = energy / ent if ent > RATIO_ENTROPY_FLOOR else None
    step = 1e-2
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        grad = gradient(c)
        normal = mass_form @ c
        tangent = grad - (grad @ normal) / (normal @ normal) * normal
        gnorm2 = float(tangent @ tangent)
        if gnorm2 <= 1e-18:
            converged = True
            break
        accepted = False
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            trial = normalize(c - step * grad)
            t_energy, t_ent, t_deficit = evaluate(trial)
            if t_deficit <= deficit - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent direction left at float resolution
            break
        c, energy, ent, deficit = trial, t_energy, t_ent, t_deficit
        if deficit < best_deficit:
            best_deficit = deficit
            best_c = c.copy()
        if ent > RATIO_ENTROPY_FLOOR:
            ratio = energy / ent
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio

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

    The polynomial is ``sample_family(RANDOM_TRIG, [seed, modes], domain, n)``:
    a cosine series on intervals, and on circles a Fourier series synthesized
    by :func:`from_fourier`, which needs 2*modes + 1 <= n."""
    raw = sample_family(Family.RANDOM_TRIG, [seed, modes], domain, n)
    values = raw.values - float(np.min(raw.values))
    values += ADMISSIBLE_SHIFT
    f = GridFunction._adopt(domain, values)
    if normalize:
        f = GridFunction._adopt(domain, values / math.sqrt(squared_mass(f)))
    return f


def diaz_probe(
    q_list: Sequence[float],
    trials: int,
    seed: int,
    *,
    n: int = 2049,
    modes: int = 16,
) -> DiazProbeReport:
    """Evaluate the power-mean deficit over random positive functions.

    The same trial functions are used for every exponent, so the report
    is bit-reproducible for a fixed seed, and every minimum equals the one
    per-exponent :func:`diaz_deficit` calls give. Only the counterexample
    witnesses are kept.
    """
    if trials < 1:
        raise ParamOutOfRangeError(f"need trials >= 1, got {trials}")
    for q in q_list:  # before any trial is drawn
        _check_q(q)
    by_trial = []
    witnesses = {}
    for t in range(trials):
        if t == 0:
            f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, n)
        else:
            f = random_admissible_function(UNIT_INTERVAL, modes, seed + t, n, normalize=False)
        row = _diaz_deficits(_check_nonnegative(f.values), differentiate(f).values, q_list)
        if any(deficit < DIAZ_FLAG_TOL for deficit in row):
            witnesses[t] = f
        by_trial.append(row)
    results = []
    counterexamples = []
    for i, q in enumerate(q_list):
        deficits = [row[i] for row in by_trial]
        argmin = int(np.argmin(deficits))
        min_deficit = deficits[argmin]
        flagged = min_deficit < DIAZ_FLAG_TOL
        results.append(DiazQResult(q, min_deficit, argmin, flagged))
        for t, deficit in enumerate(deficits):
            if deficit < DIAZ_FLAG_TOL:
                counterexamples.append((q, t, witnesses[t]))
    return DiazProbeReport(
        seed, trials, n, modes, tuple(results), tuple(counterexamples)
    )


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
    """Rayleigh quotient energy / centered mass of the k-th circle harmonic."""
    if k < 1:
        raise ParamOutOfRangeError("mode index must be >= 1")
    e = from_fourier(fourier_from_dict(1.0, {k: 0.5, -k: 0.5}), n)
    mean = integrate(e)
    centered = GridFunction._adopt(e.domain, e.values - mean)
    return dirichlet_energy(e) / squared_mass(centered)


def eigenvalue_check(n: int, n_max: int = 8) -> float:
    """Smallest Rayleigh quotient over the nonzero circle harmonics.

    Equals the first nonzero Laplacian eigenvalue on the unit circle,
    4 pi^2, attained by the single-oscillation modes.
    """
    if n < 64:
        raise ParamOutOfRangeError(f"need n >= 64, got {n}")
    if n_max < 1:
        raise ParamOutOfRangeError("need n_max >= 1")
    return min(mode_quotient(n, k) for k in range(1, n_max + 1))
