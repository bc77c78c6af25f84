"""Scalar functionals and inequality deficits.

Each deficit operation returns right-hand side minus left-hand side of
the corresponding inequality, so a nonnegative value means the
inequality holds for that input. Deficits for the proven statements
(interval constant pi^2, circle constant 4*pi^2, their rescaled and
Fisher-information forms, the Fourier-side bound, and the Wirtinger
bound) should never be meaningfully negative; the power-mean deficit
probes an open conjecture, so negative values there are findings, not
errors.

Every log-Sobolev deficit comes from one of two kernels. With L the
domain length (1 on the unit circle, the one circle they accept) and
c = pi^2 on intervals, 4*pi^2 on circles:

  kernel                  constant   correction   m
  _log_sobolev_report     c / L^2    L m^2 log m  root mean square of f
  _fisher_report          2c / L^2   L m log m    mean of f

The unit-mass forms use the first kernel with correction 0. The Fisher
form is the f = g^2 image of the first (Gross 1975) but is evaluated
from f itself, so the square-root lift can check the chain rule.

The entropy functional uses the convention t^2 * log t = 0 at t = 0,
with values in [-1e-12, 0] clamped to zero to absorb synthesis
round-off.

Every sampled integral is one walk of ``function_space._integrals`` over blocks
of BLOCK nodes and their Simpson weights (the step L/n on circles), but one: the
interval Dirichlet energy dots a full squared derivative with one full weight
vector. The log-Sobolev report squares each node once for its mass and its entropy,
and ``_entropy_integrand`` is the one place f^2 log f is formed.

The mass, entropy, energy and Fisher integrals, and the log-Sobolev and
Wirtinger deficits built from them, raise :class:`InvalidInputError`
when finite samples overflow float64, instead of returning inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidInputError,
    NegativeFunctionError,
    NonPositiveFunctionError,
    NotNormalizedError,
    ParamOutOfRangeError,
    ZeroMassError,
)
from .function_space import (
    BLOCK,
    DERIVATIVE_OVERFLOW,
    Circle,
    FourierSeries,
    GridFunction,
    Interval,
    UNIT_INTERVAL,
    _integrals,
    _real,
    differentiate,
    from_fourier,
    integrate,
    is_unit_circle,
    is_unit_interval,
    quadrature_weights,
)

PI_SQUARED = math.pi**2
FOUR_PI_SQUARED = 4.0 * math.pi**2

#: Values below this are rejected as genuinely negative.
NEGATIVE_TOL = 1e-12

#: |integral f^2 - 1| tolerance for the unit-mass preconditions.
NORMALIZATION_TOL = 1e-8

#: Root-mean-square (or mean) values below this count as zero mass.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class FunctionalReport:
    """Bundle of the scalar functionals evaluated for one function.

    ``deficit == energy - constant * (entropy - correction)`` exactly as
    computed by the producing operation; ``correction`` is zero for the
    unit-mass forms. ``ratio`` is energy/entropy when the entropy is
    positive, otherwise None.
    """

    mass: float
    entropy: float
    energy: float
    constant: float
    deficit: float
    ratio: Optional[float]
    correction: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> tuple:
        """The cells under :data:`REPORT_CSV_HEADER`."""
        ratio = "" if self.ratio is None else self.ratio
        return (self.mass, self.entropy, self.energy, self.constant, self.deficit, ratio)


REPORT_CSV_HEADER = "mass,entropy,energy,constant,deficit,ratio"


# ---------------------------------------------------------------------------
# Basic functionals
# ---------------------------------------------------------------------------

def _entropy_integrand(values: np.ndarray, square=None, low: float = 0.0) -> np.ndarray:
    """v^2 log v, log v read as 0 where v <= 0, so the clamp band [-NEGATIVE_TOL, 0) gives 0: the
    one place f^2 log f is formed. ``square`` is v * v if at hand; ``low``, min v, > 0 skips the mask."""
    out = np.log(values) if low > 0.0 else np.where(values > 0.0, values, 1.0)
    if low <= 0.0:  # the log of the masked copy, in place
        np.log(out, out=out)
    out *= values * values if square is None else square
    return out


def _check_low(low: float) -> float:
    """``low``, a minimum; below -NEGATIVE_TOL it raises NegativeFunctionError."""
    if low < -NEGATIVE_TOL:
        raise NegativeFunctionError(f"minimum value {low:.3e} is below -{NEGATIVE_TOL:.0e}")
    return low


def _check_nonnegative(values: np.ndarray) -> np.ndarray:
    """The values with entries in [-NEGATIVE_TOL, 0) clamped to 0; no copy if none are."""
    low = _check_low(float(np.min(values)))
    return values if low >= 0.0 else np.clip(values, 0.0, None)


def _finite(value, name: str) -> float:
    """``float(value)``; an overflowed (inf or nan) value raises InvalidInputError."""
    return _real(value, f"{name} overflows float64; rescale the input")


@np.errstate(over="ignore", invalid="ignore")
def entropy(f: GridFunction) -> float:
    """integral of f^2 log f, with 0^2 log 0 = 0."""
    values, low = f.values, _check_low(float(np.min(f.values)))
    (ent,) = _integrals(f.domain, f.n, lambda lo, hi: [_entropy_integrand(values[lo:hi], None, low)])
    return _finite(ent, "entropy")


@np.errstate(over="ignore", invalid="ignore")
def dirichlet_energy(f: GridFunction) -> float:
    """integral of (f')^2; on circles the discrete Parseval sum ``(2L/N^2) * sum_{k>=1}
    |D_k|^2`` over the derivative spectrum D of one real FFT (the trapezoid rule on the
    spectral derivative), each block of BLOCK modes scaled by the real 2*pi*k/L. On
    intervals ``w @ (f')^2``, ``w`` the Simpson weights: the one full weight vector of a
    report, as the derivative and its square are full-grid anyway."""
    if isinstance(f.domain, Circle):
        n, spectrum = f.n, np.fft.rfft(f.values)
        if n % 2 == 0:
            spectrum[-1] = 0.0  # the Nyquist mode's derivative is unrepresentable
        unit, total = 1.0 / (n * (f.domain.circumference / n)), 0.0  # unit: rfftfreq's step
        for lo in range(1, spectrum.size, BLOCK):
            d = spectrum[lo:lo + BLOCK]
            d *= np.arange(lo, lo + d.size) * unit * (2.0 * np.pi)
            if not (np.isfinite(spectrum[0]) and np.isfinite(d).all()):  # mode 0 gives 0 * a_0
                raise InvalidInputError(DERIVATIVE_OVERFLOW)
            d /= n  # before squaring: |D_k|^2 alone may overflow
            total += np.vdot(d, d).real
        return _finite(2.0 * f.domain.circumference * total, "Dirichlet energy")
    square = np.square(differentiate(f).values)  # the derivative is freed before the weights
    return _finite(quadrature_weights(f.domain, f.n) @ square, "Dirichlet energy")


@np.errstate(over="ignore", invalid="ignore")
def squared_mass(f: GridFunction) -> float:
    """integral of f^2."""
    (mass,) = _integrals(f.domain, f.n, lambda lo, hi: [np.square(f.values[lo:hi])])
    return _finite(mass, "integral of f^2")


# ---------------------------------------------------------------------------
# Log-Sobolev deficits
# ---------------------------------------------------------------------------

def _report(
    mass: float, ent: float, energy: float, constant: float, correction: float
) -> FunctionalReport:
    deficit = _finite(energy - constant * (ent - correction), "deficit")
    ratio = energy / ent if ent > 0.0 else None
    return FunctionalReport(mass, ent, energy, constant, deficit, ratio, correction)


def _geometry(domain) -> tuple[float, float]:
    """(L, c): an interval's length and pi^2, or 1 and 4 pi^2 for a circle.

    L is exactly 1 on the unit circle within GEOM_TOL, not the rounded
    circumference of a grid file; any other circle raises DomainMismatchError.
    """
    if isinstance(domain, Interval):
        return domain.length, PI_SQUARED
    if not is_unit_circle(domain):
        raise DomainMismatchError(
            f"circle reports require circumference 1, got {domain.circumference!r}"
        )
    return 1.0, FOUR_PI_SQUARED


@np.errstate(over="ignore", invalid="ignore")
def _log_sobolev_report(f: GridFunction, unit_mass: bool = False) -> FunctionalReport:
    """``energy - (c / L^2) * (entropy - L * m^2 * log m)``, m the root mean square.

    With ``unit_mass`` the domain is a unit one, L = 1, the squared mass
    must be 1 and the correction is 0.

    Its mass and entropy equal :func:`squared_mass` and :func:`entropy`. Errors
    are checked in this order: the energy, the mass, the sign, the entropy.
    """
    length, c = _geometry(f.domain)
    values, low = f.values, float(np.min(f.values))

    def integrands(lo, hi):  # each node squared once, for the mass and the entropy
        v = values[lo:hi]
        square = v * v
        return [square, _entropy_integrand(v, square, low)]

    mass, ent = _integrals(f.domain, f.n, integrands)  # raises nothing, so first, while f is in cache
    energy = dirichlet_energy(f)
    mass = _finite(mass, "integral of f^2")
    if unit_mass:
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise NotNormalizedError(
                f"integral of f^2 is {mass!r}, expected 1 within {NORMALIZATION_TOL:.0e}"
            )
        length, correction = 1.0, 0.0
    else:
        m = math.sqrt(max(mass, 0.0) / length)
        if m <= MASS_TOL:
            raise ZeroMassError(f"root mean square {m:.3e} is numerically zero")
        correction = length * m * m * math.log(m)
    _check_low(low)
    return _report(mass, _finite(ent, "entropy"), energy, c / length**2, correction)


@np.errstate(over="ignore", invalid="ignore")
def _fisher_report(f: GridFunction) -> FunctionalReport:
    """``fisher - (2c / L^2) * (integral f log f - L * m log m)``, m the mean;
    the mass, ``integral f log f`` and ``integral d * d / f`` come from one block walk."""
    length, c = _geometry(f.domain)
    values = f.values
    low = float(np.min(values))
    if low < MASS_TOL:
        raise NonPositiveFunctionError(f"minimum value {low:.3e}; need min >= {MASS_TOL:.0e}")
    d = differentiate(f).values

    def integrands(lo, hi):
        v, dv = values[lo:hi], d[lo:hi]
        return [v, np.log(v) * v, dv * dv / v]

    mass, ent, fisher = _integrals(f.domain, f.n, integrands)
    m = mass / length
    if m <= MASS_TOL:
        raise ZeroMassError(f"mean {m:.3e} is numerically zero")
    return _report(mass, _finite(ent, "integral of f log f"), _finite(fisher, "Fisher information"),
                   2.0 * c / length**2, length * m * math.log(m))


def lsi_deficit_interval(f: GridFunction) -> FunctionalReport:
    """Deficit of pi^2 * integral f^2 log f <= integral (f')^2 on [0, 1].

    Requires unit squared mass and nonnegative values.
    """
    if not is_unit_interval(f.domain):
        raise DomainMismatchError("interval deficit requires the domain [0, 1]")
    return _log_sobolev_report(f, unit_mass=True)


def lsi_deficit_circle(f: GridFunction) -> FunctionalReport:
    """Deficit of 4*pi^2 * integral f^2 log f <= integral (f')^2 on the unit circle."""
    if not isinstance(f.domain, Circle):
        raise DomainMismatchError("circle deficit requires a circle domain")
    return _log_sobolev_report(f, unit_mass=True)


def lsi_deficit_general(f: GridFunction) -> FunctionalReport:
    """Rescaled interval deficit for arbitrary [a, b] and mass.

    With m the root mean square of f, the deficit is
    ``energy - (pi^2/L^2) * (entropy - L * m^2 * log m)``, L = b - a.
    Specializes to the unit-interval form when L = 1 and m = 1.
    """
    if not isinstance(f.domain, Interval):
        raise DomainMismatchError("general deficit requires an interval domain")
    return _log_sobolev_report(f)


def lsi_deficit_density_form(f: GridFunction) -> FunctionalReport:
    """Fisher-information form: deficit of
    ``(2*pi^2/L^2) * (integral f log f - L * m log m) <= integral (f')^2 / f``
    with m the mean of f over [a, b], L = b - a.

    Requires strictly positive values (min >= 1e-12). This deficit equals
    four times the deficit of the square root of f under
    :func:`lsi_deficit_general`, so it vanishes on constants.
    """
    if not isinstance(f.domain, Interval):
        raise DomainMismatchError("density form requires an interval domain")
    return _fisher_report(f)


# ---------------------------------------------------------------------------
# Fourier-side bound
# ---------------------------------------------------------------------------

class WeightPower(str, Enum):
    """Mode weight in the Fourier-side entropy bound."""

    ABS_N = "abs_n"
    N_SQUARED = "n_squared"


@np.errstate(over="ignore", invalid="ignore")  # an overflowing bound raises below
def weissler_bound(series: FourierSeries, power: WeightPower | str) -> float:
    """Fourier-side upper bound on the entropy of a nonnegative function.

    Returns ``sum w(n) |a_n|^2 + M log sqrt(M)`` with ``M = sum |a_n|^2`` and
    ``w(n) = |n|`` or ``n^2``, the sum taken as 2 sum_{n>=1} over the a_0..a_{n_max}
    that synthesis reads. The coefficients and the entropy they bound both use the
    unit-mass measure on the circle, so M equals the squared L2 norm. M or the bound
    overflowing float64 raises InvalidInputError, an unknown power ParamOutOfRangeError.
    """
    try:
        power = WeightPower(power)
    except ValueError:
        raise ParamOutOfRangeError(f"unknown weight power {power!r:.40}") from None
    n = np.arange(1, series.n_max + 1)
    weights = n if power is WeightPower.ABS_N else n.astype(float) ** 2
    mode_term = 2.0 * float(weights @ (np.abs(series.half[1:]) ** 2))
    mass = series.mass()
    norm_term = 0.0 if mass == 0.0 else mass * 0.5 * math.log(mass)
    return _finite(mode_term + norm_term, "Fourier-side bound")


def weissler_report(series: FourierSeries, n: int) -> dict:
    """Weissler's Fourier-side check (Weissler 1980, Thm. 1) of ``series``: the entropy per
    unit length of its n-point synthesis, both :func:`weissler_bound` weights and the mass M.
    The bounds hold when entropy <= abs_n_bound <= n_squared_bound."""
    return {
        "entropy": entropy(from_fourier(series, n)) / series.circumference,
        "abs_n_bound": weissler_bound(series, WeightPower.ABS_N),
        "n_squared_bound": weissler_bound(series, WeightPower.N_SQUARED),
        "mass": series.mass(),
    }


# ---------------------------------------------------------------------------
# Wirtinger deficit
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _poincare_terms(f: GridFunction) -> tuple[float, float]:
    """``(integral (f')^2, integral (f - mean)^2)`` on a domain of length 1, unchecked: the two
    sides of the Poincare inequality, constant pi^2 on [0, 1] and 4 pi^2 on the unit circle."""
    values, mean = f.values, integrate(f)  # the mean: the length is 1
    (centered,) = _integrals(f.domain, f.n, lambda lo, hi: [np.square(values[lo:hi] - mean)])
    return dirichlet_energy(f), centered  # last, as in _log_sobolev_report: f is in cache


def wirtinger_deficit(f: GridFunction) -> float:
    """Deficit of pi^2 * integral (f - mean)^2 <= integral (f')^2 on [0, 1].

    Equality holds exactly in the direction cos(pi x).
    """
    if not is_unit_interval(f.domain):
        raise DomainMismatchError("Wirtinger deficit requires the domain [0, 1]")
    energy, centered = _poincare_terms(f)
    return _finite(energy - PI_SQUARED * centered, "Wirtinger deficit")


# ---------------------------------------------------------------------------
# Power-mean conjecture probe
# ---------------------------------------------------------------------------

def _check_q(q: float) -> None:
    message = f"q must lie in (1, 2], got {q!s:.40}"
    if _real(q, message, ParamOutOfRangeError, 1.0) > 2.0:
        raise ParamOutOfRangeError(message)


def _diaz_deficits(values: np.ndarray, d: np.ndarray, q_list: Sequence[float]) -> list[float]:
    """The power-mean deficit for each q of one function on [0, 1], from its clamped
    values and its derivative samples: one :func:`_integrals` walk serves all of q_list.

    Each right-hand integrand is ``values * values + (q - 1.0) * d * d /
    pi^2`` in that order of operations, built in one scratch array.
    """
    def integrands(lo, hi):  # one at a time, so each is summed before the next is built
        v, dv = values[lo:hi], d[lo:hi]
        square = v * v
        yield from (v**q for q in q_list)
        for q in q_list:
            scratch = (q - 1.0) * dv
            scratch *= dv
            scratch /= PI_SQUARED
            scratch += square
            yield np.sqrt(scratch, out=scratch)

    sums = _integrals(UNIT_INTERVAL, values.size, integrands)  # q_list's lhs, then its rhs
    return [r - m ** (1.0 / q) for q, m, r in zip(q_list, sums, sums[len(q_list):])]


def diaz_deficit(r: GridFunction, q: float) -> float:
    """Deficit of the conjectured bound
    ``(integral r^q)^(1/q) <= integral sqrt(r^2 + (q-1) (r')^2 / pi^2)``
    on [0, 1], for 1 < q <= 2.

    The inequality is open: a negative return value is a candidate
    counterexample, not an error.
    """
    if not is_unit_interval(r.domain):
        raise DomainMismatchError("power-mean deficit requires the domain [0, 1]")
    _check_q(q)
    return _diaz_deficits(_check_nonnegative(r.values), differentiate(r).values, [q])[0]
