"""Domains, sampled functions and Fourier representations.

This is the numerical substrate for everything else: uniform grids on
intervals (both endpoints included) and circles (wrap point excluded),
quadrature, differentiation, the closed-form sample families, and the
Fourier coefficients a_0..a_{n_max} of real periodic functions.

Conventions:
  * Interval grid:  x_i = a + i*(b-a)/(N-1), i = 0..N-1.
  * Circle grid:    x_i = i*L/N,             i = 0..N-1 (periodic).
  * Fourier coefficients use the unit-mass measure on the circle,
    a_n = (1/L) * integral of f(x) exp(-2*pi*i*n*x/L), so that
    sum |a_n|^2 equals (1/L) * integral of f^2 (Parseval).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from array import array
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidInputError,
    NotHermitianError,
    ParamOutOfRangeError,
    TruncationTooLargeError,
    UnknownFamilyError,
)

#: Smallest admissible sample count; keeps the five-point stencils well-defined.
MIN_SAMPLES = 16

#: Largest grid (and Fourier vector) lsilab allocates from outside input.
MAX_SAMPLES = 2**24

#: Conjugate-symmetry tolerance of two-sided Fourier data, relative to max(1, max|a_n|).
HERMITIAN_TOL = 1e-10

#: Tolerance used when an operation requires a specific domain geometry.
GEOM_TOL = 1e-12

#: What a derivative of finite samples that overflows float64 raises.
DERIVATIVE_OVERFLOW = "derivative overflows float64; rescale the input"

#: Nodes per block of the blocked quadrature sums (64 KiB of float64).
BLOCK = 8192


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidInputError("interval endpoints must be finite")
        if not self.a < self.b:
            raise InvalidInputError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Circle:
    """Circle of given circumference, coordinates in [0, circumference)."""

    circumference: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "circumference", float(self.circumference))
        if not (math.isfinite(self.circumference) and self.circumference > 0):
            raise InvalidInputError("circle circumference must be positive and finite")

    @property
    def length(self) -> float:
        return self.circumference


Domain = Union[Interval, Circle]

UNIT_INTERVAL = Interval(0.0, 1.0)
UNIT_CIRCLE = Circle(1.0)


def is_unit_interval(domain: Domain) -> bool:
    return (
        isinstance(domain, Interval)
        and abs(domain.a) <= GEOM_TOL
        and abs(domain.b - 1.0) <= GEOM_TOL
    )


def is_unit_circle(domain: Domain) -> bool:
    return isinstance(domain, Circle) and abs(domain.circumference - 1.0) <= GEOM_TOL


def grid_points(domain: Domain, n: int) -> np.ndarray:
    """Sample abscissae of the uniform grid with n points."""
    if isinstance(domain, Interval):
        return np.linspace(domain.a, domain.b, n)
    x = np.arange(n, dtype=float)  # exact: n <= MAX_SAMPLES
    x *= domain.circumference / n
    return x


class _Fresh(NamedTuple):
    """An array lsilab has just built that nobody else references, and what a NaN or inf raises."""

    array: np.ndarray
    nonfinite: str = "all sampled values must be finite"


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on the uniform grid of its domain.

    Immutable: the values are checked and marked read-only, so instances
    are safe to share across threads. A caller's array (or list) is
    copied on construction, and so is every array passed to
    :meth:`with_values`. The arrays lsilab builds for a new instance
    (derivatives, family samples, syntheses, transform outputs) arrive
    wrapped in ``_Fresh`` and are adopted instead: frozen where they are,
    with no copy, because nothing else holds them.
    """

    domain: Domain
    values: np.ndarray

    @classmethod
    def _adopt(cls, domain: Domain, values: np.ndarray) -> "GridFunction":
        """A GridFunction that owns ``values``, an array no one else references."""
        return cls(domain, _Fresh(values))

    def __post_init__(self):
        fresh = self.values if type(self.values) is _Fresh else _Fresh(np.array(self.values, float))
        v = np.asarray(fresh.array, dtype=float)
        if v.ndim != 1:
            raise InvalidInputError("values must be a one-dimensional array")
        if v.size < MIN_SAMPLES:
            raise InvalidInputError(
                f"need at least {MIN_SAMPLES} samples, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidInputError(fresh.nonfinite)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.domain, self.n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same domain and resolution, new samples."""
        values = np.asarray(values)
        if values.shape != self.values.shape:
            raise InvalidInputError("replacement values must keep the grid size")
        return GridFunction(self.domain, values)


def from_callable(domain: Domain, n: int, fn) -> GridFunction:
    """Sample a callable on the domain's grid."""
    return GridFunction(domain, fn(grid_points(domain, n)))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def quadrature_weights(domain: Domain, n: int) -> np.ndarray:
    """Weights w of the rule :func:`integrate` applies: w @ f.values is its integral up to rounding.

    Circle: the periodic trapezoid rule (spectrally accurate on smooth
    periodic integrands). Interval: composite Simpson, fourth order on
    both parities; when the panel count is odd, Simpson covers all but
    the last three panels, which Simpson's 3/8 rule closes.

    Every integral walks :func:`_blocks` but two: the interval Dirichlet energy squares a
    full derivative, and the optimizer's gradient weights every node.
    """
    if isinstance(domain, Circle):
        return np.full(n, domain.circumference / n)
    return _simpson_weights(domain, n, 0, n)


def _simpson_weights(domain: Interval, n: int, lo: int, hi: int) -> np.ndarray:
    """Entries lo, ..., hi - 1 of the interval's :func:`quadrature_weights`."""
    h = (domain.b - domain.a) / (n - 1)
    head, third = (n if n % 2 == 1 else n - 3), h / 3.0  # head: the odd-point Simpson portion
    w = np.full(hi - lo, 2.0 * third)
    w[(lo + 1) % 2::2] = 4.0 * third
    w[[j - lo for j in (0, head - 1) if lo <= j < hi]] = third
    w[max(head - lo, 0):] = 0.0
    for j in range(max(lo, n - 4), hi) if head != n else ():  # the 3/8 rule's nodes
        w[j - lo] += (1.0, 3.0, 3.0, 1.0)[j - (n - 4)] * (3.0 * h / 8.0)
    return w


def _blocks(domain: Domain, n: int) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """``(lo, hi, w)`` for each block of BLOCK nodes: w the Simpson weights of nodes lo..hi-1
    on intervals (the blocks between share one array), None on circles (the step L/n)."""
    w = None
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        if isinstance(domain, Interval) and not BLOCK < lo <= n - 4 - BLOCK:
            w = _simpson_weights(domain, n, lo, hi)
        yield lo, hi, w


def integrate(f: GridFunction) -> float:
    """Integral of f over its domain (trapezoid on circles, Simpson on intervals)."""
    return _integral(f.domain, f.values)


def _integral(domain: Domain, x: np.ndarray) -> float:
    """Sum over :func:`_blocks` of ``w @ x[lo:hi]``, or ``sum((L/n) * x[lo:hi])`` on circles."""
    step = domain.length / x.size
    return sum(float(np.sum(x[lo:hi] * step) if w is None else w @ x[lo:hi])
               for lo, hi, w in _blocks(domain, x.size))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def differentiate(f: GridFunction) -> GridFunction:
    """First derivative on the same grid.

    Circles use spectral differentiation: one ``irfft`` of the derivative
    spectrum ``rfft(v) * 2*pi*i*k/L`` (exact for band-limited data,
    Nyquist mode zeroed on even grids). Intervals use fourth-order
    finite differences: central stencils inside, and least-l1-norm
    closures at the two nodes nearest each end.

    All interval stencils are evaluated on differences of neighbouring
    samples rather than on the raw values; for smooth data those
    subtractions are (near) exact, which keeps the rounding noise of
    repeated differentiation close to the floor set by the float64
    representation of the samples themselves.

    A derivative of finite samples that overflows float64 raises
    :class:`InvalidInputError` instead of numpy's overflow warnings.
    """
    v = f.values
    if isinstance(f.domain, Circle):
        spectrum = np.fft.rfft(v)
        spectrum *= 2j * np.pi * np.fft.rfftfreq(f.n, d=f.domain.circumference / f.n)
        if f.n % 2 == 0:
            spectrum[-1] = 0.0  # the Nyquist mode's derivative is unrepresentable
        return GridFunction(f.domain, _Fresh(np.fft.irfft(spectrum, n=f.n), DERIVATIVE_OVERFLOW))

    h = (f.domain.b - f.domain.a) / (f.n - 1)
    d = np.empty_like(v)
    # interior: (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / 12h, in place
    inner = d[2:-2]
    np.subtract(v[3:-1], v[1:-3], out=inner)
    inner *= 8.0
    inner -= v[4:] - v[:-4]
    inner /= 12.0 * h
    d[0], d[1] = _closure_stencils(v, h)
    right_end, right_next = _closure_stencils(v[::-1], h)
    d[-1], d[-2] = -right_end, -right_next
    return GridFunction(f.domain, _Fresh(d, DERIVATIVE_OVERFLOW))


def _closure_stencils(v: np.ndarray, h: float) -> tuple[float, float]:
    """d[0] and d[1] of the samples v; negated on v[::-1], they give d[-1] and d[-2]."""
    # Boundary: least-l1-norm one-sided fourth-order stencil on nodes
    # {0,1,4,7,8}, coefficients (-85/56, 16/9, -7/18, 16/63, -1/8);
    # sum |c| = 4.06 versus 32/3 for the contiguous five-point stencil,
    # which keeps repeated differentiation of float64 samples near the
    # representation-noise floor.
    d0 = (
        16.0 / 9.0 * (v[1] - v[0])
        - 7.0 / 18.0 * (v[4] - v[0])
        + 16.0 / 63.0 * (v[7] - v[0])
        - 0.125 * (v[8] - v[0])
    ) / h
    # One node in: least-l1-norm fourth-order stencil on offsets {-1,1,2,4,5},
    # coefficients (-13/30, 1/12, 1/2, -7/30, 1/12); sum |c| = 4/3 versus 19/6
    # for the contiguous five-point choice.
    d1 = (
        -13.0 / 30.0 * (v[0] - v[1])
        + 1.0 / 12.0 * (v[2] - v[1])
        + 0.5 * (v[3] - v[1])
        - 7.0 / 30.0 * (v[5] - v[1])
        + 1.0 / 12.0 * (v[6] - v[1])
    ) / h
    return d0, d1


# ---------------------------------------------------------------------------
# Fourier representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierSeries:
    """Coefficients a_0..a_{n_max} of a real-valued periodic function.

    ``half[n]`` stores a_n; a_{-n} = conj(a_n) is implied, so a non-real a_0 raises
    NotHermitianError. Two-sided data is checked for that symmetry where it enters, in
    :func:`fourier_from_dict`. Arrays are copied or adopted as in :class:`GridFunction`.
    """

    circumference: float
    half: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.circumference) and self.circumference > 0):
            raise InvalidInputError("circumference must be positive and finite")
        c = self.half.array if type(self.half) is _Fresh else np.array(self.half, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise InvalidInputError("half must be a nonempty vector a_0..a_{n_max}")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("coefficients must be finite")
        if c[0].imag != 0.0:
            raise NotHermitianError(f"a_0 must be real, got imaginary part {c[0].imag:.3e}")
        c.setflags(write=False)
        object.__setattr__(self, "half", c)

    @property
    def n_max(self) -> int:
        return self.half.size - 1

    def coefficient(self, n: int) -> complex:
        if abs(n) > self.n_max:
            return 0.0 + 0.0j
        return complex(self.half[n]) if n >= 0 else complex(self.half[-n]).conjugate()

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing norm raises below
    def mass(self) -> float:
        """The squared L2 norm |a_0|^2 + 2 sum_{n>=1} |a_n|^2, summed as 2 sum_{n>=0} - |a_0|^2.
        Raises InvalidInputError when it overflows float64."""
        mass = float(2.0 * np.sum(np.abs(self.half) ** 2) - abs(self.half[0]) ** 2)
        if not math.isfinite(mass):
            raise InvalidInputError("squared L2 norm overflows float64; rescale the input")
        return mass


def fourier_from_dict(circumference: float, entries: dict[int, complex]) -> FourierSeries:
    """Build a series from a sparse two-sided {n: a_n} mapping; 2*max|n| + 1 <= MAX_SAMPLES.

    NotHermitianError unless |a_{-n} - conj(a_n)| <= HERMITIAN_TOL * max(1, max|a_n|)
    for every n, a missing entry being 0. Keeps a_n for n >= 0, with a_0 made real."""
    if not entries:
        raise InvalidInputError("need at least one coefficient")
    n_max = max(abs(n) for n in entries)
    if 2 * n_max + 1 > MAX_SAMPLES:
        raise TruncationTooLargeError(
            f"mode |n| = {n_max} needs {2 * n_max + 1} coefficients, more than {MAX_SAMPLES}"
        )
    modes = list({abs(n) for n in entries})
    pairs = np.array([(entries.get(k, 0), entries.get(-k, 0)) for k in modes], dtype=complex)
    if not np.all(np.isfinite(pairs)):
        raise InvalidInputError("coefficients must be finite")
    # on components scaled to at most 1, neither the defect nor the threshold can overflow
    scale = max(1.0, float(np.max(np.abs(pairs.view(float)))))
    defect = float(np.max(np.abs(pairs[:, 1] / scale - np.conj(pairs[:, 0] / scale))))
    if defect > HERMITIAN_TOL * max(1.0, float(np.max(np.abs(pairs / scale)))):
        raise NotHermitianError(f"conjugate-symmetry defect {defect * scale:.3e}")
    half = np.zeros(n_max + 1, dtype=complex)
    half[modes] = pairs[:, 0]
    half[0] = half[0].real
    return FourierSeries(circumference, _Fresh(half))


def to_fourier(f: GridFunction, n_max: int) -> FourierSeries:
    """Coefficients a_n = (1/L) * integral f(x) exp(-2*pi*i*n*x/L) dx.

    Computed with the periodic trapezoid rule as one real FFT: a_n is ``rfft(v)[n] / N``.
    """
    if not isinstance(f.domain, Circle):
        raise DomainMismatchError("Fourier analysis needs a circle domain")
    if n_max < 0:
        raise ParamOutOfRangeError("n_max must be nonnegative")
    if 2 * n_max + 1 > f.n:
        raise TruncationTooLargeError(
            f"2*n_max + 1 = {2 * n_max + 1} exceeds the {f.n} grid samples"
        )
    return FourierSeries(f.domain.circumference, _Fresh(np.fft.rfft(f.values)[: n_max + 1] / f.n))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing synthesis raises below
def from_fourier(series: FourierSeries, n: int) -> GridFunction:
    """Pointwise synthesis on the n-point periodic grid: ``n * irfft`` of
    a_0..a_{n_max}, the real FFT taking a_{-n} to be conj(a_n). Raises
    InvalidInputError when the samples overflow float64."""
    if n < 2 * series.n_max + 1:
        raise TruncationTooLargeError(
            f"need n >= {2 * series.n_max + 1} samples to hold modes up to {series.n_max}"
        )
    values = np.fft.irfft(series.half, n)
    values *= n  # the IEEE product n * irfft, in place
    return GridFunction(Circle(series.circumference),
                        _Fresh(values, "Fourier synthesis overflows float64; rescale the input"))


# ---------------------------------------------------------------------------
# Closed-form sample families
# ---------------------------------------------------------------------------

class Family(str, Enum):
    """Named closed-form families used throughout the experiments."""

    CONSTANT = "constant"
    COSINE_MODE = "cosine_mode"
    SHARPNESS = "sharpness"
    WANG = "wang"
    RANDOM_TRIG = "random_trig"


def _require_unit_interval(domain: Domain, family: Family) -> None:
    if not is_unit_interval(domain):
        raise DomainMismatchError(f"family {family.value} requires the interval [0, 1]")


def sample_family(
    family: Family | str,
    params: Sequence[float],
    domain: Domain,
    n: int,
) -> GridFunction:
    """Exact samples of a named closed-form family.

    Families and parameters:
      CONSTANT     [c]            constant c on any domain
      COSINE_MODE  [k]            cos(k*pi*u) on intervals, cos(2*pi*k*u)
                                  on circles, u the normalized coordinate
      SHARPNESS    [eps]          sqrt(1 - eps^2) + sqrt(2)*eps*cos(pi*x)
                                  on [0, 1], 0 < eps < 1
      WANG         [eps]          exp(-eps*cos(pi*x)) on [0, 1], 0 < eps < 1
      RANDOM_TRIG  [seed, modes]  trigonometric polynomial with N(0,1)/k^2
                                  coefficients drawn from the seed

    Integer parameters (k, seed, modes) must be finite whole numbers, and
    modes <= MAX_SAMPLES; anything else raises ParamOutOfRangeError.

    RANDOM_TRIG draws c_0 and then, for k = 1..modes, one coefficient c_k on
    intervals or a pair (alpha_k, beta_k) on circles, all N(0, 1) from
    ``default_rng(seed)``. On an interval it samples the cosine series
    c_0 + sum c_k cos(k*pi*u) / k^2. On a circle it is the Fourier series
    a_0 = c_0, a_k = (alpha_k - i*beta_k) / (2 k^2), that is
    c_0 + sum (alpha_k cos(2*pi*k*u) + beta_k sin(2*pi*k*u)) / k^2,
    synthesized by :func:`from_fourier`; so a circle needs 2*modes + 1 <= n,
    or TruncationTooLargeError is raised before anything is drawn.
    """
    try:
        family = Family(family)
    except ValueError:
        raise UnknownFamilyError(f"unknown family {family!r}") from None
    params = list(params)

    if family is Family.CONSTANT:
        (c,) = _family_params(family, params, 1)
        if not math.isfinite(c):
            raise ParamOutOfRangeError("constant must be finite")
        return GridFunction._adopt(domain, np.full(n, c))

    if family is Family.COSINE_MODE:
        (k,) = _family_params(family, params, 1)
        mode = _whole(k, 1, "cosine mode index must be an integer >= 1")
        u = _unit_coordinate(domain, n)
        u *= math.pi * mode if isinstance(domain, Interval) else 2.0 * math.pi * mode
        return GridFunction._adopt(domain, np.cos(u, out=u))

    if family is Family.SHARPNESS:
        (eps,) = _family_params(family, params, 1)
        _check_eps(eps)
        _require_unit_interval(domain, family)
        cos_pi_x = _cos_pi_x(domain, n)
        return GridFunction._adopt(domain, _sharpness_values(eps, cos_pi_x, out=cos_pi_x))

    if family is Family.WANG:
        (eps,) = _family_params(family, params, 1)
        _check_eps(eps)
        _require_unit_interval(domain, family)
        values = _cos_pi_x(domain, n)
        values *= -eps
        return GridFunction._adopt(domain, np.exp(values, out=values))

    # RANDOM_TRIG
    seed, modes = _family_params(family, params, 2)
    seed_i = _whole(seed, 0, "seed must be a nonnegative integer")
    modes_i = _whole(modes, 1, "mode count must be an integer >= 1")
    if modes_i > MAX_SAMPLES:
        raise ParamOutOfRangeError(f"mode count must be at most {MAX_SAMPLES}, got {modes_i}")
    if isinstance(domain, Circle) and 2 * modes_i + 1 > n:
        raise TruncationTooLargeError(
            f"2*modes + 1 = {2 * modes_i + 1} exceeds the {n} grid samples"
        )
    rng = np.random.default_rng(seed_i)
    if isinstance(domain, Circle):
        # one draw gives the same numbers as drawing c_0 and then each pair in turn
        draws = rng.standard_normal(2 * modes_i + 1)
        half = np.empty(modes_i + 1, dtype=complex)
        half[0] = draws[0]
        half[1:] = draws[1::2] - 1j * draws[2::2]
        half[1:] /= 2.0 * np.arange(1, modes_i + 1, dtype=float) ** 2
        return from_fourier(FourierSeries(domain.circumference, _Fresh(half)), n)
    # Cosine-only series: derivative vanishes at both endpoints, which
    # keeps the even reflection of these samples smooth.
    u = _unit_coordinate(domain, n)
    values = np.full(n, rng.standard_normal())
    for k in range(1, modes_i + 1):
        values += rng.standard_normal() / k**2 * np.cos(k * math.pi * u)
    return GridFunction._adopt(domain, values)


def _cos_pi_x(domain: Domain, n: int) -> np.ndarray:
    """cos(pi x) on the grid of ``domain``, evaluated in one array."""
    values = grid_points(domain, n)
    return np.cos(np.multiply(values, math.pi, out=values), out=values)


def _sharpness_values(eps: float, cos_pi_x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(1 - eps^2) + sqrt(2) eps cos(pi x) from cos(pi x), in ``out`` or a new array."""
    values = np.multiply(cos_pi_x, math.sqrt(2.0) * eps, out=out)
    values += math.sqrt(1.0 - eps * eps)
    return values


def _unit_coordinate(domain: Domain, n: int) -> np.ndarray:
    """The grid mapped onto [0, 1]: (x - a) / L on intervals, x / L on circles."""
    u = grid_points(domain, n)
    if isinstance(domain, Interval):
        u -= domain.a
    u /= domain.length
    return u


def _family_params(family: Family, params: list[float], count: int) -> list[float]:
    if len(params) != count:
        raise ParamOutOfRangeError(
            f"family {family.value} takes {count} parameter(s), got {len(params)}"
        )
    return params


def _whole(value: float, least: int, message: str) -> int:
    """``value`` as an int, or ParamOutOfRangeError(message) unless it is a whole number >= least."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, nan
        raise ParamOutOfRangeError(message) from None
    if whole != value or whole < least:
        raise ParamOutOfRangeError(message)
    return whole


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ParamOutOfRangeError(f"eps must lie in (0, 1), got {eps}")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_grid_csv(f: GridFunction, path: str | Path) -> None:
    """CSV with header ``x,value``; circle grids omit the wrap point.

    Numbers are written by ``repr``: numpy's string casts give the same
    bytes but ran 1.6-1.8x slower than this loop.
    """
    with open(path, "w", newline="") as handle:
        handle.write("x,value\n")
        handle.writelines(f"{xi!r},{vi!r}\n" for xi, vi in zip(f.x.tolist(), f.values.tolist()))


def read_grid_csv(path: str | Path, kind: str) -> GridFunction:
    """Parse a grid CSV; ``kind`` is ``interval`` or ``circle``.

    The x column must be the uniform grid implied by the domain kind;
    malformed rows are reported with their line number. Blank rows are
    skipped. The file must be UTF-8 text with at most MAX_SAMPLES data
    rows; parsing stops after data row MAX_SAMPLES + 1.

    A plain file is parsed in bulk by one ``np.loadtxt`` call (see
    :func:`_read_plain`). Any other file is read again from the start,
    record by record, by the csv module (:func:`_read_rows`), which
    decides what a grid CSV may hold and words every error. Both convert
    each field with the routine behind ``float()``, so the samples agree
    bit for bit.
    """
    if kind not in ("interval", "circle"):
        raise InvalidInputError(f"unknown domain kind {kind!r}")
    with open(path, newline="", encoding="utf-8") as handle:
        samples = _read_plain(handle)
        if samples is None:
            handle.seek(0)
            samples = _read_rows(path, handle)
    n = len(samples)
    if n > MAX_SAMPLES:
        raise InvalidInputError(f"{path}: more than {MAX_SAMPLES} rows")
    if n < MIN_SAMPLES:
        raise InvalidInputError(f"{path}: need at least {MIN_SAMPLES} rows, got {n}")
    x, values = samples[:, 0], samples[:, 1]
    try:
        if kind == "interval":
            domain: Domain = Interval(x[0], x[-1])
        else:
            step = float(x[1]) - float(x[0])  # Python floats overflow to inf without a warning
            if step <= 0:
                raise InvalidInputError("x column must be increasing")
            domain = Circle(step * n)
        expected = grid_points(domain, n)
        if not np.allclose(x, expected, rtol=0.0, atol=1e-9 * max(1.0, domain.length)):
            raise InvalidInputError(f"x column is not the uniform {kind} grid")
        return GridFunction(domain, values)
    except InvalidInputError as exc:  # the domain's and the samples' own checks name no file
        raise InvalidInputError(f"{path}: {exc}") from None


#: Characters of whole lines that the bulk parse reads at a time.
_CHUNK_CHARS = 1 << 16

#: The ASCII separators: whitespace to ``np.loadtxt``, part of the number to ``float()``.
_FIELD_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _read_plain(handle: TextIO) -> np.ndarray | None:
    """The (n, 2) samples of a plain grid CSV, or None if the file is not plain.

    Plain means: the header line is ``x,value`` (spaces allowed) or exactly
    ``"x","value"``; every later line is one record of two finite numbers,
    none blank; no line is longer than the csv module's field limit; and
    no line holds one of :data:`_FIELD_SEPARATORS`. On such a file the csv
    module finds the same records and ``float()`` the same numbers.
    """
    limit = csv.field_size_limit()
    lines = 0

    def chunks():
        nonlocal lines
        while chunk := handle.readlines(_CHUNK_CHARS):
            text = "".join(chunk)
            if any(c in text for c in _FIELD_SEPARATORS) or (
                len(text) > limit and max(map(len, chunk)) > limit
            ):
                raise ValueError("not a plain grid CSV")
            lines += len(chunk)
            yield chunk

    try:
        header = handle.readline()
        if len(header) > limit or not (
            [c.strip() for c in header.split(",")] == ["x", "value"]
            or header.rstrip("\r\n") == '"x","value"'
        ):
            return None
        with warnings.catch_warnings():
            # "input contained no data", and a blank line under max_rows
            warnings.simplefilter("error", UserWarning)
            samples = np.loadtxt(
                itertools.chain.from_iterable(chunks()),
                delimiter=",", comments=None, quotechar='"', dtype=float,
                ndmin=2, max_rows=MAX_SAMPLES + 1,
            )
    except (ValueError, UserWarning):  # a UnicodeDecodeError is a ValueError
        return None
    if lines == len(samples) and samples.shape[1] == 2 and np.isfinite(samples).all():
        return samples
    return None


def _read_rows(path: str | Path, handle: TextIO) -> np.ndarray:
    """The (n, 2) samples of a grid CSV, read record by record with the csv module.

    Up to data row MAX_SAMPLES + 1 it reads everything before it reports a
    bad record: a file that is not UTF-8 or that the csv module cannot
    split is named first, then a bad header, then the first bad data row.
    Lines are numbered by record.
    """
    reader = csv.reader(handle)
    problem = None
    samples = array("d")
    try:
        header = next(reader, None)
        if header is not None and [c.strip() for c in header] != ["x", "value"]:
            problem = "line 1: expected header 'x,value'"
        data = ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)
        for lineno, row in itertools.islice(data, MAX_SAMPLES + 1):
            if problem:
                continue
            if len(row) != 2:
                problem = f"line {lineno}: expected 2 fields, got {len(row)}"
                continue
            try:
                samples.extend(map(float, row))
            except ValueError:
                problem = f"line {lineno}: non-numeric field"
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not a UTF-8 text file") from None
    except csv.Error as exc:
        raise InvalidInputError(f"{path}: line {reader.line_num}: {exc}") from None
    if problem:
        raise InvalidInputError(f"{path}: {problem}")
    return np.frombuffer(samples).reshape(-1, 2)


def write_json(payload: dict, path: str | Path) -> None:
    """Every JSON output of lsilab: two-space indent, sorted keys, final newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv(header: str, rows: Iterable[Sequence], path: str | Path) -> None:
    """Every tabular CSV report of lsilab: a header line, then one line per row
    whose numbers are written as ``repr(float(x))`` and strings as they are."""
    with open(path, "w") as handle:
        handle.write(header + "\n")
        handle.writelines(
            ",".join(x if isinstance(x, str) else repr(float(x)) for x in row) + "\n" for row in rows
        )


def write_fourier_json(series: FourierSeries, path: str | Path) -> None:
    """JSON form ``{circumference, coefficients: [{n, re, im}]}``."""
    payload = {
        "circumference": series.circumference,
        "coefficients": [
            {"n": n, "re": float(series.coefficient(n).real), "im": float(series.coefficient(n).imag)}
            for n in range(-series.n_max, series.n_max + 1)
        ],
    }
    write_json(payload, path)


def read_fourier_json(path: str | Path) -> FourierSeries:
    """Parse the UTF-8 JSON of :func:`write_fourier_json`; each mode index
    must be a JSON integer of size at most MAX_SAMPLES, given once."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except UnicodeDecodeError:
            raise InvalidInputError(f"{path}: not a UTF-8 text file") from None
        except (ValueError, RecursionError) as exc:
            raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None
    try:
        circumference = float(payload["circumference"])
        entries = {}
        for item in payload["coefficients"]:
            n = item["n"]
            if type(n) is not int or abs(n) > MAX_SAMPLES:
                raise InvalidInputError(
                    f"{path}: mode index {n!r:.40} is not an integer in "
                    f"[-{MAX_SAMPLES}, {MAX_SAMPLES}]"
                )
            if n in entries:
                raise InvalidInputError(f"{path}: duplicate mode index {n}")
            entries[n] = complex(float(item["re"]), float(item["im"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{path}: malformed Fourier series payload: {exc}") from None
    return fourier_from_dict(circumference, entries)
