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
import numbers
import os
import warnings
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO, Union

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

#: Rows per write of :func:`write_csv`: one block's cells hold under half a MiB.
CSV_BLOCK = 1024


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b], a < b; an endpoint that is not a finite real raises InvalidInputError."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _real(self.a, "interval endpoints must be finite"))
        object.__setattr__(self, "b", _real(self.b, "interval endpoints must be finite"))
        if not self.a < self.b:
            raise InvalidInputError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Circle:
    """Circle of given circumference, coordinates in [0, circumference); a circumference
    that is not a positive finite real raises InvalidInputError."""

    circumference: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "circumference", _real(
            self.circumference, "circle circumference must be positive and finite", low=0.0))

    @property
    def length(self) -> float:
        return self.circumference


Domain = Union[Interval, Circle]


def _check_size(n: int, least: int = 1, limit: int = MAX_SAMPLES) -> int:
    """``n`` as an int, or ParamOutOfRangeError unless it is a whole number in [least, limit].

    Every sample count is checked here before anything is allocated. ``limit`` is bound
    at import, so a test that lowers ``MAX_SAMPLES`` to reach the CSV reader's row cap
    can still sample a longer fixture.
    """
    n = _whole(n, least, f"need an integer n >= {least}, got {n!s:.40}")
    if n > limit:
        raise ParamOutOfRangeError(f"need n <= {limit} samples, got {n!s:.40}")
    return n


def _whole(value: float, least: float, message: str) -> int:
    """``value`` as an int, or ParamOutOfRangeError(message) unless it is a whole number >= least:
    None, a string, a complex number, inf and nan fail like 2.5. Every count lsilab takes is
    checked here."""
    if isinstance(value, np.complexfloating):  # int() would warn, then drop the imaginary part
        raise ParamOutOfRangeError(message)
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):  # inf, nan, None
        raise ParamOutOfRangeError(message) from None
    if whole != value or whole < least:
        raise ParamOutOfRangeError(message)
    return whole


def _real(value, message: str, error: type[Exception] = InvalidInputError,
          low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float, or error(message) unless it is a ``numbers.Real`` in the open interval
    (low, high), so finite (10**400 is not): every real lsilab takes or checks for overflow."""
    try:
        if isinstance(value, numbers.Real) and low < (value := float(value)) < high:
            return value
    except OverflowError:
        pass
    raise error(message)


def _samples(values, kinds: str, message: str, error: type[Exception] = InvalidInputError,
             shape=(None, ""), nonfinite: str | None = None) -> np.ndarray:
    """``values`` as a float64 (complex128 if ``kinds`` has "c") array: a copy, or a ``_Fresh``
    array where it is. error(message) unless it converts to an array of a dtype kind in ``kinds``
    (ragged lists, strings and objects do not); error(shape[1]) first unless shape[0](array); and
    error(the _Fresh message, else nonfinite, else message) unless one isfinite pass holds."""
    fresh = type(values) is _Fresh
    try:
        array = values.array if fresh else np.array(values)
    except (TypeError, ValueError):  # a ragged list
        raise error(message) from None
    if shape[0] and not shape[0](array):
        raise error(shape[1])
    if array.dtype.kind not in kinds:
        raise error(message)
    array = array.astype(complex if "c" in kinds else float, copy=False)
    if not np.isfinite(array).all():
        raise error(fresh and values.nonfinite or nonfinite or message)
    return array


def _listed(values, message: str) -> list:
    """``list(values)``, or ParamOutOfRangeError(message) unless values is iterable."""
    try:
        return list(values)
    except TypeError:
        raise ParamOutOfRangeError(message) from None


def _open(path, mode: str = "r", **options) -> TextIO:
    """``open`` on a path ``os.fspath`` takes; InvalidInputError on any other (an int is no fd)."""
    try:
        return open(os.fspath(path), mode, **options)
    except (TypeError, ValueError) as exc:  # not path-like, or a NUL character
        raise InvalidInputError(f"bad path {path!r:.40}: {exc}") from None


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
    """Sample abscissae of the uniform grid with n points, n a whole number in [1, MAX_SAMPLES]."""
    return _grid(domain, _check_size(n))


def _grid(domain: Domain, n: int) -> np.ndarray:
    """:func:`grid_points` without the size check, for the grid of a GridFunction that exists."""
    if isinstance(domain, Interval):
        return np.linspace(domain.a, domain.b, n)
    x = np.arange(n, dtype=float)  # exact: n < 2**53
    x *= domain.circumference / n
    return x


class _Fresh(NamedTuple):
    """An array lsilab just built that nobody else references, and what a NaN or inf raises
    if not the constructor's own message."""

    array: np.ndarray
    nonfinite: str | None = None


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled on the uniform grid of its domain.

    Immutable: the values are checked and marked read-only, so instances
    are safe to share across threads. A caller's array (or list) is
    copied on construction, and so is every array passed to
    :meth:`with_values`. The arrays lsilab builds for a new instance
    (derivatives, family samples, syntheses, transform outputs) arrive
    wrapped in ``_Fresh`` and are adopted instead: frozen where they are,
    with no copy, because nothing else holds them. InvalidInputError refuses
    a domain that is not an Interval or a Circle, and values that are not a
    vector of at least MIN_SAMPLES finite real numbers.
    """

    domain: Domain
    values: np.ndarray

    @classmethod
    def _adopt(cls, domain: Domain, values: np.ndarray) -> "GridFunction":
        """A GridFunction that owns ``values``, an array no one else references."""
        return cls(domain, _Fresh(values))

    def __post_init__(self):
        if not isinstance(self.domain, (Interval, Circle)):
            raise InvalidInputError("domain must be an Interval or a Circle")
        v = _samples(self.values, "biuf", "values must be real numbers",
                     nonfinite="all sampled values must be finite")
        if v.ndim != 1:
            raise InvalidInputError("values must be a one-dimensional array")
        if v.size < MIN_SAMPLES:
            raise InvalidInputError(
                f"need at least {MIN_SAMPLES} samples, got {v.size}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return _grid(self.domain, self.n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same domain and resolution, new samples, checked as the constructor checks them."""
        f = GridFunction(self.domain, values)
        if f.n != self.n:
            raise InvalidInputError("replacement values must keep the grid size")
        return f


def from_callable(domain: Domain, n: int, fn) -> GridFunction:
    """Sample a callable on the domain's grid; n is checked as in :func:`grid_points`."""
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

    Every integral is one :func:`_integrals` walk but two: the interval Dirichlet energy
    squares a full derivative, and the optimizer's gradient weights every node.
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


def integrate(f: GridFunction) -> float:
    """Integral of f over its domain (trapezoid on circles, Simpson on intervals)."""
    return _integrals(f.domain, f.n, lambda lo, hi: [f.values[lo:hi]])[0]


def _integrals(domain: Domain, n: int, integrands) -> list[float]:
    """The integrals of the arrays ``integrands(lo, hi)`` gives for each block of BLOCK nodes, in
    order: each adds ``w @ x``, w its Simpson weights (one array for the middle blocks), or on
    circles ``sum(x * (L/n))``, scaled in place when writable: a writable integrand is overwritten."""
    step, totals, w = domain.length / n, itertools.repeat(0.0), None
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        if isinstance(domain, Interval) and not BLOCK < lo <= n - 4 - BLOCK:
            w = _simpson_weights(domain, n, lo, hi)
        totals = [t + float(np.sum(np.multiply(x, step, out=x if x.flags.writeable else None))
                            if w is None else w @ x) for t, x in zip(totals, integrands(lo, hi))]
    return totals


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
    InvalidInputError refuses a circumference as :class:`Circle` does, and a ``half`` that is
    not a nonempty vector of finite numbers.
    """

    circumference: float
    half: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "circumference", _real(
            self.circumference, "circumference must be positive and finite", low=0.0))
        c = _samples(self.half, "biufc", "coefficients must be finite", shape=(
            lambda c: c.ndim == 1 and c.size > 0, "half must be a nonempty vector a_0..a_{n_max}"))
        if c[0].imag != 0.0:
            raise NotHermitianError(f"a_0 must be real, got imaginary part {c[0].imag:.3e}")
        c.setflags(write=False)
        object.__setattr__(self, "half", c)

    @property
    def n_max(self) -> int:
        return self.half.size - 1

    def coefficient(self, n: int) -> complex:
        n = _whole(n, -math.inf, "mode indices must be integers")
        if abs(n) > self.n_max:
            return 0.0 + 0.0j
        return complex(self.half[n]) if n >= 0 else complex(self.half[-n]).conjugate()

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing norm raises below
    def mass(self) -> float:
        """The squared L2 norm |a_0|^2 + 2 sum_{n>=1} |a_n|^2, summed as 2 sum_{n>=0} - |a_0|^2.
        Raises InvalidInputError when it overflows float64."""
        return _real(2.0 * np.sum(np.abs(self.half) ** 2) - abs(self.half[0]) ** 2,
                     "squared L2 norm overflows float64; rescale the input")


def fourier_from_dict(circumference: float, entries: dict[int, complex]) -> FourierSeries:
    """Build a series from a sparse two-sided {n: a_n} mapping; 2*max|n| + 1 <= MAX_SAMPLES.

    InvalidInputError unless ``entries`` is a nonempty mapping to finite numbers (and the
    circumference positive and finite), ParamOutOfRangeError unless every n is a whole number,
    and NotHermitianError unless |a_{-n} - conj(a_n)| <= HERMITIAN_TOL * max(1, max|a_n|) for
    every n, a missing entry being 0. Keeps a_n for n >= 0, with a_0 made real."""
    if not isinstance(entries, Mapping):
        raise InvalidInputError(f"entries must be a mapping {{n: a_n}}, got {type(entries).__name__}")
    if not entries:
        raise InvalidInputError("need at least one coefficient")
    modes = list({abs(_whole(n, -math.inf, "mode indices must be integers")) for n in entries})
    n_max = max(modes)
    if 2 * n_max + 1 > MAX_SAMPLES:
        raise TruncationTooLargeError(
            f"mode |n| = {n_max} needs {2 * n_max + 1} coefficients, more than {MAX_SAMPLES}"
        )
    finite = "coefficients must be finite"
    pairs = _samples([(entries.get(k, 0), entries.get(-k, 0)) for k in modes], "biufc", finite,
                     shape=(lambda p: p.ndim == 2, finite))  # one number per a_n, not a vector
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
    n_max = _whole(n_max, 0, "n_max must be a nonnegative integer")
    if 2 * n_max + 1 > f.n:
        raise TruncationTooLargeError(
            f"2*n_max + 1 = {2 * n_max + 1} exceeds the {f.n} grid samples"
        )
    return FourierSeries(f.domain.circumference, _Fresh(np.fft.rfft(f.values)[: n_max + 1] / f.n))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing synthesis raises below
def from_fourier(series: FourierSeries, n: int) -> GridFunction:
    """Pointwise synthesis on the n-point periodic grid: ``n * irfft`` of
    a_0..a_{n_max}, the real FFT taking a_{-n} to be conj(a_n). Raises
    ParamOutOfRangeError unless n is a whole number in [1, MAX_SAMPLES],
    before anything is allocated, and InvalidInputError when the samples
    overflow float64."""
    n = _check_size(n)
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

    COSINE_MODE, SHARPNESS and WANG take their cosine from :func:`_harmonic`.
    Integer parameters (k, seed, modes) must be finite whole numbers, and
    modes <= MAX_SAMPLES; anything else raises ParamOutOfRangeError. So does
    an n that is not a whole number in [1, MAX_SAMPLES], before anything is
    allocated.

    RANDOM_TRIG draws c_0 and then, for k = 1..modes, one coefficient c_k on intervals or a pair
    (alpha_k, beta_k) on circles, all N(0, 1) from ``default_rng(seed)``. On an interval it
    samples the cosine series c_0 + sum c_k cos(k*pi*u) / k^2, one row of the kernel that
    :func:`diaz_probe` runs on batches of at most 2**15 samples, each row with the bytes of this
    call. On a circle it is the Fourier series a_0 = c_0, a_k = (alpha_k - i*beta_k) / (2 k^2),
    that is c_0 + sum (alpha_k cos(2*pi*k*u) + beta_k sin(2*pi*k*u)) / k^2, synthesized by
    :func:`from_fourier`. The grid must resolve every mode: a circle needs 2*modes + 1 <= n and
    an interval modes <= n - 1, beyond which cos(k*pi*u) on n nodes aliases onto 2(n - 1) - k.
    Otherwise TruncationTooLargeError is raised before anything is drawn.
    """
    try:
        family = Family(family)
    except ValueError:
        raise UnknownFamilyError(f"unknown family {family!r:.40}") from None
    n = _check_size(n)
    params = _listed(params, f"family {family.value} takes a list of parameters")

    if family is Family.CONSTANT:
        (c,) = _family_params(family, params, 1)
        c = _real(c, "constant must be finite", ParamOutOfRangeError)
        return GridFunction._adopt(domain, np.full(n, c))

    if family is Family.COSINE_MODE:
        (k,) = _family_params(family, params, 1)
        mode = _whole(k, 1, "cosine mode index must be an integer >= 1")
        return GridFunction._adopt(domain, _harmonic(domain, n, mode))

    if family in (Family.SHARPNESS, Family.WANG):
        (eps,) = _family_params(family, params, 1)
        eps = _check_eps(eps)
        if not is_unit_interval(domain):
            raise DomainMismatchError(f"family {family.value} requires the interval [0, 1]")
        values = _harmonic(domain, n, 1)  # cos(pi x)
        if family is Family.SHARPNESS:
            return GridFunction._adopt(domain, _sharpness_values(eps, values, out=values))
        values *= -eps
        return GridFunction._adopt(domain, np.exp(values, out=values))

    # RANDOM_TRIG
    draws = _random_trig_draws(domain, *_family_params(family, params, 2), n)
    if isinstance(domain, Circle):
        half = np.concatenate([draws[:1], draws[1::2] - 1j * draws[2::2]])
        half[1:] /= 2.0 * np.arange(1, half.size, dtype=float) ** 2
        return from_fourier(FourierSeries(domain.circumference, _Fresh(half)), n)
    return GridFunction._adopt(domain, _cosine_series(domain, draws[None], n)[0])


def _random_trig_draws(domain: Domain, seed: int, modes: int, n: int) -> np.ndarray:
    """The checked draws of RANDOM_TRIG [seed, modes] on n nodes; see :func:`sample_family`."""
    seed = _whole(seed, 0, "seed must be a nonnegative integer")
    modes = _check_modes(domain, modes, n)
    size = modes + 1 if isinstance(domain, Interval) else 2 * modes + 1
    return np.random.default_rng(seed).standard_normal(size)


def _check_modes(domain: Domain, modes: int, n: int) -> int:
    """``modes`` as an int, checked to be a whole number in [1, MAX_SAMPLES] that n nodes resolve."""
    modes = _whole(modes, 1, "mode count must be an integer >= 1")
    if modes > MAX_SAMPLES:
        raise ParamOutOfRangeError(f"mode count must be at most {MAX_SAMPLES}, got {modes!s:.40}")
    if isinstance(domain, Interval) and modes > n - 1:
        raise TruncationTooLargeError(
            f"modes = {modes} exceeds n - 1 = {n - 1}; higher cosines alias on {n} samples")
    if isinstance(domain, Circle) and 2 * modes + 1 > n:
        raise TruncationTooLargeError(f"2*modes + 1 = {2 * modes + 1} exceeds the {n} grid samples")
    return modes


def _cosine_series(domain: Interval, draws: np.ndarray, n: int) -> np.ndarray:
    """c_0 + sum_k c_k cos(k*pi*u) / k^2 on the grid, one row per row (c_0..c_modes) of ``draws``.
    Each cos(k*pi*u) is evaluated once for all rows; every row equals a one-row call bit for bit.
    Cosine-only, so the derivative vanishes at both endpoints and the even reflection is smooth."""
    u = _unit_coordinate(domain, n)
    values = np.repeat(draws[:, :1], n, axis=1)
    for k in range(1, draws.shape[1]):
        cos_k = np.cos(k * math.pi * u)
        for row, c in zip(values, draws[:, k] / k**2):
            row += c * cos_k
    return values


def _harmonic(domain: Domain, n: int, k: int, sine: bool = False) -> np.ndarray:
    """cos (or sin) of k*pi*u on intervals and of 2*pi*k*u on circles, u the unit coordinate, in one
    fresh array: every closed-form harmonic on a grid but the batched :func:`_cosine_series`'s."""
    u = _unit_coordinate(domain, n)
    u *= math.pi * k if isinstance(domain, Interval) else 2.0 * math.pi * k
    return (np.sin if sine else np.cos)(u, out=u)  # looked up per call, so tests can count them


def _sharpness_values(eps: float, cos_pi_x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(1 - eps^2) + sqrt(2) eps cos(pi x) from cos(pi x), in ``out`` or a new array."""
    values = np.multiply(cos_pi_x, math.sqrt(2.0) * eps, out=out)
    values += math.sqrt(1.0 - eps * eps)
    return values


def _unit_coordinate(domain: Domain, n: int) -> np.ndarray:
    """The grid mapped onto [0, 1]: (x - a) / L on intervals, x / L on circles. The exact no-ops
    x - 0 and x / 1 are skipped, so the unit domains take no pass beyond the grid."""
    u = grid_points(domain, n)
    if isinstance(domain, Interval) and domain.a != 0.0:
        u -= domain.a
    if domain.length != 1.0:
        u /= domain.length
    return u


def _family_params(family: Family, params: list[float], count: int) -> list[float]:
    if len(params) != count:
        raise ParamOutOfRangeError(
            f"family {family.value} takes {count} parameter(s), got {len(params)}"
        )
    return params


def _check_eps(eps: float) -> float:
    """``eps`` as a float, or ParamOutOfRangeError unless it is a real number in (0, 1)."""
    return _real(eps, f"eps must lie in (0, 1), got {eps!s:.40}", ParamOutOfRangeError, 0.0, 1.0)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_grid_csv(f: GridFunction, path: str | Path) -> None:
    """The grid CSV ``x,value``, written by :func:`write_csv`, the one CSV writer: in row blocks,
    with ``\\n`` line ends on every platform. Circle grids omit the wrap point."""
    write_csv("x,value", (f.x, f.values), path)


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
    if not (isinstance(kind, str) and kind in ("interval", "circle")):
        raise InvalidInputError(f"unknown domain kind {kind!r:.40}")
    with _open(path, newline="", encoding="utf-8") as handle:
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
    none blank, at most MAX_SAMPLES + 1 of them (counted here: ``np.loadtxt``
    with ``max_rows`` reserves all 256 MiB of that before it parses a line);
    no line is longer than the csv module's field limit; and no line holds one
    of :data:`_FIELD_SEPARATORS`. On such a file the csv module finds the same
    records and ``float()`` the same numbers.
    """
    limit = csv.field_size_limit()
    lines = 0

    def chunks():
        nonlocal lines
        while chunk := handle.readlines(_CHUNK_CHARS):
            lines += len(chunk)
            text = "".join(chunk)
            if lines > MAX_SAMPLES + 1 or any(c in text for c in _FIELD_SEPARATORS) or (
                len(text) > limit and max(map(len, chunk)) > limit
            ):
                raise ValueError("not a plain grid CSV")
            yield chunk

    try:
        header = handle.readline()
        if len(header) > limit or not (
            [c.strip() for c in header.split(",")] == ["x", "value"]
            or header.rstrip("\r\n") == '"x","value"'
        ):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            samples = np.loadtxt(
                itertools.chain.from_iterable(chunks()),
                delimiter=",", comments=None, quotechar='"', dtype=float, ndmin=2,
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
    with _open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv(header: str, columns: Sequence[Sequence], path: str | Path) -> None:
    """The one CSV writer of lsilab: a header line, then the columns' rows, CSV_BLOCK rows per
    write, each line ending in ``\\n`` on every platform. A column is an array of samples, by
    ``repr``, or a sequence of cells: strings as they are, numbers as ``repr(float(x))``."""
    with _open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for lo in range(0, min(map(len, columns), default=0), CSV_BLOCK):
            cells = (map(repr, c[lo:lo + CSV_BLOCK].tolist()) if isinstance(c, np.ndarray) else
                     (x if isinstance(x, str) else repr(float(x)) for x in c[lo:lo + CSV_BLOCK])
                     for c in columns)
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_fourier_json(series: FourierSeries, path: str | Path) -> None:
    """JSON form ``{circumference, coefficients: [{n, re, im}]}`` for n = -n_max..n_max, in the
    bytes :func:`write_json` gives that payload, formatted CSV_BLOCK modes per write."""
    entry = '    {{\n      "im": {!r},\n      "n": {},\n      "re": {!r}\n    }}'
    n_max, sep = series.n_max, ""
    with _open(path, "w") as handle:
        handle.write(f'{{\n  "circumference": {series.circumference!r},\n  "coefficients": [\n')
        # a_{-n} = conj(a_n): the negative modes read the half backwards, im with its sign flipped
        for modes, half, sign in ((range(-n_max, 0), series.half[:0:-1], -1.0),
                                  (range(n_max + 1), series.half, 1.0)):
            for lo in range(0, len(modes), CSV_BLOCK):
                a = half[lo:lo + CSV_BLOCK]
                handle.write(sep + ",\n".join(map(entry.format, (sign * a.imag).tolist(),
                                                    modes[lo:lo + CSV_BLOCK], a.real.tolist())))
                sep = ",\n"
        handle.write("\n  ]\n}\n")


def read_fourier_json(path: str | Path) -> FourierSeries:
    """Parse the UTF-8 JSON of :func:`write_fourier_json`; each mode index
    must be a JSON integer of size at most MAX_SAMPLES, given once."""
    with _open(path, encoding="utf-8") as handle:
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
