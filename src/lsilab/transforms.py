"""Constructive maps between domains and their exact functional identities.

Three maps, each packaged with a certificate of the identities it is
supposed to satisfy:

  * reflection doubling: even extension of an interval function to the
    unit circle with the x-scale halved; preserves squared mass and
    entropy, quadruples the Dirichlet energy;
  * affine normalization: rescale a function on [a, b] to unit squared
    mass on [0, 1];
  * square-root lift: g = sqrt(f), turning the Fisher integrand
    (f')^2 / f into 4 (g')^2 and f log f into 2 g^2 log g.

Certificates report the absolute residuals of those identities as
actually computed on the grid. The residuals are honest measurements:
for inputs whose derivative does not vanish at the interval endpoints,
the folded function is only piecewise smooth and the energy identity
degrades (spectral differentiation at the fold), which shows up in the
residual instead of being hidden.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainMismatchError,
    EvenSampleCountError,
    NonPositiveFunctionError,
    ZeroMassError,
)
from .function_space import (
    Circle,
    GridFunction,
    Interval,
    UNIT_INTERVAL,
    differentiate,
    is_unit_circle,
    is_unit_interval,
    quadrature_weights,
)
from .functionals import (
    FOUR_PI_SQUARED,
    MASS_TOL,
    FunctionalReport,
    PI_SQUARED,
    dirichlet_energy,
    entropy,
    lsi_deficit_general,
    squared_mass,
)


@dataclass(frozen=True)
class TransformCertificate:
    """Before/after functional reports plus the identity residuals."""

    input_report: FunctionalReport
    output_report: FunctionalReport
    identity_residuals: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "input_report": self.input_report.to_dict(),
            "output_report": self.output_report.to_dict(),
            "residuals": dict(self.identity_residuals),
        }


def write_certificate_json(cert: TransformCertificate, path: str | Path) -> None:
    with open(path, "w") as handle:
        json.dump(cert.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _mass_corrected_report(f: GridFunction) -> FunctionalReport:
    """Deficit report valid for any mass, used inside certificates.

    Intervals use the rescaled general form. Unit circles use the
    analogous mass-corrected deficit
    ``energy - 4 pi^2 (entropy - m^2 log m)`` with m^2 the squared mass,
    which reduces to the plain circle deficit at unit mass.
    """
    if isinstance(f.domain, Interval):
        return lsi_deficit_general(f)
    if not is_unit_circle(f.domain):
        raise DomainMismatchError("certificate reports require a circle of circumference 1")
    mass = squared_mass(f)
    m = math.sqrt(max(mass, 0.0))
    if m <= MASS_TOL:
        raise ZeroMassError("squared mass is numerically zero")
    ent = entropy(f)
    energy = dirichlet_energy(f)
    correction = m * m * math.log(m)
    deficit = energy - FOUR_PI_SQUARED * (ent - correction)
    ratio = energy / ent if ent > 0.0 else None
    return FunctionalReport(mass, ent, energy, FOUR_PI_SQUARED, deficit, ratio, correction)


def reflect_to_circle(f: GridFunction) -> tuple[GridFunction, TransformCertificate]:
    """Even reflection of f on [0, 1] onto the unit circle, x-scale halved.

    Needs an odd sample count so the fold lands on a node; the output
    has 2(N-1) circle samples with the two fold images single-counted.
    Certificate residuals: conservation of squared mass and entropy, and
    the energy quadrupling, with the circle side differentiated
    spectrally on the folded data.
    """
    if not is_unit_interval(f.domain):
        raise DomainMismatchError("reflection requires the domain [0, 1]")
    if f.n % 2 == 0:
        raise EvenSampleCountError(f"need an odd sample count, got {f.n}")
    # g[j] = f[j] for j <= N-1, g[j] = f[2(N-1)-j] beyond the fold
    folded = np.concatenate([f.values, f.values[-2:0:-1]])
    g = GridFunction(Circle(1.0), folded)
    rep_in = _mass_corrected_report(f)
    rep_out = _mass_corrected_report(g)
    residuals = {
        "mass": abs(rep_out.mass - rep_in.mass),
        "entropy": abs(rep_out.entropy - rep_in.entropy),
        "energy": abs(rep_out.energy - 4.0 * rep_in.energy),
    }
    return g, TransformCertificate(rep_in, rep_out, residuals)


def affine_normalize(f: GridFunction) -> tuple[GridFunction, float, TransformCertificate]:
    """Map f on [a, b] to g(x) = f((b-a) x + a) / m on [0, 1], m the rms.

    The output has unit squared mass by construction. Certificate
    residuals: |integral g^2 - 1|, the energy identity
    ``integral (g')^2 = (L / m^2) integral (f')^2``, the matching
    entropy identity, and the equivalence of the rescaled deficit of f
    with (m^2 / L) times the unit-interval deficit of g.
    """
    if not isinstance(f.domain, Interval):
        raise DomainMismatchError("affine normalization requires an interval domain")
    length = f.domain.length
    mass = squared_mass(f)
    m = math.sqrt(max(mass, 0.0) / length)
    if m <= MASS_TOL:
        raise ZeroMassError(f"root mean square {m:.3e} is numerically zero")
    g = GridFunction(UNIT_INTERVAL, f.values / m)
    rep_in = lsi_deficit_general(f)
    rep_out = lsi_deficit_general(g)
    scale = length / (m * m)
    entropy_identity = (rep_in.entropy - length * m * m * math.log(m)) / (length * m * m)
    residuals = {
        "mass": abs(rep_out.mass - 1.0),
        "energy": abs(rep_out.energy - scale * rep_in.energy),
        "entropy": abs(rep_out.entropy - entropy_identity),
        "deficit": abs(rep_in.deficit - (m * m / length) * rep_out.deficit),
    }
    return g, m, TransformCertificate(rep_in, rep_out, residuals)


def sqrt_lift(f: GridFunction) -> tuple[GridFunction, TransformCertificate]:
    """Pointwise square root of a strictly positive function.

    Certificate residuals: the chain-rule identity
    ``4 integral (g')^2 = integral (f')^2 / f`` and the entropy halving
    ``integral g^2 log g = (1/2) integral f log f``.
    """
    low = float(np.min(f.values))
    if low < MASS_TOL:
        raise NonPositiveFunctionError(f"minimum value {low:.3e}; need min >= {MASS_TOL:.0e}")
    g = f.with_values(np.sqrt(f.values))
    w = quadrature_weights(f.domain, f.n)
    d = differentiate(f).values
    fisher = float(w @ (d * d / f.values))
    log_mass = float(w @ (f.values * np.log(f.values)))
    rep_in = _density_report(f, fisher, log_mass)
    rep_out = _mass_corrected_report(g)
    residuals = {
        "fisher_chain_rule": abs(4.0 * rep_out.energy - fisher),
        "entropy_halving": abs(rep_out.entropy - 0.5 * log_mass),
    }
    return g, TransformCertificate(rep_in, rep_out, residuals)


def _density_report(f: GridFunction, fisher: float, log_mass: float) -> FunctionalReport:
    """Fisher-information style report used for square-root lift inputs."""
    w = quadrature_weights(f.domain, f.n)
    mass = float(w @ f.values)
    length = f.domain.length
    if isinstance(f.domain, Interval):
        constant = 2.0 * PI_SQUARED / length**2
        m = mass / length
        correction = length * m * math.log(m)
    else:
        if not is_unit_circle(f.domain):
            raise DomainMismatchError("square-root lift reports require a unit circle")
        constant = 2.0 * FOUR_PI_SQUARED
        m = mass
        correction = m * math.log(m)
    deficit = fisher - constant * (log_mass - correction)
    ratio = fisher / log_mass if log_mass > 0.0 else None
    return FunctionalReport(mass, log_mass, fisher, constant, deficit, ratio, correction)
