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

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, EvenSampleCountError
from .function_space import (
    Circle,
    GridFunction,
    Interval,
    UNIT_INTERVAL,
    is_unit_interval,
)
from .functionals import (
    FunctionalReport,
    _fisher_report,
    _log_sobolev_report,
    lsi_deficit_general,
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
    g = GridFunction(Circle(1.0), np.concatenate([f.values, f.values[-2:0:-1]]))
    rep_in = _log_sobolev_report(f)
    rep_out = _log_sobolev_report(g)
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
    rep_in = lsi_deficit_general(f)
    m = math.sqrt(rep_in.mass / length)
    g = GridFunction(UNIT_INTERVAL, f.values / m)
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
    rep_in = _fisher_report(f)
    g = f.with_values(np.sqrt(f.values))
    rep_out = _log_sobolev_report(g)
    residuals = {
        "fisher_chain_rule": abs(4.0 * rep_out.energy - rep_in.energy),
        "entropy_halving": abs(rep_out.entropy - 0.5 * rep_in.entropy),
    }
    return g, TransformCertificate(rep_in, rep_out, residuals)
