"""The formulas the library used before a refactor: the expected side of the ``==`` pins.

Each docstring names the library function a formula mirrors and the commit that replaced it.
No computed float is frozen here. A change meant to move the last bits ports this one module
and reports each moved value instead of re-freezing it (see ``test_references.py``)."""

import csv
import math
from dataclasses import asdict

import numpy as np

from lsilab import (FOUR_PI_SQUARED, PI_SQUARED, UNIT_CIRCLE, UNIT_INTERVAL, Circle, Family,
                    FunctionalReport, GridFunction, Interval, InvalidInputError, WeightPower,
                    diaz_deficit, differentiate, dirichlet_energy, entropy, from_fourier, grid_points,
                    sample_family, squared_mass, weissler_bound)
from lsilab.experiments import RATIO_ENTROPY_FLOOR, _basis_matrix, random_admissible_function
from lsilab.function_space import BLOCK, quadrature_weights, write_json
from lsilab.functionals import _entropy_integrand, _finite, _geometry


def _ratio(energy, ent):
    return energy / ent if ent > 0.0 else None


def unit_mass_report(f, constant):
    """``lsi_deficit_interval`` (pi^2) and ``lsi_deficit_circle`` (4 pi^2) per form, before d1efcf8."""
    mass, ent, energy = squared_mass(f), entropy(f), dirichlet_energy(f)
    return FunctionalReport(mass, ent, energy, constant, energy - constant * ent, _ratio(energy, ent))


def mass_corrected_report(f):
    """``lsi_deficit_general`` (on circles the certificates' form, L read as 1) before d1efcf8."""
    length, constant = (f.domain.length, PI_SQUARED / f.domain.length**2) \
        if isinstance(f.domain, Interval) else (1.0, FOUR_PI_SQUARED)
    mass, ent, energy = squared_mass(f), entropy(f), dirichlet_energy(f)
    m = math.sqrt(max(mass, 0.0) / length)
    correction = length * m * m * math.log(m)
    deficit = energy - constant * (ent - correction)
    return FunctionalReport(mass, ent, energy, constant, deficit, _ratio(energy, ent), correction)


def integral(f, integrand):
    """The Fisher report's integrals as 2299e2b left them: Simpson, or sum(integrand * L/n)."""
    if isinstance(f.domain, Circle):
        assert f.n <= 8192
        return float(np.sum(integrand * (f.domain.circumference / f.n)))
    return float(quadrature_weights(f.domain, f.n) @ integrand)


def fisher_integrals(f):
    """The Fisher information and the integral of f log f of ``lsi_deficit_density_form``."""
    d = differentiate(f).values
    return integral(f, d * d / f.values), integral(f, f.values * np.log(f.values))


def fisher_report(f):
    """``lsi_deficit_density_form`` (on circles ``sqrt_lift``'s, L read as 1) before d1efcf8."""
    length, constant = (f.domain.length, 2.0 * PI_SQUARED / f.domain.length**2) \
        if isinstance(f.domain, Interval) else (1.0, 2.0 * FOUR_PI_SQUARED)
    fisher, log_mass = fisher_integrals(f)
    mass = integral(f, f.values)
    m = mass / length
    correction = length * m * math.log(m)
    deficit = fisher - constant * (log_mass - correction)
    return FunctionalReport(mass, log_mass, fisher, constant, deficit, _ratio(fisher, log_mass), correction)


def masked_square_log(values, step=1.0):
    """f^2 log f times ``step``, log f read as 0 where f <= 0: ``_entropy_integrand``'s masked
    formula before c8755dc, and the circle entropy's terms (the square scaled by L/n first)."""
    square = values * values * step
    return np.log(np.where(values > 0.0, values, 1.0)) * square


@np.errstate(over="ignore", invalid="ignore")
def mass_entropy_walk(f):
    """``(squared_mass(f), entropy(f))`` from the report's own walk, before 4953ff8 joined it to
    ``_integrals``: per block of BLOCK nodes, Simpson weights @ terms, or on circles sum(terms)."""
    circle = isinstance(f.domain, Circle)
    step = f.domain.circumference / f.n if circle else 1.0
    weights = None if circle else quadrature_weights(f.domain, f.n)
    sums = [0.0, 0.0]
    for lo in range(0, f.n, BLOCK):
        v = f.values[lo:lo + BLOCK]
        for i, terms in enumerate((v * v * step, masked_square_log(v, step))):
            sums[i] += float(np.sum(terms) if circle else weights[lo:lo + BLOCK] @ terms)
    return tuple(sums)


def complex_factor_energy(f):
    """Circle ``dirichlet_energy`` before 2d9c154 scaled it by a real factor: the spectrum times
    2 pi i k / L, its squared magnitudes summed by one vdot per block of BLOCK modes."""
    n = f.n
    spectrum = np.fft.rfft(f.values)
    spectrum *= 2j * np.pi * np.fft.rfftfreq(n, d=f.domain.circumference / n)
    if n % 2 == 0:
        spectrum[-1] = 0.0
    if not np.all(np.isfinite(spectrum)):
        raise InvalidInputError("derivative overflows float64; rescale the input")
    d = spectrum[1:]
    d /= n
    total = sum(np.vdot(d[lo:lo + BLOCK], d[lo:lo + BLOCK]).real for lo in range(0, d.size, BLOCK))
    return _finite(2.0 * f.domain.circumference * total, "Dirichlet energy")


def weissler_payload(series, n):
    """``cli._weissler``'s arithmetic before ``functionals.weissler_report`` took it over: the
    entropy per unit length of the n-point synthesis, both bounds, then the mass."""
    synthesis = from_fourier(series, n)
    ent = entropy(synthesis) / series.circumference
    abs_bound = weissler_bound(series, WeightPower.ABS_N)
    sq_bound = weissler_bound(series, WeightPower.N_SQUARED)
    return {"entropy": ent, "abs_n_bound": abs_bound, "n_squared_bound": sq_bound, "mass": series.mass()}


def harmonic_phase(domain, n, k):
    """COSINE_MODE's phase k pi u (2 pi k u on circles) before ee79a85 built it with ``_harmonic``."""
    u = grid_points(domain, n)
    if isinstance(domain, Interval):
        u -= domain.a
    u /= domain.length
    u *= math.pi * k if isinstance(domain, Interval) else 2.0 * math.pi * k
    return u


def mirrored(values, domain, k, sine=False):
    """Full-wave samples of cos (sin if ``sine``) of k pi u, or 2 pi k u on circles, with each node j
    past the midpoint replaced by its partner n - 1 - j (n - j on circles) times the parity sign:
    ``_half_wave``'s mirror, which the full-wave formulas below take since the half-wave harmonics."""
    n, circle = values.size, isinstance(domain, Circle)
    j = np.arange(n)
    partner = (n - j) % n if circle else n - 1 - j
    sign = (-1.0 if sine else 1.0) if circle else (-1.0) ** (k + sine)
    return np.where(j > partner, sign * values[partner], values)


def harmonic(domain, n, k, sine=False):
    """``_harmonic``: np.cos (or np.sin) of :func:`harmonic_phase` on every node, then mirrored."""
    phase = harmonic_phase(domain, n, k)
    return mirrored(np.sin(phase) if sine else np.cos(phase), domain, k, sine)


def interval_basis_loop(n_modes, n):
    """``_basis_matrix`` on [0, 1] before ee79a85: ones, then cos(k pi x) for k = 1, 2, ..."""
    cosines = [harmonic(UNIT_INTERVAL, n, k) for k in range(1, n_modes)]
    return np.column_stack([np.ones(n)] + cosines)


def circle_basis_loop(n_modes, n):
    """``_basis_matrix`` on the unit circle before ee79a85: ones, then cos and sin of 2 pi k x."""
    return np.column_stack([np.ones(n)] + [harmonic(UNIT_CIRCLE, n, (col + 1) // 2, sine=col % 2 == 0)
                                           for col in range(1, n_modes)])


def random_trig_loop(seeds, modes, domain, n):
    """``sample_family(RANDOM_TRIG)`` for each seed from the per-mode loop, before 952b59a: c_0,
    then a cosine per mode (a cosine and sine pair on circles), each evaluated once per mode."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    values = [np.full(n, rng.standard_normal()) for rng in rngs]
    for k in range(1, modes + 1):
        cos_k = harmonic(domain, n, k)  # from u * (pi k): the loop's k * pi * u, same bits
        if isinstance(domain, Interval):
            for rng, v in zip(rngs, values):
                v += rng.standard_normal() / k**2 * cos_k
        else:
            sin_k = harmonic(domain, n, k, sine=True)
            for rng, v in zip(rngs, values):
                a, b = rng.standard_normal(2)
                v += (a * cos_k + b * sin_k) / k**2
    return values


def two_synthesis_optimizer(domain, n_modes, seed, max_iters, *, n=None, init=None):
    """``minimize_deficit`` before cf17c9a, when ``evaluate`` and ``gradient`` each synthesized
    ``basis @ c``; valid inputs only. (best deficit, best ratio, its bytes, iterations, converged)."""
    _, constant = _geometry(domain)
    n = (2049 if isinstance(domain, Interval) else 2048) if n is None else n
    decay = np.array([1.0 / (1 + (k + 1) // 2) ** 2 for k in range(n_modes)])
    c = np.asarray(init, dtype=float).copy() if init is not None else \
        np.random.default_rng(seed).standard_normal(n_modes) * decay
    basis, energy_weights = _basis_matrix(domain, n_modes, n)
    w = quadrature_weights(domain, n)
    mass_form = basis.T @ (basis * w[:, None])

    def normalize(c):
        return c / math.sqrt(c @ mass_form @ c)

    def evaluate(c):
        ent = float(w @ _entropy_integrand(np.abs(basis @ c)))
        energy = float(energy_weights @ np.square(c))
        return energy, ent, energy - constant * ent

    def gradient(c):
        g = basis @ c
        ag = np.abs(g)
        ent_slope = np.where(ag > 0.0, 2.0 * g * np.log(np.where(ag > 0.0, ag, 1.0)) + g, 0.0)
        return 2.0 * energy_weights * c - constant * (basis.T @ (w * ent_slope))

    c = normalize(c)
    energy, ent, deficit = evaluate(c)
    best_deficit, best_c = deficit, c.copy()
    best_ratio = energy / ent if ent > RATIO_ENTROPY_FLOOR else None
    step, converged, iterations = 1e-2, False, 0
    for iterations in range(1, max_iters + 1):
        grad = gradient(c)
        normal = mass_form @ c
        tangent = grad - (grad @ normal) / (normal @ normal) * normal
        gnorm2 = float(tangent @ tangent)
        if gnorm2 <= 1e-18:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        for _ in range(60):
            trial = normalize(c - step * grad)
            t_energy, t_ent, t_deficit = evaluate(trial)
            if t_deficit <= deficit - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:  # no step was accepted
            converged = True
            break
        c, energy, ent, deficit = trial, t_energy, t_ent, t_deficit
        if deficit < best_deficit:
            best_deficit, best_c = deficit, c.copy()
        if ent > RATIO_ENTROPY_FLOOR and (best_ratio is None or energy / ent < best_ratio):
            best_ratio = energy / ent
    return best_deficit, best_ratio, best_c.tobytes(), iterations, converged


def probe_trials(trials, seed, n, modes):
    """``diaz_probe``'s trials sampled one at a time, as before ed6ec30: 1, then seeds seed + t."""
    return [sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, n)] + [random_admissible_function(
        UNIT_INTERVAL, modes, seed + t, n, normalize=False) for t in range(1, trials)]


def probe_witnesses(q_list, trials, seed, n, modes, tol):
    """``diaz_probe``'s (q, trial, function) below tol, before 2d9c154 kept only the witnesses."""
    functions = probe_trials(trials, seed, n, modes)
    return [(q, t, f) for q in q_list for t, f in enumerate(functions) if diaz_deficit(f, q) < tol]


def probe_dict(report):
    """``DiazProbeReport.to_dict`` field by field, before 8feab93 built it with ``asdict``."""
    return {
        "seed": report.seed, "trials": report.trials, "n": report.n, "modes": report.modes,
        "results": [{"q": r.q, "min_deficit": r.min_deficit, "argmin_trial": r.argmin_trial,
                     "flagged": r.flagged} for r in report.results],
        "counterexamples": [{"q": q, "trial": trial} for q, trial, _ in report.counterexamples],
    }


def probe_payload(report):
    """``DiazProbeReport.to_dict`` as written at d4c6aa7, before it became ``asdict`` of the report
    with the counterexamples emptied."""
    return {
        "seed": report.seed,
        "trials": report.trials,
        "n": report.n,
        "modes": report.modes,
        "results": [asdict(r) for r in report.results],
        "counterexamples": [
            {"q": q, "trial": trial} for q, trial, _ in report.counterexamples
        ],
    }


def _write_rows(path, header, rows):
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n")


def report_csv(report, path):
    """The report CSV writer that fbe16cc replaced with ``write_csv``."""
    ratio = "" if report.ratio is None else report.ratio
    _write_rows(path, "mass,entropy,energy,constant,deficit,ratio",
                [(report.mass, report.entropy, report.energy, report.constant, report.deficit, ratio)])


def sweep_csv(records, path):
    """The sharpness-sweep CSV writer that fbe16cc replaced with ``write_csv``."""
    _write_rows(path, "epsilon,energy,entropy,ratio,deficit",
                [(r.epsilon, r.energy, r.entropy, r.ratio, r.deficit) for r in records])


def probe_csv(results, path):
    """The power-mean probe CSV writer that fbe16cc replaced with ``write_csv``."""
    _write_rows(path, "q,min_deficit,flag",
                [(r.q, r.min_deficit, "true" if r.flagged else "false") for r in results])


def grid_csv(f, path):
    """``write_grid_csv`` before the grid file went through ``write_csv``: one f-string per row."""
    with open(path, "w", newline="") as handle:
        handle.write("x,value\n")
        handle.writelines(f"{xi!r},{vi!r}\n" for xi, vi in zip(f.x.tolist(), f.values.tolist()))


def fourier_json(series, path):
    """``write_fourier_json`` as 0dbb1da left it: every coefficient dict, then one ``write_json``."""
    coefficients = [
        {"n": n, "re": float(series.coefficient(n).real), "im": float(series.coefficient(n).imag)}
        for n in range(-series.n_max, series.n_max + 1)
    ]
    write_json({"circumference": series.circumference, "coefficients": coefficients}, path)


def read_grid_csv_by_row(path, kind):
    """``read_grid_csv`` one row at a time, converting as it goes, before c8755dc read in bulk."""
    xs, vs = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if lineno == 1:
                if [c.strip() for c in row] != ["x", "value"]:
                    raise InvalidInputError(f"{path}: line 1: expected header 'x,value'")
                continue
            if not row:
                continue
            if len(row) != 2:
                raise InvalidInputError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                xs.append(float(row[0]))
                vs.append(float(row[1]))
            except ValueError:
                raise InvalidInputError(f"{path}: line {lineno}: non-numeric field") from None
    if len(xs) < 16:
        raise InvalidInputError(f"{path}: need at least 16 rows, got {len(xs)}")
    x = np.asarray(xs)
    try:
        domain = Interval(x[0], x[-1]) if kind == "interval" else Circle((x[1] - x[0]) * x.size)
        return GridFunction(domain, np.asarray(vs))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
