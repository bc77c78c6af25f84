"""The three benchmark workloads: their inputs, their ops and the checks on each op.

An op is one checked call sequence. Each op has a *call*, which is the
timed part, and a *check*, which runs after the timer stops, raises
``CheckFailed`` when a result is wrong and otherwise returns a digest of
the op's outputs. Digests let a traced replay prove that it computed the
same outputs as the untraced run.

A *pass* is the list of ops a workload repeats. The harness measures
whole passes only, so every run has the same op mix. Every pass has five
slots, so the borders between slots sit at multiples of 0.2 of the
sorted latencies and the 50th and 90th percentiles fall in the middle of
a slot, never on a border where two roles of different speed meet.

Every library call goes through an attribute of the freshly imported
``lsilab`` package, looked up at call time, so a tracer that rebinds the
package's names sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Tolerances from the acceptance criteria.
DEFICIT_TOL = 1e-7
OPTIMIZER_DEFICIT_TOL = 1e-6
RATIO_TOL = 1e-3
RESIDUAL_TOL = 1e-6
CONSTANT_TOL = 1e-4
ROUND_TRIP_TOL = 1e-10

FINE_INTERVAL_N = 65537
FINE_CIRCLE_N = 65536


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One op of a pass: its role and the inputs drawn for it."""

    role: str
    params: tuple = ()


@dataclass(frozen=True)
class Role:
    call: Callable  # (state, params) -> result, timed
    check: Callable  # (state, params, result) -> digest, untimed


class State:
    """What one set-up produced: the imported package, its inputs, its notes."""

    def __init__(self, lsilab, workdir: Path):
        self.L = lsilab
        self.workdir = workdir
        self.inputs: dict = {}
        self.reference: dict = {}
        # Known defects that show in an op without failing it, by name.
        self.known_defects: dict[str, int] = {}


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _report_digest(rep) -> tuple:
    return (rep.mass, rep.entropy, rep.energy, rep.deficit)


# ---------------------------------------------------------------------------
# random-batch: acceptance criteria 4, 5 and 9 with fresh seeds
# ---------------------------------------------------------------------------

RANDOM_MODES = 64
RANDOM_N = 4096
DIAZ_Q = (1.25, 1.5, 2.0)
DIAZ_TRIALS = 10


def _rb_interval(state, params):
    L = state.L
    f = L.random_admissible_function(L.UNIT_INTERVAL, RANDOM_MODES, params[0], RANDOM_N)
    return L.lsi_deficit_interval(f)


def _rb_circle(state, params):
    L = state.L
    f = L.random_admissible_function(L.UNIT_CIRCLE, RANDOM_MODES, params[0], RANDOM_N)
    return L.lsi_deficit_circle(f)


def _check_deficit(state, params, rep):
    require(rep.deficit >= -DEFICIT_TOL, f"deficit {rep.deficit!r} below -{DEFICIT_TOL}")
    return _report_digest(rep)


def _rb_weissler(state, params):
    L = state.L
    f = L.random_admissible_function(
        L.UNIT_CIRCLE, RANDOM_MODES, params[0], RANDOM_N, normalize=False
    )
    series = L.to_fourier(f, RANDOM_MODES)
    ent = L.entropy(f)
    return ent, L.weissler_bound(series, "abs_n"), L.weissler_bound(series, "n_squared")


def _check_weissler(state, params, result):
    ent, abs_bound, sq_bound = result
    require(abs_bound - ent >= -DEFICIT_TOL, f"|n| bound {abs_bound!r} below entropy {ent!r}")
    require(sq_bound - abs_bound >= -DEFICIT_TOL, f"n^2 bound {sq_bound!r} below |n| bound")
    return result


def _rb_diaz(state, params):
    return state.L.diaz_probe(list(DIAZ_Q), DIAZ_TRIALS, params[0])


def _check_diaz(state, params, report):
    # The conjecture is open, so a negative minimum is a finding, not an
    # error. Trial 0 is the constant function, whose deficit is zero, so
    # no minimum may exceed it.
    minima = tuple(r.min_deficit for r in report.results)
    require(len(minima) == len(DIAZ_Q), f"{len(minima)} results for {len(DIAZ_Q)} exponents")
    require(all(math.isfinite(m) and m <= 1e-9 for m in minima), f"minima {minima}")
    return minima + tuple(r.argmin_trial for r in report.results)


def _random_batch_pass(state, rng):
    # The circle role runs twice to make five slots. The interval role,
    # about twice as fast as the others, then fills only the fastest slot,
    # and the median sits well inside the slower four.
    return [
        Op("interval", (_seed(rng),)),
        Op("circle", (_seed(rng),)),
        Op("weissler", (_seed(rng),)),
        Op("diaz", (_seed(rng),)),
        Op("circle", (_seed(rng),)),
    ]


# ---------------------------------------------------------------------------
# fine-grid: per-node kernels at N = 65537 (interval) and 65536 (circle)
# ---------------------------------------------------------------------------

def _positive_on(L, a, length, base, amp):
    """base * (1 + amp cos(pi u)) on [a, a + length], u the unit coordinate."""
    domain = L.Interval(a, a + length)
    v = L.sample_family("cosine_mode", [1], domain, FINE_INTERVAL_N).values
    return L.GridFunction(domain, base * (1.0 + amp * v))


def _draw_interval(rng):
    return (
        float(rng.uniform(-1.0, 1.0)),  # a
        float(rng.uniform(0.5, 2.5)),  # length
        float(rng.uniform(0.5, 2.0)),  # base
        float(rng.uniform(0.1, 0.8)),  # amp
    )


def _fg_deficits(state, params):
    L = state.L
    f = _positive_on(L, *params)
    return L.lsi_deficit_general(f), L.lsi_deficit_density_form(f)


def _check_deficits(state, params, result):
    general, density = result
    return _check_deficit(state, params, general) + _check_density(state, params, density)


def _check_density(state, params, rep):
    # The proven Fisher form corrects by L * m log m. The library applies
    # m log m (ROADMAP item 4), so its reported deficit goes negative on
    # intervals of length other than 1. Check the proven form from the
    # reported integrals, and count the defect where it shows.
    length = params[1]
    m = rep.mass / length
    proven = rep.energy - rep.constant * (rep.entropy - length * m * math.log(m))
    require(proven >= -DEFICIT_TOL, f"Fisher-form deficit {proven!r} below -{DEFICIT_TOL}")
    if rep.deficit < -DEFICIT_TOL:
        key = "density_form_negative_off_unit_length"
        state.known_defects[key] = state.known_defects.get(key, 0) + 1
    return _report_digest(rep)


def _fg_sharp_circle(state, params):
    L = state.L
    eps, k, amp = params
    f = L.sample_family("sharpness", [eps], L.UNIT_INTERVAL, FINE_INTERVAL_N)
    v = L.sample_family("cosine_mode", [k], L.UNIT_CIRCLE, FINE_CIRCLE_N).values
    g = L.GridFunction(L.UNIT_CIRCLE, (1.0 + amp * v) / math.sqrt(1.0 + 0.5 * amp * amp))
    return L.lsi_deficit_interval(f), L.wirtinger_deficit(f), L.lsi_deficit_circle(g)


def _check_sharp_circle(state, params, result):
    rep, wirtinger, circle = result
    require(rep.deficit >= -DEFICIT_TOL, f"deficit {rep.deficit!r}")
    require(wirtinger >= -DEFICIT_TOL, f"Wirtinger deficit {wirtinger!r}")
    require(circle.deficit >= -DEFICIT_TOL, f"circle deficit {circle.deficit!r}")
    return _report_digest(rep) + (wirtinger,) + _report_digest(circle)


def _fg_transforms(state, params):
    L = state.L
    eps, interval = params[0], params[1:]
    f = L.sample_family("sharpness", [eps], L.UNIT_INTERVAL, FINE_INTERVAL_N)
    g = _positive_on(L, *interval)
    return L.reflect_to_circle(f), L.affine_normalize(g), L.sqrt_lift(g)


def _certificate_digest(result):
    g, cert = result[0], result[-1]
    residuals = cert.identity_residuals
    worst = max(residuals.values())
    require(worst <= RESIDUAL_TOL, f"certificate residuals {residuals}")
    return tuple(sorted(residuals.items())) + (hashlib.blake2b(g.values.tobytes()).hexdigest(),)


def _check_transforms(state, params, results):
    return tuple(_certificate_digest(result) for result in results)


def _fg_round_trip(state, params):
    L = state.L
    k, amp = params
    v = L.sample_family("cosine_mode", [k], L.UNIT_CIRCLE, FINE_CIRCLE_N).values
    f = L.GridFunction(L.UNIT_CIRCLE, np.exp(amp * v))
    return f, L.from_fourier(L.to_fourier(f, 1024), FINE_CIRCLE_N)


def _check_round_trip(state, params, result):
    f, g = result
    error = float(np.max(np.abs(g.values - f.values)))
    require(error <= ROUND_TRIP_TOL, f"round-trip error {error!r}")
    return (error,)


SWEEP_EPS = (0.1, 0.05, 0.025)


def _fg_sweep(state, params):
    L = state.L
    return L.extrapolate_constant(L.sharpness_sweep(list(SWEEP_EPS), FINE_INTERVAL_N))


def _check_sweep(state, params, constant):
    error = abs(constant - math.pi**2)
    require(error <= CONSTANT_TOL, f"extrapolated constant {constant!r}, error {error:.2e}")
    return (constant,)


def _fine_grid_pass(state, rng):
    return [
        Op("deficits", _draw_interval(rng)),
        Op("sharp-circle", (float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 9)),
                            float(rng.uniform(0.1, 0.9)))),
        Op("transforms", (float(rng.uniform(0.05, 0.5)),) + _draw_interval(rng)),
        Op("round-trip", (int(rng.integers(1, 9)), float(rng.uniform(0.2, 1.0)))),
        Op("sweep"),
    ]


# ---------------------------------------------------------------------------
# cli-io: in-process CLI on files written at set-up
# ---------------------------------------------------------------------------

CLI_INTERVAL_N = 4097
CLI_CIRCLE_N = 4096
CLI_MODES = 16
CLI_SERIES_MODES = 64


def _cli_setup(state, rng):
    L = state.L
    paths = {
        "interval": state.workdir / "interval.csv",
        "circle": state.workdir / "circle.csv",
        "series": state.workdir / "series.json",
    }
    L.write_grid_csv(
        L.random_admissible_function(L.UNIT_INTERVAL, CLI_MODES, _seed(rng), CLI_INTERVAL_N),
        paths["interval"],
    )
    # verify --domain circle needs unit mass, so the circle input is normalized.
    L.write_grid_csv(
        L.random_admissible_function(L.UNIT_CIRCLE, CLI_MODES, _seed(rng), CLI_CIRCLE_N),
        paths["circle"],
    )
    f = L.random_admissible_function(
        L.UNIT_CIRCLE, CLI_SERIES_MODES, _seed(rng), CLI_CIRCLE_N, normalize=False
    )
    L.write_fourier_json(L.to_fourier(f, CLI_SERIES_MODES), paths["series"])
    state.inputs = {k: str(v) for k, v in paths.items()}


#: command -> (argv after the input, output file name, input name)
CLI_COMMANDS = {
    "functional": (["functional", "--domain", "interval"], "functional.csv", "interval"),
    "verify": (["verify", "--domain", "interval"], "verify.json", "interval"),
    "verify-density": (["verify", "--domain", "interval", "--form", "density"], "density.json", "interval"),
    "verify-wirtinger": (["verify", "--domain", "interval", "--form", "wirtinger"], "wirtinger.json", "interval"),
    "verify-circle": (["verify", "--domain", "circle"], "circle.json", "circle"),
    "reflect": (["reflect"], "reflect.csv", "interval"),
    "normalize": (["normalize"], "normalize.csv", "interval"),
    "sqrt-lift": (["sqrt-lift", "--domain", "interval"], "sqrt-lift.csv", "interval"),
    "weissler": (["weissler"], "weissler.json", "series"),
}

CERTIFIED = ("reflect", "normalize", "sqrt-lift")

#: op role -> the commands it runs. The nine commands make five ops of
#: similar cost, so that a pass has five slots.
CLI_OPS = {
    "functional+verify": ("functional", "verify"),
    "verify-forms": ("verify-density", "verify-wirtinger"),
    "circle+weissler": ("verify-circle", "weissler"),
    "reflect": ("reflect",),
    "normalize+sqrt-lift": ("normalize", "sqrt-lift"),
}


def _cli_outputs(state, command) -> list[Path]:
    out = state.workdir / CLI_COMMANDS[command][1]
    if command in CERTIFIED:
        return [out, out.with_name(out.name + ".cert.json")]
    return [out]


def _cli_run(state, params):
    results = []
    for command in CLI_OPS[params[0]]:
        argv, out_name, source = CLI_COMMANDS[command]
        argv = argv + ["--input", state.inputs[source], "--output", str(state.workdir / out_name)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = state.L.cli.main(argv)
        results.append((code, stdout.getvalue(), stderr.getvalue()))
    return results


def _cli_check(state, params, results):
    digests = []
    for command, (code, out, err) in zip(CLI_OPS[params[0]], results):
        require(code == 0, f"lsilab {command} exited {code}: {err.strip()}")
        blobs = [out.encode(), err.encode()] + [p.read_bytes() for p in _cli_outputs(state, command)]
        digest = hashlib.blake2b(b"\0".join(blobs)).hexdigest()
        reference = state.reference.get(command)
        if reference is None:
            _cli_check_first(state, command)
            state.reference[command] = digest
        else:
            require(digest == reference, f"lsilab {command} output differs from its first run")
        digests.append(digest)
    return tuple(digests)


def _cli_check_first(state, command):
    """Numeric checks on the first output; later outputs must match it byte for byte."""
    out = _cli_outputs(state, command)
    if command in CERTIFIED:
        residuals = json.loads(out[1].read_text())["residuals"]
        require(max(residuals.values()) <= RESIDUAL_TOL, f"{command} residuals {residuals}")
    elif command == "weissler":
        payload = json.loads(out[0].read_text())
        require(payload["abs_n_bound"] - payload["entropy"] >= -DEFICIT_TOL, f"weissler {payload}")
    elif command.startswith("verify"):
        deficit = json.loads(out[0].read_text())["deficit"]
        require(deficit >= -DEFICIT_TOL, f"{command} deficit {deficit!r}")


def _cli_pass(state, rng):
    return [Op(role, (role,)) for role in CLI_OPS]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    roles: dict  # role name -> Role
    next_pass: Callable  # (state, rng) -> list[Op]
    setup: Callable = lambda state, rng: None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random-batch",
            {
                "interval": Role(_rb_interval, _check_deficit),
                "circle": Role(_rb_circle, _check_deficit),
                "weissler": Role(_rb_weissler, _check_weissler),
                "diaz": Role(_rb_diaz, _check_diaz),
            },
            _random_batch_pass,
        ),
        Workload(
            "fine-grid",
            {
                "deficits": Role(_fg_deficits, _check_deficits),
                "sharp-circle": Role(_fg_sharp_circle, _check_sharp_circle),
                "transforms": Role(_fg_transforms, _check_transforms),
                "round-trip": Role(_fg_round_trip, _check_round_trip),
                "sweep": Role(_fg_sweep, _check_sweep),
            },
            _fine_grid_pass,
        ),
        Workload(
            "cli-io",
            {role: Role(_cli_run, _cli_check) for role in CLI_OPS},
            _cli_pass,
            setup=_cli_setup,
        ),
    )
}
