"""Batch command-line front end.

One command per process; every command reads CSV/JSON inputs, writes its
report to ``--output`` and communicates through exit codes:

  0  success
  1  I/O or validation error (malformed files, bad parameters)
  2  a *proven* inequality came out negative beyond tolerance -- this
     flags a numerical-setup bug, never a disproof
  3  the open power-mean conjecture produced a candidate counterexample
     (a finding: the witness function is serialized next to the report)

Relative output paths resolve against $LSILAB_OUTPUT_DIR when it is set.
Identical invocations (including seeds) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import experiments, functionals, transforms
from .errors import LsiLabError, ParamOutOfRangeError
from .function_space import (
    Circle,
    GridFunction,
    Interval,
    from_fourier,
    is_unit_circle,
    is_unit_interval,
    read_fourier_json,
    read_grid_csv,
    write_grid_csv,
)

COMMANDS = (
    "functional",
    "verify",
    "reflect",
    "normalize",
    "sqrt-lift",
    "sweep",
    "wang",
    "optimize",
    "diaz",
    "eigen",
    "weissler",
)

MAX_SAMPLES = 2**24

OUTPUT_DIR_ENV = "LSILAB_OUTPUT_DIR"

#: Default check tolerances; override with --tolerance [name=]value.
DEFAULT_TOLERANCES = {
    "deficit": 1e-7,
    "residual": 1e-6,
    "entropy": 1e-7,
    "eigenvalue": 1e-7,
    "optimizer": 1e-6,
    "diaz": 1e-7,
}


@dataclass
class RunConfig:
    """Parsed invocation of one CLI command."""

    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    n: int = 4096
    n_max: int = 64
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    domain_kind: Optional[str] = None
    form: str = "auto"
    eps: float = 0.2
    eps_list: tuple = ()
    q_list: tuple = ()
    trials: int = 100
    n_modes: int = 16
    max_iters: int = 5000
    extrapolate: bool = False

    def tolerance(self, name: str) -> float:
        if name in self.tolerances:
            return self.tolerances[name]
        if "*" in self.tolerances:
            return self.tolerances["*"]
        return DEFAULT_TOLERANCES[name]

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ParamOutOfRangeError(f"unknown command {self.command!r}")
        if not (16 <= self.n <= MAX_SAMPLES):
            raise ParamOutOfRangeError(f"N must lie in [16, {MAX_SAMPLES}], got {self.n}")


def _parse_tolerances(items: Sequence[str]) -> dict:
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        try:
            if sep:
                out[name.strip()] = float(value)
            else:
                out["*"] = float(name)
        except ValueError:
            raise ParamOutOfRangeError(f"bad tolerance override {item!r}") from None
    return out


def _parse_float_list(text: str, what: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParamOutOfRangeError(f"bad {what} list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The ``lsilab`` argument parser, built on first use and shared after that.

    Parsing does not change the parser, so one instance serves every call.
    """
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsilab",
        description="Log-Sobolev inequality laboratory: functionals, transforms and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        if flags.get("input"):
            p.add_argument("--input", required=True, help="input file path")
        if flags.get("domain"):
            p.add_argument(
                "--domain",
                choices=["interval", "circle"],
                required=flags["domain"] == "required",
                help="how to interpret the input grid",
            )
        p.add_argument("--output", help="output report path")
        p.add_argument("--N", type=int, default=flags.get("n", 4096), dest="n")
        p.add_argument("--n-max", type=int, default=64, dest="n_max")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--tolerance",
            action="append",
            default=[],
            metavar="[NAME=]VALUE",
            help="override a check tolerance (repeatable)",
        )
        return p

    p = add("functional", "evaluate the functional report of a grid CSV", input=True, domain="required")
    p.add_argument("--form", choices=["auto", "density", "wirtinger"], default="auto",
                   help="deficit form: auto = log-Sobolev by domain, density = Fisher "
                        "information form, wirtinger = mean-deviation bound")
    p = add("verify", "evaluate a deficit and fail (exit 2) if negative", input=True, domain="required")
    p.add_argument("--form", choices=["auto", "density", "wirtinger"], default="auto",
                   help="deficit form: auto = log-Sobolev by domain, density = Fisher "
                        "information form, wirtinger = mean-deviation bound")
    add("reflect", "reflect a [0,1] function onto the unit circle", input=True)
    add("normalize", "affine-rescale an interval function to unit mass on [0,1]", input=True)
    add("sqrt-lift", "pointwise square root with its certificate", input=True, domain="required")

    p = add("sweep", "sharpness sweep of the extremal family", n=8193)
    p.add_argument("--eps", required=True, help="comma-separated epsilon list")
    p.add_argument("--extrapolate", action="store_true", help="print the extrapolated constant")

    p = add("wang", "ODE residual of the exponential-cosine family", n=2049)
    p.add_argument("--eps", type=float, default=0.2)

    p = add("optimize", "minimize the deficit by projected gradient descent", n=2049)
    p.add_argument("--domain", choices=["interval", "circle"], default="interval")
    p.add_argument("--n-modes", type=int, default=16, dest="n_modes")
    p.add_argument("--max-iters", type=int, default=5000, dest="max_iters")

    p = add("diaz", "probe the open power-mean conjecture", n=2049)
    p.add_argument("--q", required=True, help="comma-separated exponent list")
    p.add_argument("--trials", type=int, default=100)

    add("eigen", "first-eigenvalue sanity check on the unit circle", n=256)
    add("weissler", "Fourier-side entropy bounds for a coefficient JSON", input=True)
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        output_path=args.output,
        n=args.n,
        n_max=args.n_max,
        seed=args.seed,
        tolerances=_parse_tolerances(args.tolerance),
        domain_kind=getattr(args, "domain", None),
        form=getattr(args, "form", "auto"),
        extrapolate=getattr(args, "extrapolate", False),
        trials=getattr(args, "trials", 100),
        n_modes=getattr(args, "n_modes", 16),
        max_iters=getattr(args, "max_iters", 5000),
    )
    if args.command == "wang":
        cfg.eps = args.eps
    if args.command == "sweep":
        cfg.eps_list = _parse_float_list(args.eps, "epsilon")
    if args.command == "diaz":
        cfg.q_list = _parse_float_list(args.q, "q")
    return cfg


def _resolve_output(cfg: RunConfig, default_name: str) -> Path:
    path = Path(cfg.output_path) if cfg.output_path else Path(default_name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_input_grid(cfg: RunConfig, kind: str) -> GridFunction:
    return read_grid_csv(cfg.input_path, kind)


def _deficit_report(f: GridFunction) -> functionals.FunctionalReport:
    if isinstance(f.domain, Interval):
        return functionals.lsi_deficit_general(f)
    if not is_unit_circle(f.domain):
        raise ParamOutOfRangeError(
            "circle deficits are defined for circumference 1; rescale the input"
        )
    return functionals.lsi_deficit_circle(f)


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        cfg.validate()
        return _dispatch(cfg)
    except LsiLabError as exc:
        print(f"lsilab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lsilab: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(cfg: RunConfig) -> int:
    command = cfg.command

    if command in ("functional", "verify"):
        f = _read_input_grid(cfg, cfg.domain_kind)
        out = _resolve_output(cfg, f"{command}.json")
        if cfg.form == "wirtinger":
            deficit = functionals.wirtinger_deficit(f)
            _write_json(
                {"form": "wirtinger", "constant": functionals.PI_SQUARED, "deficit": deficit},
                out,
            )
        else:
            report = (
                functionals.lsi_deficit_density_form(f)
                if cfg.form == "density"
                else _deficit_report(f)
            )
            deficit = report.deficit
            if out.suffix == ".csv":
                functionals.write_report_csv(report, out)
            else:
                functionals.write_report_json(report, out)
        print(f"deficit={deficit!r}")
        if command == "verify" and deficit < -cfg.tolerance("deficit"):
            print(
                "lsilab: proven inequality violated numerically "
                f"(deficit {deficit!r}); check the discretization",
                file=sys.stderr,
            )
            return 2
        return 0

    if command == "reflect":
        f = _read_input_grid(cfg, "interval")
        g, cert = transforms.reflect_to_circle(f)
        out = _resolve_output(cfg, "reflect.csv")
        write_grid_csv(g, out)
        transforms.write_certificate_json(cert, out.with_name(out.name + ".cert.json"))
        print(f"residuals={cert.identity_residuals}")
        return 0

    if command == "normalize":
        f = _read_input_grid(cfg, "interval")
        g, m, cert = transforms.affine_normalize(f)
        out = _resolve_output(cfg, "normalize.csv")
        write_grid_csv(g, out)
        transforms.write_certificate_json(cert, out.with_name(out.name + ".cert.json"))
        print(f"m={m!r}")
        return 0

    if command == "sqrt-lift":
        f = _read_input_grid(cfg, cfg.domain_kind)
        g, cert = transforms.sqrt_lift(f)
        out = _resolve_output(cfg, "sqrt-lift.csv")
        write_grid_csv(g, out)
        transforms.write_certificate_json(cert, out.with_name(out.name + ".cert.json"))
        print(f"residuals={cert.identity_residuals}")
        return 0

    if command == "sweep":
        records = experiments.sharpness_sweep(cfg.eps_list, cfg.n)
        out = _resolve_output(cfg, "sweep.csv")
        experiments.write_sweep_csv(records, out)
        if cfg.extrapolate:
            constant = experiments.extrapolate_constant(records)
            print(f"extrapolated_constant={constant!r}")
        return 0

    if command == "wang":
        residual = experiments.wang_ode_residual(cfg.eps, cfg.n)
        out = _resolve_output(cfg, "wang.json")
        _write_json({"eps": cfg.eps, "n": cfg.n, "residual": residual}, out)
        print(f"residual={residual!r}")
        if residual > cfg.tolerance("residual"):
            print(
                f"lsilab: ODE residual {residual!r} above tolerance; "
                "the identity is exact, so the discretization is off",
                file=sys.stderr,
            )
            return 2
        return 0

    if command == "optimize":
        domain = Interval(0.0, 1.0) if cfg.domain_kind != "circle" else Circle(1.0)
        result = experiments.minimize_deficit(
            domain, cfg.n_modes, cfg.seed, cfg.max_iters, n=cfg.n
        )
        out = _resolve_output(cfg, "optimize.json")
        _write_json(result.to_dict(), out)
        print(f"best_deficit={result.best_deficit!r} iterations={result.iterations}")
        if result.best_deficit < -cfg.tolerance("optimizer"):
            print(
                "lsilab: optimizer produced a negative deficit for a proven "
                "inequality; check the quadrature settings",
                file=sys.stderr,
            )
            return 2
        return 0

    if command == "diaz":
        report = experiments.diaz_probe(
            cfg.q_list, cfg.trials, cfg.seed, n=cfg.n, modes=min(cfg.n_max, 64)
        )
        out = _resolve_output(cfg, "diaz.csv")
        if out.suffix == ".json":
            experiments.write_probe_json(report, out)
        else:
            experiments.write_probe_csv(report, out)
        for r in report.results:
            print(f"q={r.q!r} min_deficit={r.min_deficit!r}")
        if report.counterexamples:
            paths = experiments.write_counterexamples(report, out)
            names = ", ".join(str(p) for p in paths)
            print(f"lsilab: counterexample candidates written to {names}", file=sys.stderr)
            return 3
        return 0

    if command == "eigen":
        # cap the scanned modes so every harmonic (and its square) stays
        # resolvable on the n-point grid
        value = experiments.eigenvalue_check(cfg.n, min(cfg.n_max, max(1, cfg.n // 4)))
        reference = 4.0 * math.pi**2
        out = _resolve_output(cfg, "eigen.json")
        _write_json({"eigenvalue": value, "reference": reference, "n": cfg.n}, out)
        print(f"eigenvalue={value!r}")
        if abs(value - reference) > cfg.tolerance("eigenvalue"):
            print("lsilab: spectral-gap check failed", file=sys.stderr)
            return 2
        return 0

    # weissler
    series = read_fourier_json(cfg.input_path)
    synthesis = from_fourier(series, cfg.n)
    ent = functionals.entropy(synthesis) / series.circumference
    abs_bound = functionals.weissler_bound(series, functionals.WeightPower.ABS_N)
    sq_bound = functionals.weissler_bound(series, functionals.WeightPower.N_SQUARED)
    out = _resolve_output(cfg, "weissler.json")
    _write_json(
        {
            "entropy": ent,
            "abs_n_bound": abs_bound,
            "n_squared_bound": sq_bound,
            "mass": series.mass(),
        },
        out,
    )
    print(f"entropy={ent!r} abs_n_bound={abs_bound!r} n_squared_bound={sq_bound!r}")
    tol = cfg.tolerance("entropy")
    if ent > abs_bound + tol or abs_bound > sq_bound + tol:
        print("lsilab: Fourier-side entropy bound violated numerically", file=sys.stderr)
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(list(argv))
    except LsiLabError as exc:
        print(f"lsilab: error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
