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
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import experiments, functionals, transforms
from .errors import LsiLabError, ParamOutOfRangeError
from .function_space import (
    Circle,
    Interval,
    from_fourier,
    is_unit_circle,
    read_fourier_json,
    read_grid_csv,
    write_grid_csv,
    write_json,
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
}


def _parse_tolerances(items: Sequence[str]) -> dict:
    """Every tolerance in DEFAULT_TOLERANCES after the overrides; ``*`` sets all unnamed."""
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        name = name.strip() if sep else "*"
        if name != "*" and name not in DEFAULT_TOLERANCES:
            raise ParamOutOfRangeError(f"unknown tolerance {name!r} in {item!r}")
        try:
            out[name] = float(value if sep else item)
        except ValueError:
            raise ParamOutOfRangeError(f"bad tolerance override {item!r}") from None
    return {
        name: out.get(name, out.get("*", default)) for name, default in DEFAULT_TOLERANCES.items()
    }


def _parse_float_list(text: str, what: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParamOutOfRangeError(f"bad {what} list {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lsilab`` argument parser, built on first use and shared after that.

    Parsing does not change the parser, so one instance serves every call.
    """
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


def parse_config(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parsed arguments, with ``tolerances`` resolved and the --eps/--q lists split."""
    args = build_parser().parse_args(argv)
    args.tolerances = _parse_tolerances(args.tolerance)
    if args.command == "sweep":
        args.eps = _parse_float_list(args.eps, "epsilon")
    if args.command == "diaz":
        args.q = _parse_float_list(args.q, "q")
    if not (16 <= args.n <= MAX_SAMPLES):
        raise ParamOutOfRangeError(f"N must lie in [16, {MAX_SAMPLES}], got {args.n}")
    return args


def _resolve_output(args: argparse.Namespace, default_name: str) -> Path:
    path = Path(args.output) if args.output else Path(default_name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _deficit(args: argparse.Namespace) -> int:
    """``functional`` and ``verify``: one deficit form of a grid CSV."""
    f = read_grid_csv(args.input, args.domain)
    out = _resolve_output(args, f"{args.command}.json")
    if args.form == "wirtinger":
        deficit = functionals.wirtinger_deficit(f)
        write_json(
            {"form": "wirtinger", "constant": functionals.PI_SQUARED, "deficit": deficit},
            out,
        )
    else:
        if args.form == "density":
            report = functionals.lsi_deficit_density_form(f)
        elif isinstance(f.domain, Interval):
            report = functionals.lsi_deficit_general(f)
        elif is_unit_circle(f.domain):
            report = functionals.lsi_deficit_circle(f)
        else:
            raise ParamOutOfRangeError(
                "circle deficits are defined for circumference 1; rescale the input"
            )
        deficit = report.deficit
        if out.suffix == ".csv":
            functionals.write_report_csv(report, out)
        else:
            write_json(report.to_dict(), out)
    print(f"deficit={deficit!r}")
    if args.command == "verify" and deficit < -args.tolerances["deficit"]:
        print(
            "lsilab: proven inequality violated numerically "
            f"(deficit {deficit!r}); check the discretization",
            file=sys.stderr,
        )
        return 2
    return 0


def _transform(args: argparse.Namespace) -> int:
    """``reflect``, ``normalize`` and ``sqrt-lift``: output grid plus certificate."""
    f = read_grid_csv(args.input, getattr(args, "domain", "interval"))
    if args.command == "normalize":
        g, m, cert = transforms.affine_normalize(f)
        summary = f"m={m!r}"
    else:
        if args.command == "reflect":
            g, cert = transforms.reflect_to_circle(f)
        else:
            g, cert = transforms.sqrt_lift(f)
        summary = f"residuals={cert.identity_residuals}"
    out = _resolve_output(args, f"{args.command}.csv")
    write_grid_csv(g, out)
    write_json(cert.to_dict(), out.with_name(out.name + ".cert.json"))
    print(summary)
    return 0


def _sweep(args: argparse.Namespace) -> int:
    records = experiments.sharpness_sweep(args.eps, args.n)
    out = _resolve_output(args, "sweep.csv")
    experiments.write_sweep_csv(records, out)
    if args.extrapolate:
        constant = experiments.extrapolate_constant(records)
        print(f"extrapolated_constant={constant!r}")
    return 0


def _wang(args: argparse.Namespace) -> int:
    residual = experiments.wang_ode_residual(args.eps, args.n)
    out = _resolve_output(args, "wang.json")
    write_json({"eps": args.eps, "n": args.n, "residual": residual}, out)
    print(f"residual={residual!r}")
    if residual > args.tolerances["residual"]:
        print(
            f"lsilab: ODE residual {residual!r} above tolerance; "
            "the identity is exact, so the discretization is off",
            file=sys.stderr,
        )
        return 2
    return 0


def _optimize(args: argparse.Namespace) -> int:
    domain = Interval(0.0, 1.0) if args.domain != "circle" else Circle(1.0)
    result = experiments.minimize_deficit(
        domain, args.n_modes, args.seed, args.max_iters, n=args.n
    )
    out = _resolve_output(args, "optimize.json")
    write_json(result.to_dict(), out)
    print(f"best_deficit={result.best_deficit!r} iterations={result.iterations}")
    if result.best_deficit < -args.tolerances["optimizer"]:
        print(
            "lsilab: optimizer produced a negative deficit for a proven "
            "inequality; check the quadrature settings",
            file=sys.stderr,
        )
        return 2
    return 0


def _diaz(args: argparse.Namespace) -> int:
    report = experiments.diaz_probe(
        args.q, args.trials, args.seed, n=args.n, modes=min(args.n_max, 64)
    )
    out = _resolve_output(args, "diaz.csv")
    if out.suffix == ".json":
        write_json(report.to_dict(), out)
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


def _eigen(args: argparse.Namespace) -> int:
    # cap the scanned modes so every harmonic (and its square) stays
    # resolvable on the n-point grid
    value = experiments.eigenvalue_check(args.n, min(args.n_max, max(1, args.n // 4)))
    reference = 4.0 * math.pi**2
    out = _resolve_output(args, "eigen.json")
    write_json({"eigenvalue": value, "reference": reference, "n": args.n}, out)
    print(f"eigenvalue={value!r}")
    if abs(value - reference) > args.tolerances["eigenvalue"]:
        print("lsilab: spectral-gap check failed", file=sys.stderr)
        return 2
    return 0


def _weissler(args: argparse.Namespace) -> int:
    series = read_fourier_json(args.input)
    synthesis = from_fourier(series, args.n)
    ent = functionals.entropy(synthesis) / series.circumference
    abs_bound = functionals.weissler_bound(series, functionals.WeightPower.ABS_N)
    sq_bound = functionals.weissler_bound(series, functionals.WeightPower.N_SQUARED)
    out = _resolve_output(args, "weissler.json")
    write_json(
        {
            "entropy": ent,
            "abs_n_bound": abs_bound,
            "n_squared_bound": sq_bound,
            "mass": series.mass(),
        },
        out,
    )
    print(f"entropy={ent!r} abs_n_bound={abs_bound!r} n_squared_bound={sq_bound!r}")
    tol = args.tolerances["entropy"]
    if ent > abs_bound + tol or abs_bound > sq_bound + tol:
        print("lsilab: Fourier-side entropy bound violated numerically", file=sys.stderr)
        return 2
    return 0


#: Command name -> function of the parsed arguments returning the exit code.
COMMANDS = {
    "functional": _deficit,
    "verify": _deficit,
    "reflect": _transform,
    "normalize": _transform,
    "sqrt-lift": _transform,
    "sweep": _sweep,
    "wang": _wang,
    "optimize": _optimize,
    "diaz": _diaz,
    "eigen": _eigen,
    "weissler": _weissler,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to the process arguments. Returns the exit code."""
    try:
        args = parse_config(argv)
        return COMMANDS[args.command](args)
    except (LsiLabError, OSError) as exc:
        print(f"lsilab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
