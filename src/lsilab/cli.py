"""Batch command-line front end.

One command per process; every command reads CSV/JSON inputs, writes its
report to ``--output`` and communicates through exit codes. ``functional``,
``verify``, ``sweep`` and ``diaz`` write CSV when it ends in ``.csv`` and JSON
otherwise, the transforms a grid CSV plus ``<output>.cert.json``, and every
other command JSON. Each command takes only the flags it reads, as declared
in :data:`COMMANDS` (``lsilab <command> -h`` lists them):

  0  success
  1  I/O, validation or usage error (malformed files, bad parameters, a flag
     the command does not take); the message is one ``lsilab: error:`` line
  2  a *proven* inequality came out negative beyond the command's
     --tolerance -- this flags a numerical-setup bug, never a disproof.
     Each checking command exits 2 exactly when its margin lies below
     -tolerance (see :func:`_verdict`): the deficit (verify), the best
     deficit (optimize), -residual (wang), -|eigenvalue - 4 pi^2| (eigen),
     and min(abs_n_bound - entropy, n_squared_bound - abs_n_bound) (weissler,
     whose quantities come from functionals.weissler_report)
  3  the open power-mean conjecture produced a candidate counterexample
     (a finding: the witness function is serialized next to the report)

A count is a whole number in its range, and anything else exits 1 (the
library raises ParamOutOfRangeError). Sizes are capped at MAX_SAMPLES = 2**24,
and a larger one exits 1 before it is allocated: --N, the data rows of a grid
CSV, the 2*max|n| + 1 coefficients of a Fourier JSON, and the N * --n-modes
entries of the ``optimize`` basis matrix. ``diaz --trials`` has the same cap.

Relative output paths resolve against $LSILAB_OUTPUT_DIR when it is set.
Identical invocations (including seeds) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import experiments, functionals, transforms
from .errors import LsiLabError, ParamOutOfRangeError
from .function_space import (
    MAX_SAMPLES,
    MIN_SAMPLES,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    _real,
    read_fourier_json,
    read_grid_csv,
    write_csv,
    write_grid_csv,
    write_json,
)

OUTPUT_DIR_ENV = "LSILAB_OUTPUT_DIR"


def _parse_float_list(text: str, what: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParamOutOfRangeError(f"bad {what} list {text!r}") from None
    if not values:
        raise ParamOutOfRangeError(f"empty {what} list {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """Ends a usage error like any other error: one ``lsilab: error:`` line, exit 1."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lsilab`` argument parser, built on first use from :data:`COMMANDS`.

    Parsing does not change the parser, so one instance serves every call.
    """
    parser = _Parser(
        prog="lsilab",
        description="Log-Sobolev inequality laboratory: functionals, transforms and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--output", help="output report path")
        for flag, options in command.flags:
            p.add_argument(flag, **options)
    return parser


def parse_config(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parsed arguments, with --N checked against [MIN_SAMPLES, MAX_SAMPLES]."""
    args = build_parser().parse_args(argv)
    if "n" in args and not (MIN_SAMPLES <= args.n <= MAX_SAMPLES):
        raise ParamOutOfRangeError(f"N must lie in [{MIN_SAMPLES}, {MAX_SAMPLES}], got {args.n!s:.40}")
    return args


def _resolve_output(args: argparse.Namespace, default_name: str) -> Path:
    path = Path(args.output) if args.output else Path(default_name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _verdict(margin: float, tolerance: float, message: str) -> int:
    """Exit code of a checking command: 2, with ``message`` on stderr, when
    the proven inequality's ``margin`` lies below ``-tolerance``; else 0."""
    if margin < -tolerance:
        print(f"lsilab: {message}", file=sys.stderr)
        return 2
    return 0


def _checked(args: argparse.Namespace, payload: dict, summary: str, margin: float = 0.0,
             message: str = "", table: tuple | None = None, suffix: str = ".json") -> int:
    """The tail of every report command, all but the transforms: the report at the command's
    output (default ``<command><suffix>``) as the CSV rows of ``table = (header, rows)`` when given
    and the path ends in ``.csv``, else ``payload`` as JSON; the ``summary`` lines, if any; then
    :func:`_verdict` if the command takes --tolerance."""
    out = _resolve_output(args, args.command + suffix)
    if table and out.suffix == ".csv":
        write_csv(table[0], list(zip(*table[1])), out)
    else:
        write_json(payload, out)
    if summary:
        print(summary)
    return _verdict(margin, args.tolerance, message) if "tolerance" in args else 0


def _deficit(args: argparse.Namespace) -> int:
    """``functional`` and ``verify``: one deficit form of a grid CSV."""
    f = read_grid_csv(args.input, args.domain)
    if args.form == "wirtinger":
        deficit = functionals.wirtinger_deficit(f)
        payload = {"form": "wirtinger", "constant": functionals.PI_SQUARED, "deficit": deficit}
        header, row = ",".join(payload), tuple(payload.values())
    else:
        report = (functionals.lsi_deficit_density_form if args.form == "density" else
                  functionals.lsi_deficit_general if args.domain == "interval" else
                  functionals.lsi_deficit_circle)(f)
        deficit, payload = report.deficit, report.to_dict()
        header, row = functionals.REPORT_CSV_HEADER, report.csv_row()
    return _checked(args, payload, f"deficit={deficit!r}", deficit, "proven inequality violated "
                    f"numerically (deficit {deficit!r}); check the discretization", (header, [row]))


def _transform(name: str, args: argparse.Namespace) -> int:
    """``reflect``, ``normalize`` and ``sqrt-lift``: the output grid of ``transforms.<name>``
    plus its certificate; ``affine_normalize`` also returns the m it prints."""
    f = read_grid_csv(args.input, getattr(args, "domain", "interval"))
    g, *m, cert = getattr(transforms, name)(f)
    out = _resolve_output(args, f"{args.command}.csv")
    write_grid_csv(g, out)
    write_json(cert.to_dict(), out.with_name(out.name + ".cert.json"))
    print(f"m={m[0]!r}" if m else f"residuals={cert.identity_residuals}")
    return 0


def _sweep(args: argparse.Namespace) -> int:
    records = experiments.sharpness_sweep(args.eps, args.n)
    constant = experiments.extrapolate_constant(records) if args.extrapolate else None
    return _checked(args, {"records": [asdict(r) for r in records]},
                    "" if constant is None else f"extrapolated_constant={constant!r}", suffix=".csv",
                    table=(experiments.SWEEP_CSV_HEADER, [r.csv_row() for r in records]))


def _wang(args: argparse.Namespace) -> int:
    residual = experiments.wang_ode_residual(args.eps, args.n)
    return _checked(args, {"eps": args.eps, "n": args.n, "residual": residual},
                    f"residual={residual!r}", -residual, f"ODE residual {residual!r} above "
                    "tolerance; the identity is exact, so the discretization is off")


def _optimize(args: argparse.Namespace) -> int:
    domain = UNIT_CIRCLE if args.domain == "circle" else UNIT_INTERVAL
    result = experiments.minimize_deficit(domain, args.n_modes, args.seed, args.max_iters, n=args.n)
    return _checked(args, result.to_dict(), f"best_deficit={result.best_deficit!r} "
                    f"iterations={result.iterations}", result.best_deficit, "optimizer produced a "
                    "negative deficit for a proven inequality; check the quadrature settings")


def _diaz(args: argparse.Namespace) -> int:
    if not 1 <= args.modes <= 64:
        raise ParamOutOfRangeError(f"--modes must lie in [1, 64], got {args.modes!s:.40}")
    report = experiments.diaz_probe(args.q, args.trials, args.seed, n=args.n, modes=args.modes)
    summary = "\n".join(f"q={r.q!r} min_deficit={r.min_deficit!r}" for r in report.results)
    _checked(args, report.to_dict(), summary, suffix=".csv",
             table=(experiments.DIAZ_CSV_HEADER, [r.csv_row() for r in report.results]))
    if not report.counterexamples:
        return 0
    paths = experiments.write_counterexamples(report, _resolve_output(args, "diaz.csv"))
    print(f"lsilab: counterexample candidates written to {', '.join(map(str, paths))}", file=sys.stderr)
    return 3


def _eigen(args: argparse.Namespace) -> int:
    # cap the scanned modes so every harmonic (and its square) stays
    # resolvable on the n-point grid
    value = experiments.eigenvalue_check(args.n, min(args.n_max, max(1, args.n // 4)))
    reference = functionals.FOUR_PI_SQUARED
    return _checked(args, {"eigenvalue": value, "reference": reference, "n": args.n},
                    f"eigenvalue={value!r}", -abs(value - reference), "spectral-gap check failed")


def _weissler(args: argparse.Namespace) -> int:
    report = functionals.weissler_report(read_fourier_json(args.input), args.n)
    ent, abs_bound, sq_bound = report["entropy"], report["abs_n_bound"], report["n_squared_bound"]
    return _checked(args, report, f"entropy={ent!r} abs_n_bound={abs_bound!r} "
                    f"n_squared_bound={sq_bound!r}", min(abs_bound - ent, sq_bound - abs_bound),
                    "Fourier-side entropy bound violated numerically")


class Command(NamedTuple):
    """One subcommand: its handler, its help line and the flags the handler reads."""

    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple


_INPUT = ("--input", dict(required=True, help="input file path"))
_DOMAIN = ("--domain", dict(choices=["interval", "circle"], required=True,
                           help="how to interpret the input grid"))
_FORM = ("--form", dict(choices=["auto", "density", "wirtinger"], default="auto",
                       help="deficit form: auto = log-Sobolev by domain, density = Fisher "
                            "information form, wirtinger = mean-deviation bound"))
_SEED = ("--seed", dict(type=int, default=0, help="random seed (default 0)"))


def _n(default: int) -> tuple:
    return ("--N", dict(type=int, default=default, dest="n",
                        help=f"grid sample count (default {default})"))


def _finite_float(text: str) -> float:
    """A ``--tolerance`` value. A NaN or infinite one would settle the check
    before it is made: every comparison with NaN is false, and none with an
    infinity depends on the result."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r:.40}") from None
    return _real(value, f"must be a finite float, got {text!r:.40}", argparse.ArgumentTypeError)


def _tolerance(default: float) -> tuple:
    return ("--tolerance", dict(type=_finite_float, default=default,
                                help=f"exit 2 beyond this tolerance (default {default!r})"))


#: Command name -> Command. Every command also takes --output.
COMMANDS = {
    "functional": Command(_deficit, "evaluate the functional report of a grid CSV",
                          (_INPUT, _DOMAIN, _FORM)),
    "verify": Command(_deficit, "evaluate a deficit and fail (exit 2) if negative",
                      (_INPUT, _DOMAIN, _FORM, _tolerance(1e-7))),
    "reflect": Command(functools.partial(_transform, "reflect_to_circle"),
                       "reflect a [0,1] function onto the unit circle", (_INPUT,)),
    "normalize": Command(functools.partial(_transform, "affine_normalize"),
                         "affine-rescale an interval function to unit mass on [0,1]", (_INPUT,)),
    "sqrt-lift": Command(functools.partial(_transform, "sqrt_lift"),
                         "pointwise square root with its certificate", (_INPUT, _DOMAIN)),
    "sweep": Command(_sweep, "sharpness sweep of the extremal family", (
        _n(8193),
        ("--eps", dict(required=True, type=functools.partial(_parse_float_list, what="epsilon"),
                       help="comma-separated epsilon list")),
        ("--extrapolate", dict(action="store_true", help="print the extrapolated constant")),
    )),
    "wang": Command(_wang, "ODE residual of the exponential-cosine family", (
        _n(2049), _tolerance(1e-6),
        ("--eps", dict(type=float, default=0.2, help="family parameter in (0, 1) (default 0.2)")),
    )),
    "optimize": Command(_optimize, "minimize the deficit by projected gradient descent", (
        _n(2049), _SEED, _tolerance(1e-6),
        ("--domain", dict(choices=["interval", "circle"], default="interval",
                          help="[0, 1] or the unit circle (default interval)")),
        ("--n-modes", dict(type=int, default=16,
                           help="trial-function coefficients, at least 2 (default 16)")),
        ("--max-iters", dict(type=int, default=5000, help="iteration cap (default 5000)")),
    )),
    "diaz": Command(_diaz, "probe the open power-mean conjecture", (
        _n(2049), _SEED,
        ("--modes", dict(type=int, default=64, help="random modes per trial, 1 to 64 (default 64)")),
        ("--q", dict(required=True, type=functools.partial(_parse_float_list, what="q"),
                     help="comma-separated exponent list")),
        ("--trials", dict(type=int, default=100,
                          help="trial functions, the constant among them (default 100)")),
    )),
    "eigen": Command(_eigen, "first-eigenvalue sanity check on the unit circle", (
        _n(256), _tolerance(1e-7),
        ("--n-max", dict(type=int, default=64,
                         help="highest harmonic scanned, at most N/4 (default 64)")),
    )),
    "weissler": Command(_weissler, "Fourier-side entropy bounds for a coefficient JSON",
                        (_INPUT, _n(4096), _tolerance(1e-7))),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to the process arguments. Returns the exit code."""
    try:
        args = parse_config(argv)
        return COMMANDS[args.command].run(args)
    except (LsiLabError, OSError, argparse.ArgumentError) as exc:
        print(f"lsilab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
