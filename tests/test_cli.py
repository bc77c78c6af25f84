"""Command-line front end: exit codes, file formats, determinism."""

import argparse
import functools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lsilab
from lsilab import (
    Circle,
    Family,
    UNIT_INTERVAL,
    fourier_from_dict,
    from_callable,
    sample_family,
    write_fourier_json,
    write_grid_csv,
)
from lsilab import experiments, function_space, functionals
from lsilab.cli import COMMANDS, build_parser, main, parse_config
from lsilab.experiments import DiazProbeReport, DiazQResult
from lsilab.function_space import MAX_SAMPLES, write_csv

from child import run_cli_limited
from references import probe_csv, report_csv, sweep_csv


@pytest.fixture
def const_csv(tmp_path):
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 101)
    path = tmp_path / "const1.csv"
    write_grid_csv(f, path)
    return path


def test_verify_constant_exits_zero(const_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--input", str(const_csv), "--domain", "interval",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["deficit"]) <= 1e-10
    assert "deficit=" in capsys.readouterr().out


def test_functional_writes_csv_report(const_csv, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["functional", "--input", str(const_csv), "--domain", "interval",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mass,entropy,energy,constant,deficit,ratio"
    assert len(lines) == 2


def test_malformed_csv_exits_one_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    rows = ["x,value"] + [f"{i/31!r},1.0" for i in range(32)]
    rows[4] = "oops"
    path.write_text("\n".join(rows) + "\n")
    code = main(["functional", "--input", str(path), "--domain", "interval",
                 "--output", str(tmp_path / "r.json")])
    assert code == 1
    assert "line 5" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(["verify", "--input", str(tmp_path / "nope.csv"),
                 "--domain", "interval", "--output", str(tmp_path / "r.json")])
    assert code == 1


def test_verify_negative_tolerance_triggers_exit_two(const_csv, tmp_path, capsys):
    # a negative tolerance turns the check into "deficit must exceed |tol|",
    # which the zero-deficit constant fails: exercises the exit-2 path
    code = main(["verify", "--input", str(const_csv), "--domain", "interval",
                 "--output", str(tmp_path / "r.json"), "--tolerance", "-0.5"])
    assert code == 2


def test_sweep_writes_csv_and_prints_extrapolation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--eps", "0.1,0.05,0.025", "--N", "8193",
                 "--extrapolate", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "extrapolated_constant=" in printed
    value = float(printed.split("extrapolated_constant=")[1].split()[0])
    assert value == pytest.approx(math.pi**2, abs=1e-4)
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,energy,entropy,ratio,deficit"
    assert len(lines) == 4


def test_sweep_leaves_the_ratio_cell_empty_when_the_entropy_is_not_positive(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--eps", "1e-300", "--N", "2049", "--output", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["ratio"] == ""


def test_sweep_output_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--eps", "0.2,0.1", "--N", "2049",
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_wang_exits_zero_and_writes_residual(tmp_path):
    out = tmp_path / "wang.json"
    code = main(["wang", "--eps", "0.2", "--N", "2049", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] <= 1e-6


def test_wang_tight_tolerance_exits_two(tmp_path):
    code = main(["wang", "--eps", "0.2", "--N", "2049",
                 "--output", str(tmp_path / "wang.json"),
                 "--tolerance", "1e-12"])
    assert code == 2


def test_optimize_interval(tmp_path):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--domain", "interval", "--n-modes", "6",
                 "--seed", "1", "--max-iters", "800", "--N", "513",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best_deficit"] >= -1e-6
    assert len(payload["coefficients"]) == 6


def test_diaz_exits_zero_without_counterexamples(tmp_path):
    out = tmp_path / "diaz.csv"
    code = main(["diaz", "--q", "1.5,2.0", "--trials", "10", "--seed", "3",
                 "--N", "1025", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,min_deficit,flag"
    assert all(line.endswith(",false") for line in lines[1:])


def test_diaz_counterexample_exits_three(tmp_path, monkeypatch, capsys):
    witness = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 64)
    fake = DiazProbeReport(
        seed=0, trials=1, n=64, modes=4,
        results=(DiazQResult(q=1.5, min_deficit=-1e-3, argmin_trial=0, flagged=True),),
        counterexamples=((1.5, 0, witness),),
    )
    monkeypatch.setattr("lsilab.cli.experiments.diaz_probe",
                        lambda *args, **kwargs: fake)
    out = tmp_path / "diaz.csv"
    code = main(["diaz", "--q", "1.5", "--trials", "1", "--output", str(out)])
    assert code == 3
    assert "counterexample" in capsys.readouterr().err
    assert (tmp_path / "diaz.csv.witness-q1.5-t0.csv").exists()


def test_eigen_exits_zero(tmp_path):
    out = tmp_path / "eigen.json"
    code = main(["eigen", "--N", "256", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["eigenvalue"] == pytest.approx(4 * math.pi**2, abs=1e-8)


def test_weissler_command(tmp_path):
    series = fourier_from_dict(1.0, {0: 1.0, 1: 0.1, -1: 0.1})
    path = tmp_path / "series.json"
    write_fourier_json(series, path)
    out = tmp_path / "weissler.json"
    code = main(["weissler", "--input", str(path), "--N", "1024",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["entropy"] <= payload["abs_n_bound"] + 1e-7
    assert payload["abs_n_bound"] <= payload["n_squared_bound"] + 1e-7


@pytest.mark.parametrize("im, defect", [(1.0, "2.000e+00"), (1e308, "inf")])
def test_weissler_rejects_non_real_series_in_one_line(tmp_path, capsys, im, defect):
    # a_{-1} = a_1 = i*im cannot be built as a FourierSeries, so the JSON is written by hand
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"circumference": 1.0, "coefficients": [
        {"n": -1, "re": 0.0, "im": im}, {"n": 1, "re": 0.0, "im": im}]}))
    out = tmp_path / "w.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["weissler", "--input", str(path), "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lsilab: error: conjugate-symmetry defect {defect}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", [256, 512, 4096, 8192])
def test_weissler_reads_a_near_symmetric_series_as_its_symmetrized_twin(tmp_path, capsys, n):
    # a_{-1} is 1e-5 off conj(a_1), under the 1e-4 tolerance at a_0 = 1e6: the
    # bound and the synthesis both read a_0 and a_1, so the margin is the twin's
    def run(a_minus_1):
        path = tmp_path / f"series{a_minus_1}.json"
        path.write_text(json.dumps({"circumference": 1.0, "coefficients": [
            {"n": -1, "re": a_minus_1, "im": 0.0}, {"n": 0, "re": 1e6, "im": 0.0},
            {"n": 1, "re": 87.2 + 1e-5, "im": 0.0}]}))
        out = tmp_path / f"w{a_minus_1}.json"
        assert main(["weissler", "--input", str(path), "--N", str(n), "--output", str(out)]) == 0
        return out.read_bytes(), capsys.readouterr()

    assert run(87.2) == run(87.2 + 1e-5)


@pytest.mark.parametrize("entries, message", [
    ([(0, 1e300, 0.0), (1, 1.7e308, 0.0), (-1, 1.7e308, 0.0)],
     "Fourier synthesis overflows float64; rescale the input"),
    ([(1, 1.7e308, 1.7e308), (-1, -1.7e308, 1.7e308)], "conjugate-symmetry defect inf"),
], ids=["overflowing-synthesis", "overflowing-defect"])
def test_weissler_on_coefficients_near_the_float64_limit_exits_one_in_one_line(
        tmp_path, entries, message):
    (tmp_path / "series.json").write_text(json.dumps({"circumference": 1.0, "coefficients": [
        {"n": n, "re": re, "im": im} for n, re, im in entries]}))
    proc = run_cli_limited(["weissler", "--input", "series.json", "--output", "w.json"], tmp_path)
    assert proc.returncode == 1
    assert (proc.stdout, proc.stderr) == ("", f"lsilab: error: {message}\n")
    assert not (tmp_path / "w.json").exists()


def test_weissler_rejects_sign_changing_synthesis(tmp_path):
    # f = 2 cos(2 pi x) is real but not nonnegative: the bound does not apply
    series = fourier_from_dict(1.0, {1: 1.0, -1: 1.0})
    path = tmp_path / "series.json"
    write_fourier_json(series, path)
    code = main(["weissler", "--input", str(path), "--output",
                 str(tmp_path / "w.json")])
    assert code == 1


def test_verify_density_form(tmp_path):
    f = from_callable(UNIT_INTERVAL, 1025, lambda x: np.exp(-0.1 * np.cos(math.pi * x)))
    src = tmp_path / "density.csv"
    write_grid_csv(f, src)
    out = tmp_path / "d.json"
    code = main(["verify", "--input", str(src), "--domain", "interval",
                 "--form", "density", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["deficit"] >= 0.0
    assert payload["constant"] == pytest.approx(2 * math.pi**2)


def test_verify_density_form_rejects_sign_changing_input(tmp_path):
    f = from_callable(UNIT_INTERVAL, 65, lambda x: x - 0.5)
    src = tmp_path / "signed.csv"
    write_grid_csv(f, src)
    code = main(["verify", "--input", str(src), "--domain", "interval",
                 "--form", "density", "--output", str(tmp_path / "d.json")])
    assert code == 1


def test_verify_wirtinger_form(tmp_path):
    f = from_callable(UNIT_INTERVAL, 2049, lambda x: np.cos(math.pi * x))
    src = tmp_path / "cosine.csv"
    write_grid_csv(f, src)
    out = tmp_path / "w.json"
    code = main(["verify", "--input", str(src), "--domain", "interval",
                 "--form", "wirtinger", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["form"] == "wirtinger"
    assert abs(payload["deficit"]) <= 1e-8
    # a negative tolerance turns the check into "deficit must exceed |tol|",
    # exercising the exit-2 path for this form as well
    code = main(["verify", "--input", str(src), "--domain", "interval",
                 "--form", "wirtinger", "--output", str(out),
                 "--tolerance", "-0.5"])
    assert code == 2


@pytest.mark.parametrize("command", ["functional", "verify"])
def test_wirtinger_form_writes_a_csv_row_to_a_csv_output(tmp_path, capsys, command):
    f = from_callable(UNIT_INTERVAL, 257, lambda x: np.cos(math.pi * x) + 0.1 * np.cos(2 * math.pi * x))
    src = tmp_path / "f.csv"
    write_grid_csv(f, src)
    argv = [command, "--input", str(src), "--domain", "interval", "--form", "wirtinger"]
    assert main(argv + ["--output", str(tmp_path / "w.json")]) == 0
    payload = json.loads((tmp_path / "w.json").read_text())
    assert main(argv + ["--output", str(tmp_path / "w.csv")]) == 0
    assert (tmp_path / "w.csv").read_text() == (
        f"form,constant,deficit\nwirtinger,{functionals.PI_SQUARED!r},{payload['deficit']!r}\n")
    assert capsys.readouterr().out == f"deficit={payload['deficit']!r}\n" * 2


def test_functional_circle_requires_unit_mass(tmp_path, capsys):
    f = sample_family(Family.CONSTANT, [2.0], Circle(1.0), 64)
    path = tmp_path / "big.csv"
    write_grid_csv(f, path)
    code = main(["functional", "--input", str(path), "--domain", "circle",
                 "--output", str(tmp_path / "r.json")])
    assert code == 1


def test_sweep_rejects_bad_eps_list(tmp_path):
    code = main(["sweep", "--eps", "0.1,zebra", "--N", "2049",
                 "--output", str(tmp_path / "s.csv")])
    assert code == 1


def test_reflect_round_trips_through_functional(const_csv, tmp_path):
    reflected = tmp_path / "reflected.csv"
    code = main(["reflect", "--input", str(const_csv), "--output", str(reflected)])
    assert code == 0
    assert (tmp_path / "reflected.csv.cert.json").exists()
    # the reflected output is a valid circle grid for the functional command
    code = main(["functional", "--input", str(reflected), "--domain", "circle",
                 "--output", str(tmp_path / "back.json")])
    assert code == 0


def test_normalize_command(tmp_path):
    f = sample_family(Family.CONSTANT, [2.0], UNIT_INTERVAL, 101)
    src = tmp_path / "f.csv"
    write_grid_csv(f, src)
    out = tmp_path / "g.csv"
    code = main(["normalize", "--input", str(src), "--output", str(out)])
    assert code == 0
    payload = json.loads((tmp_path / "g.csv.cert.json").read_text())
    assert payload["residuals"]["mass"] <= 1e-10


def test_sqrt_lift_command(tmp_path):
    f = sample_family(Family.CONSTANT, [4.0], UNIT_INTERVAL, 101)
    src = tmp_path / "f.csv"
    write_grid_csv(f, src)
    out = tmp_path / "g.csv"
    code = main(["sqrt-lift", "--input", str(src), "--domain", "interval",
                 "--output", str(out)])
    assert code == 0
    g = out.read_text().splitlines()
    assert float(g[1].split(",")[1]) == pytest.approx(2.0)


def test_output_dir_env_var(const_csv, tmp_path, monkeypatch):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.setenv("LSILAB_OUTPUT_DIR", str(outdir))
    code = main(["functional", "--input", str(const_csv), "--domain", "interval",
                 "--output", "report.json"])
    assert code == 0
    assert (outdir / "report.json").exists()


def test_bad_n_range_exits_one(const_csv, tmp_path, capsys):
    code = main(["weissler", "--input", str(const_csv),
                 "--N", "8", "--output", str(tmp_path / "r.json")])
    assert code == 1
    assert capsys.readouterr().err == "lsilab: error: N must lie in [16, 16777216], got 8\n"


def test_console_entry_point_runs(tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # "src" resolves to nothing; point it at the package imported here.
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(lsilab.__file__)))
    pythonpath = [src_root, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-m", "lsilab.cli", "eigen", "--N", "64",
         "--output", "eigen-smoke.json"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    # module execution path mirrors the installed console script
    assert proc.returncode == 0, proc.stderr
    assert "eigenvalue=" in proc.stdout
    assert (tmp_path / "eigen-smoke.json").exists()


def test_non_utf8_input_exits_one_with_one_line(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"x,value\n0.0,\xff\xfe\n" + bytes(range(256)))
    code = main(["functional", "--input", str(path), "--domain", "interval",
                 "--output", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"lsilab: error: {path}: not a UTF-8 text file\n"
    assert not (tmp_path / "r.json").exists()


def test_cached_parser_keeps_calls_apart(tmp_path, capsys):
    assert build_parser() is build_parser()
    first = parse_config(["weissler", "--input", "a.csv", "--tolerance", "0.5", "--N", "2049"])
    assert first.tolerance == 0.5
    second = parse_config(["weissler", "--input", "b.csv"])
    assert second.tolerance == 1e-7
    assert (second.input, second.n) == ("b.csv", 4096)
    third = parse_config(["verify", "--input", "c.csv", "--domain", "circle"])
    assert third.tolerance == 1e-7
    assert (third.input, third.domain) == ("c.csv", "circle")
    assert parse_config(["wang", "--tolerance", "0.25"]).tolerance == 0.25
    assert parse_config(["wang"]).tolerance == 1e-6
    # a negative tolerance fails the check; the next call must not inherit it
    out = str(tmp_path / "eigen.json")
    assert main(["eigen", "--N", "64", "--tolerance", "-1", "--output", out]) == 2
    assert "spectral-gap check failed" in capsys.readouterr().err
    assert main(["eigen", "--N", "64", "--output", out]) == 0
    assert capsys.readouterr().err == ""


def test_optimize_with_more_modes_than_the_grid_exits_one(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--n-modes", "5000", "--N", "64", "--max-iters", "3",
                 "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "lsilab: error: 5000 modes need N >= 10000, got 64\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["functional", "--domain", "interval"],
    ["verify", "--domain", "interval", "--form", "density"],
    ["verify", "--domain", "interval", "--form", "wirtinger"],
    ["reflect"], ["normalize"], ["sqrt-lift", "--domain", "interval"],
])
def test_overflowing_derivative_exits_one_with_one_line(tmp_path, capsys, command):
    f = from_callable(UNIT_INTERVAL, 65, lambda x: 1e308 * (1.0 + 0.7 * np.cos(40.0 * x)))
    assert np.all(np.isfinite(f.values))
    path = tmp_path / "huge.csv"
    write_grid_csv(f, path)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would add stderr lines
        code = main(command + ["--input", str(path), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "lsilab: error: derivative overflows float64; rescale the input\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("values", [
    lambda x: 1e308 * (1.0 + 0.7 * np.cos(6.0 * math.pi * x)),  # the FFT sum overflows
    lambda x: 1e305 * np.cos(40.0 * math.pi * x),  # the factor 2 pi i k overflows
])
def test_overflowing_circle_derivative_exits_one_with_one_line(tmp_path, capsys, values):
    path = tmp_path / "huge.csv"
    write_grid_csv(from_callable(Circle(1.0), 64, values), path)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--domain", "circle", "--input", str(path), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "lsilab: error: derivative overflows float64; rescale the input\n"
    )
    assert not out.exists()


def test_unknown_tolerance_name_exits_one(tmp_path, capsys):
    # a tolerance is one float: a NAME=VALUE item is a malformed flag value
    out = str(tmp_path / "eigen.json")
    assert main(["eigen", "--N", "64", "--tolerance", "diaz=1e-7", "--output", out]) == 1
    assert capsys.readouterr().err == (
        "lsilab: error: argument --tolerance: invalid float value: 'diaz=1e-7'\n"
    )
    assert not (tmp_path / "eigen.json").exists()
    # a bare value sets the tolerance; when repeated, the last value wins
    assert main(["eigen", "--N", "64", "--tolerance", "-1", "--output", out]) == 2
    assert main(["eigen", "--N", "64", "--tolerance", "-1", "--tolerance", "1e-7",
                 "--output", out]) == 0
    assert main(["eigen", "--N", "64", "--tolerance", "1e-7", "--tolerance", "-1",
                 "--output", out]) == 2


@pytest.mark.parametrize("command, values, name", [
    (["verify", "--domain", "interval"], lambda x: np.full_like(x, 1e200), "integral of f^2"),
    (["functional", "--domain", "interval"], lambda x: np.full_like(x, 1e200), "integral of f^2"),
    (["reflect"], lambda x: np.full_like(x, 1e200), "integral of f^2"),
    (["normalize"], lambda x: np.full_like(x, 1e200), "integral of f^2"),
    (["verify", "--domain", "interval", "--form", "wirtinger"],
     lambda x: 1e200 * (1.0 + 0.1 * np.cos(math.pi * x)), "Dirichlet energy"),
    (["verify", "--domain", "interval", "--form", "density"],
     lambda x: 1e200 * (1.0 + 0.1 * np.cos(math.pi * x)), "Fisher information"),
])
def test_overflowing_integral_exits_one_with_one_line(tmp_path, capsys, command, values, name):
    # finite samples and a finite derivative, but the squares overflow
    path = tmp_path / "huge.csv"
    write_grid_csv(from_callable(UNIT_INTERVAL, 65, values), path)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command + ["--input", str(path), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"lsilab: error: {name} overflows float64; rescale the input\n"
    )
    assert not out.exists()


def test_weissler_rejects_mode_past_the_sample_bound_in_one_line(tmp_path, capsys):
    # 2|n| + 1 is one past the bound: a regression allocates 256 MiB, not GiBs
    n = MAX_SAMPLES // 2
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"circumference": 1.0,
                                "coefficients": [{"n": -n, "re": 1.0, "im": 0.0}]}))
    out = tmp_path / "w.json"
    assert main(["weissler", "--input", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"lsilab: error: mode |n| = {n} needs {2 * n + 1} coefficients, more than {MAX_SAMPLES}\n"
    )
    assert not out.exists()


#: Every flag each command takes; each is read by the command's handler.
ACCEPTED_FLAGS = {
    "functional": {"--output", "--input", "--domain", "--form"},
    "verify": {"--output", "--input", "--domain", "--form", "--tolerance"},
    "reflect": {"--output", "--input"},
    "normalize": {"--output", "--input"},
    "sqrt-lift": {"--output", "--input", "--domain"},
    "sweep": {"--output", "--N", "--eps", "--extrapolate"},
    "wang": {"--output", "--N", "--eps", "--tolerance"},
    "optimize": {"--output", "--N", "--seed", "--tolerance", "--domain", "--n-modes",
                 "--max-iters"},
    "diaz": {"--output", "--N", "--modes", "--seed", "--q", "--trials"},
    "eigen": {"--output", "--N", "--n-max", "--tolerance"},
    "weissler": {"--output", "--input", "--N", "--tolerance"},
}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert accepted == ACCEPTED_FLAGS
    assert sum(map(len, accepted.values())) == 45


@pytest.mark.parametrize("argv, message", [
    (["functional", "--input", "IN", "--domain", "interval", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (["verify", "--input", "IN", "--domain", "interval", "--n-max", "8"],
     "unrecognized arguments: --n-max 8"),
    (["reflect", "--input", "IN", "--N", "4097"], "unrecognized arguments: --N 4097"),
    (["sqrt-lift", "--input", "IN", "--domain", "interval", "--tolerance", "1e-3"],
     "unrecognized arguments: --tolerance 1e-3"),
    (["sweep", "--eps", "0.1", "--seed", "2"], "unrecognized arguments: --seed 2"),
    (["eigen", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["eigen", "--n", "64"], "unrecognized arguments: --n 64"),  # no prefix of --n-max
    (["functional", "--domain", "interval"], "the following arguments are required: --input"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["eigen", "--N", "abc"], "argument --N: invalid int value: 'abc'"),
    (["diaz", "--q", ",", "--trials", "2"], "empty q list ','"),
    (["sweep", "--eps", ","], "empty epsilon list ','"),
    (["verify", "--input", "IN", "--domain", "interval", "--tolerance", "deficit=1e-3"],
     "argument --tolerance: invalid float value: 'deficit=1e-3'"),
    (["diaz", "--q", "1.5", "--trials", "2", "--modes", "65"], "--modes must lie in [1, 64], got 65"),
    (["diaz", "--q", "1.5", "--trials", "2", "--modes", "0"], "--modes must lie in [1, 64], got 0"),
    (["diaz", "--q", "1.5", "--trials", "2", "--n-max", "8"], "unrecognized arguments: --n-max 8"),
    (["diaz", "--q", "1.5", "--N", "16", "--modes", "64"],
     "modes = 64 exceeds n - 1 = 15; higher cosines alias on 16 samples"),
    (["diaz", "--q", "1.5", "--trials", "1", "--N", "16", "--modes", "64"],  # no random trial
     "modes = 64 exceeds n - 1 = 15; higher cosines alias on 16 samples"),
    (["optimize", "--seed", "-1"], "seed must be a nonnegative integer"),
    (["diaz", "--q", "1.5", "--trials", "5", "--seed", "-1"], "seed must be a nonnegative integer"),
    (["sweep", "--eps", "1e-300,0.1,0.05", "--extrapolate"],  # 1e-300 has no ratio
     "need >= 3 records with distinct epsilon, got 2"),
])
def test_usage_errors_exit_one_with_one_line(const_csv, tmp_path, monkeypatch, capsys,
                                            argv, message):
    monkeypatch.chdir(tmp_path)  # default output names land here
    code = main([str(const_csv) if arg == "IN" else arg for arg in argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"lsilab: error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [const_csv.name]


#: The check tolerance of each command that has one.
TOLERANCES = {"verify": 1e-7, "wang": 1e-6, "optimize": 1e-6, "eigen": 1e-7, "weissler": 1e-7}


@pytest.mark.parametrize("name", COMMANDS)
def test_every_flag_has_help(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {flag: action for action in sub.choices[name]._actions
               for flag in action.option_strings}
    assert all(action.help for action in actions.values())
    if name in TOLERANCES:
        assert actions["--tolerance"].default == TOLERANCES[name]
        assert f"(default {TOLERANCES[name]!r})" in actions["--tolerance"].help
    else:
        assert "--tolerance" not in actions
    if name == "diaz":
        assert actions["--modes"].help.startswith("random modes per trial, 1 to 64")
    if name == "eigen":
        assert actions["--n-max"].help.startswith("highest harmonic scanned, at most N/4")


#: argv of each command that takes --tolerance; IN and SERIES name its input files
TOLERANCE_ARGV = {
    "verify": ["verify", "--input", "IN", "--domain", "interval"],
    "wang": ["wang"],
    "optimize": ["optimize", "--max-iters", "5"],
    "eigen": ["eigen", "--N", "64"],
    "weissler": ["weissler", "--input", "SERIES"],
}

#: The exit-2 stderr line of each checking command; {} is the value it printed on stdout.
EXIT_TWO_LINES = {
    "verify": "lsilab: proven inequality violated numerically (deficit {}); "
              "check the discretization",
    "wang": "lsilab: ODE residual {} above tolerance; "
            "the identity is exact, so the discretization is off",
    "optimize": "lsilab: optimizer produced a negative deficit for a proven inequality; "
                "check the quadrature settings",
    "eigen": "lsilab: spectral-gap check failed",
    "weissler": "lsilab: Fourier-side entropy bound violated numerically",
}


@pytest.fixture
def tolerance_argv(const_csv, tmp_path, monkeypatch):
    """name -> argv of each checking command, its inputs written to tmp_path (the cwd)."""
    series = tmp_path / "series.json"
    write_fourier_json(fourier_from_dict(1.0, {0: 1.0}), series)
    monkeypatch.chdir(tmp_path)
    inputs = {"IN": str(const_csv), "SERIES": str(series)}
    return {name: [inputs.get(arg, arg) for arg in argv] for name, argv in TOLERANCE_ARGV.items()}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(TOLERANCE_ARGV))
def test_non_finite_tolerance_exits_one_with_one_line(tolerance_argv, tmp_path, capsys,
                                                      name, value):
    # with NaN or an infinity, the check's outcome would not depend on the result
    assert sorted(TOLERANCE_ARGV) == sorted(TOLERANCES)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    out = str(tmp_path / "out.json")
    assert main(tolerance_argv[name] + [f"--tolerance={value}", "--output", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"lsilab: error: argument --tolerance: must be a finite float, got {value!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("name", sorted(TOLERANCE_ARGV))
def test_checking_command_exits_two_with_its_line_beyond_the_tolerance(tolerance_argv, tmp_path,
                                                                       capsys, name):
    assert sorted(EXIT_TWO_LINES) == sorted(TOLERANCES)
    out = tmp_path / "out.json"
    assert main(tolerance_argv[name] + ["--output", str(out)]) == 0
    passed = capsys.readouterr()
    assert passed.err == ""
    report = out.read_bytes()
    out.unlink()
    # a negative tolerance demands a margin of 1e6, which none of these inputs has
    assert main(tolerance_argv[name] + ["--tolerance=-1e6", "--output", str(out)]) == 2
    failed = capsys.readouterr()
    assert failed.out == passed.out
    printed = passed.out.split()[0].partition("=")[2]
    assert failed.err == EXIT_TWO_LINES[name].format(printed) + "\n"
    assert out.read_bytes() == report


def test_grid_csv_over_the_row_cap_exits_one_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(function_space, "MAX_SAMPLES", 64)
    path = tmp_path / "long.csv"
    write_grid_csv(sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 65), path)
    out = tmp_path / "r.json"
    code = main(["verify", "--input", str(path), "--domain", "interval", "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"lsilab: error: {path}: more than 64 rows\n"
    assert not out.exists()


def test_reflect_writes_a_circle_grid_longer_than_the_sampling_limit(tmp_path, monkeypatch, capsys):
    # the limit binds sizes a caller asks for, not the grid of a function that already
    # exists: a reflection of N accepted rows has 2(N - 1) samples, more than N
    monkeypatch.setattr(function_space, "_check_size",
                        functools.partial(function_space._check_size, limit=64))
    src, out = tmp_path / "f.csv", tmp_path / "reflect.csv"
    write_grid_csv(sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 35), src)
    assert main(["reflect", "--input", str(src), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text().splitlines()) == 1 + 68
    assert (tmp_path / "reflect.csv.cert.json").exists()
    with pytest.raises(lsilab.ParamOutOfRangeError, match="^need n <= 64 samples, got 68$"):
        lsilab.grid_points(lsilab.UNIT_CIRCLE, 68)


def test_diaz_modes_sets_the_modes_per_trial(tmp_path, capsys):
    out = tmp_path / "diaz.json"
    code = main(["diaz", "--q", "1.5", "--trials", "3", "--N", "257", "--modes", "8",
                 "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["modes"] == 8


@pytest.mark.parametrize("command", [["verify"], ["functional"], ["sqrt-lift"]])
def test_non_unit_circle_exits_one_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "wide.csv"
    write_grid_csv(sample_family(Family.CONSTANT, [1.0], Circle(2.0), 64), path)
    out = tmp_path / "r.json"
    code = main(command + ["--domain", "circle", "--input", str(path), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "lsilab: error: circle reports require circumference 1, got 2.0\n"
    )
    assert not out.exists()


def _series_json(*entries):
    items = ", ".join('{"n": %s, "re": %s, "im": 0.0}' % entry for entry in entries)
    return ('{"circumference": 1.0, "coefficients": [%s]}' % items).encode()


@pytest.mark.parametrize("payload, message", [
    (_series_json(("0", "1.0")) + b"\xff\xfe", "not a UTF-8 text file"),
    (_series_json(("Infinity", "1.0")), "mode index inf is not an integer"),
    (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: maximum recursion depth exceeded"),
    (_series_json(("0", "1.0"), ("0.5", "2.0")), "mode index 0.5 is not an integer"),
    (_series_json(("0", "1.0"), ("0", "2.0")), "duplicate mode index 0"),
    (_series_json(("1" * 5000, "1.0")), "invalid JSON: Exceeds the limit"),
    (_series_json(("9" * 4300, "1.0")), "mode index 9999999999"),
    (_series_json(("0", "1" * 400)), "malformed Fourier series payload: int too large"),
], ids=["not-utf8", "infinite-index", "deep-nesting", "fractional-index", "duplicate-index",
        "5000-digit-index", "4300-digit-index", "400-digit-real"])
def test_hostile_fourier_json_exits_one_with_one_line(tmp_path, capsys, payload, message):
    path = tmp_path / "series.json"
    path.write_bytes(payload)
    out = tmp_path / "w.json"
    assert main(["weissler", "--input", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"lsilab: error: {path}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["functional", "-h"], ["eigen", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: lsilab" in capsys.readouterr().out


def test_write_csv_matches_the_replaced_report_writers(tmp_path):
    reports = [
        lsilab.lsi_deficit_general(
            from_callable(UNIT_INTERVAL, 65, lambda x: 1.0 + 0.3 * np.cos(np.pi * x))),
        lsilab.lsi_deficit_general(sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 65)),  # ratio None
    ]
    assert reports[1].ratio is None
    records = lsilab.sharpness_sweep([0.3, 0.1], 2049)
    results = [DiazQResult(1.5, -1e-3, 4, True), DiazQResult(np.float64(2.0), 1e-17, 0, False)]
    cases = [
        (report_csv, r, functionals.REPORT_CSV_HEADER, [r.csv_row()]) for r in reports
    ] + [
        (sweep_csv, records, experiments.SWEEP_CSV_HEADER,
         [r.csv_row() for r in records]),
        (probe_csv, results, experiments.DIAZ_CSV_HEADER,
         [r.csv_row() for r in results]),
    ]
    for i, (reference, data, header, rows) in enumerate(cases):
        want, got = tmp_path / f"want{i}.csv", tmp_path / f"got{i}.csv"
        reference(data, want)
        write_csv(header, list(zip(*rows)), got)
        assert got.read_bytes() == want.read_bytes()
