"""Full-grid arrays are allocated once, and size limits hold before allocation.

``GridFunction`` copies a caller's array but adopts the arrays lsilab
builds for it. The circle energy scales its spectrum by a real factor and
synthesis scales in place; both must equal the expressions they replaced
with ``==``, the energy summed over blocks of BLOCK modes as it is now.
The power-mean probe keeps only its witnesses, the optimizer refuses an
oversized basis before it builds one, and every entry point that takes a
grid size refuses one above MAX_SAMPLES before it allocates. Every count an
entry point takes is refused the same way when it is not a whole number in
its range, and the CSV reader reserves nothing for its row cap.
"""

import inspect
import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    Family,
    FourierSeries,
    GridFunction,
    Interval,
    InvalidInputError,
    ParamOutOfRangeError,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    affine_normalize,
    diaz_probe,
    differentiate,
    dirichlet_energy,
    fourier_from_dict,
    from_callable,
    from_fourier,
    minimize_deficit,
    read_grid_csv,
    reflect_to_circle,
    sample_family,
    sqrt_lift,
    to_fourier,
    write_grid_csv,
)
import lsilab
from lsilab import experiments, function_space
from lsilab.cli import main
from lsilab.experiments import random_admissible_function
from lsilab.function_space import MAX_SAMPLES, _check_size, _whole

from child import run_cli_limited, run_python_limited
from pins import traced_peak
from references import complex_factor_energy, probe_witnesses


# ---------------------------------------------------------------------------
# adoption contract
# ---------------------------------------------------------------------------

def _positive(domain, n):
    return from_callable(domain, n, lambda x: 1.5 + np.cos(2.0 * math.pi * x))


def test_construction_copies_the_callers_array():
    arr = np.linspace(1.0, 2.0, 33)
    f = GridFunction(UNIT_INTERVAL, arr)
    arr[:] = 7.0
    assert arr.flags.writeable
    np.testing.assert_array_equal(f.values, np.linspace(1.0, 2.0, 33))


def test_with_values_copies():
    f = _positive(UNIT_INTERVAL, 33)
    arr = np.linspace(1.0, 2.0, 33)
    g = f.with_values(arr)
    arr[:] = 7.0
    np.testing.assert_array_equal(g.values, np.linspace(1.0, 2.0, 33))


def test_adopt_freezes_the_array_where_it_is():
    arr = np.linspace(1.0, 2.0, 33)
    f = GridFunction._adopt(UNIT_INTERVAL, arr)
    assert f.values is arr
    assert not arr.flags.writeable


def test_adopt_still_checks_and_converts():
    with pytest.raises(InvalidInputError, match="all sampled values must be finite"):
        GridFunction._adopt(UNIT_INTERVAL, np.full(16, np.nan))
    with pytest.raises(InvalidInputError, match="need at least 16 samples, got 15"):
        GridFunction._adopt(UNIT_INTERVAL, np.ones(15))
    with pytest.raises(InvalidInputError, match="one-dimensional"):
        GridFunction._adopt(UNIT_INTERVAL, np.ones((4, 4)))
    f = GridFunction._adopt(UNIT_INTERVAL, np.arange(16))
    assert f.values.dtype == np.float64
    assert not f.values.flags.writeable


def _returned_functions(tmp_path, monkeypatch):
    """Every kind of GridFunction lsilab hands out, by name."""
    f = _positive(UNIT_INTERVAL, 65)
    path = tmp_path / "f.csv"
    write_grid_csv(f, path)
    series = FourierSeries(1.0, np.array([1.0, 0.25], dtype=complex))
    monkeypatch.setattr(experiments, "DIAZ_FLAG_TOL", 1.0)  # every trial is a witness
    return {
        "from_callable": f,
        "with_values": f.with_values(f.values),
        "read_grid_csv": read_grid_csv(path, "interval"),
        "differentiate-interval": differentiate(f),
        "differentiate-circle": differentiate(_positive(UNIT_CIRCLE, 64)),
        "from_fourier": from_fourier(series, 64),
        "constant": sample_family(Family.CONSTANT, [2], UNIT_CIRCLE, 32),
        "cosine_mode": sample_family(Family.COSINE_MODE, [3], Interval(-1.0, 2.0), 33),
        "sharpness": sample_family(Family.SHARPNESS, [0.3], UNIT_INTERVAL, 33),
        "wang": sample_family(Family.WANG, [0.3], UNIT_INTERVAL, 33),
        "random_trig": sample_family(Family.RANDOM_TRIG, [3, 4], UNIT_CIRCLE, 32),
        "reflect_to_circle": reflect_to_circle(f)[0],
        "affine_normalize": affine_normalize(_positive(Interval(0.5, 2.0), 65))[0],
        "sqrt_lift": sqrt_lift(f)[0],
        "random_admissible": random_admissible_function(UNIT_INTERVAL, 4, 1, 65),
        "random_admissible-raw": random_admissible_function(UNIT_INTERVAL, 4, 1, 65, normalize=False),
        "diaz-witness": diaz_probe([1.5], 3, 0, n=65, modes=4).counterexamples[-1][2],
    }


def test_every_returned_array_is_read_only(tmp_path, monkeypatch):
    for name, g in _returned_functions(tmp_path, monkeypatch).items():
        assert g.values.dtype == np.float64, name
        assert not g.values.flags.writeable, name
        with pytest.raises(ValueError):
            g.values[0] = 0.0


@pytest.mark.parametrize("domain, n", [(UNIT_INTERVAL, 65), (UNIT_CIRCLE, 64)], ids=["interval", "circle"])
def test_derivative_does_not_share_memory_with_its_input(domain, n):
    f = _positive(domain, n)
    assert not np.shares_memory(differentiate(f).values, f.values)


def test_transform_outputs_do_not_share_memory_with_their_inputs():
    f = _positive(UNIT_INTERVAL, 65)
    for g in (reflect_to_circle(f)[0], affine_normalize(f)[0], sqrt_lift(f)[0]):
        assert not np.shares_memory(g.values, f.values)


# ---------------------------------------------------------------------------
# circle energy with a real scale factor
# ---------------------------------------------------------------------------

def _energy_or_error(energy, f):
    with np.errstate(all="ignore"):
        try:
            return energy(f)
        except InvalidInputError as exc:
            return str(exc)


@pytest.mark.parametrize("n", [16, 17, 64, 65, 4096, 4097, 65536, 131072])
@pytest.mark.parametrize("length", [1.0, 2.0, 0.37])
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150, 1e300])
def test_circle_energy_equals_the_complex_factor_expression(n, length, scale):
    rng = np.random.default_rng(n)
    x = np.arange(n) / n
    values = 1.0 + 0.3 * np.cos(2 * np.pi * x) + 0.1 * np.sin(6 * np.pi * x) + 0.01 * rng.standard_normal(n)
    f = GridFunction(Circle(length), values * scale)
    got = _energy_or_error(dirichlet_energy, f)
    assert got == _energy_or_error(complex_factor_energy, f)
    assert isinstance(got, str if scale == 1e300 else float)  # 1e300: the energy overflows


# ---------------------------------------------------------------------------
# synthesis scaled in place
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [33, 64, 65, 4096])
@pytest.mark.parametrize("defect", [0.0, 1e-14], ids=["hermitian", "residue"])
def test_from_fourier_equals_n_times_irfft(n, defect):
    # two-sided data with a residue on a_{-8} synthesizes from the kept a_0..a_8
    rng = np.random.default_rng(n)
    half = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    half[0] = half[0].real
    entries = {k: a for k, a in enumerate(half)} | {-k: np.conj(half[k]) for k in range(1, 9)}
    entries[-8] += defect
    series = fourier_from_dict(0.7, entries)
    np.testing.assert_array_equal(series.half, half)
    want = n * np.fft.irfft(half, n)
    np.testing.assert_array_equal(from_fourier(series, n).values, want)
    assert from_fourier(series, n).domain == Circle(0.7)


@pytest.mark.parametrize("n, n_max", [(64, 20), (65, 32), (4096, 1024), (4097, 2048)])
def test_round_trip_equals_the_symmetric_part_synthesis(n, n_max):
    # synthesis once took the conjugate-symmetric part of a two-sided vector
    # first; on the vector that to_fourier's a_0..a_{n_max} imply it equals
    # today's synthesis, bit for bit
    f = from_callable(Circle(2.0), n, lambda x: np.exp(np.cos(math.pi * x) + 0.3 * np.sin(9 * x)))
    half = to_fourier(f, n_max).half
    c = np.concatenate([np.conj(half[:0:-1]), half])
    symmetric = c - (0.5 * c - 0.5 * np.conj(c[::-1]))
    want = n * np.fft.irfft(symmetric[n_max:], n)
    np.testing.assert_array_equal(from_fourier(to_fourier(f, n_max), n).values, want)


def test_sparse_two_sided_data_allocates_only_the_kept_half():
    # a_0..a_{n_max} is one array of n_max + 1 entries; a two-sided vector,
    # or a copy of the half, would double the peak
    n_max = 2**20
    half_bytes = (n_max + 1) * 16
    peak = traced_peak(lambda: fourier_from_dict(1.0, {0: 1.0, n_max: 0.5 - 0.25j, -n_max: 0.5 + 0.25j}))
    assert half_bytes <= peak < 1.25 * half_bytes


# ---------------------------------------------------------------------------
# power-mean probe: only the witnesses are kept
# ---------------------------------------------------------------------------

def test_probe_peak_memory_does_not_grow_with_the_trials():
    diaz_probe([1.5], 3, 0)  # warm caches and imports
    assert traced_peak(lambda: diaz_probe([1.5], 200, 0)) < 0.5 * 2**20


def test_probe_to_dict_copies_no_witness(monkeypatch):
    # asdict of the whole report deep-copies the 400 witness entries: a 6.5 MiB peak
    monkeypatch.setattr(experiments, "DIAZ_FLAG_TOL", 1.0)
    report = diaz_probe([1.25, 2.0], 200, 0, n=2049)
    assert len(report.counterexamples) == 400
    report.to_dict()  # warm caches
    assert traced_peak(report.to_dict) < 2**18


@pytest.mark.parametrize("tol", [0.05, 1.0], ids=["some-trials", "every-trial"])
def test_probe_witnesses_equal_per_trial_sampling(monkeypatch, tol):
    monkeypatch.setattr(experiments, "DIAZ_FLAG_TOL", tol)
    q_list, trials, seed, n, modes = [1.25, 2.0], 8, 5, 257, 8
    report = diaz_probe(q_list, trials, seed, n=n, modes=modes)
    want = probe_witnesses(q_list, trials, seed, n, modes, tol)
    assert [(q, t) for q, t, _ in report.counterexamples] == [(q, t) for q, t, _ in want]
    for (_, _, got), (_, _, f) in zip(report.counterexamples, want):
        np.testing.assert_array_equal(got.values, f.values)
    assert report.to_dict()["counterexamples"] == [{"q": q, "trial": t} for q, t, _ in want]
    if tol == 0.05:  # random trials on both sides of tol: the probe dropped some
        assert 1 < len({t for _, t, _ in want}) < trials


def test_diaz_exit_three_writes_the_witnesses_of_per_trial_sampling(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(experiments, "DIAZ_FLAG_TOL", 0.05)
    out = tmp_path / "diaz.csv"
    code = main(["diaz", "--q", "1.25,2", "--trials", "8", "--seed", "5", "--N", "257",
                 "--modes", "8", "--output", str(out)])
    assert code == 3
    want = probe_witnesses([1.25, 2.0], 8, 5, 257, 8, 0.05)
    paths = [tmp_path / f"diaz.csv.witness-q{q}-t{t}.csv" for q, t, _ in want]
    assert capsys.readouterr().err == (
        f"lsilab: counterexample candidates written to {', '.join(map(str, paths))}\n"
    )
    for path, (_, _, f) in zip(paths, want):
        reference = tmp_path / "reference.csv"
        write_grid_csv(f, reference)
        assert path.read_bytes() == reference.read_bytes()


# ---------------------------------------------------------------------------
# optimizer basis size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain, n, n_modes", [
    (UNIT_INTERVAL, MAX_SAMPLES, 16),
    (UNIT_INTERVAL, 65536, 32768),
    (UNIT_CIRCLE, MAX_SAMPLES // 16 + 1, 16),
], ids=["interval-max-N", "interval-many-modes", "circle-one-row-over"])
def test_oversized_basis_is_rejected_before_it_is_built(monkeypatch, domain, n, n_modes):
    def refuse(*args):
        raise AssertionError("_basis_matrix called for a rejected size")

    monkeypatch.setattr(experiments, "_basis_matrix", refuse)
    with pytest.raises(ParamOutOfRangeError, match=f"has {n * n_modes} entries, more than {MAX_SAMPLES}$"):
        minimize_deficit(domain, n_modes, 0, 10, n=n)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, UNIT_CIRCLE], ids=["interval", "circle"])
def test_basis_at_the_size_limit_is_accepted(monkeypatch, domain):
    monkeypatch.setattr(experiments, "MAX_SAMPLES", 64 * 4)
    assert minimize_deficit(domain, 4, 0, 5, n=64).iterations >= 1
    with pytest.raises(ParamOutOfRangeError, match="has 260 entries, more than 256$"):
        minimize_deficit(domain, 4, 0, 5, n=65)


@pytest.mark.parametrize("flags, message", [
    (["--N", "16777216"],
     "a basis of 16 modes on 16777216 samples has 268435456 entries, more than 16777216"),
    (["--N", "65536", "--n-modes", "32768"],
     "a basis of 32768 modes on 65536 samples has 2147483648 entries, more than 16777216"),
], ids=["max-N", "many-modes"])
def test_optimize_over_the_basis_limit_exits_one_in_a_capped_child(tmp_path, flags, message):
    proc = run_cli_limited(["optimize", *flags, "--output", "optimize.json"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"lsilab: error: {message}\n")
    assert not (tmp_path / "optimize.json").exists()


def test_diaz_over_the_trial_cap_exits_one_in_a_capped_child(tmp_path):
    # a huge count is refused at once instead of running for days
    proc = run_cli_limited(["diaz", "--q", "1.5", "--trials", "100000000000", "--output", "diaz.csv"],
                           tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"lsilab: error: need an integer trials in [1, {MAX_SAMPLES}], got 100000000000\n")
    assert not (tmp_path / "diaz.csv").exists()


# ---------------------------------------------------------------------------
# grid size limit
# ---------------------------------------------------------------------------

OVERSIZED_GRIDS = """
import numpy as np
from lsilab import (UNIT_INTERVAL, LsiLabError, fourier_from_dict, from_callable,
                    from_fourier, grid_points, sample_family, sharpness_sweep)
from lsilab.function_space import MAX_SAMPLES
calls = {
    "constant": lambda n: sample_family("constant", [1.0], UNIT_INTERVAL, n),
    "cosine_mode": lambda n: sample_family("cosine_mode", [1], UNIT_INTERVAL, n),
    "sharpness": lambda n: sample_family("sharpness", [0.1], UNIT_INTERVAL, n),
    "wang": lambda n: sample_family("wang", [0.1], UNIT_INTERVAL, n),
    "random_trig": lambda n: sample_family("random_trig", [0, 4], UNIT_INTERVAL, n),
    "from_fourier": lambda n: from_fourier(fourier_from_dict(1.0, {0: 1.0}), n),
    "sharpness_sweep": lambda n: sharpness_sweep([0.1, 0.05, 0.025], n),
    "from_callable": lambda n: from_callable(UNIT_INTERVAL, n, np.cos),
    "grid_points": lambda n: grid_points(UNIT_INTERVAL, n),
}
for name, call in calls.items():
    for n in (MAX_SAMPLES + 1, 2**40):
        try:
            call(n)
            print(name, "accepted")
        except (LsiLabError, MemoryError) as exc:
            print(name, type(exc).__name__, exc)
"""


def test_oversized_grids_are_refused_before_allocation_in_a_capped_child(tmp_path):
    proc = run_python_limited(["-c", OVERSIZED_GRIDS], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 18
    for line, n in zip(lines, [MAX_SAMPLES + 1, 2**40] * 9):
        assert line.endswith(f" ParamOutOfRangeError need n <= {MAX_SAMPLES} samples, got {n}"), line


# ---------------------------------------------------------------------------
# count policy: a whole number in [least, MAX_SAMPLES], checked before allocation
# ---------------------------------------------------------------------------

#: (entry point, count parameter) -> (least value or None for no lower bound,
#: whether the count is a sample count, the call with the count as ``v``).
COUNTS = {
    ("grid_points", "n"): (1, True, "grid_points(UNIT_CIRCLE, v)"),
    ("from_callable", "n"): (1, True, "from_callable(UNIT_INTERVAL, v, np.cos)"),
    ("sample_family", "n"): (1, True, "sample_family('constant', [1.0], UNIT_INTERVAL, v)"),
    ("from_fourier", "n"): (1, True, "from_fourier(fourier_from_dict(1.0, {0: 1.0}), v)"),
    ("weissler_report", "n"): (1, True, "weissler_report(fourier_from_dict(1.0, {0: 1.0}), v)"),
    ("to_fourier", "n_max"): (0, False, "to_fourier(from_callable(UNIT_CIRCLE, 64, np.cos), v)"),
    ("fourier_from_dict", "entries"): (None, False, "fourier_from_dict(1.0, {0: 1.0, v: 0.5})"),
    ("sharpness_sweep", "n"): (2049, True, "sharpness_sweep([0.1], v)"),
    ("wang_ode_residual", "n"): (513, True, "wang_ode_residual(0.2, v)"),
    ("eigenvalue_check", "n"): (64, True, "eigenvalue_check(v)"),
    ("eigenvalue_check", "n_max"): (1, False, "eigenvalue_check(64, v)"),
    ("mode_quotient", "n"): (1, True, "mode_quotient(v, 1)"),
    ("mode_quotient", "k"): (1, False, "mode_quotient(64, v)"),
    ("minimize_deficit", "n_modes"): (2, False, "minimize_deficit(UNIT_INTERVAL, v, 0, 2, n=65)"),
    ("minimize_deficit", "max_iters"): (1, False, "minimize_deficit(UNIT_INTERVAL, 4, 0, v, n=65)"),
    ("minimize_deficit", "n"): (1, True, "minimize_deficit(UNIT_INTERVAL, 2, 0, 2, n=v)"),
    ("diaz_probe", "trials"): (1, False, "diaz_probe([1.5], v, 0, n=65, modes=4)"),
    ("diaz_probe", "n"): (1, True, "diaz_probe([1.5], 1, 0, n=v, modes=4)"),
    ("diaz_probe", "modes"): (1, False, "diaz_probe([1.5], 1, 0, n=65, modes=v)"),
    ("random_admissible_function", "n"): (1, True, "random_admissible_function(UNIT_INTERVAL, 4, 0, v)"),
    ("random_admissible_function", "modes"): (1, False, "random_admissible_function(UNIT_INTERVAL, v, 0, 65)"),
}

#: Counts for which None asks for the default.
NONE_IS_DEFAULT = {("minimize_deficit", "n")}

#: The probes: (id, call, count); sample counts also try MAX_SAMPLES + 1 and 2**40.
COUNT_PROBES = [
    (f"{entry}-{param}={v!r}", call, v)
    for (entry, param), (least, samples, call) in COUNTS.items()
    for v in [2.5, *([] if (entry, param) in NONE_IS_DEFAULT else [None]),
              *([] if least is None else [least - 1]),
              *([MAX_SAMPLES + 1, 2**40] if samples else [])]
]

COUNT_PROBE = """
import ast, sys
import numpy as np
from lsilab import *
from lsilab.experiments import mode_quotient
for call, v in ast.literal_eval(sys.argv[1]):
    try:
        eval(call, globals(), {"v": v})
        print("accepted")
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


@pytest.fixture(scope="module")
def count_probe_lines(tmp_path_factory):
    """Probe id -> the line the capped child printed for it."""
    probes = repr([(call, v) for _, call, v in COUNT_PROBES])
    proc = run_python_limited(["-c", COUNT_PROBE, probes], tmp_path_factory.mktemp("counts"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(COUNT_PROBES)
    return dict(zip((name for name, _, _ in COUNT_PROBES), lines))


@pytest.mark.parametrize("name, v", [(name, v) for name, _, v in COUNT_PROBES],
                         ids=[name for name, _, _ in COUNT_PROBES])
def test_every_count_outside_its_range_is_refused_in_a_capped_child(count_probe_lines, name, v):
    line = count_probe_lines[name]
    if v in (MAX_SAMPLES + 1, 2**40):
        assert line == f"ParamOutOfRangeError need n <= {MAX_SAMPLES} samples, got {v}"
    else:
        assert line.startswith("ParamOutOfRangeError "), line


@pytest.mark.parametrize("call", [call for _, _, call in COUNTS.values()],
                         ids=[f"{entry}-{param}" for entry, param in COUNTS])
def test_every_count_refuses_a_numpy_complex_before_int_warns(call):
    # int(np.complex128(1j)) warns ComplexWarning, an error under this suite's filter
    names = vars(lsilab) | {"np": np, "mode_quotient": experiments.mode_quotient}
    with pytest.raises(ParamOutOfRangeError):
        eval(call, names, {"v": np.complex128(1j)})


#: Parameter names that hold a count.
COUNT_NAMES = {"n", "n_max", "n_modes", "max_iters", "trials", "modes", "k"}

#: Public records whose count fields an entry point in COUNTS fills in.
RECORDS = {"DiazProbeReport"}


def test_every_public_count_parameter_is_in_the_count_table():
    callables = {name: obj for name, obj in vars(lsilab).items()
                 if not name.startswith("_") and callable(obj) and name not in RECORDS}
    callables["mode_quotient"] = experiments.mode_quotient
    missing = []
    for name, obj in callables.items():
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # the exception classes have no signature
            continue
        missing += [(name, p) for p in parameters if p in COUNT_NAMES and (name, p) not in COUNTS]
    assert missing == []
    assert all(name in vars(lsilab) for name in RECORDS)


def test_whole_refuses_what_is_not_a_whole_number_at_least_least():
    for value in (2.5, None, "3", math.inf, math.nan, 1j, 0):
        with pytest.raises(ParamOutOfRangeError, match="^bad$"):
            _whole(value, 1, "bad")
    assert [_whole(v, 1, "bad") for v in (1, 3.0, np.int64(7), np.float64(2.0), True)] == [1, 3, 7, 2, 1]
    assert type(_whole(np.int64(7), 1, "bad")) is int


def test_check_size_returns_an_int_in_its_range():
    assert _check_size(np.float64(2049.0), 2049) == 2049
    with pytest.raises(ParamOutOfRangeError, match="^need an integer n >= 2049, got 2048$"):
        _check_size(2048, 2049)
    with pytest.raises(ParamOutOfRangeError, match=f"^need n <= {MAX_SAMPLES} samples, got {MAX_SAMPLES + 1}$"):
        _check_size(MAX_SAMPLES + 1)


def test_sweep_below_its_least_grid_exits_one_with_one_line(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--eps", "0.1", "--N", "100", "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", "lsilab: error: need an integer n >= 2049, got 100\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# CSV reader: nothing reserved for the row cap
# ---------------------------------------------------------------------------

def test_verify_reads_a_short_csv_in_a_300_mib_child(tmp_path):
    # np.loadtxt given max_rows = MAX_SAMPLES + 1 reserved 256 MiB before it read a row
    write_grid_csv(_positive(UNIT_INTERVAL, 64), tmp_path / "f.csv")
    proc = run_cli_limited(["verify", "--domain", "interval", "--input", "f.csv"], tmp_path,
                           limit=300 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("deficit=")


def test_reading_a_short_csv_allocates_little(tmp_path):
    path = tmp_path / "f.csv"
    write_grid_csv(_positive(UNIT_INTERVAL, 4097), path)
    read_grid_csv(path, "interval")  # warm caches and imports
    assert traced_peak(lambda: read_grid_csv(path, "interval")) < 2**20


def test_a_plain_csv_far_over_the_row_cap_is_refused_by_the_row_reader(tmp_path, monkeypatch):
    monkeypatch.setattr(function_space, "MAX_SAMPLES", 64)
    seen = []
    read_rows = function_space._read_rows
    monkeypatch.setattr(function_space, "_read_rows", lambda *a: seen.append(1) or read_rows(*a))
    path = tmp_path / "long.csv"
    write_grid_csv(sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 1000), path)
    with pytest.raises(InvalidInputError) as got:
        read_grid_csv(path, "interval")
    assert str(got.value) == f"{path}: more than 64 rows"
    assert seen == [1]
