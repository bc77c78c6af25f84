"""Full-grid arrays are allocated once, and size limits hold before allocation.

``GridFunction`` copies a caller's array but adopts the arrays lsilab
builds for it. The circle energy scales its spectrum by a real factor and
synthesis scales in place; both must equal the expressions they replaced
with ``==``, the energy summed over blocks of BLOCK modes as it is now. The power-mean probe keeps only its witnesses, and the
optimizer refuses an oversized basis before it builds one.
"""

import math
import tracemalloc

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
    diaz_deficit,
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
from lsilab import experiments
from lsilab.cli import main
from lsilab.experiments import random_admissible_function
from lsilab.function_space import BLOCK, MAX_SAMPLES
from lsilab.functionals import _finite

from child import run_cli_limited


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

def _complex_factor_energy(f):
    """The circle energy as computed before: the spectrum times 2 pi i k / L,
    with the squared magnitudes summed by one vdot per block of BLOCK modes."""
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
    assert got == _energy_or_error(_complex_factor_energy, f)
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


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_two_sided_data_allocates_only_the_kept_half():
    # a_0..a_{n_max} is one array of n_max + 1 entries; a two-sided vector,
    # or a copy of the half, would double the peak
    n_max = 2**20
    half_bytes = (n_max + 1) * 16
    peak = _peak_bytes(lambda: fourier_from_dict(1.0, {0: 1.0, n_max: 0.5 - 0.25j, -n_max: 0.5 + 0.25j}))
    assert half_bytes <= peak < 1.25 * half_bytes


# ---------------------------------------------------------------------------
# power-mean probe: only the witnesses are kept
# ---------------------------------------------------------------------------

def test_probe_peak_memory_does_not_grow_with_the_trials():
    diaz_probe([1.5], 3, 0)  # warm caches and imports
    tracemalloc.start()
    try:
        diaz_probe([1.5], 200, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def _reference_witnesses(q_list, trials, seed, n, modes, tol):
    """(q, trial, function) for each deficit below tol, from per-trial sampling."""
    functions = [sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, n)] + [
        random_admissible_function(UNIT_INTERVAL, modes, seed + t, n, normalize=False)
        for t in range(1, trials)
    ]
    return [(q, t, f) for q in q_list for t, f in enumerate(functions) if diaz_deficit(f, q) < tol]


@pytest.mark.parametrize("tol", [0.05, 1.0], ids=["some-trials", "every-trial"])
def test_probe_witnesses_equal_per_trial_sampling(monkeypatch, tol):
    monkeypatch.setattr(experiments, "DIAZ_FLAG_TOL", tol)
    q_list, trials, seed, n, modes = [1.25, 2.0], 8, 5, 257, 8
    report = diaz_probe(q_list, trials, seed, n=n, modes=modes)
    want = _reference_witnesses(q_list, trials, seed, n, modes, tol)
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
    want = _reference_witnesses([1.25, 2.0], 8, 5, 257, 8, 0.05)
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
