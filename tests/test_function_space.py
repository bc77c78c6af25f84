"""Grids, quadrature, differentiation and Fourier representations."""

import csv
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsilab import (
    Circle,
    DomainMismatchError,
    Family,
    FourierSeries,
    GridFunction,
    Interval,
    InvalidInputError,
    NotRealValuedError,
    ParamOutOfRangeError,
    TruncationTooLargeError,
    UNIT_INTERVAL,
    UnknownFamilyError,
    differentiate,
    fourier_from_dict,
    from_callable,
    from_fourier,
    integrate,
    read_grid_csv,
    sample_family,
    to_fourier,
    write_grid_csv,
)
from lsilab import function_space
from lsilab.function_space import MAX_SAMPLES, read_fourier_json, write_fourier_json


# ---------------------------------------------------------------------------
# Domains and grid functions
# ---------------------------------------------------------------------------

def test_interval_needs_increasing_finite_endpoints():
    with pytest.raises(InvalidInputError):
        Interval(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        Interval(0.0, math.inf)


def test_circle_needs_positive_circumference():
    with pytest.raises(InvalidInputError):
        Circle(0.0)


def test_grid_function_rejects_small_and_nonfinite():
    with pytest.raises(InvalidInputError):
        GridFunction(UNIT_INTERVAL, np.ones(8))
    values = np.ones(32)
    values[5] = math.nan
    with pytest.raises(InvalidInputError):
        GridFunction(UNIT_INTERVAL, values)


def test_grid_points_conventions():
    f = from_callable(UNIT_INTERVAL, 17, lambda x: x)
    assert f.x[0] == 0.0 and f.x[-1] == 1.0  # endpoints included
    g = from_callable(Circle(1.0), 16, lambda x: x)
    assert g.x[0] == 0.0 and g.x[-1] < 1.0  # wrap point excluded
    assert g.x[1] == pytest.approx(1.0 / 16)


def test_grid_function_values_are_immutable():
    f = from_callable(UNIT_INTERVAL, 32, lambda x: x)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


# ---------------------------------------------------------------------------
# Sample families
# ---------------------------------------------------------------------------

def test_sharpness_family_value_at_zero():
    # sqrt(1 - 0.25) + sqrt(2) * 0.5 * cos(0), evaluated in extended precision
    f = sample_family(Family.SHARPNESS, [0.5], UNIT_INTERVAL, 64)
    assert f.values[0] == pytest.approx(1.573132184970986171165, abs=1e-12)


def test_constant_family():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 16)
    assert np.all(f.values == 1.0)


def test_wang_family_midpoint_is_one():
    # cos(pi/2) = 0, so exp(-eps cos(pi/2)) = 1 at the midpoint node
    f = sample_family(Family.WANG, [0.2], UNIT_INTERVAL, 33)
    assert f.values[16] == pytest.approx(1.0, abs=1e-15)


def test_cosine_mode_family():
    f = sample_family(Family.COSINE_MODE, [2], UNIT_INTERVAL, 65)
    np.testing.assert_allclose(f.values, np.cos(2 * math.pi * f.x), atol=1e-15)
    g = sample_family(Family.COSINE_MODE, [3], Circle(2.0), 64)
    np.testing.assert_allclose(g.values, np.cos(2 * math.pi * 3 * g.x / 2.0), atol=1e-15)


def test_random_trig_is_seed_deterministic():
    f1 = sample_family(Family.RANDOM_TRIG, [7, 12], UNIT_INTERVAL, 128)
    f2 = sample_family(Family.RANDOM_TRIG, [7, 12], UNIT_INTERVAL, 128)
    assert np.array_equal(f1.values, f2.values)
    f3 = sample_family(Family.RANDOM_TRIG, [8, 12], UNIT_INTERVAL, 128)
    assert not np.array_equal(f1.values, f3.values)


def test_family_errors():
    with pytest.raises(UnknownFamilyError):
        sample_family("gaussian", [1.0], UNIT_INTERVAL, 32)
    with pytest.raises(ParamOutOfRangeError):
        sample_family(Family.SHARPNESS, [1.5], UNIT_INTERVAL, 32)
    with pytest.raises(DomainMismatchError):
        sample_family(Family.SHARPNESS, [0.5], Interval(0.0, 2.0), 32)
    with pytest.raises(DomainMismatchError):
        sample_family(Family.WANG, [0.5], Circle(1.0), 32)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def test_integrate_constant_is_exact():
    f = sample_family(Family.CONSTANT, [1.0], UNIT_INTERVAL, 101)
    assert integrate(f) == pytest.approx(1.0, abs=1e-14)


def test_integrate_sine_squared():
    f = from_callable(UNIT_INTERVAL, 2049, lambda x: 2.0 * np.sin(math.pi * x) ** 2)
    assert integrate(f) == pytest.approx(1.0, abs=1e-10)


def test_integrate_pure_harmonic_on_circle():
    f = from_callable(Circle(1.0), 64, lambda x: np.cos(2 * math.pi * x))
    assert integrate(f) == pytest.approx(0.0, abs=1e-14)


def test_integrate_even_sample_count_falls_back_to_trapezoid_tail():
    # N even: a Simpson head closed by Simpson's 3/8 rule on the last three
    # panels (it was one trapezoid panel, third order, error 3.3e-12 at N=4096)
    f = from_callable(UNIT_INTERVAL, 2048, lambda x: np.exp(x))
    assert integrate(f) == pytest.approx(math.e - 1.0, abs=1e-13)


def _observed_orders(ns, error):
    """log(e1 / e2) / log(h1 / h2) between successive interval grids."""
    errors = [error(n) for n in ns]
    return [
        math.log(errors[i] / errors[i + 1]) / math.log((ns[i + 1] - 1) / (ns[i] - 1))
        for i in range(len(ns) - 1)
    ]


@pytest.mark.parametrize("ns", [(64, 128, 256), (65, 129, 257)])
def test_interval_integrate_and_differentiate_are_fourth_order_on_both_parities(ns):
    def integral_error(n):
        return abs(integrate(from_callable(UNIT_INTERVAL, n, np.exp)) - (math.e - 1.0))

    def derivative_error(n):
        f = from_callable(UNIT_INTERVAL, n, lambda x: np.exp(np.sin(2 * x)))
        true = 2 * np.cos(2 * f.x) * np.exp(np.sin(2 * f.x))
        return float(np.max(np.abs(differentiate(f).values - true)))

    assert min(_observed_orders(ns, integral_error)) >= 3.8
    assert min(_observed_orders(ns, derivative_error)) >= 3.8


@pytest.mark.parametrize("n", [64, 65])
def test_circle_integrate_and_differentiate_reach_round_off_by_n_64(n):
    # band-limited: modes up to 8, well inside the Nyquist limit of either grid
    f = from_callable(Circle(1.0), n, lambda x: 2.0 + sum(
        np.cos(2 * math.pi * k * x + k) / k for k in range(1, 9)))
    true = -sum(2 * math.pi * np.sin(2 * math.pi * k * f.x + k) for k in range(1, 9))
    assert integrate(f) == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(differentiate(f).values, true, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(-5, 5, allow_nan=False),
)
def test_integrate_is_linear(alpha, beta):
    f = from_callable(UNIT_INTERVAL, 257, lambda x: np.sin(3 * x) + x)
    g = from_callable(UNIT_INTERVAL, 257, lambda x: np.cos(2 * x * x))
    combined = f.with_values(alpha * f.values + beta * g.values)
    expected = alpha * integrate(f) + beta * integrate(g)
    assert integrate(combined) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def test_differentiate_constant_is_exactly_zero():
    for domain in (UNIT_INTERVAL, Circle(1.0)):
        f = sample_family(Family.CONSTANT, [3.5], domain, 64)
        assert np.all(differentiate(f).values == 0.0)


def test_differentiate_circle_spectral_accuracy():
    f = from_callable(Circle(1.0), 128, lambda x: np.sin(2 * math.pi * x))
    d = differentiate(f)
    np.testing.assert_allclose(
        d.values, 2 * math.pi * np.cos(2 * math.pi * f.x), atol=1e-10
    )


def test_differentiate_sharpness_family():
    eps = 0.3
    f = sample_family(Family.SHARPNESS, [eps], UNIT_INTERVAL, 513)
    d = differentiate(f)
    expected = -math.sqrt(2) * eps * math.pi * np.sin(math.pi * f.x)
    np.testing.assert_allclose(d.values, expected, atol=1e-6)


@pytest.mark.parametrize("domain", [UNIT_INTERVAL, Circle(1.0)])
def test_differentiate_names_overflow_of_finite_samples(domain):
    f = from_callable(domain, 65, lambda x: 1e308 * (1.0 + 0.7 * np.cos(40.0 * x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflows float64; rescale the input"):
            differentiate(f)


@pytest.mark.parametrize("n", [16, 17, 65, 300])
def test_differentiate_interval_reversed_samples_give_the_negated_reversed_derivative(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.uniform(-10.0, 10.0)
        domain = Interval(a, a + rng.uniform(1e-3, 1e3))
        f = GridFunction(domain, rng.standard_normal(n) * 10.0 ** rng.uniform(-10.0, 10.0))
        reversed_d = differentiate(f.with_values(f.values[::-1])).values
        assert np.array_equal(reversed_d, -differentiate(f).values[::-1])


def test_differentiate_interval_fourth_order():
    errors = []
    for n in (65, 129, 257):
        f = from_callable(UNIT_INTERVAL, n, lambda x: np.exp(np.sin(2 * x)))
        d = differentiate(f)
        true = 2 * np.cos(2 * f.x) * np.exp(np.sin(2 * f.x))
        errors.append(np.max(np.abs(d.values - true)))
    order1 = math.log(errors[0] / errors[1], 2)
    order2 = math.log(errors[1] / errors[2], 2)
    assert order1 > 3.7 and order2 > 3.7


# ---------------------------------------------------------------------------
# Fourier analysis and synthesis
# ---------------------------------------------------------------------------

def test_to_fourier_constant():
    f = sample_family(Family.CONSTANT, [1.0], Circle(1.0), 64)
    s = to_fourier(f, 4)
    assert s.coefficient(0) == pytest.approx(1.0, abs=1e-14)
    for n in range(1, 5):
        assert abs(s.coefficient(n)) < 1e-14


def test_to_fourier_cosine():
    f = from_callable(Circle(1.0), 64, lambda x: np.cos(2 * math.pi * x))
    s = to_fourier(f, 4)
    assert s.coefficient(1) == pytest.approx(0.5, abs=1e-14)
    assert s.coefficient(-1) == pytest.approx(0.5, abs=1e-14)
    assert abs(s.coefficient(2)) < 1e-14


@pytest.mark.parametrize("n", [MAX_SAMPLES // 2, -(MAX_SAMPLES // 2)])
def test_fourier_from_dict_bounds_the_mode_before_allocating(n):
    # the smallest |n| is one past the bound: a regression allocates 256 MiB
    with pytest.raises(TruncationTooLargeError, match=f"needs {2 * abs(n) + 1} coefficients"):
        fourier_from_dict(1.0, {0: 1.0, n: 0.5})


@pytest.mark.parametrize("n, n_max", [(64, 20), (65, 32), (4096, 100)])
def test_to_fourier_matches_complex_fft_and_is_exactly_hermitian(n, n_max):
    f = from_callable(Circle(2.0), n,
                      lambda x: np.exp(np.cos(math.pi * x) + 0.3 * np.sin(2 * math.pi * x)))
    s = to_fourier(f, n_max)
    reference = np.fft.fft(f.values)[np.arange(-n_max, n_max + 1) % n] / n
    np.testing.assert_allclose(s.coefficients, reference, rtol=0.0, atol=1e-15)
    assert s.hermitian_defect() == 0.0


def test_to_fourier_requires_circle_and_enough_samples():
    f = from_callable(UNIT_INTERVAL, 64, lambda x: x)
    with pytest.raises(DomainMismatchError):
        to_fourier(f, 4)
    g = from_callable(Circle(1.0), 16, lambda x: np.cos(2 * math.pi * x))
    with pytest.raises(TruncationTooLargeError):
        to_fourier(g, 8)


def test_from_fourier_basics():
    const = from_fourier(fourier_from_dict(1.0, {0: 1.0}), 32)
    np.testing.assert_allclose(const.values, 1.0, atol=1e-14)
    cosine = from_fourier(fourier_from_dict(2.0, {1: 0.5, -1: 0.5}), 32)
    np.testing.assert_allclose(
        cosine.values, np.cos(2 * math.pi * cosine.x / 2.0), atol=1e-13
    )


def test_from_fourier_rejects_non_real_series():
    s = fourier_from_dict(1.0, {1: 1.0j, -1: 1.0j})
    with pytest.raises(NotRealValuedError):
        from_fourier(s, 32)


@pytest.mark.parametrize("n", [4096, 65536])
def test_from_fourier_accepts_a_large_hermitian_series(n):
    # an absolute IMAG_TOL once rejected this exactly real series on the
    # rounding noise of a complex synthesis (residue 2.6e-10 and 4.1e-10)
    entries = {0: 1e8, 1: 3e5 + 2e5j, -1: 3e5 - 2e5j, 7: 4e4 - 1.5e4j, -7: 4e4 + 1.5e4j}
    f = from_fourier(fourier_from_dict(1.0, entries), n)
    x = f.x
    expected = (1e8 + 2 * (3e5 * np.cos(2 * math.pi * x) - 2e5 * np.sin(2 * math.pi * x))
                + 2 * (4e4 * np.cos(14 * math.pi * x) + 1.5e4 * np.sin(14 * math.pi * x)))
    np.testing.assert_allclose(f.values, expected, rtol=1e-14)


def test_from_fourier_needs_enough_samples():
    s = fourier_from_dict(1.0, {10: 0.5, -10: 0.5})
    with pytest.raises(TruncationTooLargeError):
        from_fourier(s, 16)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-2, 2, allow_nan=False, width=32),
            st.floats(-2, 2, allow_nan=False, width=32),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_fourier_round_trip(pairs):
    entries = {0: complex(pairs[0][0], 0.0)}
    for n, (re, im) in enumerate(pairs[1:], start=1):
        entries[n] = complex(re, im)
        entries[-n] = complex(re, -im)
    series = fourier_from_dict(1.0, entries)
    f = from_fourier(series, 256)
    back = to_fourier(f, series.n_max)
    np.testing.assert_allclose(back.coefficients, series.coefficients, atol=1e-12)


def test_parseval_for_band_limited_function():
    series = fourier_from_dict(1.0, {0: 1.2, 1: 0.3 - 0.1j, -1: 0.3 + 0.1j, 5: 0.05j, -5: -0.05j})
    f = from_fourier(series, 128)
    mass = integrate(f.with_values(f.values**2))
    assert mass == pytest.approx(series.mass(), abs=1e-10)


def test_hermitian_defect():
    good = fourier_from_dict(1.0, {1: 0.5 + 0.25j, -1: 0.5 - 0.25j})
    assert good.hermitian_defect() == 0.0
    bad = fourier_from_dict(1.0, {1: 0.5, -1: 0.25})
    assert bad.hermitian_defect() == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_grid_csv_round_trip(tmp_path):
    f = sample_family(Family.RANDOM_TRIG, [3, 8], UNIT_INTERVAL, 65)
    path = tmp_path / "grid.csv"
    write_grid_csv(f, path)
    back = read_grid_csv(path, "interval")
    assert np.array_equal(back.values, f.values)
    assert back.domain == f.domain


def test_grid_csv_circle_round_trip(tmp_path):
    f = from_callable(Circle(1.0), 64, lambda x: np.sin(2 * math.pi * x))
    path = tmp_path / "circle.csv"
    write_grid_csv(f, path)
    back = read_grid_csv(path, "circle")
    assert np.array_equal(back.values, f.values)
    assert back.domain.circumference == pytest.approx(1.0, abs=1e-12)


def test_grid_csv_reports_bad_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["x,value"] + [f"{i/31!r},1.0" for i in range(32)]
    rows[10] = "0.29032258064516131,not_a_number"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InvalidInputError, match="line 11"):
        read_grid_csv(path, "interval")


def _golden_values(n):
    # exactly rounded arithmetic, plus extremes that exercise float repr
    v = 1.0 / (3.0 + np.arange(n)) - 0.125
    v[:4] = [1e-300, -2.5e300, -0.0, 1.0 / 3.0]
    return v


# sha256 of the bytes the per-row writer produced for these grids
GOLDEN_GRID_CSV = {
    "interval": (Interval(-0.5, 2.0), 33,
                 "9fd5f7db6bfbd5e312f0616336041eed60ad41641a04bca8970742e7b66b2c87"),
    "circle": (Circle(2.0), 32,
               "66169de111c6732ee0aea593cfdd051d2de47564ac67cf4a94048101f300a714"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_GRID_CSV))
def test_write_grid_csv_golden_bytes(tmp_path, kind):
    domain, n, digest = GOLDEN_GRID_CSV[kind]
    path = tmp_path / f"{kind}.csv"
    write_grid_csv(GridFunction(domain, _golden_values(n)), path)
    data = path.read_bytes()
    assert data.startswith(b"x,value\n")
    assert data.count(b"\n") == n + 1
    assert hashlib.sha256(data).hexdigest() == digest


def _read_grid_csv_by_row(path, kind):
    """Reference reader: one row at a time, converting as it goes."""
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


def _grid_rows(n=32):
    return [f"{i / (n - 1)!r},{1.0 + i / 7!r}" for i in range(n)]


def _with_row(index, text):
    rows = _grid_rows()
    rows[index] = text
    return "x,value\n" + "\n".join(rows) + "\n"


ACCEPTED_GRID_CSV = {
    "crlf": "x,value\r\n" + "\r\n".join(_grid_rows()) + "\r\n",
    "quoted": '"x","value"\n' + "\n".join(
        f'"{x}",{v}' if i % 2 else f'{x},"{v}"'
        for i, (x, v) in enumerate(r.split(",") for r in _grid_rows())
    ) + "\n",
    "blank-rows": "x,value\n\n" + "\n\n".join(_grid_rows()) + "\n\n\n",
    "header-spaces": "  x , value \n" + "\n".join(_grid_rows()) + "\n",
    "field-spaces": "x,value\n" + "\n".join(r.replace(",", " , ") for r in _grid_rows()) + "\n",
    "underscore-digits": _with_row(5, _grid_rows()[5].split(",")[0] + ",1_000"),
    "arabic-indic-digit": _with_row(6, _grid_rows()[6].split(",")[0] + ",\u0661.5"),
    "lone-cr": "x,value\r" + "\r".join(_grid_rows()) + "\r",
    "form-feed-and-line-separator": _with_row(7, _grid_rows()[7].replace(",", "\x0c,\u2028")),
    "quoted-header-newline": '"x\n",value\n' + "\n".join(_grid_rows()) + "\n",
}

REJECTED_GRID_CSV = {
    "bad-header": ("x,val\n" + "\n".join(_grid_rows()) + "\n", "line 1: expected header 'x,value'"),
    "blank-header": ("\nx,value\n" + "\n".join(_grid_rows()) + "\n", "line 1: expected header 'x,value'"),
    "one-field": (_with_row(4, "0.125"), "line 6: expected 2 fields, got 1"),
    "three-fields": (_with_row(20, "0.5,1.0,2.0"), "line 22: expected 2 fields, got 3"),
    "non-numeric-x": (_with_row(9, "nine,1.0"), "line 11: non-numeric field"),
    "non-numeric-value": (_with_row(30, "0.9,high"), "line 32: non-numeric field"),
    "non-numeric-before-count": (
        _with_row(3, "0.1,abc").replace(_grid_rows()[7], "0.2"),
        "line 5: non-numeric field",
    ),
    "count-before-non-numeric": (
        _with_row(3, "0.1").replace(_grid_rows()[7], "0.2,abc"),
        "line 5: expected 2 fields, got 1",
    ),
    "too-few-rows": ("x,value\n" + "\n".join(_grid_rows()[:5]) + "\n", "need at least 16 rows, got 5"),
    "empty": ("", "need at least 16 rows, got 0"),
    "header-only": ("x,value\n", "need at least 16 rows, got 0"),
    "whitespace-row": (_with_row(7, _grid_rows()[7] + "\n   "), "line 10: expected 2 fields, got 1"),
    "comma-row": (_with_row(7, _grid_rows()[7] + "\n,"), "line 10: non-numeric field"),
    "field-separator": (_with_row(8, _grid_rows()[8] + "\x1c"), "line 10: non-numeric field"),
    "quoted-header-newline-bad-row": (
        '"x\n",value\n' + "\n".join(_grid_rows()[:3] + ["0.1,abc"]) + "\n",
        "line 5: non-numeric field",
    ),
    "byte-order-mark": ("\ufeff" + _with_row(0, _grid_rows()[0]), "line 1: expected header 'x,value'"),
    "value-1e309": (_with_row(9, _grid_rows()[9].split(",")[0] + ",1e309"),
                    "all sampled values must be finite"),
    "value-nan": (_with_row(9, _grid_rows()[9].split(",")[0] + ",nan"),
                  "all sampled values must be finite"),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED_GRID_CSV))
def test_read_grid_csv_accepts_what_the_row_reader_accepts(tmp_path, case):
    path = tmp_path / f"{case}.csv"
    path.write_bytes(ACCEPTED_GRID_CSV[case].encode())
    for kind in ("interval", "circle"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = read_grid_csv(path, kind)
        assert caught == []  # np.loadtxt's warnings never reach the user
        want = _read_grid_csv_by_row(path, kind)
        assert np.array_equal(got.values, want.values)
        assert got.domain == want.domain


@pytest.mark.parametrize("case", sorted(REJECTED_GRID_CSV))
def test_read_grid_csv_rejects_like_the_row_reader(tmp_path, case):
    text, message = REJECTED_GRID_CSV[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InvalidInputError) as want:
        _read_grid_csv_by_row(path, "interval")
    with pytest.raises(InvalidInputError) as got, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_grid_csv(path, "interval")
    assert caught == []
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"{path}: {message}"


@pytest.mark.parametrize("data", [
    bytes(range(256)) * 8,
    "x,value\n0.0,1.0\n".encode("utf-16"),
    "x,value\n0.0,caf\u00e9\n".encode("latin-1"),
], ids=["all-bytes", "utf-16", "latin-1"])
def test_read_grid_csv_rejects_non_utf8_bytes(tmp_path, data):
    path = tmp_path / "binary.csv"
    path.write_bytes(data)
    with pytest.raises(InvalidInputError, match="not a UTF-8 text file"):
        read_grid_csv(path, "interval")


def test_read_grid_csv_rejects_oversized_field(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("x,value\n" + "1" * (csv.field_size_limit() + 1) + ",1.0\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        read_grid_csv(path, "interval")


@pytest.mark.parametrize("head", [
    "x,value\n" + " " * csv.field_size_limit() + "0.5,1.0\n",
    'x,value\n"' + "\n" * csv.field_size_limit() + '0.5",1.0\n',
    "x" + " " * csv.field_size_limit() + ",value\n",
], ids=["padded", "quoted-lines", "header"])
def test_read_grid_csv_rejects_an_oversized_field_the_bulk_parse_would_take(tmp_path, head):
    # np.loadtxt has no field limit: it reads 0.5 in the first two, and the
    # header's x strips to "x"; the csv module stops at its field limit
    path = tmp_path / "huge.csv"
    path.write_text(head + "\n".join(_grid_rows()) + "\n")
    with pytest.raises(InvalidInputError, match="field larger than field limit"):
        read_grid_csv(path, "interval")


@pytest.mark.parametrize("tail, message", [
    (b"\xff", "not a UTF-8 text file"),
    (b"1" * (csv.field_size_limit() + 1) + b",1.0\n", "line 1003: field larger than field limit"),
], ids=["not-utf8", "oversized-field"])
def test_read_grid_csv_names_a_stream_error_before_a_bad_row(tmp_path, tail, message):
    # the stream error sits past the first 8 KiB the text decoder reads
    rows = ["0.1,abc"] + _grid_rows(1000)
    path = tmp_path / "late.csv"
    path.write_bytes(("x,value\n" + "\n".join(rows) + "\n").encode() + tail)
    with pytest.raises(InvalidInputError) as got:
        read_grid_csv(path, "interval")
    assert str(got.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("x0, x1", [(0.0, 1e308), (-1e308, 1e308)], ids=["times-n", "difference"])
def test_read_grid_csv_names_an_overflowing_circle_step_without_a_warning(tmp_path, x0, x1):
    path = tmp_path / "wide.csv"
    path.write_text("x,value\n" + "\n".join([f"{x0!r},1.0", f"{x1!r},1.0"] + ["1.0,1.0"] * 30) + "\n")
    with pytest.raises(InvalidInputError) as got, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_grid_csv(path, "circle")
    assert caught == []
    assert str(got.value) == f"{path}: circle circumference must be positive and finite"


#: Bytes that move the parse between the bulk and the csv path.
_MUTATION_BYTES = [b"\r", b"\n", b"\r\n", b",", b'"', b" ", b"\x0c", b"\x1c", b"\x00", b"_",
                   b"e", b"-", b".", b"7", b"\xff", "\u2028".encode(), "\u0661".encode(),
                   b"\xef\xbb\xbf", b"nan", b"1e309", b""]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 2),
                                st.sampled_from(_MUTATION_BYTES)), min_size=1, max_size=4))
def test_read_grid_csv_matches_the_row_reader_on_mutated_bytes(tmp_path, edits):
    data = bytearray(("x,value\n" + "\n".join(_grid_rows()) + "\n").encode())
    for where, span, text in edits:
        at = int(where * len(data))
        data[at:at + span] = text
    path = tmp_path / "mutated.csv"
    path.write_bytes(data)
    try:
        want = _read_grid_csv_by_row(path, "interval")
    except UnicodeDecodeError:
        want = f"{path}: not a UTF-8 text file"
    except InvalidInputError as exc:
        want = str(exc)
    try:
        got = read_grid_csv(path, "interval")
    except InvalidInputError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want
    elif isinstance(got, str):  # the reference reader does not check the x column
        assert got == f"{path}: x column is not the uniform interval grid"
    else:
        assert got.values.tobytes() == want.values.tobytes()
        assert got.domain == want.domain


def test_read_grid_csv_parses_clean_files_without_the_csv_module(tmp_path, monkeypatch):
    def no_csv_reader(*args, **kwargs):
        raise AssertionError("a well-formed grid CSV went through csv.reader")

    interval = sample_family(Family.RANDOM_TRIG, [3, 8], UNIT_INTERVAL, 4097)
    write_grid_csv(interval, tmp_path / "interval.csv")
    circle = from_callable(Circle(1.0), 8192, lambda x: 2.0 + np.sin(2 * math.pi * x))
    rows = (f'"{x!r}","{v!r}"' for x, v in zip(circle.x.tolist(), circle.values.tolist()))
    (tmp_path / "circle.csv").write_text('"x","value"\r\n' + "\r\n".join(rows) + "\r\n")
    monkeypatch.setattr(function_space.csv, "reader", no_csv_reader)
    for f, kind in ((interval, "interval"), (circle, "circle")):
        back = read_grid_csv(tmp_path / f"{kind}.csv", kind)
        assert back.values.tobytes() == f.values.tobytes()
        assert back.domain == f.domain


@pytest.mark.parametrize("tail", ["", "\n\n", "\nbad,row\n"],
                         ids=["clean", "blank-rows", "bad-row-past-the-cap"])
def test_read_grid_csv_caps_the_data_rows(tmp_path, monkeypatch, tail):
    monkeypatch.setattr(function_space, "MAX_SAMPLES", 64)
    path = tmp_path / "grid.csv"
    path.write_text("x,value\n" + "\n".join(_grid_rows(64)) + "\n")
    assert read_grid_csv(path, "interval").n == 64
    # the bulk parse takes the clean file; blank rows, or a bad row past
    # row 65 that neither parse converts, send it to the csv module
    path.write_text("x,value\n" + "\n".join(_grid_rows(65)) + "\n" + tail)
    with pytest.raises(InvalidInputError) as got:
        read_grid_csv(path, "interval")
    assert str(got.value) == f"{path}: more than 64 rows"


def test_fourier_json_round_trip(tmp_path):
    series = fourier_from_dict(1.0, {0: 1.0, 2: 0.1 + 0.2j, -2: 0.1 - 0.2j})
    path = tmp_path / "series.json"
    write_fourier_json(series, path)
    back = read_fourier_json(path)
    assert back.circumference == series.circumference
    np.testing.assert_allclose(back.coefficients, series.coefficients, atol=0)
