"""No public call of lsilab lets a non-lsilab exception or a warning escape.

One derandomized Hypothesis property walks ``inspect.signature`` of every public
callable in ``vars(lsilab)``. It feeds one parameter at a time a hostile value (a
huge int, ragged and nested lists, NaN, infinities, strings, None, bools, a
complex number, numpy scalars, 0-d and 2-d arrays, empty containers, and lists
and mappings built from these) while the other parameters keep valid values.
Each call must return or raise an ``LsiLabError`` whose message is one line. A
file path parameter must refuse with ``InvalidInputError`` what ``os.fspath``
refuses, and may raise ``OSError`` on a path-like value that names no usable
file.

Three kinds of parameter are not fed:
  * those that take lsilab's own objects (a Domain, GridFunction, FourierSeries
    or a list of SweepRecords) and ``from_callable``'s function, whose errors
    are the caller's own;
  * flags, which are read by truth value (a 2-d array has none);
  * the one count without a cap, ``minimize_deficit``'s max_iters, which runs
    as long as a huge whole number asks.

The property runs in one child under ``tests/child.py``'s address-space cap,
in a scratch directory, and reports through a file: a file entry point that
takes an int for a file descriptor would write to, and close, the descriptors
of the process it runs in. The child runs with ``-W error``, as the suite does
in-process, so a warning such as numpy's ``ComplexWarning`` is an escape too.

Run as a script, ``python -W error test_api_refusals.py REPORT`` runs the
property in the current directory and writes ``ok`` or its failure to REPORT.
"""

import inspect
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lsilab
from lsilab import (
    FourierSeries,
    FunctionalReport,
    LsiLabError,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    sample_family,
    write_fourier_json,
    write_grid_csv,
)

SERIES = FourierSeries(1.0, [1.0, 0.1])
INTERVAL_F = sample_family("constant", [1.0], UNIT_INTERVAL, 16)
CIRCLE_F = sample_family("constant", [1.0], UNIT_CIRCLE, 16)
REPORT = FunctionalReport(1.0, 0.0, 0.0, 1.0, 0.0, None)

#: Valid, cheap keyword arguments of every public callable with a parameter the property feeds.
BASE = {
    "Circle": dict(circumference=1.0),
    "Interval": dict(a=0.0, b=1.0),
    "GridFunction": dict(domain=UNIT_INTERVAL, values=[1.0] * 16),
    "FourierSeries": dict(circumference=1.0, half=[1.0, 0.1]),
    "fourier_from_dict": dict(circumference=1.0, entries={0: 1.0, 1: 0.1, -1: 0.1}),
    "from_callable": dict(domain=UNIT_INTERVAL, n=16, fn=np.cos),
    "from_fourier": dict(series=SERIES, n=16),
    "grid_points": dict(domain=UNIT_INTERVAL, n=16),
    "read_fourier_json": dict(path="series.json"),
    "read_grid_csv": dict(path="grid.csv", kind="interval"),
    "write_fourier_json": dict(series=SERIES, path="out.json"),
    "write_grid_csv": dict(f=INTERVAL_F, path="out.csv"),
    "sample_family": dict(family="constant", params=[1.0], domain=UNIT_INTERVAL, n=16),
    "to_fourier": dict(f=CIRCLE_F, n_max=2),
    "FunctionalReport": dict(mass=1.0, entropy=0.0, energy=0.0, constant=1.0, deficit=0.0,
                             ratio=None, correction=0.0),
    "diaz_deficit": dict(r=INTERVAL_F, q=1.5),
    "weissler_bound": dict(series=SERIES, power="abs_n"),
    "weissler_report": dict(series=SERIES, n=16),
    "TransformCertificate": dict(input_report=REPORT, output_report=REPORT, identity_residuals={}),
    "DiazProbeReport": dict(seed=0, trials=1, n=16, modes=1, results=(), counterexamples=()),
    "OptimizerResult": dict(best_deficit=0.0, best_ratio=None, coefficients=np.zeros(2),
                            iterations=0, converged=True),
    "SweepRecord": dict(epsilon=0.1, energy=1.0, entropy=1.0, ratio=1.0, deficit=0.0),
    "diaz_probe": dict(q_list=[1.5], trials=2, seed=0, n=16, modes=1),
    "eigenvalue_check": dict(n=64, n_max=1),
    "minimize_deficit": dict(domain=UNIT_INTERVAL, n_modes=2, seed=0, max_iters=1, n=16, init=None),
    "random_admissible_function": dict(domain=UNIT_INTERVAL, modes=1, seed=0, n=16, normalize=True),
    "sharpness_sweep": dict(eps_list=[0.1], n=2049),
    "wang_ode_residual": dict(eps=0.2, n=513),
}

#: Public callables the property does not call: a type alias, and two enums whose
#: lookup by value raises ValueError (sample_family and weissler_bound turn it into
#: an lsilab error).
NOT_CALLED = {"Domain", "Family", "WeightPower"}

#: Annotations of parameters that take lsilab's own objects.
OWN_OBJECTS = {"Domain", "GridFunction", "FourierSeries", "Sequence[SweepRecord]"}

#: Counts without a cap; a huge whole number there is valid and runs as long as it asks.
UNCAPPED = {("minimize_deficit", "max_iters")}

HUGE = 10**400

#: The hostile values every fed parameter gets, each one an explicit example.
HOSTILE = [
    HUGE, -HUGE, [[1.0] * 16, [1.0] * 17], [[1, 2], [3, [4]]], [[[0.5]]],
    math.nan, math.inf, -math.inf, "x", "", "1.5", None, True, False, 1 + 1j,
    np.float64(0.5), np.int64(3), np.float32(2.5), np.bool_(True), np.complex128(1j),
    np.array(1.5), np.ones((2, 3)), {}, [], -1, 0, 2.5, 3,
]

#: What the property draws beyond the examples: hostile values, and lists and
#: mappings of them, nested.
hostile_values = st.recursive(
    st.sampled_from(HOSTILE),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from([0, 1, -1, HUGE, 2.5, "x", None]), inner, max_size=2),
    max_leaves=4,
)


def public_callables() -> dict:
    """Name -> object of every public callable of lsilab that has a signature."""
    found = {}
    for name, obj in vars(lsilab).items():
        if name.startswith("_") or not callable(obj):
            continue
        try:
            inspect.signature(obj)
        except ValueError:  # the exception classes have no signature
            continue
        found[name] = obj
    return found


def fed_parameters() -> list[tuple[str, str, bool]]:
    """(callable, parameter, takes a path) for every parameter the property feeds."""
    slots = []
    for name, obj in public_callables().items():
        if name in NOT_CALLED:
            continue
        for param, spec in inspect.signature(obj).parameters.items():
            annotation = str(spec.annotation)
            if annotation in OWN_OBJECTS or annotation == "bool" or param == "fn":
                continue
            slots.append((name, param, "Path" in annotation))
    return slots


def _path_like(value) -> bool:
    try:
        os.fspath(value)
    except TypeError:
        return False
    return True


def escape(name: str, param: str, takes_path: bool, value) -> str | None:
    """None if the call with ``param=value`` did what it may, else what it did, on one line."""
    refused = takes_path and not _path_like(value)
    try:
        getattr(lsilab, name)(**{**BASE[name], param: value})
    except LsiLabError as exc:
        if len(str(exc).splitlines()) < 2:
            return None
        outcome = f"{type(exc).__name__} on more than one line: {exc}"
    except OSError as exc:
        if takes_path and not refused:
            return None
        outcome = f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    else:
        if not refused:
            return None
        outcome = "returned"
    return " ".join(f"{name}({param}={value!r:.40}) -> {outcome:.80}".split())


SLOTS = fed_parameters()


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(value=hostile_values)
def no_call_escapes(value):
    escapes = [escape(name, param, takes_path, value) for name, param, takes_path in SLOTS
               if not ((name, param) in UNCAPPED and value is HUGE)]
    escapes = [e for e in escapes if e]
    assert not escapes, "\n".join(escapes)


for _value in reversed(HOSTILE):
    no_call_escapes = example(value=_value)(no_call_escapes)


def test_every_public_callable_is_fed_or_named_as_not_called():
    fed = {name for name, _, _ in SLOTS}
    assert set(public_callables()) - fed - NOT_CALLED == {
        "differentiate", "integrate", "dirichlet_energy", "entropy", "squared_mass",
        "lsi_deficit_circle", "lsi_deficit_density_form", "lsi_deficit_general",
        "lsi_deficit_interval", "wirtinger_deficit", "reflect_to_circle", "affine_normalize",
        "sqrt_lift", "extrapolate_constant",
    }  # each takes only lsilab's own objects
    assert fed == set(BASE)


def test_the_escape_check_tells_refusals_from_escapes():
    assert escape("Circle", "circumference", False, -1.0) is None
    assert escape("Circle", "circumference", False, 2.0) is None
    assert escape("grid_points", "n", False, None) is None
    assert escape("write_grid_csv", "path", True, "") is None  # FileNotFoundError on a path
    assert escape("OptimizerResult", "iterations", False, HUGE) is None  # a record returns
    assert escape("random_admissible_function", "normalize", False, np.ones((2, 3))) == (
        "random_admissible_function(normalize=array([[1., 1., 1.], [1., 1., 1.]) -> ValueError: "
        "The truth value of an array with more than one element is ambiguous.")
    # a record stands in for a file entry point that takes what is not a path
    assert escape("OptimizerResult", "iterations", True, None) == (
        "OptimizerResult(iterations=None) -> returned")


def test_no_public_call_escapes_with_a_non_lsilab_exception(tmp_path):
    from child import run_python_limited

    report = tmp_path / "report.txt"
    proc = run_python_limited(["-W", "error", __file__, str(report)], tmp_path)
    assert report.exists(), proc.stderr
    assert report.read_text() == "ok"
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    write_grid_csv(INTERVAL_F, "grid.csv")
    write_fourier_json(SERIES, "series.json")
    try:
        no_call_escapes()
        outcome = "ok"
    except Exception as exc:  # the falsifying examples, for the test to show
        outcome = "".join(traceback.format_exception(exc))
    Path(sys.argv[1]).write_text(outcome)
