"""Every error class the library declares is raised somewhere in it, and
each check of outside input raises its class with its message.

A class that nothing raises is dead API: callers could catch it, but it
never arrives. This walks the syntax tree of ``lsilab/errors.py`` for the
declared classes and of every library module for ``raise`` statements.
The table at the end reaches the input checks that no other in-process
test executes.
"""

import ast
import math

import numpy as np
import pytest

from lsilab import (
    Circle,
    DomainMismatchError,
    FourierSeries,
    GridFunction,
    Interval,
    InvalidInputError,
    ParamOutOfRangeError,
    SweepRecord,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    ZeroMassError,
    affine_normalize,
    diaz_deficit,
    diaz_probe,
    fourier_from_dict,
    grid_points,
    lsi_deficit_circle,
    lsi_deficit_density_form,
    lsi_deficit_general,
    minimize_deficit,
    read_fourier_json,
    read_grid_csv,
    sample_family,
    sharpness_sweep,
    wang_ode_residual,
    weissler_bound,
    wirtinger_deficit,
    write_fourier_json,
    write_grid_csv,
)
from lsilab.function_space import MAX_SAMPLES

from pins import PACKAGE


def declared_errors(source: str) -> set[str]:
    """Classes defined at the top of ``source``, less the base LsiLabError."""
    tree = ast.parse(source)
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"LsiLabError"}


def raised_names(source: str) -> set[str]:
    """Names in ``raise Name`` and ``raise Name(...)`` statements."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_the_check_sees_declared_and_raised_names():
    errors = "class LsiLabError(Exception): pass\nclass A(LsiLabError): pass\nclass B(A): pass\n"
    assert declared_errors(errors) == {"A", "B"}
    source = "def f(x):\n    if x:\n        raise A('x')\n    raise B from None\nC = 1\n"
    assert raised_names(source) == {"A", "B"}


def test_every_declared_error_is_raised():
    raised = set().union(*(raised_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert sorted(declared_errors((PACKAGE / "errors.py").read_text()) - raised) == []


def _constant(domain, c=1.0, n=17):
    return sample_family("constant", [c], domain, n)


#: An int too large for a float.
HUGE = 10**400


def _backwards_circle_csv(path):
    """A circle grid file whose x column decreases."""
    path.write_text("x,value\n" + "".join(f"{-i / 16!r},1.0\n" for i in range(16)))
    return path


#: (id, call of a scratch directory, error class, message; {path} is the file the call reads).
INPUT_CHECKS = [
    ("interval-string-endpoint", lambda tmp: Interval("a", 1),
     InvalidInputError, "interval endpoints must be finite"),
    ("interval-none-endpoint", lambda tmp: Interval(None, 1),
     InvalidInputError, "interval endpoints must be finite"),
    ("circle-string-circumference", lambda tmp: Circle("x"),
     InvalidInputError, "circle circumference must be positive and finite"),
    ("grid-string-values", lambda tmp: GridFunction(UNIT_INTERVAL, "abc"),
     InvalidInputError, "values must be real numbers"),
    ("grid-complex-values", lambda tmp: GridFunction(UNIT_INTERVAL, np.full(20, 1 + 2j)),
     InvalidInputError, "values must be real numbers"),
    ("adopt-complex-values", lambda tmp: GridFunction._adopt(UNIT_INTERVAL, np.full(20, 1 + 2j)),
     InvalidInputError, "values must be real numbers"),
    ("grid-domain", lambda tmp: GridFunction("dom", [1.0] * 20),
     InvalidInputError, "domain must be an Interval or a Circle"),
    ("with_values-length", lambda tmp: _constant(UNIT_INTERVAL).with_values(np.ones(16)),
     InvalidInputError, "replacement values must keep the grid size"),
    ("series-zero-circumference", lambda tmp: FourierSeries(0.0, [1.0]),
     InvalidInputError, "circumference must be positive and finite"),
    ("series-negative-circumference", lambda tmp: FourierSeries(-1.0, [1.0]),
     InvalidInputError, "circumference must be positive and finite"),
    ("series-string-circumference", lambda tmp: FourierSeries("1", [1]),
     InvalidInputError, "circumference must be positive and finite"),
    ("series-string-half", lambda tmp: FourierSeries(1.0, "ab"),
     InvalidInputError, "half must be a nonempty vector a_0..a_{n_max}"),
    ("series-string-entries", lambda tmp: FourierSeries(1.0, ["a", "b"]),
     InvalidInputError, "coefficients must be finite"),
    ("series-empty-half", lambda tmp: FourierSeries(1.0, []),
     InvalidInputError, "half must be a nonempty vector a_0..a_{n_max}"),
    ("series-2d-half", lambda tmp: FourierSeries(1.0, [[1.0, 0.5]]),
     InvalidInputError, "half must be a nonempty vector a_0..a_{n_max}"),
    ("series-nan", lambda tmp: FourierSeries(1.0, [1.0, math.nan]),
     InvalidInputError, "coefficients must be finite"),
    ("weissler-power", lambda tmp: weissler_bound(FourierSeries(1.0, [1.0, 0.1]), "bad"),
     ParamOutOfRangeError, "unknown weight power 'bad'"),
    ("coefficient-fraction", lambda tmp: FourierSeries(1.0, [1.0, 0.4, 0.2, 0.1]).coefficient(2.5),
     ParamOutOfRangeError, "mode indices must be integers"),
    ("coefficient-fraction-past-n_max",
     lambda tmp: FourierSeries(1.0, [1.0, 0.4, 0.2, 0.1]).coefficient(3.5),
     ParamOutOfRangeError, "mode indices must be integers"),
    ("fourier_from_dict-empty", lambda tmp: fourier_from_dict(1.0, {}),
     InvalidInputError, "need at least one coefficient"),
    ("constant-inf", lambda tmp: sample_family("constant", [math.inf], UNIT_INTERVAL, 17),
     ParamOutOfRangeError, "constant must be finite"),
    ("constant-string", lambda tmp: sample_family("constant", ["a"], UNIT_INTERVAL, 17),
     ParamOutOfRangeError, "constant must be finite"),
    ("sharpness-eps-string", lambda tmp: sample_family("sharpness", ["a"], UNIT_INTERVAL, 17),
     ParamOutOfRangeError, "eps must lie in (0, 1), got a"),
    ("sweep-eps-string", lambda tmp: sharpness_sweep(["a"], 2049),
     ParamOutOfRangeError, "eps must lie in (0, 1), got a"),
    ("sweep-eps-string-among-numbers", lambda tmp: sharpness_sweep([0.1, "a"], 2049),
     ParamOutOfRangeError, "eps must lie in (0, 1), got a"),
    ("sweep-record-eps-string", lambda tmp: SweepRecord("a", 1.0, 1.0, 1.0, 1.0),
     ParamOutOfRangeError, "eps must lie in (0, 1), got a"),
    ("wang-eps-string", lambda tmp: wang_ode_residual("a", 1025),
     ParamOutOfRangeError, "eps must lie in (0, 1), got a"),
    ("probe-q-string", lambda tmp: diaz_probe(["a"], 2, 0),
     ParamOutOfRangeError, "q must lie in (1, 2], got a"),
    ("diaz-q-string", lambda tmp: diaz_deficit(_constant(UNIT_INTERVAL), "a"),
     ParamOutOfRangeError, "q must lie in (1, 2], got a"),
    ("family-parameter-count", lambda tmp: sample_family("sharpness", [0.1, 0.2], UNIT_INTERVAL, 17),
     ParamOutOfRangeError, "family sharpness takes 1 parameter(s), got 2"),
    ("csv-kind", lambda tmp: read_grid_csv(tmp / "f.csv", "disk"),
     InvalidInputError, "unknown domain kind 'disk'"),
    ("csv-circle-decreasing", lambda tmp: read_grid_csv(_backwards_circle_csv(tmp / "f.csv"), "circle"),
     InvalidInputError, "{path}: x column must be increasing"),
    ("init-length", lambda tmp: minimize_deficit(UNIT_INTERVAL, 4, 0, 5, n=65, init=[1.0, 0.5, 0.2]),
     ParamOutOfRangeError, "init must have 4 coefficients"),
    ("init-nested", lambda tmp: minimize_deficit(UNIT_INTERVAL, 3, 0, 5, n=65, init=[[1, 2, 3]]),
     ParamOutOfRangeError, "init must have 3 coefficients"),
    ("init-string", lambda tmp: minimize_deficit(UNIT_INTERVAL, 3, 0, 5, n=65, init="abc"),
     ParamOutOfRangeError, "init must have 3 coefficients"),
    ("init-complex", lambda tmp: minimize_deficit(UNIT_INTERVAL, 3, 0, 5, n=65, init=np.array([1 + 1j, 0, 0])),
     ParamOutOfRangeError, "init coefficients must be finite"),
    ("init-zero", lambda tmp: minimize_deficit(UNIT_CIRCLE, 4, 0, 5, n=64, init=[0.0] * 4),
     ParamOutOfRangeError, "iterate collapsed to the zero function"),
    ("circle-deficit-domain", lambda tmp: lsi_deficit_circle(_constant(UNIT_INTERVAL)),
     DomainMismatchError, "circle deficit requires a circle domain"),
    ("general-deficit-domain", lambda tmp: lsi_deficit_general(_constant(UNIT_CIRCLE)),
     DomainMismatchError, "general deficit requires an interval domain"),
    ("density-form-domain", lambda tmp: lsi_deficit_density_form(_constant(Circle(2.0))),
     DomainMismatchError, "density form requires an interval domain"),
    ("density-form-zero-mean", lambda tmp: lsi_deficit_density_form(_constant(UNIT_INTERVAL, 1e-12)),
     ZeroMassError, "mean 1.000e-12 is numerically zero"),
    ("wirtinger-domain", lambda tmp: wirtinger_deficit(_constant(Interval(0.0, 2.0))),
     DomainMismatchError, "Wirtinger deficit requires the domain [0, 1]"),
    ("diaz-domain", lambda tmp: diaz_deficit(_constant(UNIT_CIRCLE), 1.5),
     DomainMismatchError, "power-mean deficit requires the domain [0, 1]"),
    ("affine-normalize-domain", lambda tmp: affine_normalize(_constant(UNIT_CIRCLE)),
     DomainMismatchError, "affine normalization requires an interval domain"),
    # the escapes that a huge int, a ragged list, a non-mapping or a non-path used to open
    ("interval-huge-endpoint", lambda tmp: Interval(0, HUGE),
     InvalidInputError, "interval endpoints must be finite"),
    ("circle-huge-circumference", lambda tmp: Circle(HUGE),
     InvalidInputError, "circle circumference must be positive and finite"),
    ("series-huge-circumference", lambda tmp: FourierSeries(HUGE, [1.0]),
     InvalidInputError, "circumference must be positive and finite"),
    ("fourier_from_dict-huge-circumference", lambda tmp: fourier_from_dict(-HUGE, {0: 1.0}),
     InvalidInputError, "circumference must be positive and finite"),
    ("constant-huge", lambda tmp: sample_family("constant", [HUGE], UNIT_INTERVAL, 17),
     ParamOutOfRangeError, "constant must be finite"),
    ("grid-ragged-values", lambda tmp: GridFunction(UNIT_INTERVAL, [[1.0] * 16, [1.0] * 17]),
     InvalidInputError, "values must be real numbers"),
    ("with_values-ragged", lambda tmp: _constant(UNIT_INTERVAL, n=16).with_values([[1.0] * 16, [1.0] * 17]),
     InvalidInputError, "values must be real numbers"),
    ("series-ragged-half", lambda tmp: FourierSeries(1.0, [[1], [1, 2]]),
     InvalidInputError, "coefficients must be finite"),
    ("init-ragged", lambda tmp: minimize_deficit(UNIT_INTERVAL, 2, 0, 5, n=65, init=[[1.0], [1.0, 2.0]]),
     ParamOutOfRangeError, "init coefficients must be finite"),
    ("fourier_from_dict-float-entries", lambda tmp: fourier_from_dict(1.0, 2.5),
     InvalidInputError, "entries must be a mapping {n: a_n}, got float"),
    ("fourier_from_dict-list-entries", lambda tmp: fourier_from_dict(1.0, [1.0]),
     InvalidInputError, "entries must be a mapping {n: a_n}, got list"),
    ("fourier_from_dict-array-entries", lambda tmp: fourier_from_dict(1.0, np.ones((2, 3))),
     InvalidInputError, "entries must be a mapping {n: a_n}, got ndarray"),
    ("fourier_from_dict-string-value", lambda tmp: fourier_from_dict(1.0, {0: "x"}),
     InvalidInputError, "coefficients must be finite"),
    ("fourier_from_dict-vector-values", lambda tmp: fourier_from_dict(1.0, {1: [1, 2], -1: [1, 2]}),
     InvalidInputError, "coefficients must be finite"),
    ("write_grid_csv-int-path", lambda tmp: write_grid_csv(_constant(UNIT_INTERVAL), 3),
     InvalidInputError, "bad path 3: expected str, bytes or os.PathLike object, not int"),
    ("write_grid_csv-nul-path", lambda tmp: write_grid_csv(_constant(UNIT_INTERVAL), "a\0b"),
     InvalidInputError, "bad path 'a\\x00b': embedded null byte"),
    ("read_grid_csv-none-path", lambda tmp: read_grid_csv(None, "interval"),
     InvalidInputError, "bad path None: expected str, bytes or os.PathLike object, not NoneType"),
    ("read_fourier_json-huge-path", lambda tmp: read_fourier_json(HUGE),
     InvalidInputError, f"bad path {str(HUGE)[:40]}: expected str, bytes or os.PathLike object, not int"),
    ("write_fourier_json-none-path", lambda tmp: write_fourier_json(FourierSeries(1.0, [1.0]), None),
     InvalidInputError, "bad path None: expected str, bytes or os.PathLike object, not NoneType"),
    ("csv-array-kind", lambda tmp: read_grid_csv(tmp / "f.csv", np.ones(2)),
     InvalidInputError, "unknown domain kind array([1., 1.])"),
    ("sharpness-eps-huge", lambda tmp: sample_family("sharpness", [HUGE], UNIT_INTERVAL, 17),
     ParamOutOfRangeError, f"eps must lie in (0, 1), got {str(HUGE)[:40]}"),
    ("diaz-q-huge", lambda tmp: diaz_deficit(_constant(UNIT_INTERVAL), HUGE),
     ParamOutOfRangeError, f"q must lie in (1, 2], got {str(HUGE)[:40]}"),
    ("grid-points-huge-n", lambda tmp: grid_points(UNIT_INTERVAL, HUGE),
     ParamOutOfRangeError, f"need n <= {MAX_SAMPLES} samples, got {str(HUGE)[:40]}"),
    ("optimizer-huge-n_modes", lambda tmp: minimize_deficit(UNIT_INTERVAL, HUGE, 0, 1),
     ParamOutOfRangeError, f"{str(HUGE)[:40]} modes need N >= {str(2 * HUGE)[:40]}, got 2049"),
    ("family-params-number", lambda tmp: sample_family("constant", 1.0, UNIT_INTERVAL, 17),
     ParamOutOfRangeError, "family constant takes a list of parameters"),
    ("sweep-eps-number", lambda tmp: sharpness_sweep(0.1, 2049),
     ParamOutOfRangeError, "eps_list must be a list"),
    ("probe-q-number", lambda tmp: diaz_probe(1.5, 2, 0),
     ParamOutOfRangeError, "q_list must be a list"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in INPUT_CHECKS],
                         ids=[row[0] for row in INPUT_CHECKS])
def test_each_input_check_raises_its_class_and_message(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.replace("{path}", str(tmp_path / "f.csv"))
