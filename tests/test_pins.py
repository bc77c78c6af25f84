"""Every structural pin of ``pins.py`` holds, and only ``pins.py`` walks a syntax tree or traces.

The check names the functions of every library module that hold a node a
pin's predicate accepts, and compares them with the pin's holders. The
self-tests run each predicate on a small source with a module-level, a
nested and a rejected case. The guard fails on any other test module that
calls ``ast.iter_child_nodes`` or ``tracemalloc.start``, so the walker and
the memory probe stay one each.
"""

import ast
from pathlib import Path

import pytest

from pins import PINS, library_owners, owners, refers_to

TESTS = Path(__file__).parent

WEIGHTS_SOURCE = (
    "W = quadrature_weights(d, 3)\n"
    "def f():\n    return quadrature_weights(d, 3)\n"
    "def g():\n    def h():\n        return m.quadrature_weights(d, 3)\n    return h\n"
    "def k():\n    return quadrature_weights, range(0, 9, BLOCK), range(0, 9, 2)\n"
)

#: (pin, source, the owners the pin's predicate finds in it)
SELF_TESTS = [
    ("quadrature-weights", WEIGHTS_SOURCE, {None, "f", "h"}),
    ("block-loops", WEIGHTS_SOURCE, {"k"}),
    ("harmonics", (
        "from math import sin\n"
        "def f(x):\n    return np.cos(x)\n"
        "def g(x):\n    def h():\n        return (numpy.sin if x else math.cos)(x)\n    return h\n"
        "def k(x):\n    return np.tan(x), np.exp(x), cos(x)\n"
    ), {None, "f", "h"}),
    ("file-writers", (
        "LOG = open('log.txt', 'a')\n"
        "def f(p):\n    return _open(p, 'w', newline='')\n"
        "def g(p, mode):\n    def h():\n        return Path(p).open(mode=mode)\n    return h\n"
        "def k(p):\n    np.savetxt(p, [1.0])\n"
        "def m(p):\n    return open(p), _open(p, 'r'), io.open(p, mode='rb'), Path(p).open(), p.open('r')\n"
        "def s(p):\n    return os.open(p, os.O_WRONLY)\n"
    ), {None, "f", "h", "k", "s"}),
    ("refusals", (
        "from numbers import Real\n"
        "def f(x):\n    return isinstance(x, numbers.Real)\n"
        "def g(a):\n    def h():\n        return a.dtype.kind\n    return h, a.kind, a.dtype\n"
        "def k(p):\n    return open(p), Path(p).open()\n"
        "def m(p):\n    return real(p), numbers.Integral, opened(p)\n"
    ), {None, "f", "h", "k"}),
    ("array-logs", (
        "from numpy import log\n"
        "def f(x):\n    return np.log(x)\n"
        "def g(x):\n    def h():\n        return numpy.log(x)\n    return h\n"
        "def k(x):\n    return math.log(x), np.log1p(x), np.exp(x)\n"
    ), {None, "f", "g"}),
]


@pytest.mark.parametrize("name, source, expected", SELF_TESTS, ids=[row[0] for row in SELF_TESTS])
def test_each_pin_names_the_holders_in_its_sample_source(name, source, expected):
    pin = PINS[name]
    assert owners(source, pin.matches, pin.outermost) == expected


@pytest.mark.parametrize("name", PINS)
def test_each_computation_sits_in_its_holders(name):
    pin = PINS[name]
    assert library_owners(pin.matches, pin.outermost) == pin.holders, pin.why


# ---------------------------------------------------------------------------
# guard: one walker, one probe
# ---------------------------------------------------------------------------

#: The calls that only ``pins.py`` makes.
PIN_CALLS = {("ast", "iter_child_nodes"), ("tracemalloc", "start")}


def walks_or_traces(node: ast.AST) -> bool:
    return refers_to(node, PIN_CALLS)


def test_the_guard_sees_walks_and_traces():
    source = (
        "import ast, tracemalloc\n"
        "from tracemalloc import start\n"
        "def f(t):\n    return list(ast.iter_child_nodes(t))\n"
        "def g():\n    tracemalloc.start()\n"
        "def k(t):\n    return ast.walk(t), tracemalloc.stop(), tracemalloc.get_traced_memory()\n"
    )
    assert owners(source, walks_or_traces) == {None, "f", "g"}


def test_only_the_pin_module_walks_a_syntax_tree_or_starts_tracemalloc():
    found = {path.name for path in sorted(TESTS.rglob("*.py"))
             if path.name != "pins.py" and owners(path.read_text(), walks_or_traces)}
    assert found == set()
