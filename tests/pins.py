"""The structural pins of lsilab: which function holds each computation, and one memory probe.

Each pin of :data:`PINS` names the only functions of the library whose syntax
tree holds a node its predicate accepts, so a computation of the paper's
functionals has one place: f^2 log f in the entropy, the harmonics of the
extremal families, the Simpson weights, the file writers and the input
checks. :func:`owners` is the one walker, and :func:`traced_peak` the one
``tracemalloc`` probe; ``test_pins.py`` checks every pin and keeps other test
modules from walking or tracing on their own. A change that moves a
computation edits its pin here, as it ports its old formulas to
``references.py``.
"""

import ast
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import lsilab

PACKAGE = Path(lsilab.__file__).parent


def owners(source: str, matches: Callable[[ast.AST], bool], outermost: bool = False) -> set[str | None]:
    """Names of the innermost (or outermost) functions of ``source`` that hold a node ``matches``
    accepts; None for one at module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (outermost and owner):
            owner = node.name
        if matches(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def library_owners(matches: Callable[[ast.AST], bool], outermost: bool = False) -> set[str | None]:
    """:func:`owners` over every module of lsilab."""
    return set().union(*(owners(p.read_text(), matches, outermost) for p in PACKAGE.glob("*.py")))


def traced_peak(call: Callable[[], object]) -> int:
    """The peak bytes ``tracemalloc`` traces while ``call()`` runs, less what it traced at the start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _name(node) -> str | None:
    """``x`` for the expressions ``x`` and ``module.x``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def refers_to(node: ast.AST, pairs: set[tuple[str, str]]) -> bool:
    """Whether ``node`` is ``module.name``, or ``from module import name``, for a pair of ``pairs``."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and (node.value.id, node.attr) in pairs
    return isinstance(node, ast.ImportFrom) and any((node.module, alias.name) in pairs for alias in node.names)


def calls_weights(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == "quadrature_weights"


def loops_over_blocks(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == "range" and len(node.args) == 3 \
        and _name(node.args[2]) == "BLOCK"


TRIG = {(module, name) for module in ("np", "numpy", "math") for name in ("cos", "sin")}


def refers_to_trig(node: ast.AST) -> bool:
    return refers_to(node, TRIG)


#: Calls that write a file whatever their arguments.
ALWAYS_WRITE = {"write_text", "write_bytes", "save", "savez", "savez_compressed", "savetxt", "tofile"}


def opens_for_writing(node: ast.AST) -> bool:
    """Whether ``node`` is a call that opens a file for writing: ``open``, ``_open``, ``io.open`` or
    ``<path>.open`` with a mode that is not a literal read mode, or an :data:`ALWAYS_WRITE` call."""
    if not isinstance(node, ast.Call):
        return False
    name = _name(node.func)
    if name in ALWAYS_WRITE:
        return True
    if name not in ("open", "_open"):
        return False
    path_method = isinstance(node.func, ast.Attribute) and not (
        isinstance(node.func.value, ast.Name) and node.func.value.id in ("io", "builtins", "os"))
    args = node.args[0 if path_method else 1:]
    mode = args[0] if args else next((k.value for k in node.keywords if k.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def refuses(node: ast.AST) -> bool:
    """Whether ``node`` refers to ``numbers.Real``, to ``<x>.dtype.kind``, to the builtin ``open``
    or to any ``.open`` attribute, or imports from ``numbers``."""
    return (isinstance(node, ast.Attribute) and (
                node.attr == "open"
                or node.attr == "kind" and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype")
            or refers_to(node, {("numbers", "Real")})
            or isinstance(node, ast.Name) and node.id == "open"
            or isinstance(node, ast.ImportFrom) and node.module == "numbers")


def refers_to_log(node: ast.AST) -> bool:
    return refers_to(node, {("np", "log"), ("numpy", "log")})


# ---------------------------------------------------------------------------
# the pins
# ---------------------------------------------------------------------------

class Pin(NamedTuple):
    """The only functions of lsilab that may hold a node ``matches`` accepts, and why."""

    matches: Callable[[ast.AST], bool]
    holders: set[str]
    why: str
    outermost: bool = False


PINS = {
    "quadrature-weights": Pin(
        calls_weights, {"dirichlet_energy", "minimize_deficit"},
        "The interval energy dots the square of a full derivative, and the optimizer's gradient "
        "weights every node; every other integral walks ``_integrals``."),
    "block-loops": Pin(
        loops_over_blocks, {"_integrals", "dirichlet_energy"},
        "``_integrals`` walks the nodes in blocks of BLOCK; the circle energy walks its Fourier modes."),
    "harmonics": Pin(
        refers_to_trig, {"_harmonic", "_cosine_series"},
        "The harmonic builder, and the RANDOM_TRIG kernel, which maps the grid once for all its modes."),
    "file-writers": Pin(
        opens_for_writing, {"write_json", "write_csv", "write_fourier_json", "_open"},
        "One writer per file format, the Fourier JSON written in blocks of modes, and the ``_open`` "
        "path check every reader and writer goes through."),
    "refusals": Pin(
        refuses, {"_real", "_samples", "_open"},
        "The three helpers that test for a real number, read a dtype kind and open a file."),
    "array-logs": Pin(
        refers_to_log, {"_entropy_integrand", "_fisher_report", "minimize_deficit", "wang_ode_residual"},
        "f^2 log f in ``_entropy_integrand`` alone; the Fisher report's f log f, the optimizer "
        "gradient's 2 g log|g| + g, and the Wang residual's f log f.",
        outermost=True),
}
