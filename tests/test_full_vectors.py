"""Only the integrals that need every node's weight at once build a full weight vector.

Every other sampled integral walks ``function_space._blocks``. This walks
the syntax tree of every library module for calls of ``quadrature_weights``
and for ``range(..., ..., BLOCK)`` loops, and names the function each sits in.
"""

import ast
from pathlib import Path

import lsilab

PACKAGE = Path(lsilab.__file__).parent

#: The interval energy dots the square of a full derivative, and the
#: optimizer's gradient weights every node.
FULL_VECTOR_HOLDERS = {"dirichlet_energy", "minimize_deficit"}

#: ``_blocks`` walks the nodes; the circle energy walks its Fourier modes.
BLOCK_LOOPS = {"_blocks", "dirichlet_energy"}


def _name(node) -> str | None:
    """``x`` for the expressions ``x`` and ``module.x``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def calls_weights(call: ast.Call) -> bool:
    return _name(call.func) == "quadrature_weights"


def loops_over_blocks(call: ast.Call) -> bool:
    return _name(call.func) == "range" and len(call.args) == 3 and _name(call.args[2]) == "BLOCK"


def owners(source: str, matches) -> set[str | None]:
    """Names of the innermost functions holding a call that ``matches``; None at module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _library_owners(matches) -> set[str | None]:
    return set().union(*(owners(p.read_text(), matches) for p in PACKAGE.glob("*.py")))


def test_the_check_names_the_innermost_caller():
    source = (
        "W = quadrature_weights(d, 3)\n"
        "def f():\n    return quadrature_weights(d, 3)\n"
        "def g():\n    def h():\n        return m.quadrature_weights(d, 3)\n    return h\n"
        "def k():\n    return quadrature_weights, range(0, 9, BLOCK), range(0, 9, 2)\n"
    )
    assert owners(source, calls_weights) == {None, "f", "h"}
    assert owners(source, loops_over_blocks) == {"k"}


def test_only_the_full_vector_holders_call_quadrature_weights():
    assert _library_owners(calls_weights) == FULL_VECTOR_HOLDERS


def test_blocks_is_the_only_node_block_loop():
    assert _library_owners(loops_over_blocks) == BLOCK_LOOPS
