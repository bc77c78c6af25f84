"""Every error class the library declares is raised somewhere in it.

A class that nothing raises is dead API: callers could catch it, but it
never arrives. This walks the syntax tree of ``lsilab/errors.py`` for the
declared classes and of every library module for ``raise`` statements.
"""

import ast
from pathlib import Path

import lsilab

PACKAGE = Path(lsilab.__file__).parent


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
