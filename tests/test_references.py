"""The reference formulas of the bit-parity pins live in one module.

``references.py`` holds every pre-change formula that an ``==`` pin compares
the library with, so a change that moves the last bits ports one file. This
walks the syntax tree of every other test module and fails on a top-level
function whose name marks a reference: ``_old_*``, ``_reference_*``,
``ref_*`` or ``_loop_reference``.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).parent

REFERENCE_NAME = re.compile(r"_old_|_reference_|ref_|_loop_reference$")


def reference_definitions(source: str) -> list[str]:
    """Names of the top-level functions of ``source`` that are named like a reference."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and REFERENCE_NAME.match(node.name)]


def test_the_check_names_top_level_reference_definitions():
    source = (
        "def _old_f(x):\n    def _old_inner():\n        pass\n"
        "@np.errstate(over='ignore')\ndef ref_g(x):\n    pass\n"
        "async def _reference_h():\n    pass\n"
        "def _loop_reference(x):\n    pass\n"
        "def _loop_reference_rows(x):\n    pass\n"
        "def references(x):\n    pass\n"
        "def test_old_f():\n    pass\n"
        "class _old_C:\n    def ref_m(self):\n        pass\n"
    )
    assert reference_definitions(source) == ["_old_f", "ref_g", "_reference_h", "_loop_reference"]


def test_only_the_reference_module_defines_reference_formulas():
    found = {path.name: reference_definitions(path.read_text()) for path in sorted(TESTS.rglob("*.py"))
             if path.name != "references.py"}
    assert {name: names for name, names in found.items() if names} == {}
