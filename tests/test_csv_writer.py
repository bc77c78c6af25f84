"""One writer formats every CSV file lsilab makes.

``function_space.write_csv`` writes the header, then the rows of its
columns in blocks of CSV_BLOCK rows, one write per block. Grid files are
the single call ``write_csv("x,value", (f.x, f.values), path)``, so they
must keep the bytes of the per-row grid writer they replaced
(``references.grid_csv``) across block edges and on every domain kind,
and writing one holds no more than its x column and one block of cells.
The report CSVs are pinned against their replaced writers in
``test_cli.py``. The tripwire walks the syntax tree of every library
module and names the function that holds each call which opens a file for
writing: only the JSON writer and the CSV writer may, one per format, besides
the ``_open`` path check they both go through.
"""

import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lsilab
from lsilab import UNIT_CIRCLE, Circle, GridFunction, Interval, write_grid_csv
from lsilab.function_space import CSV_BLOCK, write_csv

from references import grid_csv

PACKAGE = Path(lsilab.__file__).parent

DOMAINS = [Interval(-0.5, 2.0), UNIT_CIRCLE, Circle(3.0)]

SIZES = [CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1, 20000]

#: Samples whose ``repr`` takes every form: a signed zero, the least subnormal, the
#: largest float and a repeating binary fraction.
EDGE_SAMPLES = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0]


def _samples(n):
    v = 1.0 / (3.0 + np.arange(n)) - 0.125
    v[:4] = EDGE_SAMPLES
    v[-4:] = [-x for x in EDGE_SAMPLES]
    return v


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("domain", DOMAINS, ids=["interval", "unit-circle", "circle-3"])
def test_grid_files_keep_the_bytes_of_the_per_row_writer(tmp_path, domain, n):
    f = GridFunction(domain, _samples(n))
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    grid_csv(f, want)
    write_grid_csv(f, got)
    assert got.read_bytes() == want.read_bytes()


def test_columns_without_rows_write_the_header_line(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv("q,min_deficit,flag", [(), (), ()], path)
    assert path.read_bytes() == b"q,min_deficit,flag\n"


def test_a_grid_write_holds_its_x_column_and_one_block():
    # The per-row writer held two Python floats per row: 64 MiB at 2**20 rows.
    n = 2**20
    f = GridFunction(UNIT_CIRCLE, 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    write_grid_csv(GridFunction(UNIT_CIRCLE, f.values[:16]), os.devnull)  # warm imports
    tracemalloc.start()
    try:
        write_grid_csv(f, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


#: The one writer per file format.
WRITE_HOLDERS = {"write_json", "write_csv"}

#: The path check every reader and writer opens through; it passes its caller's mode to ``open``.
OPENER = "_open"

#: Calls that write a file whatever their arguments.
ALWAYS_WRITE = {"write_text", "write_bytes", "save", "savez", "savez_compressed", "savetxt", "tofile"}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing: ``open``, ``_open``, ``io.open`` or
    ``<path>.open`` with a mode that is not a literal read mode, or an :data:`ALWAYS_WRITE` call."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ALWAYS_WRITE:
        return True
    if name not in ("open", "_open"):
        return False
    path_method = isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id in ("io", "builtins", "os"))
    args = call.args[0 if path_method else 1:]
    mode = args[0] if args else next((k.value for k in call.keywords if k.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def write_owners(source: str) -> set[str | None]:
    """Names of the innermost functions that hold a call opening a file for writing; None at
    module level."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and _writes(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_the_tripwire_names_the_innermost_writer():
    source = (
        "LOG = open('log.txt', 'a')\n"
        "def f(p):\n    return _open(p, 'w', newline='')\n"
        "def g(p, mode):\n    def h():\n        return Path(p).open(mode=mode)\n    return h\n"
        "def k(p):\n    np.savetxt(p, [1.0])\n"
        "def m(p):\n    return open(p), _open(p, 'r'), io.open(p, mode='rb'), Path(p).open(), p.open('r')\n"
        "def s(p):\n    return os.open(p, os.O_WRONLY)\n"
    )
    assert write_owners(source) == {None, "f", "h", "k", "s"}


def test_only_the_json_and_the_csv_writer_open_a_file_for_writing():
    holders = set().union(*(write_owners(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert holders == WRITE_HOLDERS | {OPENER}
