"""One writer per file format, each writing in bounded blocks.

``function_space.write_csv`` writes the header, then the rows of its
columns in blocks of CSV_BLOCK rows, one write per block. Grid files are
the single call ``write_csv("x,value", (f.x, f.values), path)``, so they
must keep the bytes of the per-row grid writer they replaced
(``references.grid_csv``) across block edges and on every domain kind,
and writing one holds no more than its x column and one block of cells.
The report CSVs are pinned against their replaced writers in
``test_cli.py``. ``write_fourier_json`` formats CSV_BLOCK modes per write
into the bytes that ``json.dump`` of the whole payload gave
(``references.fourier_json``). The "file-writers" pin of ``pins.py`` keeps
every call that opens a file for writing in these writers and ``write_json``.
"""

import os

import numpy as np
import pytest

from lsilab import UNIT_CIRCLE, Circle, FourierSeries, GridFunction, Interval, write_fourier_json, write_grid_csv
from lsilab.function_space import CSV_BLOCK, write_csv

from pins import traced_peak
from references import fourier_json, grid_csv

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
    # The per-row writer held two Python floats per row: 16 MiB at 2**18 rows.
    n = 2**18
    f = GridFunction(UNIT_CIRCLE, 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    write_grid_csv(GridFunction(UNIT_CIRCLE, f.values[:16]), os.devnull)  # warm imports
    assert traced_peak(lambda: write_grid_csv(f, os.devnull)) < 4 * 2**20


def _series(n_max, circumference=1.0):
    """a_0 = 1/3 - 0.0i, then the edge samples paired into coefficients, then a smooth tail."""
    k = np.arange(n_max + 1)
    half = (1.0 / (3.0 + k) - 0.125) + 1j * (0.25 - 1.0 / (2.0 + k))
    half[0] = complex(1.0 / 3.0, -0.0)
    edges = [complex(a, b) for a, b in zip(EDGE_SAMPLES + [-x for x in EDGE_SAMPLES],
                                           EDGE_SAMPLES[::-1] + [-x for x in EDGE_SAMPLES[::-1]])]
    half[1:9] = edges[:n_max]
    return FourierSeries(circumference, half)


@pytest.mark.parametrize("n_max, circumference", [
    (0, 1.0), (1, 1.0), (7, 2.5), (CSV_BLOCK - 1, 1.0), (CSV_BLOCK, 1.0), (CSV_BLOCK + 1, 1.0), (3000, 1.0),
])
def test_fourier_files_keep_the_bytes_of_the_whole_payload_dump(tmp_path, n_max, circumference):
    series = _series(n_max, circumference)
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    fourier_json(series, want)
    write_fourier_json(series, got)
    assert got.read_bytes() == want.read_bytes()


def test_a_fourier_write_holds_one_block_of_modes():
    # The whole payload of coefficient dicts took 273 B per mode: 17 MiB here.
    series = _series(2**15)
    write_fourier_json(_series(16), os.devnull)  # warm imports
    assert traced_peak(lambda: write_fourier_json(series, os.devnull)) < 2**20
