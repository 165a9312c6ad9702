"""``cli.write_csv`` against ``csv.writer``: the column writer must write,
block by block, the bytes that the standard library's default dialect
writes for the same table row by row."""
import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claire import cli
from conftest import peak_bytes

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5]


def _oracle(header, columns) -> bytes:
    """What csv.writer writes: writerow(header), then writerows(rows)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return buf.getvalue().encode("utf-8")


def _written(tmp_dir, header, columns) -> bytes:
    path = tmp_dir / "table.csv"
    cli.write_csv(str(path), header, columns)
    return path.read_bytes()


@st.composite
def _column(draw, n_rows):
    kind = draw(st.sampled_from(["float", "int", "text"]))
    if kind == "float":
        values = draw(st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS),
                               min_size=n_rows, max_size=n_rows))
        return np.array(values) if draw(st.booleans()) else values
    if kind == "int":
        values = draw(st.lists(st.integers(-2**70, 2**70) | st.sampled_from([2**63, -1, 0]),
                               min_size=n_rows, max_size=n_rows))
        fits = all(-2**63 <= v < 2**63 for v in values)
        return np.array(values, np.int64) if fits and draw(st.booleans()) else values
    values = draw(st.lists(st.text() | st.sampled_from(["", " ", ",", '"', "\r", "\n",
                                                        'temp "A"', "a,b\r\nc"]),
                           min_size=n_rows, max_size=n_rows))
    return np.array(values, object) if draw(st.booleans()) else values


@st.composite
def _table(draw):
    n_cols = draw(st.integers(1, 6))
    n_rows = draw(st.integers(0, 30))
    header = draw(st.lists(st.text(), min_size=n_cols, max_size=n_cols))
    return header, [draw(_column(n_rows)) for _ in range(n_cols)]


@settings(max_examples=300, deadline=None)
@given(table=_table(), budget=st.integers(1, 20) | st.just(cli.CSV_BLOCK_CELLS))
def test_write_csv_writes_what_csv_writer_writes(tmp_path_factory, table, budget):
    """Any table of floats, ints and text, in blocks of any cell budget:
    from one cell (a table wider than its block) to the default."""
    header, columns = table
    with mock.patch.object(cli, "CSV_BLOCK_CELLS", budget):
        written = _written(tmp_path_factory.getbasetemp(), header, columns)
    assert written == _oracle(header, columns)


@pytest.mark.parametrize("header,columns", [
    (["x"], [["", "a", ""]]),                           # a lone empty field is written ""
    ([""], [[1.5]]),                                    # so is a lone empty header name
    (["x", "y"], [["", ""], [1, 2]]),                   # an empty field beside another is not
    (["v", "n"], [np.array(SPECIAL_FLOATS), [2**63, -2**64, 3, -4, 0, 1, 2, 2**70]]),
    (["a", "b"], [np.zeros(0), []]),                    # zero rows: the header alone
    (["v"], [np.arange(cli.CSV_BLOCK_CELLS * 2 + 5) / 7]),  # more rows than a block holds
    ([f"c{j}" for j in range(cli.CSV_BLOCK_CELLS + 3)],     # wider than a block's cells
     [np.array([j / 3, -j]) for j in range(cli.CSV_BLOCK_CELLS + 3)]),
], ids=["lone-empty-cell", "lone-empty-name", "empty-beside-other", "specials",
        "zero-rows", "many-blocks", "wider-than-a-block"])
def test_named_tables_match_csv_writer(tmp_path, header, columns):
    assert _written(tmp_path, header, columns) == _oracle(header, columns)


def test_write_csv_memory_is_bounded_by_its_block(tmp_path):
    """A 1567 x 561 float table (the line table's train.csv) is written
    holding under 4 MB beyond its columns; formatted whole, it held about
    100 MB."""
    rng = np.random.default_rng(0)
    features, labels = rng.normal(size=(1567, 560)), rng.integers(0, 2, 1567)
    header = [f"f{j}" for j in range(560)] + ["label"]
    path = str(tmp_path / "train.csv")
    assert peak_bytes(lambda: cli.write_csv(path, header, [*features.T, labels])) < 4e6
