"""IDX and CSV parsing, blob generation, and the built-in PCA."""

import os
import re
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import devae.data
import devae.tensor
from conftest import CountingPool, forked_exit_code, write_idx
from devae.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    DatasetBundle,
    gather_rows,
    make_blobs,
    pca_project,
    read_csv_vectors,
    read_idx,
    read_labels_csv,
    read_projection_csv,
    scale_pixels,
    write_csv,
    write_csv_vectors,
    write_projection_csv,
)
from devae.errors import ContractError, DataError, ParseError
from devae.gaussian import HEAD_PARAMS, HEADS
from devae.trainer import split_dataset


class TestReadIdx:
    def test_minimal_image_file(self, tmp_path):
        path = tmp_path / "img.idx"
        write_idx(path, IDX_IMAGES_MAGIC, (1, 1, 1), bytes([0x7F]))
        dims, values = read_idx(path)
        assert dims == (1, 1, 1)
        np.testing.assert_array_equal(values, [[127]])

    def test_minimal_label_file(self, tmp_path):
        path = tmp_path / "lab.idx"
        write_idx(path, IDX_LABELS_MAGIC, (3,), bytes([1, 2, 3]))
        dims, values = read_idx(path)
        assert dims == (3,)
        np.testing.assert_array_equal(values, [1, 2, 3])

    def test_images_flattened_row_major(self, tmp_path):
        path = tmp_path / "img.idx"
        write_idx(path, IDX_IMAGES_MAGIC, (2, 2, 3), bytes(range(12)))
        dims, values = read_idx(path)
        assert values.shape == (2, 6)
        np.testing.assert_array_equal(values[0], [0, 1, 2, 3, 4, 5])

    def test_truncated_payload_names_counts(self, tmp_path):
        path = tmp_path / "img.idx"
        write_idx(path, IDX_IMAGES_MAGIC, (2, 2, 2), bytes(5))  # needs 8
        with pytest.raises(ParseError, match="expected 8 bytes, got 5"):
            read_idx(path)

    def test_bad_magic_with_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        write_idx(path, 0x00000999, (1,), b"\x00")
        with pytest.raises(ParseError, match="bad magic 0x00000999 at byte 0"):
            read_idx(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00\x00\x08\x03\x00\x00")
        with pytest.raises(ParseError, match="dimension 0"):
            read_idx(path)

    def test_dim_overflow_guard(self, tmp_path):
        path = tmp_path / "huge.idx"
        write_idx(path, IDX_IMAGES_MAGIC, (1 << 20, 1 << 20, 1 << 20), b"")
        with pytest.raises(ParseError, match="overflow"):
            read_idx(path)

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n, r, c = rng.integers(1, 5, size=3)
            payload = bytes(rng.integers(0, 256, size=n * r * c, dtype=np.uint8))
            path = tmp_path / f"t{trial}.idx"
            write_idx(path, IDX_IMAGES_MAGIC, (int(n), int(r), int(c)), payload)
            dims, values = read_idx(path)
            assert dims == (n, r, c)
            assert values.tobytes() == payload


class TestScalePixels:
    def test_endpoints_exact(self):
        out = scale_pixels(np.array([0, 255], dtype=np.uint8))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_midpoint(self):
        assert scale_pixels(np.array([127]))[0] == pytest.approx(127 / 255)

    def test_strictly_monotone(self):
        out = scale_pixels(np.arange(256, dtype=np.uint8))
        assert np.all(np.diff(out) > 0)


NUMERIC_CELLS = ["nan", "NaN", "inf", "-inf", "+inf", "1e400", "-1e400", "1e300", "1.5", "-0",
                 "-0.0", "0", "1", "1.0", "1e0", "2", "9223372036854775807",
                 "-9223372036854775808", "9.3e18", "1e19", "1e-300"]
BAD_LABELS = ["nan", "inf", "-inf", "1e300", "-1e400", "1.5", "1e19"]
LABEL_CELLS = st.sampled_from(NUMERIC_CELLS) | st.integers(-(2**64), 2**64).map(str)


def _label_parsed_or_rejected(read, path, cell, line):
    """``read`` returns ``cell`` as the first int64 label, or a ParseError naming ``line``."""
    try:
        labels = read(path)
    except ParseError as exc:
        assert f"line {line}" in str(exc)
        return
    want = int(cell) if cell.lstrip("+-").isdigit() else float(cell)
    assert labels.dtype == np.int64 and int(labels[0]) == want and labels[1] == 0


# Integers from 2**53 on: float64 cannot hold them all exactly (2**53 + 1
# would read as 2**53), so none is a label.
BEYOND_2_53 = ["9007199254740992", "9007199254740993", "-9007199254740993", "9223372036854775807"]
LABEL_READERS = {
    "vectors": ("a,label\n1,0\n2,0\n3,{}\n", lambda p: read_csv_vectors(p)[1]),
    "labels": ("label\n0\n0\n{}\n", read_labels_csv),
    "projection": ("id,x,y,label\n0,1,2,0\n1,1,2,0\n2,1,2,{}\n", lambda p: read_projection_csv(p)[1]),
}


@pytest.mark.parametrize("reader", sorted(LABEL_READERS))
class TestLabelBound:
    @pytest.mark.parametrize("cell", BEYOND_2_53)
    def test_inexact_integer_is_rejected_naming_the_bound(self, tmp_path, reader, cell):
        text, read = LABEL_READERS[reader]
        path = tmp_path / "l.csv"
        path.write_text(text.format(cell))
        with pytest.raises(ParseError, match=r"line 4 .*2\*\*53"):
            read(path)

    @pytest.mark.parametrize("label", [2**53 - 1, -(2**53 - 1)])
    def test_largest_exact_integer_reads_back(self, tmp_path, reader, label):
        text, read = LABEL_READERS[reader]
        path = tmp_path / "l.csv"
        path.write_text(text.format(label))
        assert read(path).tolist() == [0, 0, label]

    # From 2**52 on float64 holds no fractions, so each cell rounds to an integer.
    @pytest.mark.parametrize("cell", ["4503599627370496.5", "-4503599627370497.5", "6.0000000000000005e15"])
    def test_fraction_beyond_2_52_is_rejected(self, tmp_path, reader, cell):
        text, read = LABEL_READERS[reader]
        path = tmp_path / "l.csv"
        path.write_text(text.format(cell))
        with pytest.raises(ParseError, match=rf"label {re.escape(cell)} at line 4 .*2\*\*53"):
            read(path)

    # Below 2**52 too, a fraction with more digits than float64 keeps rounds to an integer.
    @pytest.mark.parametrize("cell", ["1.0000000000000000001", "4503599627370495.2"])
    def test_fraction_that_rounds_to_an_integer_is_rejected(self, tmp_path, reader, cell):
        text, read = LABEL_READERS[reader]
        path = tmp_path / "l.csv"
        path.write_text(text.format(cell))
        with pytest.raises(ParseError, match=rf"label {re.escape(cell)} at line 4 .*2\*\*53"):
            read(path)

    @pytest.mark.parametrize("cell, label", [("4503599627370496", 2**52),
                                             (" -4503599627370497.0 ", -(2**52 + 1)),
                                             ("4.503599627370497e15", 2**52 + 1)])
    def test_integer_beyond_2_52_reads_back(self, tmp_path, reader, cell, label):
        text, read = LABEL_READERS[reader]
        path = tmp_path / "l.csv"
        path.write_text(text.format(cell))
        assert read(path).tolist() == [0, 0, label]


class TestCsvVectors:
    def test_plain_matrix(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        X, labels = read_csv_vectors(path)
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
        assert labels is None

    def test_headerless_matrix(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,2\n3,4\n")
        X, labels = read_csv_vectors(path)
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
        assert labels is None

    def test_label_column_split(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("a,label\n1,0\n2,1\n")
        X, labels = read_csv_vectors(path)
        np.testing.assert_array_equal(X, [[1.0], [2.0]])
        np.testing.assert_array_equal(labels, [0, 1])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv_vectors(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv_vectors(path)

    @pytest.mark.parametrize("cell, value", [("nan", "nan"), ("-inf", "-inf"), ("1e400", "inf")])
    @pytest.mark.parametrize("labelled", [False, True])
    def test_non_finite_value_reports_line(self, tmp_path, cell, value, labelled):
        path = tmp_path / "v.csv"
        label = ",0" if labelled else ""
        path.write_text(f"a,b{',label' if labelled else ''}\n1,2{label}\n3,{cell}{label}\n")
        with pytest.raises(ParseError, match=f"cell {value} at line 3 is not finite"):
            read_csv_vectors(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cell", BAD_LABELS)
    def test_non_integer_label_reports_line(self, tmp_path, cell):
        path = tmp_path / "v.csv"
        path.write_text(f"a,label\n1,0\n2,{cell}\n")
        with pytest.raises(ParseError, match="line 3"):
            read_csv_vectors(path)

    @settings(max_examples=100, deadline=None)
    @given(cell=LABEL_CELLS)
    def test_numeric_label_cells_parse_or_raise_parse_error(self, tmp_path_factory, cell):
        path = tmp_path_factory.mktemp("vec") / "v.csv"
        path.write_text(f"a,label\n1,{cell}\n2,0\n")
        _label_parsed_or_rejected(lambda p: read_csv_vectors(p)[1], path, cell, 2)

    def test_writer_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(-5, 5, size=(7, 3))
        labels = rng.integers(0, 3, size=7)
        path = tmp_path / "w.csv"
        write_csv_vectors(path, X, labels)
        X2, labels2 = read_csv_vectors(path)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(labels, labels2)




class TestLabelsCsv:
    def test_single_column_and_label_column(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("3\n-1\n")
        np.testing.assert_array_equal(read_labels_csv(path), [3, -1])
        path.write_text("a,label\n0.5,2\n0.7,0\n")
        np.testing.assert_array_equal(read_labels_csv(path), [2, 0])

    def test_two_unlabelled_columns_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(DataError, match="one column"):
            read_labels_csv(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cell", BAD_LABELS)
    def test_non_integer_label_reports_line(self, tmp_path, cell):
        path = tmp_path / "l.csv"
        path.write_text(f"0\n{cell}\n")
        with pytest.raises(ParseError, match="line 2"):
            read_labels_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(cell=LABEL_CELLS)
    def test_numeric_label_cells_parse_or_raise_parse_error(self, tmp_path_factory, cell):
        path = tmp_path_factory.mktemp("labels") / "l.csv"
        path.write_text(f"{cell}\n0\n")
        _label_parsed_or_rejected(read_labels_csv, path, cell, 1)


class TestProjectionCsv:
    def test_ordered_by_id(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n1,0.0,0.0\n0,1.5,-2.0\n")
        Y, labels = read_projection_csv(path)
        np.testing.assert_array_equal(Y, [[1.5, -2.0], [0.0, 0.0]])
        assert labels is None

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n0,1,2\n0,3,4\n")
        with pytest.raises(ParseError, match="duplicate id 0"):
            read_projection_csv(path)

    def test_missing_id(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n0,1,2\n2,3,4\n")
        with pytest.raises(ParseError):
            read_projection_csv(path)

    def test_label_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_projection_csv(path, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, 0]))
        Y, labels = read_projection_csv(path)
        np.testing.assert_array_equal(labels, [1, 0])

    def test_extra_columns_are_ignored(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y,name,label\n1,0.5,1.5,bob,3\n0,2,3,,4\n")
        Y, labels = read_projection_csv(path)
        np.testing.assert_array_equal(Y, [[2.0, 3.0], [0.5, 1.5]])
        np.testing.assert_array_equal(labels, [4, 3])

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,x,y\n")
        with pytest.raises(ParseError, match="header without data rows"):
            read_projection_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ParseError, match="id,x,y"):
            read_projection_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "0.5", "-1"])
    def test_non_integer_id_reports_line(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"id,x,y\n{cell},1,2\n")
        with pytest.raises(ParseError, match="line 2"):
            read_projection_csv(path)

    @pytest.mark.parametrize("column", [1, 2])
    @pytest.mark.parametrize("cell", ["nan", "-inf"])
    def test_non_finite_coordinate_reports_line(self, tmp_path, column, cell):
        path = tmp_path / "p.csv"
        row = ["1", "1", "2", "0"]
        row[column] = cell
        path.write_text("id,x,y,label\n0,1,2,3\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError, match=f"cell {cell} at line 3 is not finite"):
            read_projection_csv(path)

    @pytest.mark.parametrize("cell", BAD_LABELS)
    def test_non_integer_label_reports_line(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_text(f"id,x,y,label\n0,1,2,3\n1,1,2,{cell}\n")
        with pytest.raises(ParseError, match="line 3"):
            read_projection_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(
        id_cell=st.sampled_from(NUMERIC_CELLS) | st.integers(-3, 5).map(str),
        label_cell=LABEL_CELLS,
    )
    def test_numeric_id_and_label_cells_parse_or_raise_parse_error(self, tmp_path_factory, id_cell, label_cell):
        path = tmp_path_factory.mktemp("proj") / "p.csv"
        path.write_text(f"id,x,y,label\n{id_cell},1,2,{label_cell}\n1,3,4,0\n")
        try:
            Y, labels = read_projection_csv(path)
        except ParseError:
            return
        assert float(id_cell) == 0 and float(label_cell) == int(labels[0])
        assert Y.shape == (2, 2) and labels.dtype == np.int64 and labels[1] == 0


# Finite float64 values, with the edge cases repr must carry exactly.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                               1.7976931348623157e308, 0.1, -1 / 3])
CSV_FLOATS = EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
# Label cells are parsed as float64, so only integers below 2**53 in magnitude are labels.
CSV_LABELS = st.integers(-(2**53 - 1), 2**53 - 1)


def _tables(min_cols: int, max_cols: int):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, st.tuples(st.just(n), st.integers(min_cols, max_cols)), elements=CSV_FLOATS),
            hnp.arrays(np.int64, n, elements=CSV_LABELS),
        )
    )


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# Cells per write: one row per write, rows split across writes, the default.
WRITE_CELLS = st.sampled_from([1, 3, devae.data._WRITE_CELLS])


class TestNonUtf8Csv:
    """A byte that is not UTF-8 is a ParseError naming its line, in every reader."""

    @pytest.mark.parametrize("reader, text, line", [
        (read_csv_vectors, b"a,b\r\n1,2\r\n3,\xff\r\n", 3),
        (read_labels_csv, b"label\n1\n\n\xfe2\n", 4),
        (read_projection_csv, b"id,x,y\n0,1,2\n1,1\xc3,2\n", 3),
    ])
    def test_names_the_line(self, tmp_path, reader, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=f"at line {line} is not UTF-8"):
            reader(path)

    def test_bad_first_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\x00\x08\x01\x00\x00\x00\x02\x01\x02")
        with pytest.raises(ParseError, match="byte 0xff at line 1 is not UTF-8"):
            read_labels_csv(path)

    def test_utf8_text_still_reads(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("größe,label\n1.5,2\n", encoding="utf-8")
        X, labels = read_csv_vectors(path)
        np.testing.assert_array_equal(X, [[1.5]])
        np.testing.assert_array_equal(labels, [2])


class TestCsvRoundTrip:
    """Every table written by ``data`` reads back bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(table=_tables(1, 5), cells=WRITE_CELLS)
    def test_vectors_with_labels(self, tmp_path_factory, table, cells):
        X, labels = table
        path = tmp_path_factory.mktemp("rt") / "v.csv"
        with mock.patch.object(devae.data, "_WRITE_CELLS", cells):
            write_csv_vectors(path, X, labels)
        X2, labels2 = read_csv_vectors(path)
        _assert_same_bits(X2, X)
        assert labels2.dtype == np.int64
        np.testing.assert_array_equal(labels2, labels)

    @settings(max_examples=60, deadline=None)
    @given(table=_tables(2, 2), cells=WRITE_CELLS)
    def test_projection_with_labels(self, tmp_path_factory, table, cells):
        Y, labels = table
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        with mock.patch.object(devae.data, "_WRITE_CELLS", cells):
            write_projection_csv(path, Y, labels)
        Y2, labels2 = read_projection_csv(path)
        _assert_same_bits(Y2, Y)
        assert labels2.dtype == np.int64
        np.testing.assert_array_equal(labels2, labels)

    @settings(max_examples=60, deadline=None)
    @given(table=_tables(0, 8), ids=st.booleans(), labelled=st.booleans(), cells=WRITE_CELLS)
    def test_lines_are_reprs_joined(self, tmp_path_factory, table, ids, labelled, cells):
        """Narrow, wide and empty rows alike: each line is its cells' reprs joined by commas."""
        values, labels = table
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        names = [f"c{j}" for j in range(values.shape[1])]
        with mock.patch.object(devae.data, "_WRITE_CELLS", cells):
            write_csv(path, names, values, ids=ids, labels=labels if labelled else None)
        rows = [",".join(map(repr, row)) for row in values.tolist()]
        if ids:
            rows = [f"{i},{row}" for i, row in enumerate(rows)]
        if labelled:
            rows = [f"{row},{label}" for row, label in zip(rows, labels.tolist())]
        header = ",".join((["id"] if ids else []) + names + (["label"] if labelled else []))
        assert path.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in [header, *rows])

    @settings(max_examples=60, deadline=None)
    @given(head=st.sampled_from(HEADS), cells=WRITE_CELLS, data=st.data())
    def test_project_output(self, tmp_path_factory, head, cells, data):
        """The ``project`` table: ids, mu_x, mu_y, then the head's parameters."""
        width = 2 + len(HEAD_PARAMS[head])
        values, _ = data.draw(_tables(width, width))
        path = tmp_path_factory.mktemp("rt") / "coords.csv"
        names = ["mu_x", "mu_y", *HEAD_PARAMS[head]]
        with mock.patch.object(devae.data, "_WRITE_CELLS", cells):
            write_csv(path, names, values, ids=True)
        table, labels = read_csv_vectors(path)
        assert labels is None
        assert path.read_text().split("\n", 1)[0] == ",".join(["id"] + names)
        np.testing.assert_array_equal(table[:, 0], np.arange(values.shape[0]))
        _assert_same_bits(np.ascontiguousarray(table[:, 1:]), values)


class TestFastPathTraps:
    """Files where numpy's reader alone would read something else than the line walk."""

    def _read(self, tmp_path, text, reader=read_projection_csv):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return path, reader

    @pytest.mark.parametrize("text, line, fields", [
        ("id,x,y,name\n0,1,2,a\n1,3,4,b,c\n", 3, 5),
        ("id,x,y,label\n0,1,2,0\n1,3,4,1,9\n", 3, 5),
        ("id,x,y,name\n0,1,2\n1,3,4,b,c\n", 2, 3),  # as many commas as two rows of four cells
    ])
    def test_cells_in_unpicked_columns_count(self, tmp_path, text, line, fields):
        path, read = self._read(tmp_path, text)
        with pytest.raises(ParseError, match=f"^ragged row at line {line}: {fields} fields, expected 4$"):
            read(path)

    @pytest.mark.parametrize("text, message", [
        ("id,x,y,label\n\n0,1,2,0\n\n\n1,nan,2,0\n", "cell nan at line 6 is not finite"),
        ("\nid,x,y\n0,1,2\n\n0,3,4\n", "duplicate id 0 at line 5"),
        ("id,x,y,label\n0,1,2,0\n\n\n1,1,2,1.5\n\n", "label 1.5 at line 5 is not an integer"),
    ])
    def test_blank_lines_keep_line_numbers(self, tmp_path, text, message):
        path, read = self._read(tmp_path, text)
        assert devae.data._fast_csv(path, devae.data._projection_columns) is not None
        with pytest.raises(ParseError, match=f"^{message}"):
            read(path)

    def test_whitespace_only_line_is_blank(self, tmp_path):
        path, read = self._read(tmp_path, "a,b\n1,2\n \t \n3,4\n", read_csv_vectors)
        np.testing.assert_array_equal(read(path)[0], [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("a,b\n1,2\n \t \n3,nan\n")
        with pytest.raises(ParseError, match="^cell nan at line 4 is not finite$"):
            read(path)

    @pytest.mark.parametrize("text, line", [
        ("a,b\r\n1,2\r\n3,nan\r\n", 3),
        ("a,b\x0c1,2\x0c\x0c3,nan", 4),
        ("a,b\n1,2\x0c\n3,nan\n", 4),
        ("a,b\u20281,2\u2028\u20283,nan\n", 4),
    ])
    def test_every_line_break_counts(self, tmp_path, text, line):
        path, read = self._read(tmp_path, text, read_csv_vectors)
        with pytest.raises(ParseError, match=f"^cell nan at line {line} is not finite$"):
            read(path)

    @pytest.mark.parametrize("br", ["\x0c", "\x1e", "\u2028"])
    def test_line_break_inside_a_row_splits_it(self, tmp_path, br):
        path, read = self._read(tmp_path, f"a,b\n1{br},2\n", read_csv_vectors)
        with pytest.raises(ParseError, match="^ragged row at line 2: 1 fields, expected 2$"):
            read(path)

    def test_python_float_syntax_still_reads(self, tmp_path):
        path, read = self._read(tmp_path, "a,b,label\n1_0,\u0663.5,\u0662\n 2 ,1e400,3\n", read_csv_vectors)
        with pytest.raises(ParseError, match="^cell inf at line 3 is not finite$"):
            read(path)
        path.write_text("a,b,label\n1_0,\u0663.5,\u0662\n")
        X, labels = read(path)
        np.testing.assert_array_equal(X, [[10.0, 3.5]])
        np.testing.assert_array_equal(labels, [2])

    def test_non_utf8_byte_keeps_its_message(self, tmp_path):
        path, read = self._read(tmp_path, b"id,x,y\n\n0,1,2\n1,3,\xff4\n")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: byte 0xff at line 4 is not UTF-8"

    def test_long_label_text_is_judged_whole(self, tmp_path):
        cell = "1." + "0" * 70 + "1"
        path, read = self._read(tmp_path, f"label\n0\n{cell}\n", read_labels_csv)
        with pytest.raises(ParseError, match=f"^label {cell} at line 3"):
            read(path)


# Cells numpy's reader and float() both take, cells only float() takes, and
# cells neither takes.
FAST_CELLS = st.sampled_from(["-0.0", "0", "5e-324", "-5e-324", "1e308", "-1e308", "1.7976931348623157e308",
                              "1e400", "-1e400", "nan", "-nan", "inf", "-Infinity", "+7", " 2 ", "\t3",
                              "1e5", "0.1", "12", "-12", "9007199254740993", "1.0000000000000000001",
                              "\xa01", "\u30002", "4\u2007"])
SLOW_CELLS = st.sampled_from(["1_0", "\u0663", "\u0663.5", "1_000.5"])
BAD_CELLS = st.sampled_from(["", " ", "x", "1e", "0x1", "nan(1)", "1\x00", "--1", '"1"', "1#"])
LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                               "\u2028", "\u2029"])


@st.composite
def _csv_files(draw):
    """(file bytes, pick, clean): a small table with header or not, a mix of
    cells, blank and whitespace-only lines, ragged rows, every line break and
    stray bytes. A clean file holds nothing numpy's reader refuses."""
    projection = draw(st.booleans())
    if projection:
        extra = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(["label", "name", "z"]), max_size=3)))))
        names = ["id", "x", "y", *extra]
    else:
        names = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            names[-1] = "label"
    width = len(names)
    kinds = st.sampled_from(["fast"] * 28 + ["slow", "bad"])
    cells = {"fast": FAST_CELLS | st.floats().map(repr), "slow": SLOW_CELLS, "bad": BAD_CELLS}
    lines, clean = [], True
    if draw(st.booleans()) or projection:
        lines.append(",".join(names))
    for _ in range(draw(st.integers(1, 5))):
        row_kinds = [draw(kinds) for _ in range(width)]
        clean &= set(row_kinds) == {"fast"}
        row = [draw(cells[kind]) for kind in row_kinds]
        if draw(st.integers(0, 9)) == 0:  # ragged
            row = row[:-1] if draw(st.booleans()) and width > 1 else row + [draw(FAST_CELLS)]
            clean = False
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:  # a blank line
            blank = draw(st.sampled_from(["", "", " ", "\t "]))
            clean &= blank == ""
            lines.append(blank)
    breaks = [draw(LINE_BREAKS) if draw(st.integers(0, 9)) == 0 else "\n" for _ in lines]
    clean &= set(breaks) <= {"\n", "\r\n", "\r"}
    text = "".join(line + br for line, br in zip(lines, breaks))
    if draw(st.booleans()):
        text = text[: -len(breaks[-1])]
    blob = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + blob[at:]
        clean = False
    return blob, devae.data._projection_columns if projection else None, clean


def _outcome(read, path, pick):
    try:
        return read(path, pick)
    except ParseError as exc:
        return str(exc)


class TestFastPathAgreesWithWalk:
    """numpy's reader returns what the line walk returns, or defers to it."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(case=_csv_files())
    def test_same_tables_and_messages(self, tmp_path_factory, case):
        blob, pick, clean = case
        path = tmp_path_factory.mktemp("fast") / "t.csv"
        path.write_bytes(blob)
        walk = _outcome(devae.data._walk_csv, path, pick)
        try:
            fast = devae.data._fast_csv(path, pick)
        except (ValueError, ParseError):
            assert not clean, "a clean file must take numpy's path"
            fast = None
        event("numpy's reader" if fast is not None else "the walk")
        got = _outcome(devae.data._read_csv, path, pick)
        if isinstance(walk, str):
            assert fast is None and got == walk
            return
        for table in [got] + ([fast] if fast is not None else []):
            header, values, line_nos, texts = table
            assert header == walk[0]
            assert values.shape == walk[1].shape
            assert np.ascontiguousarray(values).tobytes() == walk[1].tobytes()
            assert line_nos.tolist() == walk[2].tolist()
            assert texts.tolist() == walk[3].tolist()

    def test_written_tables_take_numpy_path(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "p.csv"
        write_projection_csv(path, rng.standard_normal((50, 2)), rng.integers(-5, 5, 50))
        assert devae.data._fast_csv(path, devae.data._projection_columns) is not None
        write_csv_vectors(path, rng.standard_normal((20, 7)), rng.integers(0, 3, 20))
        assert devae.data._fast_csv(path, None) is not None


def test_walk_streams_the_file(tmp_path):
    """A file numpy's reader refuses is read a few blocks at a time, never held whole."""
    X = np.random.default_rng(16).standard_normal((1000, 200))
    path = tmp_path / "walk.csv"
    write_csv_vectors(path, X)
    header, first, rest = path.read_text().split("\n", 2)
    path.write_text(f"{header}\n1_0{first[first.index(','):]}\n{rest}")  # float() reads 1_0, numpy does not
    with mock.patch.object(devae.data, "_READ_BYTES", 1 << 16):
        tracemalloc.start()
        try:
            values, _ = read_csv_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert values[0, 0] == 10.0 and values[1:].tobytes() == X[1:].tobytes()
    assert path.stat().st_size > 3 << 20
    assert peak < values.nbytes + 16 * (1 << 16)


class TestMakeBlobs:
    def test_balanced_labels_in_order(self):
        _, labels = make_blobs(6, 2, 3, 0.1, seed=0)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 2, 2])

    def test_remainder_to_earlier_clusters(self):
        _, labels = make_blobs(7, 2, 3, 0.1, seed=0)
        np.testing.assert_array_equal(np.bincount(labels), [3, 2, 2])

    def test_single_cluster_tiny_spread_hugs_center(self):
        X, _ = make_blobs(50, 4, 1, 1e-9, seed=3)
        assert np.all(np.abs(X - X[0]) < 1e-6)

    def test_deterministic(self):
        X1, _ = make_blobs(20, 3, 2, 0.5, seed=9)
        X2, _ = make_blobs(20, 3, 2, 0.5, seed=9)
        np.testing.assert_array_equal(X1, X2)

    @pytest.mark.parametrize("n, d, k, spread", [
        (2, 2, 3, 0.5), (10, 1, 2, 0.5), (10, 2, 0, 0.5), (10, 2, 2, 0.0),
        (10, 2, 2, float("inf")), (10, 2, 2, float("nan")),
    ])
    def test_invalid_sizes(self, n, d, k, spread):
        with pytest.raises(ContractError, match="^invalid blob sizes"):
            make_blobs(n, d, k, spread, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_spread_is_a_data_error(self):
        # About 3% of standard normal draws exceed 1.8 in magnitude, and 1.8e308 is past float64.
        with pytest.raises(DataError, match="^spread 1e\\+308 overflows float64"):
            make_blobs(1000, 50, 3, 1e308, seed=7)


class TestPcaProject:
    def test_line_example(self):
        X = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
        Y = pca_project(X)
        np.testing.assert_allclose(Y[:, 0], [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-10)
        np.testing.assert_allclose(Y[:, 1], 0.0, atol=1e-10)

    def test_axes_orthonormal_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.standard_normal((30, 6)) @ rng.standard_normal((6, 6))
            Y = pca_project(X)
            Xc = X - X.mean(axis=0)
            # Recover the implied loadings by least squares and check geometry.
            V, *_ = np.linalg.lstsq(Xc, Y, rcond=None)
            v1, v2 = V[:, 0], V[:, 1]
            assert abs(np.linalg.norm(v1) - 1) < 1e-8
            assert abs(np.linalg.norm(v2) - 1) < 1e-8
            assert abs(v1 @ v2) < 1e-8

    def test_projected_variance_matches_eigh_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 8)) * rng.uniform(0.5, 3.0, size=8)
        Y = pca_project(X)
        eigvals = np.linalg.eigvalsh(np.cov(X.T))[::-1]
        np.testing.assert_allclose(Y[:, 0].var(ddof=1), eigvals[0], rtol=1e-6)
        np.testing.assert_allclose(Y[:, 1].var(ddof=1), eigvals[1], rtol=1e-6)
        assert Y[:, 0].var(ddof=1) >= Y[:, 1].var(ddof=1)

    def test_isotropic_cloud_axes_comparable(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4000, 5))
        Y = pca_project(X)
        v1, v2 = Y[:, 0].var(ddof=1), Y[:, 1].var(ddof=1)
        assert v1 / v2 < 1.3  # within sampling noise of each other

    def test_cluster_purity_preserved(self):
        X, labels = make_blobs(300, 12, 3, 0.05, seed=7)
        Y = pca_project(X)
        centroids = np.stack([Y[labels == c].mean(axis=0) for c in range(3)])
        assigned = np.argmin(((Y[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        assert (assigned == labels).mean() >= 0.99

    def test_degenerate_data_rejected(self):
        with pytest.raises(DataError):
            pca_project(np.ones((5, 3)))
        with pytest.raises(DataError):
            pca_project(np.zeros((2, 4)))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 5))
        np.testing.assert_array_equal(pca_project(X), pca_project(X))

    def test_small_eigengap_matches_svd(self):
        # The top two variances differ by 1e-3 relative: an iterative solver
        # converges slowly here; eigh does not care.
        rng = np.random.default_rng(12)
        n, d = 2000, 50
        Q = np.linalg.qr(rng.standard_normal((n, d)))[0]
        Q -= Q.mean(axis=0)
        Q = np.linalg.qr(Q)[0]
        sigma = np.concatenate([[1.0, np.sqrt(1 - 1e-3)], np.linspace(0.9, 0.1, d - 2)])
        W = np.linalg.qr(rng.standard_normal((d, d)))[0]
        X = (Q * sigma) @ W.T * np.sqrt(n - 1) + rng.uniform(-3, 3, size=d)
        np.testing.assert_allclose(pca_project(X), _svd_coordinates(X), rtol=0, atol=1e-9)

    def test_decaying_spectrum_takes_the_iteration(self, monkeypatch):
        X = _prototypes(2000, 0)
        full = _full_eigh_calls(monkeypatch)
        np.testing.assert_allclose(pca_project(X), _svd_coordinates(X), rtol=0, atol=1e-12)
        assert full == []

    # k = 56 has a budget of one iteration and falls back; k = 288 takes the iteration.
    @pytest.mark.parametrize("n, m, iterates", [(128, 40, False), (512, 272, True)])
    def test_top_axis_outside_the_columns_of_largest_variance(self, monkeypatch, n, m, iterates):
        X = _hadamard_trap(n, m)
        C = np.cov(X.T)
        top16 = np.argsort(-np.diagonal(C))[:16]
        assert np.array_equal(np.sort(top16), np.arange(16)) and not C[:16, 16:].any()
        full = _full_eigh_calls(monkeypatch)
        np.testing.assert_allclose(pca_project(X), _svd_coordinates(X), rtol=0, atol=1e-12)
        assert len(full) == (not iterates)

    def test_flat_spectrum_falls_back_to_eigh(self, monkeypatch):
        # The random pixels of CI's BCE determinism step.
        r = np.random.default_rng(0)
        px = ((r.random((300, 784)) < 0.2) * r.integers(0, 256, (300, 784))).astype(np.uint8)
        full = _full_eigh_calls(monkeypatch)
        Y = pca_project(px)
        assert len(full) == 1

        def plain_eigh(C):
            vecs = np.linalg.eigh(C)[1][:, ::-1]
            return np.column_stack([devae.data._fix_sign(vecs[:, 0]), devae.data._fix_sign(vecs[:, 1])])

        monkeypatch.setattr(devae.data, "_principal_axes", plain_eigh)
        assert Y.tobytes() == pca_project(px).tobytes()

    def test_non_finite_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        X[4, 1] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            pca_project(X)

    def test_overflowing_covariance_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 3)) * 1e200
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflows"):
            pca_project(X)

    def test_constant_columns_get_zero_loading(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((50, 4))
        wide = np.column_stack([np.full(50, 2.5), X[:, :2], np.zeros(50), X[:, 2:], np.full(50, -1e300)])
        np.testing.assert_array_equal(pca_project(wide), pca_project(X))

    def test_one_varying_column_has_no_second_axis(self):
        X = np.column_stack([np.arange(6.0), np.ones(6)])
        Y = pca_project(X)
        np.testing.assert_allclose(Y[:, 0], np.arange(6.0) - 2.5, atol=1e-12)
        np.testing.assert_array_equal(Y[:, 1], 0.0)

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_block_means_merge_into_the_covariance(self, offset):
        # Rows grouped by cluster give every block a different mean, and a
        # large offset makes an uncentred Gram matrix or projection cancel.
        X, _ = make_blobs(9000, 20, 3, 0.5, seed=14)
        X += offset
        assert X.shape[0] > 2 * devae.data.PCA_BLOCK
        Y, oracle = pca_project(X), _svd_coordinates(X)
        # Any float64 mean of X is off by up to an ulp of the offset, which
        # moves every row alike; the shape of the cloud must not move.
        np.testing.assert_allclose(Y, oracle, rtol=0, atol=1e-14 * offset)
        np.testing.assert_allclose(Y - Y.mean(axis=0), oracle - oracle.mean(axis=0), rtol=0, atol=1e-8)

    def test_no_copy_of_the_samples(self):
        X = np.random.default_rng(15).standard_normal((20000, 50))
        tracemalloc.start()
        try:
            pca_project(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2


def _svd_coordinates(X: np.ndarray) -> np.ndarray:
    """Top-2 principal coordinates from an SVD of the centred data, signs fixed
    as ``pca_project`` fixes them: each axis's first nonzero loading positive."""
    Xc = X - X.mean(axis=0)
    Vt = np.linalg.svd(Xc, full_matrices=False)[2][:2]
    signs = [np.sign(v[np.flatnonzero(np.abs(v) > 1e-12)[0]]) for v in Vt]
    return Xc @ (Vt.T * signs)


def _prototypes(n: int, seed: int) -> np.ndarray:
    """n x 784 rows, each one of 20 prototypes of geometrically falling scale
    plus noise: a covariance spectrum that decays, as image data's does."""
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((20, 784)) * np.geomspace(1.0, 0.1, 20)[:, None]
    return protos[rng.integers(0, 20, n)] + 0.1 * rng.standard_normal((n, 784))


def _hadamard_trap(n: int, m: int) -> np.ndarray:
    """n x (16 + m) columns of an n x n Sylvester Hadamard matrix H (n a
    power of two): 16 columns 6 H_1 and 1.25 H_2..H_16, the 16 of largest
    variance, then m columns H_17 + 0.5 H_(17+j), whose common H_17 is the
    top axis. Every column sums to 0 and the products are exact, so the first
    16 columns are exactly uncorrelated with the rest: their span is an
    invariant subspace of the covariance that misses the top axis."""
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    scales = np.r_[6.0, np.full(15, 1.25)]
    return np.hstack([H[:, 1:17] * scales, H[:, [17]] + 0.5 * H[:, 18 : 18 + m]])


def _full_eigh_calls(monkeypatch) -> list:
    """The shapes of the ``np.linalg.eigh`` calls on matrices wider than the
    subspace iteration's block, as a list that grows with each call."""
    calls, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        if a.shape[0] > devae.data.AXES_BLOCK:
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _pixels(n: int, seed: int) -> np.ndarray:
    """n x 64 bytes: mostly zeros, two always-zero columns and one constant 255 column."""
    rng = np.random.default_rng(seed)
    raw = (rng.random((n, 64)) < 0.3) * rng.integers(0, 256, size=(n, 64)) * rng.uniform(0.2, 1, 64)
    raw = raw.astype(np.uint8)
    raw[:, [0, 9]] = 0
    raw[:, 40] = 255
    return raw


class TestPixelPca:
    def test_pixels_and_scaled_floats_give_the_same_bytes(self, monkeypatch):
        raw = _pixels(300, 0)
        table = np.zeros((300, 65))  # the values beside a label column, strided as a CSV is read
        table[:, :64] = scale_pixels(raw)
        floats = table[:, :64]
        oracle = _svd_coordinates(floats)
        for block in (1, 7, raw.shape[0]):
            monkeypatch.setattr(devae.data, "PCA_BLOCK", block)
            Y = pca_project(raw)
            assert Y.tobytes() == pca_project(floats).tobytes() == pca_project(floats.copy()).tobytes()
            np.testing.assert_allclose(Y, oracle, rtol=0, atol=1e-9)

    def test_matches_svd_of_scaled_pixels(self):
        raw = _pixels(500, 1)
        np.testing.assert_allclose(pca_project(raw), _svd_coordinates(scale_pixels(raw)), rtol=0, atol=1e-9)

    def test_constant_columns_get_zero_loading(self):
        raw = _pixels(120, 3)
        varying = np.flatnonzero(raw.max(axis=0) != raw.min(axis=0))
        assert varying.size == 61
        np.testing.assert_array_equal(pca_project(raw), pca_project(np.ascontiguousarray(raw[:, varying])))

    def test_all_constant_rejected(self):
        raw = np.full((10, 16), 7, dtype=np.uint8)
        with pytest.raises(DataError, match="zero variance"):
            pca_project(raw)


def _pca_inputs():
    """uint8 pixels, the same pixels scaled as a strided float view (a CSV's
    values beside its label column), that view's contiguous copy, and 784-d
    rows whose axes the subspace iteration finds."""
    raw = _pixels(300, 4)
    table = np.zeros((300, 65))
    table[:, :64] = scale_pixels(raw)
    return {"uint8": raw, "strided": table[:, :64], "contiguous": np.ascontiguousarray(table[:, :64]),
            "converging": _prototypes(300, 0)}


@pytest.mark.skipif(not devae.tensor.BLAS_PINNED, reason="no BLAS thread setter found: PCA runs in one lane")
class TestPcaLanes:
    @pytest.mark.parametrize("kind", ["uint8", "strided", "contiguous", "converging"])
    @pytest.mark.parametrize("block", [7, 100, 300])
    def test_same_bytes_at_one_and_two_workers(self, monkeypatch, kind, block):
        # 300 rows: 43 blocks of 7 and 3 of 100 end with a one-lane round; 300 is one block.
        X = _pca_inputs()[kind]
        monkeypatch.setattr(devae.data, "PCA_BLOCK", block)
        monkeypatch.setattr(devae.tensor, "WORKERS", 1)
        full = _full_eigh_calls(monkeypatch)
        one = pca_project(X).tobytes()
        assert len(full) == (kind != "converging")
        pool = CountingPool(devae.tensor._pool)
        monkeypatch.setattr(devae.tensor, "WORKERS", 2)
        monkeypatch.setattr(devae.tensor, "_pool", pool)
        assert pca_project(X).tobytes() == one
        blocks = -(-X.shape[0] // block)
        assert pool.submitted == 2 * (blocks // 2)  # one task a round of two, in each of the two passes

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_two_lanes(self, monkeypatch):
        X = _pca_inputs()["uint8"]
        monkeypatch.setattr(devae.data, "PCA_BLOCK", 150)
        monkeypatch.setattr(devae.tensor, "WORKERS", 2)
        Y = pca_project(X)  # the parent's pool now has a thread
        code = forked_exit_code(lambda: np.array_equal(pca_project(X), Y))
        assert code is not None, "the forked child's two-lane PCA did not finish within 30 s"
        assert code == 0

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_lane_waits_for_the_other(self, monkeypatch, failing):
        X = _pca_inputs()["uint8"]
        monkeypatch.setattr(devae.data, "PCA_BLOCK", 150)
        monkeypatch.setattr(devae.tensor, "WORKERS", 2)
        gather, finished = devae.data._gather, threading.Event()

        def one_lane_fails(*args):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller"):
                raise RuntimeError("lane failed")
            time.sleep(0.2)  # the other lane is still writing its buffer
            R = gather(*args)
            finished.set()
            return R

        monkeypatch.setattr(devae.data, "_gather", one_lane_fails)
        with pytest.raises(RuntimeError, match="lane failed"):
            pca_project(X)
        assert finished.is_set()


class TestGatherRows:
    def test_bit_identical_to_scaling_the_file(self):
        raw = np.arange(256 * 3, dtype=np.int64).reshape(-1, 4).astype(np.uint8)
        rows = np.array([5, 0, 191, 5, 77])
        got = gather_rows(raw, rows)
        assert got.dtype == np.float64
        assert got.tobytes() == scale_pixels(raw)[rows].tobytes()
        assert gather_rows(raw, slice(3, 9)).tobytes() == scale_pixels(raw)[3:9].tobytes()


class TestDatasetBundle:
    def test_row_count_validation(self):
        X = np.zeros((4, 3))
        with pytest.raises(DataError, match="^data has 4 rows but projection has 3$"):
            DatasetBundle(X=X, Y=np.zeros((3, 2)), split=np.array(["train"] * 4))
        with pytest.raises(DataError):
            DatasetBundle(X=X, Y=np.zeros((4, 2)), split=np.array(["train"] * 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (3, 2), (2, 1)])
    def test_non_finite_rejected(self, bad, cell):
        # A strided view: every other column of a wider array.
        X = np.random.default_rng(0).standard_normal((4, 6))[:, ::2]
        X[cell] = bad
        with pytest.raises(DataError, match="samples contain non-finite values"):
            DatasetBundle(X=X, Y=np.zeros((4, 2)), split=np.array(["train"] * 4))

    def test_empty_samples_accepted(self):
        assert DatasetBundle(X=np.zeros((0, 3)), Y=np.zeros((0, 2)), split=np.array([], dtype=str)).n == 0

    @pytest.mark.parametrize("X", [np.zeros((4, 0)), np.zeros((4, 0), dtype=np.uint8), np.zeros(4)],
                             ids=["no-columns", "no-pixels", "vector"])
    def test_samples_without_feature_columns_rejected(self, X):
        with pytest.raises(DataError, match=re.escape(f"samples must be rows of at least one feature, got shape {X.shape}")):
            DatasetBundle(X=X, Y=np.zeros((4, 2)), split=np.array(["train"] * 4))

    def test_finiteness_check_makes_no_copy_of_the_samples(self):
        n = 20000
        X = np.random.default_rng(1).random((n, 784))
        Y, split = np.zeros((n, 2)), split_dataset(n, seed=0)
        tracemalloc.start()
        try:
            DatasetBundle(X=X, Y=Y, split=split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 8

    def test_pixels_stay_uint8(self):
        raw = np.full((4, 3), 255, dtype=np.uint8)
        bundle = DatasetBundle(X=raw, Y=np.zeros((4, 2)), split=np.array(["train"] * 4))
        assert bundle.X is raw and bundle.dim == 3

    def test_indices_by_split(self):
        n = 40
        split = split_dataset(n, seed=0)
        bundle = DatasetBundle(X=np.zeros((n, 2)), Y=np.zeros((n, 2)), split=split)
        got = np.concatenate([bundle.indices(s) for s in ("train", "val", "test")])
        assert sorted(got.tolist()) == list(range(n))
        assert bundle.indices("all").shape == (n,)

    @pytest.mark.parametrize("split", ["val", "test", "all"])
    def test_empty_split_is_a_data_error(self, split):
        n = 4 if split != "all" else 0
        bundle = DatasetBundle(X=np.zeros((n, 2)), Y=np.zeros((n, 2)), split=np.array(["train"] * n, dtype="<U5"))
        with pytest.raises(DataError, match=f"split '{split}' is empty"):
            bundle.indices(split)
