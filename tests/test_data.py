"""IDX and CSV parsing, blob generation, and the built-in PCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx
from devae.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    DatasetBundle,
    make_blobs,
    pca_project,
    read_csv_vectors,
    read_idx,
    read_labels_csv,
    read_projection_csv,
    scale_pixels,
    write_csv_vectors,
    write_projection_csv,
)
from devae.errors import DataError, ParseError
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
    assert labels.dtype == np.int64 and float(cell) == int(labels[0]) and labels[1] == 0


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

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            make_blobs(2, 2, 3, 0.5, seed=0)
        with pytest.raises(DataError):
            make_blobs(10, 1, 2, 0.5, seed=0)
        with pytest.raises(DataError):
            make_blobs(10, 2, 2, 0.0, seed=0)


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


class TestDatasetBundle:
    def test_row_count_validation(self):
        X = np.zeros((4, 3))
        with pytest.raises(DataError):
            DatasetBundle(X=X, Y=np.zeros((3, 2)), split=np.array(["train"] * 4))
        with pytest.raises(DataError):
            DatasetBundle(X=X, Y=np.zeros((4, 2)), split=np.array(["train"] * 3))

    def test_non_finite_rejected(self):
        X = np.zeros((4, 3))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            DatasetBundle(X=X, Y=np.zeros((4, 2)), split=np.array(["train"] * 4))

    def test_indices_by_split(self):
        n = 40
        split = split_dataset(n, seed=0)
        bundle = DatasetBundle(X=np.zeros((n, 2)), Y=np.zeros((n, 2)), split=split)
        got = np.concatenate([bundle.indices(s) for s in ("train", "val", "test")])
        assert sorted(got.tolist()) == list(range(n))
        assert bundle.indices("all").shape == (n,)
