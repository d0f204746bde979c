"""SVG scatter and PGM grid-sheet exporters."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import tiny_config
from devae.errors import DataError
from devae.gaussian import ellipse_from_cov
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig
from devae.viz import (
    PALETTE,
    decode_to_bytes,
    grid_inverse_sheet,
    grid_lattice,
    latent_plot_svg,
    read_pgm,
    write_pgm,
)


def _tags(svg_path, name):
    root = ET.parse(svg_path).getroot()
    return [el for el in root.iter() if el.tag.split("}")[-1] == name]


class TestLatentPlotSvg:
    def test_three_points_three_circles(self, tmp_path):
        path = tmp_path / "p.svg"
        latent_plot_svg(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]), None, None, path)
        assert len(_tags(path, "circle")) == 3
        assert len(_tags(path, "ellipse")) == 0

    def test_one_class_three_nested_ellipses(self, tmp_path):
        path = tmp_path / "p.svg"
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        specs = [ellipse_from_cov((0.5, -0.5), cov, k, 1.75) for k in (1, 2, 3)]
        latent_plot_svg(np.array([[0.5, -0.5]]), np.array([0]), {0: specs}, path)
        ellipses = _tags(path, "ellipse")
        assert len(ellipses) == 3
        transforms = {e.get("transform").split(" rotate")[0] for e in ellipses}
        assert len(transforms) == 1  # shared center

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        specs = {0: [ellipse_from_cov((0, 0), np.eye(2), k, 1.0) for k in (1, 2, 3)]}
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        latent_plot_svg(pts, labels, specs, a)
        latent_plot_svg(pts, labels, specs, b)
        assert a.read_bytes() == b.read_bytes()

    def test_circles_match_per_point_formatting(self, tmp_path):
        """Each circle reads as ``f"{v:.6g}"`` of the numpy scalar and the palette entry
        of ``int(label)``, also for -0.0, tiny and huge values and negative labels."""
        values = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 123456.5,
                  1234567.0, -0.1, 1 / 3, 2.5e-5]
        pts = np.array([[x, y] for x in values for y in values[::-1]])
        labels = np.arange(pts.shape[0]) % 23 - 11
        path = tmp_path / "p.svg"
        latent_plot_svg(pts, labels, None, path)
        head, _, _ = path.read_text().partition("<circle")
        span = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1e-9)
        r = f"{0.008 * span:.6g}"
        want = "".join(
            f'<circle cx="{pts[i, 0]:.6g}" cy="{-pts[i, 1]:.6g}" r="{r}" '
            f'fill="{PALETTE[int(labels[i]) % len(PALETTE)]}"/>\n'
            for i in range(pts.shape[0])
        )
        assert path.read_text() == head + want + "</svg>\n"
        assert 'cx="-0" cy="-1e-300"' in want

    def test_valid_xml_with_covering_viewbox(self, tmp_path):
        path = tmp_path / "p.svg"
        rng = np.random.default_rng(1)
        pts = rng.uniform(-10, 10, size=(15, 2))
        labels = rng.integers(0, 10, size=15)
        specs = {int(labels[0]): [ellipse_from_cov(pts[0], 4.0 * np.eye(2), k, 16.0) for k in (1, 2, 3)]}
        latent_plot_svg(pts, labels, specs, path)
        root = ET.parse(path).getroot()
        vx, vy, vw, vh = map(float, root.get("viewBox").split())
        for el in _tags(path, "circle"):
            cx, cy = float(el.get("cx")), float(el.get("cy"))
            assert vx <= cx <= vx + vw and vy <= cy <= vy + vh
        # Ellipse extents stay inside the viewBox as well.
        hx = 3 * 2.0  # k=3 circle of radius 3*sqrt(4)
        assert vx <= pts[0, 0] - hx and pts[0, 0] + hx <= vx + vw

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_view_box_beyond_float64_rejected(self, tmp_path):
        big = np.finfo(np.float64).max
        for pts in ([[-big, 0.0], [big, 1.0]], [[0.0, -1e308], [1.0, 1e308]]):
            with pytest.raises(DataError, match="^view box .*inf.* overflows float64$"):
                latent_plot_svg(np.array(pts), None, None, tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()
        latent_plot_svg(np.array([[-1e307, -big], [1e307, -big]]), None, None, tmp_path / "x.svg")

    def test_rejects_bad_points(self, tmp_path):
        with pytest.raises(DataError):
            latent_plot_svg(np.array([[np.nan, 0.0]]), None, None, tmp_path / "x.svg")


class TestGridLattice:
    def test_inclusive_evenly_spaced(self):
        coords = np.array([[0.0, 0.0], [4.0, 4.0]])
        points = grid_lattice(coords, 5)
        assert sorted(set(points[:, 0])) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert sorted(set(points[:, 1])) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert points.shape == (25, 2)

    def test_grid_two_hits_corners(self):
        coords = np.array([[1.0, -1.0], [3.0, 5.0]])
        points = grid_lattice(coords, 2)
        got = {tuple(p) for p in points}
        assert got == {(1.0, 5.0), (3.0, 5.0), (1.0, -1.0), (3.0, -1.0)}

    def test_row_zero_is_top_of_y_extent(self):
        coords = np.array([[0.0, 0.0], [4.0, 4.0]])
        points = grid_lattice(coords, 5)
        assert points[0, 1] == 4.0  # first lattice row at max y
        assert points[-1, 1] == 0.0

    def test_symmetric_under_corner_reversal(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(-5, 5, size=(10, 2))
        a = grid_lattice(coords, 4)
        b = grid_lattice(coords[::-1], 4)
        np.testing.assert_array_equal(a, b)

    def test_minimum_size(self):
        with pytest.raises(DataError):
            grid_lattice(np.zeros((3, 2)), 1)

    @pytest.mark.parametrize("grid_n", [2, 5, 16])
    def test_bytes_match_row_by_row_loop(self, grid_n):
        coords = np.random.default_rng(grid_n).uniform(-3, 7, size=(20, 2))
        xs = np.linspace(coords[:, 0].min(), coords[:, 0].max(), grid_n)
        ys = np.linspace(coords[:, 1].min(), coords[:, 1].max(), grid_n)[::-1]
        loop = np.empty((grid_n * grid_n, 2))
        for r in range(grid_n):
            for col in range(grid_n):
                loop[r * grid_n + col] = (xs[col], ys[r])
        points = grid_lattice(coords, grid_n)
        assert points.dtype == loop.dtype and points.shape == loop.shape
        assert points.tobytes() == loop.tobytes()


def _square_model(seed=0) -> DeVae:
    return DeVae(
        ModelConfig(
            input_dim=16,
            weights=LossWeights(1.0, 0.0),
            encoder_widths=(12, 8),
            decoder_widths=(8, 12),
            head="none",
            recon_kind="bce",
            seed=seed,
        )
    )


class TestGridInverseSheet:
    def test_pgm_dimensions_and_tiling(self, tmp_path):
        model = _square_model()
        coords = np.array([[-2.0, -2.0], [2.0, 2.0]])
        path = tmp_path / "sheet.pgm"
        kind = grid_inverse_sheet(model, coords, 5, path)
        assert kind == "pgm"
        image = read_pgm(path)
        assert image.shape == (20, 20)  # 5 tiles of 4x4
        points = grid_lattice(coords, 5)
        for r in range(5):
            for c in range(5):
                tile = image[r * 4 : (r + 1) * 4, c * 4 : (c + 1) * 4]
                expected = decode_to_bytes(model, points[r * 5 + c]).reshape(4, 4)
                np.testing.assert_array_equal(tile, expected)

    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "img.pgm"
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(path, image)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        assert len(blob) == len(b"P5\n4 3\n255\n") + 12
        np.testing.assert_array_equal(read_pgm(path), image)

    @pytest.mark.parametrize("shape", [(255, 3), (1255, 2)])
    def test_round_trip_when_a_size_holds_255(self, tmp_path, shape):
        # The height's digits end in "255", which a reader that looks for the
        # max-value line by its text finds inside the size line.
        path = tmp_path / "img.pgm"
        image = (np.arange(shape[0] * shape[1]) % 256).astype(np.uint8).reshape(shape)
        write_pgm(path, image)
        np.testing.assert_array_equal(read_pgm(path), image)

    @pytest.mark.parametrize("blob", [b"P2\n3 1\n255\nabc", b"P5\n3 x\n255\nabc", b"P5\n3 1\n15\nabc", b"P5\n3 1\n"])
    def test_rejects_a_malformed_header(self, tmp_path, blob):
        path = tmp_path / "img.pgm"
        path.write_bytes(blob)
        with pytest.raises(DataError, match="not a binary PGM"):
            read_pgm(path)

    def test_byte_deterministic(self, tmp_path):
        model = _square_model()
        coords = np.array([[-1.0, 0.0], [2.0, 3.0]])
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        grid_inverse_sheet(model, coords, 3, a)
        grid_inverse_sheet(model, coords, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_non_square_dimension_falls_back_to_csv(self, tmp_path):
        model = DeVae(tiny_config())  # d=10 is not a perfect square
        path = tmp_path / "sheet.out"
        kind = grid_inverse_sheet(model, np.array([[0.0, 0.0], [1.0, 1.0]]), 5, path)
        assert kind == "csv"
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 26  # header + 25 grid points
        assert lines[0].startswith("x,y,f0")

    def test_byte_mapping_endpoints(self):
        model = _square_model()
        out = decode_to_bytes(model, np.array([0.0, 0.0]))
        assert out.dtype == np.uint8
        assert out.min() >= 0 and out.max() <= 255
