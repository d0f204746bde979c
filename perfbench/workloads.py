"""Workload inputs, set-up, the timed operations and their output checks.

Every workload is one closed-loop client in one process: it issues the next
operation only after the previous one returned. The package is driven only
through its public functions: ``devae.cli.main`` in-process, ``train``,
``DeVae.encode``/``decode``, the checkpoint functions and the ``data``
readers and writers. Functions are looked up on their module at call time,
so a traced phase sees the calls the benchmark makes as well.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import devae.cli
import devae.data
import devae.model
import devae.trainer
from devae.data import DatasetBundle
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig
from devae.trainer import TrainSettings, split_dataset

BATCH_SIZE = 64
CHUNK_ROWS = 4096  # encode/decode chunk, as evaluate() uses
GRID = 20
SIDE = 28
N_CLASSES = 10
PROTOTYPE_SEED = 20250816
# The prediction clamp of the BCE loss; a pixel outside it gets no gradient.
BCE_CLAMP = 1e-7
# Agreement of the package's PCA with an eigh projection; the power
# iteration stops at 1e-10 and agrees to ~3e-7 at 5000x784.
PCA_RTOL = 1e-5
# project's mu against the benchmark's chunked encode of the same rows:
# equal up to the last bits a different BLAS blocking may change.
ENCODE_RTOL = 1e-9


@dataclass(frozen=True)
class Spec:
    """Sizes and training settings of one workload."""

    name: str
    pixels: bool          # MNIST-shaped IDX pixels, else Gaussian blobs in a CSV
    rows: int             # rows the inference operations read
    dims: int
    recon: str
    lambda_proj: float
    lambda_ent: float
    epochs: int           # fixed epochs per training run (patience = epochs)
    train_rows: int       # rows of the training bundle
    csv_rows: int         # rows of the vector CSV that csv_load parses
    train_share: float    # share of the measured time spent training; 0: trained in set-up
    setups: int = 3       # set-ups per run; setup_s is their median

    @property
    def trains_in_setup(self) -> bool:
        return self.train_share == 0.0


SPECS = {
    "desk_mse": Spec("desk_mse", pixels=False, rows=600, dims=50, recon="mse",
                     lambda_proj=5.0, lambda_ent=0.001, epochs=100, train_rows=600,
                     csv_rows=600, train_share=0.4),
    "pixels_bce": Spec("pixels_bce", pixels=True, rows=5000, dims=SIDE * SIDE, recon="bce",
                       lambda_proj=20.0, lambda_ent=5.0, epochs=5, train_rows=5000,
                       csv_rows=250, train_share=0.6),
    "pixels_infer": Spec("pixels_infer", pixels=True, rows=20000, dims=SIDE * SIDE, recon="bce",
                         lambda_proj=20.0, lambda_ent=5.0, epochs=3, train_rows=2000,
                         csv_rows=250, train_share=0.0),
}


def smoke(spec: Spec) -> Spec:
    """The same workload at a size that runs every step and check in seconds."""
    rows = 400 if spec.trains_in_setup else 200
    return replace(spec, rows=rows, epochs=2, train_rows=min(spec.train_rows, 200),
                   csv_rows=40 if spec.pixels else rows, setups=2)


class CheckFailed(Exception):
    """An operation returned output that does not match its reference."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Session:
    """The tracer of a traced phase, or none; lets checks stay out of it."""

    def __init__(self):
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


class EpochClock:
    """One perf_counter stamp per epoch, taken when validation returns.

    It wraps ``devae.trainer.evaluate``, which the training loop calls once
    at the end of every epoch; nothing else is wrapped in untraced runs.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self._original = devae.trainer.evaluate

        def stamped(*args, **kwargs):
            out = self._original(*args, **kwargs)
            self.stamps.append(perf_counter())
            return out

        devae.trainer.evaluate = stamped

    def close(self) -> None:
        devae.trainer.evaluate = self._original


# -- inputs ------------------------------------------------------------------


def make_pixels(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """MNIST-shaped bytes [n, 784] from ten class prototypes, and labels.

    Each prototype is a few Gaussian strokes cut off at 0.2, so most pixels
    are exactly 0. The prototypes are the same for every seed, as the digit
    shapes are for MNIST; the seed draws the samples: each is its class
    prototype shifted by up to two pixels, scaled in brightness and given
    noise on its inked pixels only.
    """
    rng = np.random.default_rng(PROTOTYPE_SEED)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    protos = np.zeros((N_CLASSES, SIDE, SIDE))
    for c in range(N_CLASSES):
        for _ in range(4):
            cy, cx = rng.uniform(7.0, 21.0, size=2)
            sy, sx = rng.uniform(1.0, 3.5, size=2)
            protos[c] += np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
        protos[c] /= protos[c].max()
    protos[protos < 0.2] = 0.0
    padded = np.pad(protos, ((0, 0), (2, 2), (2, 2)))
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % N_CLASSES)
    out = np.empty((n, SIDE * SIDE), dtype=np.uint8)
    for start in range(0, n, CHUNK_ROWS):
        lab = labels[start : start + CHUNK_ROWS]
        m = lab.size
        shift = rng.integers(-2, 3, size=(m, 2))
        img = np.empty((m, SIDE, SIDE))
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                sel = (shift[:, 0] == dy) & (shift[:, 1] == dx)
                img[sel] = padded[lab[sel], 2 + dy : 2 + dy + SIDE, 2 + dx : 2 + dx + SIDE]
        ink = img > 0.0
        img = img * rng.uniform(0.6, 1.0, size=(m, 1, 1)) + ink * rng.normal(0.0, 0.08, size=img.shape)
        out[start : start + m] = np.rint(np.clip(img, 0.0, 1.0) * 255.0).reshape(m, -1)
    return out, labels


def write_idx(path: Path, values: np.ndarray) -> None:
    """IDX file: u8 images [n, 28*28] (magic 0x803) or u8 labels [n] (0x801)."""
    if values.ndim == 2:
        header = struct.pack(">IIII", 0x803, values.shape[0], SIDE, SIDE)
    else:
        header = struct.pack(">II", 0x801, values.shape[0])
    path.write_bytes(header + np.ascontiguousarray(values, dtype=np.uint8).tobytes())


def pca_reference(X: np.ndarray) -> np.ndarray:
    """Top-2 principal coordinates from ``np.linalg.eigh``, signs unfixed."""
    Xc = X - X.mean(axis=0)
    _, vecs = np.linalg.eigh((Xc.T @ Xc) / (X.shape[0] - 1))
    return Xc @ vecs[:, [-1, -2]]


@dataclass
class Inputs:
    """The generated files and the arrays the program is expected to read."""

    X: np.ndarray
    labels: np.ndarray
    Y: np.ndarray
    data_args: list[str]   # --data, and --labels for IDX images
    plot_args: list[str]   # --data/--labels/--proj of latent-plot
    plot_classes: int      # classes latent-plot draws ellipses for
    proj_path: Path
    csv_path: Path
    ckpt_path: Path
    bundle: DatasetBundle


@dataclass
class TrainRun:
    """What one fixed-epoch training run produced."""

    model: DeVae
    epochs_s: list[float]
    test_proj_mse: float
    test_recon_mse: float
    bce_clamped_share: float


def set_up(spec: Spec, seed: int, workdir: Path, clock: EpochClock, session: Session):
    """Write the workload's input files; returns (Inputs, TrainRun or None).

    The training workloads project with the package's PCA. pixels_infer is
    given its projection as a precomputed embedding (principal axes of the
    first 2000 rows, from numpy) and trains its checkpoint here.
    """
    data = devae.data
    proj_path = workdir / "proj.csv"
    if spec.pixels:
        raw, labels = make_pixels(spec.rows, seed)
        X = raw / 255.0  # what scale_pixels gives the program
        write_idx(workdir / "images.idx", raw)
        write_idx(workdir / "labels.idx", labels.astype(np.uint8))
        data_args = ["--data", str(workdir / "images.idx"), "--labels", str(workdir / "labels.idx")]
        plot_args = data_args + ["--proj", str(proj_path)]
        plot_classes = N_CLASSES
        csv_path = workdir / "vectors.csv"
        data.write_csv_vectors(csv_path, X[: spec.csv_rows], labels[: spec.csv_rows])
    else:
        X, labels = data.make_blobs(spec.rows, spec.dims, 3, 0.5, seed)
        csv_path = workdir / "blobs.csv"
        data.write_csv_vectors(csv_path, X, labels)
        data_args = ["--data", str(csv_path)]
        # Unlabeled copies for latent-plot: with labels it draws class
        # ellipses, and ellipse_from_cov rejects the near-singular full-head
        # covariances this training produces (exit 2 on most seeds). The
        # ellipse path is measured on the pixel workloads.
        plot_args = ["--data", str(workdir / "blobs_unlabeled.csv"),
                     "--proj", str(workdir / "proj_unlabeled.csv")]
        plot_classes = 0
        data.write_csv_vectors(workdir / "blobs_unlabeled.csv", X)
    if spec.trains_in_setup:
        sub = X[: min(2000, spec.rows)]
        mean = sub.mean(axis=0)
        _, vecs = np.linalg.eigh(np.cov(sub, rowvar=False))
        Y = (X - mean) @ vecs[:, [-1, -2]]
    else:
        Y = data.pca_project(X)
    data.write_projection_csv(proj_path, Y, labels)
    if not spec.pixels:
        data.write_projection_csv(workdir / "proj_unlabeled.csv", Y)
    n = spec.train_rows
    bundle = DatasetBundle(X=X[:n], Y=Y[:n], split=split_dataset(n, seed), labels=labels[:n])
    inputs = Inputs(X=X, labels=labels, Y=Y, data_args=data_args, plot_args=plot_args,
                    plot_classes=plot_classes, proj_path=proj_path, csv_path=csv_path,
                    ckpt_path=workdir / "model.ckpt", bundle=bundle)
    run = train_run(spec, inputs, seed, clock, session) if spec.trains_in_setup else None
    return inputs, run


# -- training ------------------------------------------------------------------


def train_run(spec: Spec, inputs: Inputs, seed: int, clock: EpochClock, session: Session) -> TrainRun:
    """Train a fresh model for exactly ``spec.epochs`` epochs and save it.

    Patience equals the epoch cap, so early stopping never ends the run
    early. Test-split quality is computed here with numpy from ``encode``
    means and ``decode`` outputs, independent of the package's loss code.
    The checkpoint must round-trip bit-exactly.
    """
    config = ModelConfig(input_dim=inputs.X.shape[1],
                         weights=LossWeights(spec.lambda_proj, spec.lambda_ent),
                         head="full", recon_kind=spec.recon, seed=seed)
    settings = TrainSettings(batch_size=BATCH_SIZE, max_epochs=spec.epochs,
                             patience=spec.epochs, seed=seed)
    clock.stamps.clear()
    t0 = perf_counter()
    model, _ = devae.trainer.train(DeVae(config), inputs.bundle, settings)
    stamps = [t0] + clock.stamps
    epochs_s = [b - a for a, b in zip(stamps, stamps[1:])]
    check(len(epochs_s) == spec.epochs, f"ran {len(epochs_s)} epochs, expected {spec.epochs}")

    devae.model.save_checkpoint(model, inputs.ckpt_path)
    with session.untraced():
        bundle = inputs.bundle
        test = bundle.indices("test")
        mu = encode_mu(model, bundle.X[test])
        x_hat = model.decode(mu).data
        proj = float(np.mean((bundle.Y[test] - mu) ** 2))
        recon = float(np.mean((bundle.X[test] - x_hat) ** 2))
        clamped = float(np.mean((x_hat < BCE_CLAMP) | (x_hat > 1.0 - BCE_CLAMP))) if spec.recon == "bce" else 0.0
        loaded = devae.model.load_checkpoint(inputs.ckpt_path)
        check(all(a.data.tobytes() == b.data.tobytes()
                  for a, b in zip(model.parameters(), loaded.parameters()))
              and len(model.parameters()) == len(loaded.parameters()),
              "checkpoint parameters differ after a save/load round trip")
        again = inputs.ckpt_path.with_suffix(".again")
        devae.model.save_checkpoint(loaded, again)
        check(again.read_bytes() == inputs.ckpt_path.read_bytes(),
              "re-saving a loaded checkpoint changed its bytes")
    check(math.isfinite(proj) and math.isfinite(recon), "non-finite test loss")
    return TrainRun(model, epochs_s, proj, recon, clamped)


def encode_mu(model: DeVae, X: np.ndarray) -> np.ndarray:
    return np.concatenate([model.encode(X[i : i + CHUNK_ROWS]).mu.data
                           for i in range(0, X.shape[0], CHUNK_ROWS)])


# -- inference operations --------------------------------------------------------


def lattice(coords: np.ndarray, n: int) -> np.ndarray:
    """Row-major grid over the bounding box, top row first (as the CLI lays it out)."""
    xs = np.linspace(coords[:, 0].min(), coords[:, 0].max(), n)
    ys = np.linspace(coords[:, 1].min(), coords[:, 1].max(), n)[::-1]
    return np.column_stack([np.tile(xs, n), np.repeat(ys, n)])


def tile_sheet(pixels: np.ndarray, n: int, side: int) -> np.ndarray:
    """[n*n, side*side] bytes, row-major grid order, to one (n*side)^2 image."""
    return pixels.reshape(n, n, side, side).transpose(0, 2, 1, 3).reshape(n * side, n * side)


def to_bytes(x: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(x, 0.0, 1.0) * 255.0).astype(np.uint8)


def pgm_payload(blob: bytes) -> tuple[int, int, bytes]:
    """(width, height, payload) of the binary PGM layout ``P5 / W H / 255``, one per line."""
    magic, size, maxval, payload = (blob.split(b"\n", 3) + [b""] * 4)[:4]
    check(magic == b"P5" and maxval == b"255" and len(size.split()) == 2,
          "reconstruct did not write a P5 PGM")
    w, h = (int(v) for v in size.split())
    return w, h, payload


def sheet_matches(got: np.ndarray, want: np.ndarray) -> bool:
    """Sheets agree when no byte differs by more than one level.

    The CLI decodes one point at a time and the reference decodes the grid
    in one batch; BLAS may round the two differently in the last bit, which
    can move a value sitting on a .5 boundary by one level.
    """
    return got.shape == want.shape and int(np.max(np.abs(got.astype(np.int16) - want))) <= 1


def same_up_to_sign(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    """Columns equal up to a per-column sign, within ``rtol`` of the column scale."""
    if got.shape != want.shape:
        return False
    for j in range(want.shape[1]):
        sign = 1.0 if float(got[:, j] @ want[:, j]) >= 0.0 else -1.0
        scale = float(np.max(np.abs(want[:, j])))
        if not np.max(np.abs(sign * got[:, j] - want[:, j])) <= rtol * scale:
            return False
    return True


def read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Operations:
    """The seven timed inference operations of a workload, with their checks.

    Each call returns the seconds its timed region took. Only the call into
    the package is timed; checks run after it.
    """

    ORDER = ("encode", "decode", "csv_load", "pca", "project", "reconstruct", "latent_plot")

    def __init__(self, spec: Spec, inputs: Inputs, workdir: Path, session: Session):
        self.spec = spec
        self.inputs = inputs
        self.workdir = workdir
        self.session = session
        self.model = devae.model.load_checkpoint(inputs.ckpt_path)
        with session.untraced():
            self.mu = encode_mu(self.model, inputs.X)
        self._pca_ref = None
        self._svg = None

    def run(self, name: str) -> float:
        return getattr(self, name)()

    def _cli(self, argv: list[str]) -> float:
        with self.session.span(f"cli.{argv[0]}"):
            t0 = perf_counter()
            code = devae.cli.main(argv)
            dt = perf_counter() - t0
        check(code == 0, f"devae {argv[0]} exited with {code}")
        return dt

    def encode(self) -> float:
        X = self.inputs.X
        t0 = perf_counter()
        mu = encode_mu(self.model, X)
        dt = perf_counter() - t0
        check(mu.shape == (X.shape[0], 2) and np.array_equal(mu, self.mu),
              "chunked encode differs between calls")
        return dt

    def decode(self) -> float:
        t0 = perf_counter()
        parts = [self.model.decode(self.mu[i : i + CHUNK_ROWS]).data
                 for i in range(0, self.mu.shape[0], CHUNK_ROWS)]
        dt = perf_counter() - t0
        out = np.concatenate(parts)
        check(out.shape == self.inputs.X.shape and bool(np.all(np.isfinite(out))),
              "decode output has the wrong shape or non-finite values")
        if self.spec.recon == "bce":
            check(bool(np.all((out > 0.0) & (out < 1.0))), "sigmoid decode left (0, 1)")
        return dt

    def csv_load(self) -> float:
        t0 = perf_counter()
        X, labels = devae.data.read_csv_vectors(self.inputs.csv_path)
        dt = perf_counter() - t0
        n = X.shape[0]
        check(n == self.spec.csv_rows and np.array_equal(X, self.inputs.X[:n])
              and np.array_equal(labels, self.inputs.labels[:n]),
              "read_csv_vectors does not return the values written")
        return dt

    def pca(self) -> float:
        out = self.workdir / "pca.csv"
        dt = self._cli(["pca", *self.inputs.data_args, "--out", str(out)])
        with self.session.untraced():
            if self._pca_ref is None:
                self._pca_ref = pca_reference(self.inputs.X)
            table = read_table(out)
        check(same_up_to_sign(table[:, 1:3], self._pca_ref, PCA_RTOL),
              "pca differs from the eigh projection")
        check(np.array_equal(table[:, 3], self.inputs.labels), "pca lost the labels")
        return dt

    def project(self) -> float:
        out = self.workdir / "coords.csv"
        dt = self._cli(["project", "--model", str(self.inputs.ckpt_path),
                        *self.inputs.data_args[:2], "--out", str(out)])
        table = read_table(out)
        check(table.shape[0] == self.mu.shape[0]
              and np.allclose(table[:, 1:3], self.mu, rtol=ENCODE_RTOL, atol=ENCODE_RTOL),
              "project's mu differs from a direct encode")
        return dt

    def reconstruct(self) -> float:
        out = self.workdir / "sheet.out"
        dt = self._cli(["reconstruct", "--model", str(self.inputs.ckpt_path),
                        "--proj", str(self.inputs.proj_path), "--grid", str(GRID), "--out", str(out)])
        points = lattice(self.inputs.Y, GRID)
        with self.session.untraced():
            decoded = self.model.decode(points).data
        if self.spec.pixels:
            w, h, payload = pgm_payload(out.read_bytes())
            check(w == h == GRID * SIDE and len(payload) == (GRID * SIDE) ** 2,
                  "reconstruct sheet has the wrong size")
            got = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
            check(sheet_matches(got, tile_sheet(to_bytes(decoded), GRID, SIDE)),
                  "reconstruct sheet differs from a batched decode of the grid")
        else:
            table = read_table(out)
            check(np.array_equal(table[:, :2], points)
                  and np.allclose(table[:, 2:], decoded, rtol=ENCODE_RTOL, atol=ENCODE_RTOL),
                  "reconstruct vectors differ from a batched decode of the grid")
        return dt

    def latent_plot(self) -> float:
        out = self.workdir / "latent.svg"
        dt = self._cli(["latent-plot", "--model", str(self.inputs.ckpt_path), *self.inputs.plot_args,
                        "--split", "all", "--out", str(out)])
        svg = out.read_bytes()
        if self._svg is None:
            check(svg.count(b"<circle") == self.spec.rows
                  and svg.count(b"<ellipse") == 3 * self.inputs.plot_classes,
                  "latent-plot does not draw every point and three ellipses per class")
            self._svg = svg
        check(svg == self._svg, "latent-plot output differs between repeats")
        return dt
