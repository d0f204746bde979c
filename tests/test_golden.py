"""Golden sha256 digests of the CLI's outputs, so byte identity is a check.

The pipeline reruns, through ``cli.main``, the README quickstart's ``synth``
and ``pca``; a short training of every head on those blobs at seed 7, with
its checkpoint, ``project`` CSV, ``latent-plot`` SVG and ``reconstruct``
CSV; and the CI's BCE pipeline on 300 synthetic 28x28 images (checkpoint,
CSV, SVG and PGM sheet). Every output's digest must match
``golden_digests.json``.

Float64 products round differently on other BLAS kernels and numpy
releases, so the table is keyed by both (``SkylakeX/numpy2``). Where the
key has no entry the test skips, naming the kernel it found and the ones
the table holds.

To regenerate the table, only for a change meant to move output bytes:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from devae import cli
from devae.gaussian import HEADS
from devae.tensor import _openblas_symbol

TABLE = Path(__file__).with_name("golden_digests.json")

MSE_TRAIN = ["--lambda-proj", "5", "--lambda-ent", "0.001", "--recon", "mse", "--seed", "7",
             "--max-epochs", "3", "--patience", "3"]


def table_key() -> str:
    """``<OpenBLAS core>/numpy<major>``, with core ``unknown`` where no OpenBLAS names it."""
    getter = _openblas_symbol(("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                               "openblas_get_corename64_", "openblas_get_corename"))
    core = "unknown"
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_char_p
        core = getter().decode()
    return f"{core}/numpy{np.__version__.split('.')[0]}"


def _write_pixels(root: Path) -> None:
    """The CI's 300 IDX images and labels (generator seed 0)."""
    r = np.random.default_rng(0)
    px = (r.random((300, 784)) < 0.2) * r.integers(0, 256, (300, 784))
    (root / "images.idx").write_bytes(np.array([0x803, 300, 28, 28], ">u4").tobytes()
                                      + px.astype(np.uint8).tobytes())
    (root / "labels.idx").write_bytes(np.array([0x801, 300], ">u4").tobytes()
                                      + r.integers(0, 10, 300).astype(np.uint8).tobytes())


def run_pipeline(root: Path) -> dict[str, str]:
    """Run every command in ``root``; the sha256 of each output, by file name."""
    _write_pixels(root)
    f = lambda name: str(root / name)  # noqa: E731
    blobs, proj = ["--data", f("blobs.csv")], ["--proj", f("proj.csv")]
    commands = [
        ["synth", "--out", f("blobs.csv"), "--n", "600", "--dims", "50", "--blobs", "3",
         "--spread", "0.5", "--seed", "7"],
        ["pca", *blobs, "--out", f("proj.csv")],
    ]
    for head in HEADS:
        model = ["--model", f(f"{head}.ckpt")]
        commands += [
            ["train", *blobs, *proj, "--head", head, *MSE_TRAIN, "--out", f(f"{head}.ckpt")],
            ["project", *model, *blobs, "--out", f(f"{head}-coords.csv")],
            ["latent-plot", *model, *blobs, *proj, "--out", f(f"{head}.svg")],
            ["reconstruct", *model, *proj, "--grid", "5", "--out", f(f"{head}-sheet.csv")],
        ]
    images, labels, model = ["--data", f("images.idx")], ["--labels", f("labels.idx")], ["--model", f("bce.ckpt")]
    commands += [
        ["pca", *images, *labels, "--out", f("bce-proj.csv")],
        ["train", *images, "--proj", f("bce-proj.csv"), *labels, "--recon", "bce", "--head", "full",
         "--max-epochs", "2", "--patience", "2", "--seed", "3", "--out", f("bce.ckpt")],
        ["project", *model, *images, "--out", f("bce-coords.csv")],
        ["latent-plot", *model, *images, "--proj", f("bce-proj.csv"), *labels, "--split", "all",
         "--out", f("bce.svg")],
        ["reconstruct", *model, "--proj", f("bce-proj.csv"), "--grid", "5", "--out", f("bce-sheet.pgm")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.main(argv) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.suffix != ".idx"}


def test_outputs_match_golden_digests(tmp_path):
    key, table = table_key(), json.loads(TABLE.read_text())
    if key not in table:
        pytest.skip(f"no golden digests for {key}; the table holds {sorted(table)}")
    got = run_pipeline(tmp_path)
    moved = sorted(name for name in got.keys() | table[key].keys() if got.get(name) != table[key].get(name))
    assert not moved, f"outputs whose bytes moved on {key}: {moved}"


if __name__ == "__main__":
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table[table_key()] = run_pipeline(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE}: {len(table[table_key()])} digests for {table_key()}", file=sys.stderr)
