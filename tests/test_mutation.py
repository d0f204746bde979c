"""Seeded mutations of valid inputs through every reader, run via ``cli.main``.

Valid IDX images and labels, a vector CSV, a projection CSV and a checkpoint
are truncated, have a byte flipped, or get a span inserted or deleted; each
mutant then goes through a command that reads it. A mutant may still be a
valid file, so a run may succeed; otherwise it must end in a documented
error exit (1 usage, 2 data/parse), with a one-line message and never a
traceback or an exception escaping ``main``. Hypothesis is derandomized and
keeps no example database, so every run tries the same mutants.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config, write_idx
from devae import cli
from devae.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, write_csv_vectors, write_projection_csv
from devae.model import DeVae, save_checkpoint

N, SIDE = 30, 4  # 30 samples of 4x4 pixels; the vector CSV has the same 16 columns

# Each command and the inputs it reads; "{out}" is its output file.
COMMANDS = [
    ["pca", "--data", "{images}", "--labels", "{labels}", "--out", "{out}.csv"],
    ["pca", "--data", "{vectors}", "--out", "{out}.csv"],
    ["project", "--model", "{checkpoint}", "--data", "{images}", "--out", "{out}.csv"],
    ["project", "--model", "{checkpoint}", "--data", "{vectors}", "--out", "{out}.csv"],
    ["reconstruct", "--model", "{checkpoint}", "--proj", "{projection}", "--grid", "3", "--out", "{out}.pgm"],
    ["eval", "--model", "{checkpoint}", "--data", "{vectors}", "--proj", "{projection}", "--split", "all"],
    ["latent-plot", "--model", "{checkpoint}", "--data", "{images}", "--proj", "{projection}",
     "--labels", "{labels}", "--split", "all", "--out", "{out}.svg"],
    ["latent-plot", "--model", "{checkpoint}", "--data", "{vectors}", "--proj", "{projection}",
     "--split", "all", "--out", "{out}.svg"],
]
KINDS = ("images", "labels", "vectors", "projection", "checkpoint")
TOKENS = st.sampled_from([b",", b"\n", b"-", b".", b"e", b"nan", b"inf", b"1e400", b"\xff", b"\x00",
                          b"label"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid files, by kind, and a directory for mutants and outputs."""
    root = tmp_path_factory.mktemp("mutation")
    rng = np.random.default_rng(0)
    pixels = ((rng.random((N, SIDE * SIDE)) < 0.5) * rng.integers(0, 256, (N, SIDE * SIDE))).astype(np.uint8)
    labels = rng.integers(0, 3, N)
    paths = {kind: root / name for kind, name in zip(
        KINDS, ("images.idx", "labels.idx", "vectors.csv", "proj.csv", "model.ckpt"))}
    write_idx(paths["images"], IDX_IMAGES_MAGIC, (N, SIDE, SIDE), pixels.tobytes())
    write_idx(paths["labels"], IDX_LABELS_MAGIC, (N,), labels.astype(np.uint8).tobytes())
    write_csv_vectors(paths["vectors"], rng.standard_normal((N, SIDE * SIDE)), labels)
    write_projection_csv(paths["projection"], rng.standard_normal((N, 2)), labels)
    save_checkpoint(DeVae(tiny_config(d=SIDE * SIDE)), paths["checkpoint"])
    return root, {kind: path.read_bytes() for kind, path in paths.items()}, paths


@st.composite
def mutants(draw, blob: bytes) -> bytes:
    at = draw(st.integers(0, len(blob) - 1))
    how = draw(st.sampled_from(("truncate", "flip", "insert", "delete")))
    if how == "truncate":
        return blob[:at]
    if how == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
    if how == "insert":
        return blob[:at] + draw(TOKENS | st.binary(min_size=1, max_size=8)) + blob[at:]
    return blob[:at] + blob[at + draw(st.integers(1, 16)) :]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_inputs_end_in_a_documented_exit(inputs, data):
    root, blobs, paths = inputs
    argv = data.draw(st.sampled_from(COMMANDS))
    kind = data.draw(st.sampled_from([k for k in KINDS if "{" + k + "}" in argv]))
    mutant = root / ("mutant-" + paths[kind].name)
    mutant.write_bytes(data.draw(mutants(blobs[kind])))
    files = {**{k: str(p) for k, p in paths.items()}, kind: str(mutant), "out": str(root / "out")}
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main([arg.format(**files) for arg in argv])
    message = stderr.getvalue()
    assert "Traceback" not in message
    assert code in (0, 1, 2), message
    if code:
        assert message.startswith(("error: ", "usage error: ")) and message.count("\n") == 1, message
