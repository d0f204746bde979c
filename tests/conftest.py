"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import collections
import json
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from devae import (
    DatasetBundle,
    DeVae,
    LossWeights,
    ModelConfig,
    TrainSettings,
    make_blobs,
    pca_project,
    split_dataset,
    train,
)
from devae.gaussian import HEAD_PARAMS, GaussianLatent
import devae.tensor as T
from devae.tensor import Tensor


# -- independent oracles ------------------------------------------------------


def gaussian_logpdf(z: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Multivariate normal log-density via plain linear algebra."""
    q = cov.shape[0]
    diff = z - mu
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
    return -0.5 * (q * np.log(2.0 * np.pi) + logdet + quad)


def mc_entropy(latent: GaussianLatent, i: int, n: int, seed: int) -> float:
    """Monte-Carlo estimate of -E[ln p(z)] over n reparameterized samples.

    Draws go through the latent's own sample() transform; the density uses
    the materialized covariance and numpy linear algebra, independent of
    the closed-form entropy under test.
    """
    mu = latent.mu.data[i]
    big = tile_latent(latent, i, n)
    eps = np.random.default_rng(seed).standard_normal((n, 2))
    z = big.sample(Tensor(eps)).data
    cov, _ = latent.covariance(i)
    return float(-gaussian_logpdf(z, mu, cov).mean())


def tile_latent(latent: GaussianLatent, i: int, n: int) -> GaussianLatent:
    """n copies of sample i of a latent."""
    params = None if latent.params is None else Tensor(np.tile(latent.params.data[i], (n, 1)))
    return GaussianLatent(latent.head, Tensor(np.tile(latent.mu.data[i], (n, 1))), params)


def random_latent(head: str, rng: np.random.Generator) -> GaussianLatent:
    """One random latent with every raw head parameter drawn in [-2, 2].

    For isotropic and diagonal those are log-variances; for full, the
    off-diagonal entries of L and ln L_ii (log-variance in [-4, 4]).
    """
    mu = Tensor(rng.uniform(-3.0, 3.0, size=(1, 2)))
    width = len(HEAD_PARAMS[head])
    return GaussianLatent(head, mu, Tensor(rng.uniform(-2.0, 2.0, size=(1, width))) if width else None)


def write_idx(path, magic: int, dims: tuple[int, ...], payload: bytes) -> None:
    """Test helper: serialize an IDX file from its parts."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">i", magic))
        for d in dims:
            fh.write(struct.pack(">i", d))
        fh.write(payload)


GOOD_CONFIG = {"input_dim": 10, "latent_dim": 2, "encoder_widths": [4], "decoder_widths": [4],
               "head": "full", "recon_kind": "mse", "lambda_proj": 1.0, "lambda_ent": 0.1, "seed": 0}

# Config blocks of the wrong shape or type.
MALFORMED_CONFIGS = [
    pytest.param([], id="list"),
    pytest.param({**GOOD_CONFIG, "encoder_widths": None}, id="null-widths"),
    pytest.param({**GOOD_CONFIG, "encoder_widths": "ab"}, id="string-widths"),
    pytest.param({**GOOD_CONFIG, "input_dim": float("inf")}, id="inf-input-dim"),
]


def checkpoint_with_config(config) -> bytes:
    """A checkpoint envelope around an arbitrary JSON config block, with no parameters."""
    blob = json.dumps(config, separators=(",", ":")).encode("utf-8")
    return b"DEVAE\x01" + len(blob).to_bytes(4, "little") + blob


def run_cli(args, cwd=None, timeout=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "devae", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


class CountingPool:
    """A thread pool, counting the tasks it is given, in all and by function."""

    def __init__(self, pool):
        self.pool, self.submitted, self.by_fn = pool, 0, collections.Counter()

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        self.by_fn[fn.__qualname__] += 1
        return self.pool.submit(fn, *args, **kwargs)


def forked_exit_code(child, seconds: float = 30.0) -> int | None:
    """Exit code of a forked process that runs ``child()`` and exits 0 when it
    returns True, 3 when False and 1 when it raises; None, after killing it,
    when it has not finished within ``seconds``."""
    pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        code = 1
        try:
            code = 0 if child() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return None


# -- shared datasets and models ----------------------------------------------


def blob_bundle(n=120, d=10, k=3, spread=0.5, seed=11) -> DatasetBundle:
    X, labels = make_blobs(n, d, k, spread, seed)
    Y = pca_project(X)
    return DatasetBundle(X=X, Y=Y, split=split_dataset(n, seed), labels=labels, name="blobs")


def tiny_config(head="full", recon_kind="mse", d=10, seed=11,
                weights=LossWeights(5.0, 0.001)) -> ModelConfig:
    return ModelConfig(
        input_dim=d,
        weights=weights,
        encoder_widths=(32, 16),
        decoder_widths=(16, 32),
        head=head,
        recon_kind=recon_kind,
        seed=seed,
    )


@pytest.fixture
def tape_nodes(monkeypatch) -> list[Tensor]:
    """Every tensor built by ``tensor._node`` from here on, in order."""
    nodes = []
    record = T._node

    def counting_node(*args):
        nodes.append(record(*args))
        return nodes[-1]

    monkeypatch.setattr(T, "_node", counting_node)
    return nodes


@pytest.fixture(scope="session")
def bundle() -> DatasetBundle:
    return blob_bundle()


@pytest.fixture(scope="session")
def trained(bundle):
    """A briefly trained full-head model on the session blob bundle."""
    model = DeVae(tiny_config())
    model, report = train(model, bundle, TrainSettings(seed=11, max_epochs=12))
    return model, report
