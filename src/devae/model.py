"""Encoder/decoder assembly, head wiring, and checkpoint serialization.

The encoder trunk maps inputs through relu hidden layers; parallel linear
heads emit the latent mean and, when the head variant calls for one, the
covariance parameters. The decoder mirrors the trunk with an identity output
layer, whose output (``decode_logits``) is MSE's reconstruction and BCE's
logits. ``decode``, the inverse projection, runs it without a tape and, for
BCE, applies one sigmoid, so its outputs live in (0, 1).

Checkpoint layout (little-endian):

    magic b"DEVAE" | version u8 = 1 | config-length u32 | config JSON (utf-8)
    | parameter tensors as raw float64, in declared topology order

Topology order is: encoder trunk layers, mu head, covariance head (when
present), decoder layers; weight before bias within each layer.

A model keeps all its parameters in one contiguous float64 vector,
``DeVae.flat``, in that same order; every weight and bias ``.data`` is a view
into it. The parameter block of a checkpoint is therefore ``flat``'s bytes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .data import gather_rows
from .errors import CheckpointError, ContractError, DimensionError
from .gaussian import HEAD_PARAMS, HEADS, LATENT_DIM, GaussianLatent
from .losses import LossBreakdown, LossWeights, ent_loss, proj_loss, recon_bce, recon_mse, total_loss
from .tensor import DenseLayer, Tensor, _row_blocks, _sigmoid_, fan_out, no_grad

MAGIC = b"DEVAE"
VERSION = 1

# Rows per forward call when a whole dataset or split is run for inference;
# the widest activation of one chunk (4096 x 512 float64) is 16 MB.
INFER_CHUNK = 4096

RECON_KINDS = ("mse", "bce")


@dataclass(frozen=True)
class ModelConfig:
    """Topology, head variant, loss configuration, and init seed."""

    input_dim: int
    weights: LossWeights
    encoder_widths: tuple[int, ...] = (512, 128)
    decoder_widths: tuple[int, ...] = (128, 512)
    head: str = "full"
    recon_kind: str = "mse"
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ContractError("input_dim must be positive")
        if not self.encoder_widths or not self.decoder_widths:
            raise ContractError("encoder and decoder need at least one hidden layer")
        if any(w < 1 for w in self.encoder_widths) or any(w < 1 for w in self.decoder_widths):
            raise ContractError("layer widths must be positive")
        if self.head not in HEADS:
            raise ContractError(f"unknown head {self.head!r}")
        if self.recon_kind not in RECON_KINDS:
            raise ContractError(f"unknown reconstruction kind {self.recon_kind!r}")
        if self.seed < 0:
            raise ContractError("seed must be a non-negative integer")
        object.__setattr__(self, "encoder_widths", tuple(int(w) for w in self.encoder_widths))
        object.__setattr__(self, "decoder_widths", tuple(int(w) for w in self.decoder_widths))

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "latent_dim": LATENT_DIM,
            "encoder_widths": list(self.encoder_widths),
            "decoder_widths": list(self.decoder_widths),
            "head": self.head,
            "recon_kind": self.recon_kind,
            "lambda_proj": self.weights.lambda_proj,
            "lambda_ent": self.weights.lambda_ent,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if int(d["latent_dim"]) != LATENT_DIM:
            raise ContractError(f"latent_dim must be {LATENT_DIM}, got {d['latent_dim']}: "
                                f"the parameter block is laid out for a {LATENT_DIM}-D latent")
        return cls(
            input_dim=int(d["input_dim"]),
            encoder_widths=tuple(d["encoder_widths"]),
            decoder_widths=tuple(d["decoder_widths"]),
            head=str(d["head"]),
            recon_kind=str(d["recon_kind"]),
            weights=LossWeights(float(d["lambda_proj"]), float(d["lambda_ent"])),
            seed=int(d["seed"]),
        )


def _layer_specs(config: ModelConfig) -> list[tuple[int, int, str]]:
    """(out_dim, in_dim, activation) of every dense layer, in topology order."""
    specs = []
    prev = config.input_dim
    for width in config.encoder_widths:
        specs.append((width, prev, "relu"))
        prev = width
    specs.append((LATENT_DIM, prev, "identity"))
    n_var = len(HEAD_PARAMS[config.head])
    if n_var:
        specs.append((n_var, prev, "identity"))
    prev = LATENT_DIM
    for width in config.decoder_widths:
        specs.append((width, prev, "relu"))
        prev = width
    specs.append((config.input_dim, prev, "identity"))
    return specs


def parameter_count(config: ModelConfig) -> int:
    """Number of float64 parameters a model with this config holds."""
    return sum(out_dim * (in_dim + 1) for out_dim, in_dim, _ in _layer_specs(config))


class DeVae:
    """A trained (or trainable) parametric projection and its inverse."""

    def __init__(self, config: ModelConfig, *, _flat: np.ndarray | None = None):
        """A model with freshly initialized parameters, drawn from ``config.seed``.

        ``load_checkpoint`` passes the parameter block it read as ``_flat``,
        which becomes ``flat`` as is, and no initial values are drawn.
        """
        self.config = config
        rng = np.random.default_rng(config.seed) if _flat is None else None
        self.flat = np.empty(parameter_count(config)) if _flat is None else _flat
        layers: list[DenseLayer] = []
        offset = 0
        for out_dim, in_dim, activation in _layer_specs(config):
            weight = self.flat[offset : offset + out_dim * in_dim].reshape(out_dim, in_dim)
            offset += out_dim * in_dim
            bias = self.flat[offset : offset + out_dim]
            offset += out_dim
            if rng is not None:
                bound = math.sqrt(6.0 / in_dim)
                weight[...] = rng.uniform(-bound, bound, size=weight.shape)
                bias[...] = 0.0
            # Tensor keeps a contiguous float64 array as is, so .data stays a view.
            layers.append(DenseLayer(Tensor(weight, requires_grad=True),
                                     Tensor(bias, requires_grad=True), activation))

        # Every layer in topology order, the order of ``flat``.
        self.layers = layers
        n_trunk = len(config.encoder_widths)
        self.trunk: list[DenseLayer] = layers[:n_trunk]
        self.mu_head = layers[n_trunk]
        self.var_head = layers[n_trunk + 1] if HEAD_PARAMS[config.head] else None
        self.decoder: list[DenseLayer] = layers[len(layers) - len(config.decoder_widths) - 1 :]

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in (layer.weight, layer.bias)]

    def parameter_names(self) -> list[str]:
        """Names of ``parameters()``, in the same (checkpoint) order: layers
        ``enc{i}``, ``mu``, ``var`` (heads with a variance layer), ``dec{i}``
        and ``out``, each as ``.weight`` then ``.bias``."""
        layers = [f"enc{i}" for i in range(len(self.trunk))] + ["mu"]
        layers += [] if self.var_head is None else ["var"]
        layers += [f"dec{i}" for i in range(len(self.decoder) - 1)] + ["out"]
        return [f"{layer}.{part}" for layer in layers for part in ("weight", "bias")]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        if snapshot.shape != self.flat.shape:
            raise DimensionError.mismatch("restore", self.flat.shape, snapshot.shape)
        self.flat[...] = snapshot

    # -- forward passes ---------------------------------------------------------

    def encode(self, x) -> GaussianLatent:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise DimensionError(
                f"encode: input shape {x.shape} does not match model input_dim {self.config.input_dim}"
            )
        for layer in self.trunk:
            x = layer(x)
        mu = self.mu_head(x)
        return GaussianLatent(self.config.head, mu, None if self.var_head is None else self.var_head(x))

    def encode_rows(self, X: np.ndarray, rows: np.ndarray | None = None) -> GaussianLatent:
        """Encode ``X[rows]`` (all of ``X`` when ``rows`` is None) without a tape.

        Rows are gathered (``gather_rows``: uint8 pixels are scaled) and
        encoded ``INFER_CHUNK`` at a time, so neither a float copy of the
        whole selection nor its activations are held at once.
        """
        n = X.shape[0] if rows is None else len(rows)
        parts: list[GaussianLatent] = []
        with no_grad():
            for start in range(0, max(n, 1), INFER_CHUNK):  # no rows: one empty chunk
                stop = start + INFER_CHUNK
                chunk = slice(start, stop) if rows is None else rows[start:stop]
                parts.append(self.encode(gather_rows(X, chunk)))

        def joined(block: str) -> Tensor | None:
            if getattr(parts[0], block) is None:
                return None
            return Tensor(np.concatenate([getattr(p, block).data for p in parts]))

        return GaussianLatent(self.config.head, joined("mu"), joined("params"))

    def decode_logits(self, z) -> Tensor:
        """The decoder stack on [batch, LATENT_DIM] points: MSE's reconstruction, BCE's logits."""
        z = z if isinstance(z, Tensor) else Tensor(z)
        if z.data.ndim != 2 or z.shape[1] != LATENT_DIM:
            raise DimensionError(f"decode: input shape {z.shape} does not match latent_dim {LATENT_DIM}")
        for layer in self.decoder:
            z = layer(z)
        return z

    def decode(self, z) -> Tensor:
        """Reconstruction of latent points, without a tape; in (0, 1) for BCE.

        BCE's sigmoid runs on the row blocks the output layer's product was
        split into, one per lane.
        """
        with no_grad():
            out = self.decode_logits(z)
        if self.config.recon_kind == "bce":
            logits = out.data  # the untaped output is this call's own array
            blocks = _row_blocks(len(logits), logits.size * self.decoder[-1].weight.shape[1])
            fan_out(lambda lo, hi: _sigmoid_(logits[lo:hi]), blocks)
        return out


@dataclass
class ForwardResult:
    """Everything one training step needs from a forward pass."""

    breakdown: LossBreakdown
    x_hat: Tensor  # decode_logits output: the reconstruction for MSE, logits for BCE
    latent: GaussianLatent
    total: Tensor  # scalar graph node; call .backward() on it


def forward_train(model: DeVae, x, y, eps=None) -> ForwardResult:
    """Encode, sample, decode, and assemble the composite loss.

    ``eps`` supplies the reparameterization noise, [batch, 2]; pass zeros
    (or None) for deterministic evaluation. Head "none" always decodes mu.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    y = y if isinstance(y, Tensor) else Tensor(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionError.mismatch("row-aligned x vs y", x.shape, y.shape)
    latent = model.encode(x)
    if eps is None:
        eps = np.zeros((x.shape[0], LATENT_DIM))
    z = latent.sample(eps)
    x_hat = model.decode_logits(z)
    recon = recon_bce(x, x_hat) if model.config.recon_kind == "bce" else recon_mse(x, x_hat)
    proj = proj_loss(y, latent.mu)
    ent = ent_loss(latent)
    weights = model.config.weights
    breakdown = total_loss(recon.item(), proj.item(), ent.item(), weights)
    total = weights.combine_node(recon, proj, ent)
    return ForwardResult(breakdown=breakdown, x_hat=x_hat, latent=latent, total=total)


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(model: DeVae, path) -> None:
    """Write the config and all parameters; round-trips bit-exactly."""
    config_blob = json.dumps(model.config.to_dict(), separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(len(config_blob).to_bytes(4, "little"))
        fh.write(config_blob)
        fh.write(model.flat.astype("<f8", copy=False).tobytes())


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    blob = fh.read(n)
    if len(blob) != n:
        raise CheckpointError(f"{what}: expected {n} bytes, got {len(blob)}")
    return blob


def load_checkpoint(path) -> DeVae:
    """Reconstruct a model from a checkpoint file, verifying the envelope."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version_blob = _read_exact(fh, 1, "version byte")
        if version_blob[0] != VERSION:
            raise CheckpointError(f"unsupported version {version_blob[0]}, expected {VERSION}")
        config_len = int.from_bytes(_read_exact(fh, 4, "config length"), "little")
        config_blob = _read_exact(fh, config_len, "config body")
        try:
            config = ModelConfig.from_dict(json.loads(config_blob.decode("utf-8")))
        except (ValueError, KeyError, TypeError, OverflowError, ContractError) as exc:  # missing keys, wrong types or values
            raise CheckpointError(f"invalid config block: {exc}") from exc
        # Check the declared size against the file before allocating it.
        n_bytes = 8 * parameter_count(config)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > left:
            raise CheckpointError(f"parameter block: expected {n_bytes} bytes, got {left}")
        flat = np.empty(n_bytes // 8)
        got = fh.readinto(flat)
        if got != n_bytes:
            raise CheckpointError(f"parameter block: expected {n_bytes} bytes, got {got}")
        if sys.byteorder == "big":  # the file is little-endian
            flat.byteswap(inplace=True)
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after final parameter tensor")
    return DeVae(config, _flat=flat)
