"""Encoder/decoder assembly, head wiring, and checkpoint serialization.

The encoder trunk maps inputs through relu hidden layers; parallel linear
heads emit the latent mean and, when the head variant calls for one, the
covariance parameters. The decoder mirrors the trunk with an identity output
layer, whose output (``decode_logits``) is MSE's reconstruction and BCE's
logits. ``decode``, the inverse projection, runs it and, for BCE, applies
one sigmoid, so its outputs live in (0, 1). ``decode_each`` runs the same
layers in ``linear``'s one-row mode, so each point gets the bytes ``decode``
gives it alone: the grid of ``reconstruct``.

Training runs one fixed chain: ``encode``, the latent sample,
``decode_logits``, the three loss terms and their weighted total.
``forward_train`` keeps what its backward needs, and ``backward``, the
chain's hand-written adjoint, walks it in reverse. Inference runs the same
forward functions and keeps nothing.

Checkpoint layout (little-endian):

    magic b"DEVAE" | version u8 = 1 | config-length u32 | config JSON (utf-8)
    | parameter tensors as raw float64, in declared topology order

Topology order is: encoder trunk layers, mu head, covariance head (when
present), decoder layers; weight before bias within each layer.

A model keeps all its parameters in one contiguous float64 vector,
``DeVae.flat``, in that same order; every weight and bias ``.data`` is a view
into it. The parameter block of a checkpoint is therefore ``flat``'s bytes.
``DeVae.grad`` is laid out the same way: ``backward`` writes each layer's
weight and bias gradient into its views, and ``trainer.Adam`` reads it whole.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import tensor as T
from .data import gather_rows
from .errors import CheckpointError, ContractError, DimensionError, DivergenceError
from .gaussian import HEAD_PARAMS, HEADS, LATENT_DIM, GaussianLatent
from .losses import LossBreakdown, LossWeights, ent_loss, ent_loss_backward, objective_backward, total_loss
from .tensor import DenseLayer, Tensor, _sigmoid_, as_array

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


def _layer_specs(config: ModelConfig) -> list[tuple[str, int, int, str]]:
    """(name, out_dim, in_dim, activation) of every dense layer, in topology
    order: ``enc{i}``, ``mu``, ``var`` (heads with a variance layer),
    ``dec{i}`` and ``out``."""
    enc = (config.input_dim, *config.encoder_widths)
    dec = (LATENT_DIM, *config.decoder_widths, config.input_dim)
    specs = [(f"enc{i}", out, in_, "relu") for i, (in_, out) in enumerate(zip(enc, enc[1:]))]
    specs.append(("mu", LATENT_DIM, enc[-1], "identity"))
    if n_var := len(HEAD_PARAMS[config.head]):
        specs.append(("var", n_var, enc[-1], "identity"))
    specs += [(f"dec{i}", out, in_, "relu") for i, (in_, out) in enumerate(zip(dec, dec[1:-1]))]
    specs.append(("out", config.input_dim, dec[-2], "identity"))
    return specs


def parameter_count(config: ModelConfig) -> int:
    """Number of float64 parameters a model with this config holds."""
    return sum(out_dim * (in_dim + 1) for _, out_dim, in_dim, _ in _layer_specs(config))


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
        self.grad = np.zeros(self.flat.size)  # calloc: untouched until a backward writes it
        vectors = (self.flat, self.grad)
        layers: list[DenseLayer] = []
        # (weight, bias) gradient views of each layer, into ``grad``.
        self.layer_grads: list[tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for _, out_dim, in_dim, activation in _layer_specs(config):
            weight, grad_weight = (v[offset : offset + out_dim * in_dim].reshape(out_dim, in_dim) for v in vectors)
            offset += out_dim * in_dim
            bias, grad_bias = (v[offset : offset + out_dim] for v in vectors)
            offset += out_dim
            if rng is not None:
                bound = math.sqrt(6.0 / in_dim)
                weight[...] = rng.uniform(-bound, bound, size=weight.shape)
                bias[...] = 0.0
            # Tensor keeps a contiguous float64 array as is, so .data stays a view.
            layers.append(DenseLayer(Tensor(weight), Tensor(bias), activation))
            self.layer_grads.append((grad_weight, grad_bias))

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
        """Names of ``parameters()``, in the same (checkpoint) order: each
        layer's ``_layer_specs`` name with ``.weight``, then ``.bias``."""
        return [f"{name}.{part}" for name, *_ in _layer_specs(self.config) for part in ("weight", "bias")]

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        if snapshot.shape != self.flat.shape:
            raise DimensionError.mismatch("restore", self.flat.shape, snapshot.shape)
        self.flat[...] = snapshot

    # -- forward passes ---------------------------------------------------------

    def encode(self, x, io: list | None = None) -> GaussianLatent:
        """The latent Gaussians of [batch, input_dim] rows; ``io`` as in ``_run``."""
        x = as_array(x)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise DimensionError(
                f"encode: input shape {x.shape} does not match model input_dim {self.config.input_dim}"
            )
        h = _run(self.trunk, x, io)
        mu = _run([self.mu_head], h, io)
        return GaussianLatent(self.config.head, mu, None if self.var_head is None else _run([self.var_head], h, io))

    def encode_rows(self, X: np.ndarray, rows: np.ndarray | None = None) -> GaussianLatent:
        """Encode ``X[rows]`` (all of ``X`` when ``rows`` is None).

        Rows are gathered (``gather_rows``: uint8 pixels are scaled) and
        encoded ``INFER_CHUNK`` at a time, so neither a float copy of the
        whole selection nor its activations are held at once.
        """
        n = X.shape[0] if rows is None else len(rows)
        parts: list[GaussianLatent] = []
        for start in range(0, max(n, 1), INFER_CHUNK):  # no rows: one empty chunk
            stop = start + INFER_CHUNK
            chunk = slice(start, stop) if rows is None else rows[start:stop]
            parts.append(self.encode(gather_rows(X, chunk)))

        def joined(block: str) -> np.ndarray | None:
            if getattr(parts[0], block) is None:
                return None
            return np.concatenate([getattr(p, block).data for p in parts])

        return GaussianLatent(self.config.head, joined("mu"), joined("params"))

    def decode_logits(self, z, io: list | None = None) -> np.ndarray:
        """The decoder on [batch, LATENT_DIM] points: MSE's reconstruction, BCE's logits; ``io`` as in ``_run``."""
        return _run(self.decoder, _latent_points(z), io)

    def decode(self, z) -> Tensor:
        """Reconstruction of latent points; in (0, 1) for BCE."""
        return self._output(self.decode_logits(z))

    def decode_each(self, z) -> Tensor:
        """``decode`` of each point alone: row i is byte-identical to ``decode(z[i:i+1])``.

        Each layer runs in ``linear``'s one-row mode, its one-row products in lanes.
        """
        h = _latent_points(z)
        for layer in self.decoder:
            h = T.linear(h, layer.weight.data, layer.bias.data, act=layer.activation, each=True)
        return self._output(h)

    def _output(self, logits: np.ndarray) -> Tensor:
        """The decoder's output made a reconstruction: BCE's sigmoid, in place and in lanes."""
        return Tensor(_sigmoid_(logits) if self.config.recon_kind == "bce" else logits)


def _latent_points(z) -> np.ndarray:
    """``z`` as a [batch, LATENT_DIM] array; any other shape is a ``DimensionError``."""
    z = as_array(z)
    if z.ndim != 2 or z.shape[1] != LATENT_DIM:
        raise DimensionError(f"decode: input shape {z.shape} does not match latent_dim {LATENT_DIM}")
    return z


def _run(layers: list[DenseLayer], h: np.ndarray, io: list | None) -> np.ndarray:
    """``h`` through ``layers``; each layer's (input, output) goes to ``io`` for ``backward`` unless it is None."""
    for layer in layers:
        out = layer(h)
        if io is not None:
            io.append((h, out))
        h = out
    return h


@dataclass
class ForwardResult:
    """One forward pass of the training chain: its losses and what ``backward`` reads."""

    breakdown: LossBreakdown
    latent: GaussianLatent
    x_hat: np.ndarray  # decode_logits output: the reconstruction for MSE, logits for BCE
    y: np.ndarray
    eps: np.ndarray
    scale: np.ndarray | None  # the sample's, from GaussianLatent.sample
    io: list[tuple[np.ndarray, np.ndarray]] | None  # each dense layer's (input, output), topology order


def forward_train(model: DeVae, x, y, eps=None, rows: np.ndarray | None = None, *, keep: bool = True) -> ForwardResult:
    """Encode, sample, decode, and assemble the composite loss.

    ``eps`` supplies the reparameterization noise, [batch, 2]; pass zeros
    (or None) for deterministic evaluation. Head "none" always decodes mu.
    ``rows``, the dataset row of each sample, names a sample that diverges:
    one whose covariance would overflow, or the first whose loss is not
    finite. With ``keep`` False no layer output is kept for ``backward``.
    """
    x, y = as_array(x), as_array(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionError.mismatch("row-aligned x vs y", x.shape, y.shape)
    io = [] if keep else None
    latent = model.encode(x, io)
    eps = np.zeros((x.shape[0], LATENT_DIM)) if eps is None else as_array(eps)
    z, scale = latent.sample(eps, rows)
    x_hat = model.decode_logits(z, io)
    recon = T.bce_logits if model.config.recon_kind == "bce" else T.squared_error

    def losses(s: slice) -> tuple[float, float, float]:
        part = GaussianLatent(latent.head, latent.mu.data[s], None if latent.params is None else latent.params.data[s])
        return recon(x[s], x_hat[s]), T.squared_error(y[s], part.mu.data), ent_loss(part)

    values = losses(slice(None))
    try:
        breakdown = total_loss(*values, model.config.weights)
    except DivergenceError as exc:
        # Name the first sample whose own value of the first non-finite term is
        # non-finite; none where only the total, or a sum of finite values, overflowed.
        k = next((k for k, v in enumerate(values) if not math.isfinite(v)), None)
        bad = next((i for i in range(len(x) if k is not None else 0) if not math.isfinite(losses(slice(i, i + 1))[k])),
                   None)
        where = "" if bad is None else f", first at sample {bad if rows is None else rows[bad]}"
        raise DivergenceError(f"{exc}{where}") from exc
    return ForwardResult(breakdown, latent, x_hat, y, eps, scale, io)


def backward(model: DeVae, result: ForwardResult, seeds: tuple[float, float, float] | None = None) -> np.ndarray:
    """Write the gradient of the objective into ``model.grad`` and return it.

    ``forward_train``'s chain in reverse: reconstruction loss, decoder,
    sample, projection and entropy terms, heads, trunk. ``seeds`` weighs
    (recon, proj, ent), ``objective_backward``'s weights when None. mu, the
    last trunk output and the params each sum two gradients.
    """
    if result.io is None:
        raise ContractError("backward needs a forward_train result that kept its layers")
    w_recon, w_proj, w_ent = objective_backward(model.config.weights) if seeds is None else seeds
    layers, io, latent, x = model.layers, result.io, result.latent, result.io[0][0]

    def through(i: int, g: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        (inp, out), layer = io[i], layers[i]
        return T.linear_backward(g, inp, layer.weight.data, out, layer.activation, *model.layer_grads[i], need_dx)

    recon_backward = T.bce_logits_backward if model.config.recon_kind == "bce" else T.squared_error_backward
    g = recon_backward(x, result.x_hat, w_recon)
    for i in range(len(layers) - 1, len(layers) - len(model.decoder) - 1, -1):
        g = through(i, g)
    g_mu, g_params = latent.sample_backward(g, result.eps, result.scale)
    g_mu = g_mu + T.squared_error_backward(result.y, latent.mu.data, w_proj)
    n_trunk = len(model.trunk)
    g = through(n_trunk, g_mu)
    if g_params is not None:
        g = g + through(n_trunk + 1, g_params + ent_loss_backward(latent, w_ent))
    for i in range(n_trunk - 1, -1, -1):
        g = through(i, g, need_dx=i > 0)
    return model.grad


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
