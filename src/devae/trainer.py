"""Training protocol: Adam, seeded batching, early stopping, run matrix.

All randomness (batch order and reparameterization noise) flows from the
single run seed, so a fixed seed reproduces the run bit for bit. Validation
is evaluated with zero noise each epoch; training stops when the validation
total has not improved for ``patience`` consecutive epochs, and the weights
of the best validation epoch are restored before returning.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import DatasetBundle, gather_rows
from .errors import ContractError, DataError, DimensionError, DivergenceError
from .evaluation import MetricsRow, evaluate
from .gaussian import LATENT_DIM
from .losses import total_loss
from .model import DeVae, forward_train
from .tensor import Tensor


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer and schedule knobs (defaults follow the training protocol)."""

    learning_rate: float = 0.001
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ContractError("batch_size, max_epochs and patience must be positive")
        if self.patience > self.max_epochs:
            raise ContractError(
                f"patience ({self.patience}) cannot exceed max_epochs ({self.max_epochs})"
            )
        if self.seed < 0:
            raise ContractError("seed must be non-negative")


# Elements per block of the in-place Adam update: one block of each operand
# and the scratch vector stay in cache across the update's passes.
ADAM_BLOCK = 32768
# The defaults of Kingma & Ba (2015), under which every head is trained.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam; only the learning rate is set per run.

    b1 = ``ADAM_BETA1``, b2 = ``ADAM_BETA2`` and eps = ``ADAM_EPS`` are fixed.

    The update runs in the efficient form of Kingma & Ba (2015, end of
    section 2), which folds both bias corrections into scalars. With
    ``c1 = 1 - b1**t`` and ``r = sqrt((1 - b2) / (1 - b2**t))``, each element
    takes eleven numpy passes and one division:

    - ``m = b1*m + (1-b1)*g`` (3 passes);
    - ``v = b2*v + g*g`` (3 passes);
    - ``a = (sqrt(v) + eps/r) * (c1*r/lr)`` (3 passes);
    - ``p -= m / a`` (2 passes).

    ``m`` is the textbook first moment. ``v`` holds the textbook second
    moment divided by ``1 - b2``. In exact arithmetic the step equals the
    textbook ``lr*(m/c1) / (sqrt(v_textbook/c2) + eps)``; in float64 it
    differs by rounding only.

    The moments are flat vectors; parameter ``i`` owns
    ``[offsets[i], offsets[i + 1])`` of each. ``names``, when given, label
    the parameters in error messages. Parameters are updated in place, so
    their ``.data`` must be C-contiguous.
    """

    def __init__(self, params: list[Tensor], lr: float = 0.001, names: list[str] | None = None):
        self.params = list(params)
        if not all(p.data.flags.c_contiguous for p in self.params):
            raise ContractError("adam needs C-contiguous parameter arrays")
        if names is not None and len(names) != len(self.params):
            raise ContractError(f"adam got {len(names)} names for {len(self.params)} parameters")
        self.names = names
        self.lr = lr
        self.t = 0
        self.offsets = np.cumsum([0] + [p.data.size for p in self.params])
        self.m = np.zeros(self.offsets[-1])
        self.v = np.zeros(self.offsets[-1])
        self._scratch = np.empty(ADAM_BLOCK)

    def _gradients(self) -> list[np.ndarray]:
        """Every parameter's gradient, flattened, once all have been checked."""
        grads = []
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                raise ContractError(f"adam step without a computed gradient for parameter {i}")
            if g.shape != p.data.shape:
                raise DimensionError.mismatch("adam gradient vs parameter", g.shape, p.data.shape)
            if not np.isfinite(g).all():
                where = "" if self.names is None else f"{self.names[i]}: "
                raise DivergenceError(f"non-finite gradient in {where}parameter {i} of shape {g.shape}")
            grads.append(g.reshape(-1))
        return grads

    def step(self) -> None:
        """Apply one update in place, or none at all when any gradient is bad.

        The passes of the class docstring run in blocks of ``ADAM_BLOCK``
        elements, in that order.
        """
        grads = self._gradients()
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        r = math.sqrt((1.0 - b2) / (1.0 - b2 ** self.t))
        eps_r, scale = ADAM_EPS / r, c1 * r / self.lr
        for p, g, lo, hi in zip(self.params, grads, self.offsets, self.offsets[1:]):
            flat = p.data.reshape(-1)
            for j in range(0, hi - lo, ADAM_BLOCK):
                k = min(j + ADAM_BLOCK, hi - lo)
                gb, pb = g[j:k], flat[j:k]
                m, v = self.m[lo + j : lo + k], self.v[lo + j : lo + k]
                a = self._scratch[: k - j]
                m *= b1
                m += np.multiply(gb, 1.0 - b1, out=a)
                v *= b2
                v += np.square(gb, out=a)
                np.sqrt(v, out=a)
                a += eps_r
                a *= scale
                pb -= np.divide(m, a, out=a)


class EarlyStopping:
    """Patience counter over validation totals; strict improvement resets it."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_value = math.inf
        self.best_epoch = 0
        self.bad_epochs = 0
        self.improved = False

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch's validation total; True means stop now."""
        if value < self.best_value:
            self.best_value = value
            self.best_epoch = epoch
            self.bad_epochs = 0
            self.improved = True
        else:
            self.bad_epochs += 1
            self.improved = False
        return self.bad_epochs >= self.patience


def split_dataset(n: int, seed: int) -> np.ndarray:
    """Seeded 80/10/10 split assignment; the rounding remainder joins train."""
    if n < 10:
        raise DataError(f"dataset too small to split: n={n} < 10")
    n_val = n // 10
    n_test = n // 10
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)
    out = np.empty(n, dtype="<U5")
    out[perm[:n_train]] = "train"
    out[perm[n_train : n_train + n_val]] = "val"
    out[perm[n_train + n_val :]] = "test"
    return out


@dataclass
class TrainReport:
    """Per-epoch losses and convergence bookkeeping for one training run."""

    seed: int
    config: dict
    epochs: list[dict]
    epochs_run: int
    best_epoch: int
    best_val_total: float
    wall_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def train(model: DeVae, bundle: DatasetBundle, settings: TrainSettings) -> tuple[DeVae, TrainReport]:
    """Run the full protocol and return the best-validation-epoch model."""
    t0 = time.perf_counter()
    train_idx = bundle.indices("train")
    val_idx = bundle.indices("val")
    if train_idx.size == 0 or val_idx.size == 0:
        raise DataError("training requires non-empty train and val splits")
    if bundle.dim != model.config.input_dim:
        raise DimensionError(
            f"dataset dimension {bundle.dim} does not match model input_dim {model.config.input_dim}"
        )

    rng = np.random.default_rng(settings.seed)
    adam = Adam(model.parameters(), lr=settings.learning_rate, names=model.parameter_names())
    stopper = EarlyStopping(settings.patience)
    best_snapshot = model.snapshot()
    epoch_records: list[dict] = []

    for epoch in range(1, settings.max_epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        sums = np.zeros(3)
        for batch_no, start in enumerate(range(0, order.size, settings.batch_size)):
            rows = order[start : start + settings.batch_size]
            eps = rng.standard_normal((rows.size, LATENT_DIM))
            model.zero_grad()
            try:
                result = forward_train(model, gather_rows(bundle.X, rows), bundle.Y[rows], eps)
                result.total.backward()
                adam.step()
            except DivergenceError as exc:
                raise DivergenceError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            b = result.breakdown
            sums += np.array([b.recon, b.proj, b.ent]) * rows.size
        means = sums / order.size
        train_bd = total_loss(means[0], means[1], means[2], model.config.weights)
        val_bd = evaluate(model, bundle, "val")
        epoch_records.append({"train": train_bd.as_dict(), "val": val_bd.as_dict()})
        stop = stopper.update(epoch, val_bd.total)
        if stopper.improved:
            best_snapshot = model.snapshot()
        if stop:
            break

    model.restore(best_snapshot)
    report = TrainReport(
        seed=settings.seed,
        config=model.config.to_dict(),
        epochs=epoch_records,
        epochs_run=len(epoch_records),
        best_epoch=stopper.best_epoch,
        best_val_total=stopper.best_value,
        wall_seconds=time.perf_counter() - t0,
    )
    return model, report


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def run_matrix(
    bundle: DatasetBundle,
    heads: list[str],
    n_seeds: int,
    settings: TrainSettings,
    config_template,
) -> list[MetricsRow]:
    """Train every head variant n_seeds times and tabulate test metrics.

    Run i uses seed ``settings.seed + i`` for both initialization and batch
    randomization; the bundle's split stays fixed across all runs.
    """
    if n_seeds < 1:
        raise ContractError(f"n_seeds must be >= 1, got {n_seeds}")
    rows: list[MetricsRow] = []
    for head in heads:
        projs: list[float] = []
        recons: list[float] = []
        epoch_counts: list[float] = []
        for i in range(n_seeds):
            seed = settings.seed + i
            config = replace(config_template, head=head, seed=seed)
            run_settings = replace(settings, seed=seed)
            try:
                model, report = train(DeVae(config), bundle, run_settings)
            except DivergenceError as exc:
                raise DivergenceError(f"head {head!r}, seed {seed}: {exc}") from exc
            test_bd = evaluate(model, bundle, "test")
            projs.append(test_bd.proj)
            recons.append(test_bd.recon)
            epoch_counts.append(float(report.epochs_run))
        pm, ps = _mean_std(projs)
        rm, rs = _mean_std(recons)
        em, es = _mean_std(epoch_counts)
        rows.append(
            MetricsRow(
                head=head,
                proj_mean=pm, proj_std=ps,
                recon_mean=rm, recon_std=rs,
                epochs_mean=em, epochs_std=es,
                n_runs=n_seeds,
            )
        )
    return rows
