"""Optimizer, splits, early stopping, the training loop, and the run matrix."""

import json
import math
import re

import numpy as np
import pytest

import devae.tensor as T
from conftest import CountingPool, blob_bundle, tiny_config
from devae.data import DatasetBundle
from devae.errors import ContractError, DataError, DimensionError, DivergenceError
from devae.evaluation import evaluate
from devae.gaussian import HEADS
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig, save_checkpoint
from devae.tensor import CACHE_BLOCK
from devae.trainer import (
    MATRIX_METRICS,
    Adam,
    EarlyStopping,
    TrainSettings,
    format_metrics_table,
    metrics_to_json,
    run_matrix,
    split_dataset,
    train,
)


def _adam(shapes, lr=0.001, names=None):
    """A zero parameter vector, its gradient vector and their Adam."""
    n = sum(math.prod(shape) for shape in shapes)
    flat, grad = np.zeros(n), np.zeros(n)
    return flat, grad, Adam(flat, grad, shapes, lr=lr, names=names)


class TestAdam:
    def test_first_step_hand_computed(self):
        # theta=1, g=1: m_hat=1, v_hat=1, so theta' = 1 - lr / (1 + eps).
        flat, grad, opt = _adam([(1,)])
        flat[0], grad[0] = 1.0, 1.0
        opt.step()
        expected = 1.0 - 0.001 / (1.0 + 1e-8)
        assert flat[0] == pytest.approx(expected, abs=1e-15)
        assert flat[0] == pytest.approx(0.999, abs=1e-8)

    def test_zero_gradient_leaves_parameters_but_ticks_clock(self):
        flat, grad, opt = _adam([(2,)])
        flat[...] = [2.0, -3.0]
        opt.step()
        np.testing.assert_array_equal(flat, [2.0, -3.0])
        assert opt.t == 1

    def test_effective_step_bounded_by_lr(self):
        flat, grad, opt = _adam([(1,)], lr=0.01)
        for _ in range(50):
            before = flat.copy()
            grad[0] = 0.37
            opt.step()
            assert abs(flat[0] - before[0]) <= 0.01 * (1.0 + 1e-9)

    def test_vectors_and_shapes_must_agree(self):
        with pytest.raises(ContractError):
            Adam(np.zeros(3), np.zeros(4), [(3,)])
        with pytest.raises(ContractError):
            Adam(np.zeros((2, 3)), np.zeros((2, 3)), [(2, 3)])
        with pytest.raises(DimensionError):
            Adam(np.zeros(6), np.zeros(6), [(2,), (2, 3)])

    def test_non_finite_gradient_diverges(self):
        flat, grad, opt = _adam([(1,)])
        grad[0] = np.nan
        with pytest.raises(DivergenceError):
            opt.step()

    def test_bad_later_gradient_changes_nothing(self):
        flat, grad, opt = _adam([(2,), (2, 3)])
        flat[...] = [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        grad[...] = [0.5, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        opt.step()
        state = (flat.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        grad[2:].reshape(2, 3)[1, 2] = np.nan
        with pytest.raises(DivergenceError, match=r"parameter 1 of shape \(2, 3\)"):
            opt.step()
        np.testing.assert_array_equal(flat, state[0])
        np.testing.assert_array_equal(opt.m, state[1])
        np.testing.assert_array_equal(opt.v, state[2])
        assert opt.t == state[3]

    def test_first_bad_parameter_is_named_by_the_offsets(self):
        # The first non-finite element decides, wherever the blocks are cut.
        shapes = [(CACHE_BLOCK + 3,), (4, 5), (7,)]
        flat, grad, opt = _adam(shapes, names=["a", "b", "c"])
        grad[-1] = np.inf
        grad[CACHE_BLOCK + 3 + 19] = np.nan
        with pytest.raises(DivergenceError, match=r"^non-finite gradient in b: parameter 1 of shape \(4, 5\)$"):
            opt.step()

    def test_bad_gradient_in_the_last_lane_changes_nothing(self, monkeypatch):
        # Every gradient is checked before any lane writes.
        monkeypatch.setattr(T, "WORKERS", 2)
        shapes = [(CACHE_BLOCK,), (CACHE_BLOCK,), (3, 4)]
        flat, grad, opt, steps = self._random_run(2, shapes)
        grad[...] = steps[0]
        opt.step()
        state = [a.copy() for a in (flat, opt.m, opt.v)]
        grad[...] = steps[1]
        grad[-1] = np.inf  # parameter 2's [2, 3]
        with pytest.raises(DivergenceError, match=r"parameter 2 of shape \(3, 4\)"):
            opt.step()
        for a, b in zip(state, (flat, opt.m, opt.v)):
            assert a.tobytes() == b.tobytes()
        assert opt.t == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # g*g overflows; the gradient itself is finite
    def test_finite_gradient_with_overflowing_sum_is_accepted(self):
        flat, grad, opt = _adam([(3,)])
        flat[2] = 0.5
        for sign in (1.0, -1.0, 1.0):
            grad[...] = sign * np.array([1e308, 1e308, -1e308])
            opt.step()
            assert np.all(np.isfinite(flat)) and np.all(np.isfinite(opt.m))

    def test_names_must_match_parameters(self):
        with pytest.raises(ContractError):
            Adam(np.zeros(1), np.zeros(1), [(1,)], names=["a", "b"])

    @staticmethod
    def _random_run(steps: int, shapes: list[tuple[int, ...]]):
        """A random parameter vector, its gradient vector, their Adam, and
        per-step gradient vectors spanning 9 decades within each parameter."""
        rng = np.random.default_rng(0)
        flat, grad, opt = _adam(shapes)
        flat[...] = np.concatenate([rng.standard_normal(s).ravel() for s in shapes])
        grads = [np.concatenate([(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).ravel() for s in shapes])
                 for _ in range(steps)]
        return flat, grad, opt, grads

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_bit_identical_to_one_vector_expression(self, monkeypatch, workers):
        # The eleven-pass update, one whole-vector expression, is the oracle;
        # shapes cover one element, exactly one block, and parameters that
        # end inside blocks, enough blocks for four lanes.
        shapes = [(1,), (CACHE_BLOCK,), (3, CACHE_BLOCK // 2 + 77), (5, 4), (2 * CACHE_BLOCK + 9,), (7,)]
        monkeypatch.setattr(T, "WORKERS", workers)
        pool = CountingPool(T._pool)
        monkeypatch.setattr(T, "_pool", pool)
        flat, grad, opt, steps = self._random_run(20, shapes)
        ref, m, v = flat.copy(), np.zeros(flat.size), np.zeros(flat.size)
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        for t, g in enumerate(steps, start=1):
            grad[...] = g
            opt.step()
            c1 = 1.0 - b1 ** t
            r = np.sqrt((1.0 - b2) / (1.0 - b2 ** t))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + np.square(g)
            ref -= m / ((np.sqrt(v) + eps / r) * (c1 * r / lr))
        assert pool.by_fn["Adam.step.<locals>.lane"] == len(steps) * (workers - 1)  # every lane has blocks
        assert flat.tobytes() == ref.tobytes()
        assert opt.m.tobytes() == m.tobytes()
        assert opt.v.tobytes() == v.tobytes()

    def test_drift_from_textbook_update_is_rounding(self):
        flat, grad, opt, steps = self._random_run(200, [(7,), (3, 50)])
        ref, m, v = flat.copy(), np.zeros(flat.size), np.zeros(flat.size)
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        for t, g in enumerate(steps, start=1):
            grad[...] = g
            opt.step()
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            ref -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        np.testing.assert_allclose(flat, ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(opt.v * (1.0 - b2), v, rtol=1e-14)


class TestSplit:
    def test_exact_80_10_10(self):
        split = split_dataset(100, seed=0)
        assert (split == "train").sum() == 80
        assert (split == "val").sum() == 10
        assert (split == "test").sum() == 10

    def test_remainder_joins_train(self):
        split = split_dataset(105, seed=0)
        assert (split == "train").sum() == 85
        assert (split == "val").sum() == 10
        assert (split == "test").sum() == 10

    def test_deterministic(self):
        np.testing.assert_array_equal(split_dataset(64, seed=5), split_dataset(64, seed=5))

    def test_partition_disjoint_and_exhaustive(self):
        split = split_dataset(73, seed=1)
        assert split.shape == (73,)
        assert set(np.unique(split)) == {"train", "val", "test"}

    def test_too_small(self):
        with pytest.raises(DataError):
            split_dataset(9, seed=0)


class TestEarlyStopping:
    def test_injected_sequence_stops_after_epoch_seven(self):
        stopper = EarlyStopping(patience=5)
        stops = [stopper.update(epoch, v) for epoch, v in enumerate([5, 4, 4, 4, 4, 4, 4], start=1)]
        assert stops == [False, False, False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best_value == 4

    def test_strict_improvement_resets_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(1, 5.0)
        assert not stopper.update(2, 5.0)
        assert not stopper.update(3, 4.9)  # reset just before the limit
        assert not stopper.update(4, 4.9)
        assert stopper.update(5, 4.9)

    def test_always_improving_never_stops(self):
        stopper = EarlyStopping(patience=5)
        assert not any(stopper.update(e, 100.0 - e) for e in range(1, 101))


class TestSettings:
    def test_defaults_follow_protocol(self):
        s = TrainSettings()
        assert (s.learning_rate, s.batch_size, s.max_epochs, s.patience) == (0.001, 64, 100, 5)

    def test_validation(self):
        with pytest.raises(ContractError):
            TrainSettings(learning_rate=0.0)
        with pytest.raises(ContractError):
            TrainSettings(patience=11, max_epochs=10)
        with pytest.raises(ContractError):
            TrainSettings(batch_size=0)


class TestTrain:
    def test_epoch_cap_and_report_bookkeeping(self, bundle):
        settings = TrainSettings(seed=11, max_epochs=6)
        model, report = train(DeVae(tiny_config()), bundle, settings)
        assert report.epochs_run <= 6
        assert len(report.epochs) == report.epochs_run
        vals = [e["val"]["total"] for e in report.epochs]
        assert report.best_val_total == min(vals)
        assert report.best_epoch == vals.index(min(vals)) + 1

    def test_best_epoch_weights_restored(self, bundle):
        settings = TrainSettings(seed=11, max_epochs=8)
        model, report = train(DeVae(tiny_config()), bundle, settings)
        assert evaluate(model, bundle, "val").total == pytest.approx(report.best_val_total, rel=1e-12)

    def test_patience_postfix_property(self, bundle):
        settings = TrainSettings(seed=3, max_epochs=60, patience=3)
        model, report = train(DeVae(tiny_config(head="isotropic")), bundle, settings)
        if report.epochs_run < 60:
            tail = [e["val"]["total"] for e in report.epochs[-3:]]
            assert all(v >= report.best_val_total for v in tail)
            assert report.best_epoch == report.epochs_run - 3

    @pytest.mark.skipif(not T.BLAS_PINNED, reason="no BLAS thread setter found: products are never split")
    def test_pixel_checkpoint_bytes_equal_at_one_to_four_workers(self, monkeypatch, tmp_path):
        # Batch-64 steps of a 784-d BCE model: their 784<->512 products and
        # Adam's blocks reach the pool, and the checkpoint stays the same.
        rng = np.random.default_rng(0)
        X = ((rng.random((300, 784)) < 0.2) * rng.integers(0, 256, (300, 784))).astype(np.uint8)
        bundle = DatasetBundle(X, rng.standard_normal((300, 2)), split_dataset(300, 0))
        settings = TrainSettings(max_epochs=2, patience=2, seed=3)
        config = ModelConfig(784, LossWeights(20.0, 5.0), recon_kind="bce", seed=3)
        checkpoints = []
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(T, "WORKERS", workers)
            pool = CountingPool(T._pool)
            monkeypatch.setattr(T, "_pool", pool)
            model, _ = train(DeVae(config), bundle, settings)
            steps = 2 * 4  # 240 training rows: four batches an epoch
            assert pool.by_fn["Adam.step.<locals>.lane"] == steps * (workers - 1)
            assert (pool.by_fn["_matmul.<locals>.lane"] > 0) == (workers > 1)
            save_checkpoint(model, tmp_path / f"{workers}.ckpt")
            checkpoints.append((tmp_path / f"{workers}.ckpt").read_bytes())
        assert checkpoints[1:] == checkpoints[:1] * 3

    def test_fixed_seed_bitwise_identical_runs(self, bundle):
        settings = TrainSettings(seed=21, max_epochs=5)
        model_a, report_a = train(DeVae(tiny_config(seed=21)), bundle, settings)
        model_b, report_b = train(DeVae(tiny_config(seed=21)), bundle, settings)
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        da, db = report_a.to_dict(), report_b.to_dict()
        da.pop("wall_seconds"), db.pop("wall_seconds")
        assert json.dumps(da) == json.dumps(db)

    def test_validation_deterministic_between_epochs(self, bundle):
        model, report = train(DeVae(tiny_config()), bundle, TrainSettings(seed=11, max_epochs=3, patience=3))
        once = evaluate(model, bundle, "val")
        twice = evaluate(model, bundle, "val")
        assert once == twice

    def test_training_actually_learns(self, bundle):
        settings = TrainSettings(seed=11, max_epochs=15)
        model, report = train(DeVae(tiny_config()), bundle, settings)
        first, last = report.epochs[0], report.epochs[-1]
        assert last["train"]["proj"] < first["train"]["proj"]
        assert last["train"]["recon"] < first["train"]["recon"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_reports_epoch_and_batch(self):
        bundle = blob_bundle(n=40, d=4, k=2, seed=2)
        bundle.X[:] = 1e200  # squared reconstruction error overflows to inf
        cfg = tiny_config(d=4, weights=LossWeights(1.0, 0.0))
        with pytest.raises(DivergenceError, match=r"epoch 1, batch 0"):
            train(DeVae(cfg), bundle, TrainSettings(seed=0, max_epochs=2, patience=2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # Row 21 is the val split's first row; row 39, the train split's last, is
    # sample 31 of the first batch at seed 0.
    @pytest.mark.parametrize("split, row, phase", [("val", 21, "validation"), ("train", 39, r"batch 0")])
    def test_divergence_names_the_epoch_and_the_dataset_row(self, split, row, phase):
        bundle = blob_bundle(n=40, d=4, k=2, seed=2)
        assert row in np.flatnonzero(bundle.split == split)
        bundle.X[row] = 1e200  # read only by the phase of its split
        message = (rf"^epoch 1, {phase}: covariance head 'full': chol_raw_0 = -7\.6\d+e\+199 "
                   rf"of sample {row} overflows the covariance$")
        with pytest.raises(DivergenceError, match=message):
            train(DeVae(tiny_config(d=4)), bundle, TrainSettings(seed=0, max_epochs=2, patience=2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the row's squared error overflows
    @pytest.mark.parametrize("split, row, phase", [("val", 21, "validation"), ("train", 39, r"batch 0")])
    def test_non_finite_loss_names_its_first_dataset_row(self, split, row, phase):
        # Head "none" has no covariance to check, so the loss is the first to
        # see the scaled row: its reconstruction, and only its, overflows.
        bundle = blob_bundle(n=40, d=4, k=2, seed=2)
        assert row in np.flatnonzero(bundle.split == split)
        bundle.X[row] *= 1e300
        message = rf"^epoch 1, {phase}: loss component 'recon' is non-finite: inf, first at sample {row}$"
        with pytest.raises(DivergenceError, match=message):
            train(DeVae(tiny_config(head="none", d=4)), bundle, TrainSettings(seed=0, max_epochs=2, patience=2))

    def test_empty_val_split_fails_before_the_first_epoch(self, monkeypatch):
        import devae.trainer

        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch started")

        monkeypatch.setattr(devae.trainer, "forward_train", no_epoch)
        bundle = blob_bundle(n=40, d=4, k=2, seed=2)
        bundle.split[bundle.split == "val"] = "test"
        with pytest.raises(DataError, match="split 'val' is empty"):
            train(DeVae(tiny_config(d=4)), bundle, TrainSettings(seed=0, max_epochs=2, patience=2))

    def test_train_losses_all_finite(self, bundle):
        model, report = train(DeVae(tiny_config()), bundle, TrainSettings(seed=11, max_epochs=4, patience=4))
        for epoch in report.epochs:
            for part in ("train", "val"):
                assert all(np.isfinite(v) for v in epoch[part].values())


@pytest.fixture(scope="module")
def four_head_rows(bundle):
    return run_matrix(bundle, list(HEADS), 2, TrainSettings(seed=11, max_epochs=3, patience=3), tiny_config())


class TestRunMatrix:
    def test_single_seed_reports_zero_std(self, bundle):
        rows = run_matrix(bundle, ["none"], 1, TrainSettings(seed=11, max_epochs=3, patience=3), tiny_config())
        assert rows[0]["n_runs"] == 1
        assert [rows[0][name]["std"] for name in MATRIX_METRICS] == [0.0, 0.0, 0.0]

    def test_four_head_table(self, four_head_rows):
        assert [r["head"] for r in four_head_rows] == list(HEADS)
        for row in four_head_rows:
            assert row["n_runs"] == 2
            for name in MATRIX_METRICS:
                pair = row[name]
                assert np.isfinite(pair["mean"]) and np.isfinite(pair["std"]) and pair["std"] >= 0
            assert 1 <= row["epochs"]["mean"] <= 3

    def test_deterministic_across_invocations(self, bundle):
        settings = TrainSettings(seed=11, max_epochs=3, patience=3)
        rows_a = run_matrix(bundle, ["isotropic"], 2, settings, tiny_config())
        rows_b = run_matrix(bundle, ["isotropic"], 2, settings, tiny_config())
        assert rows_a == rows_b

    def test_rejects_zero_seeds(self, bundle):
        with pytest.raises(ContractError):
            run_matrix(bundle, ["none"], 0, TrainSettings(seed=11), tiny_config())


class TestMatrixRecords:
    def test_json_structure(self):
        row = {
            "head": "full",
            "proj_loss": {"mean": 1.0, "std": 0.1},
            "recon_loss": {"mean": 2.0, "std": 0.2},
            "epochs": {"mean": 30.0, "std": 3.0},
            "n_runs": 10,
        }
        assert json.loads(metrics_to_json([row], dataset="demo")) == {"dataset": "demo", "rows": [row]}

    def test_table_structure(self):
        pair = {"mean": 1.0, "std": 0.1}
        rows = [{"head": h, **{name: pair for name in MATRIX_METRICS}, "n_runs": 3} for h in HEADS]
        lines = format_metrics_table(rows).strip().split("\n")
        assert len(lines) == 4  # header + 3 metric blocks
        assert lines[0].split() == ["metric", *HEADS]
        for line in lines[1:]:
            assert line.count("±") == 4

    def test_printed_json_and_table_are_the_records(self, four_head_rows):
        parsed = json.loads(metrics_to_json(four_head_rows))
        assert parsed["rows"] == four_head_rows
        for row in parsed["rows"]:
            assert list(row) == ["head", "proj_loss", "recon_loss", "epochs", "n_runs"]
        _, *body = format_metrics_table(four_head_rows).splitlines()
        assert [line.split()[0] for line in body] == list(MATRIX_METRICS)
        for name, line in zip(MATRIX_METRICS, body):
            cells = re.split(r" {2,}", line.rstrip())[1:]  # cells are padded by at least two spaces
            assert cells == [f"{r[name]['mean']:.6g} ± {r[name]['std']:.3g}" for r in four_head_rows]
