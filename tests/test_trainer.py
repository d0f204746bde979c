"""Optimizer, splits, early stopping, the training loop, and the run matrix."""

import json
import re

import numpy as np
import pytest

import devae.tensor as T
from conftest import CountingPool, blob_bundle, tiny_config
from devae.data import DatasetBundle
from devae.errors import ContractError, DataError, DivergenceError
from devae.evaluation import evaluate
from devae.gaussian import HEADS
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig, save_checkpoint
from devae.tensor import Tensor
from devae.trainer import (
    ADAM_BLOCK,
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


class TestAdam:
    def test_first_step_hand_computed(self):
        # theta=1, g=1: m_hat=1, v_hat=1, so theta' = 1 - lr / (1 + eps).
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([1.0])
        Adam([p], lr=0.001).step()
        expected = 1.0 - 0.001 / (1.0 + 1e-8)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)
        assert p.data[0] == pytest.approx(0.999, abs=1e-8)

    def test_zero_gradient_leaves_parameters_but_ticks_clock(self):
        p = Tensor([2.0, -3.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.data, [2.0, -3.0])
        assert opt.t == 1

    def test_effective_step_bounded_by_lr(self):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p], lr=0.01)
        for _ in range(50):
            before = p.data.copy()
            p.grad = np.array([0.37])
            opt.step()
            assert abs(p.data[0] - before[0]) <= 0.01 * (1.0 + 1e-9)

    def test_missing_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            Adam([p]).step()

    def test_non_finite_gradient_diverges(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([float("nan")])
        with pytest.raises(DivergenceError):
            Adam([p]).step()

    def test_bad_later_gradient_changes_nothing(self):
        first = Tensor([1.0, 2.0], requires_grad=True)
        second = Tensor(np.ones((2, 3)), requires_grad=True)
        opt = Adam([first, second])
        first.grad, second.grad = np.array([0.5, -0.5]), np.ones((2, 3))
        opt.step()
        state = (first.data.copy(), second.data.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        second.grad = np.ones((2, 3))
        second.grad[1, 2] = np.nan
        with pytest.raises(DivergenceError, match=r"parameter 1 of shape \(2, 3\)"):
            opt.step()
        np.testing.assert_array_equal(first.data, state[0])
        np.testing.assert_array_equal(second.data, state[1])
        np.testing.assert_array_equal(opt.m, state[2])
        np.testing.assert_array_equal(opt.v, state[3])
        assert opt.t == state[4]

    def test_bad_gradient_in_the_last_lane_changes_nothing(self, monkeypatch):
        # Every gradient is checked before any lane writes.
        monkeypatch.setattr(T, "WORKERS", 2)
        shapes = [(ADAM_BLOCK,), (ADAM_BLOCK,), (3, 4)]
        params, opt, steps = self._random_run(2, shapes)
        for p, g in zip(params, steps[0]):
            p.grad = g
        opt.step()
        state = [a.copy() for a in (*(p.data for p in params), opt.m, opt.v)]
        for p, g in zip(params, steps[1]):
            p.grad = g
        params[-1].grad = params[-1].grad.copy()
        params[-1].grad[2, 3] = np.inf
        with pytest.raises(DivergenceError, match=r"parameter 2 of shape \(3, 4\)"):
            opt.step()
        for a, b in zip(state, (*(p.data for p in params), opt.m, opt.v)):
            assert a.tobytes() == b.tobytes()
        assert opt.t == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # g*g overflows; the gradient itself is finite
    def test_finite_gradient_with_overflowing_sum_is_accepted(self):
        p = Tensor([0.0, 0.0, 0.5], requires_grad=True)
        opt = Adam([p])
        for sign in (1.0, -1.0, 1.0):
            p.grad = sign * np.array([1e308, 1e308, -1e308])
            opt.step()
            assert np.all(np.isfinite(p.data)) and np.all(np.isfinite(opt.m))

    def test_names_must_match_parameters(self):
        with pytest.raises(ContractError):
            Adam([Tensor([1.0], requires_grad=True)], names=["a", "b"])

    @staticmethod
    def _random_run(steps: int, shapes: list[tuple[int, ...]]):
        """Parameters, their Adam, and per-step gradients spanning 9 decades."""
        rng = np.random.default_rng(0)
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes] for _ in range(steps)]
        return params, Adam(params, lr=0.001), grads

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_bit_identical_to_per_parameter_expression(self, monkeypatch, workers):
        # The eleven-pass update, one whole-array expression per parameter, is
        # the oracle; shapes cover one element, exactly one block, and
        # several blocks with a ragged tail, enough blocks for four lanes.
        shapes = [(1,), (ADAM_BLOCK,), (3, ADAM_BLOCK // 2 + 77), (5, 4), (2 * ADAM_BLOCK + 9,), (7,)]
        monkeypatch.setattr(T, "WORKERS", workers)
        pool = CountingPool(T._pool)
        monkeypatch.setattr(T, "_pool", pool)
        params, opt, steps = self._random_run(20, shapes)
        ref = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        for t, grads in enumerate(steps, start=1):
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            c1 = 1.0 - b1 ** t
            r = np.sqrt((1.0 - b2) / (1.0 - b2 ** t))
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + np.square(g)
                ref[i] -= m[i] / ((np.sqrt(v[i]) + eps / r) * (c1 * r / lr))
        assert pool.by_fn["Adam.step.<locals>.lane"] == len(steps) * (workers - 1)  # every lane has blocks
        for p, r in zip(params, ref):
            assert p.data.tobytes() == r.tobytes()
        assert opt.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
        assert opt.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()

    def test_drift_from_textbook_update_is_rounding(self):
        shapes = [(7,), (3, 50)]
        params, opt, steps = self._random_run(200, shapes)
        ref = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        for t, grads in enumerate(steps, start=1):
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                ref[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
        for p, r in zip(params, ref):
            np.testing.assert_allclose(p.data, r, rtol=0, atol=1e-14)
        np.testing.assert_allclose(opt.v * (1.0 - b2), np.concatenate([a.ravel() for a in v]), rtol=1e-14)


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
