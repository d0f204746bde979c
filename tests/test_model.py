"""Model assembly, forward passes, and checkpoint round-trips."""

import json
import threading

import numpy as np
import pytest

from conftest import MALFORMED_CONFIGS, blob_bundle, checkpoint_with_config, tiny_config
from devae import tensor as T
from devae.errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    DivergenceError,
)
from devae.evaluation import evaluate
from devae.losses import LossWeights, objective_backward
from devae.model import (INFER_CHUNK, RECON_KINDS, DeVae, ModelConfig, backward, forward_train, load_checkpoint,
                         save_checkpoint)
from devae.tensor import _SIGMOID_HI, _SIGMOID_LO, Tensor, _sigmoid_
from devae.trainer import Adam
from devae.viz import grid_lattice


class TestEncodeDecode:
    def test_fresh_model_produces_finite_latents(self):
        model = DeVae(tiny_config())
        x = np.random.default_rng(0).uniform(-2, 2, size=(5, 10))
        latent = model.encode(x)
        assert np.all(np.isfinite(latent.mu.data))
        assert np.all(np.isfinite(latent.params.data))

    def test_none_head_carries_only_mu(self):
        model = DeVae(tiny_config(head="none"))
        latent = model.encode(np.zeros((2, 10)))
        assert latent.params is None

    def test_bce_decoder_output_in_open_unit_interval(self):
        model = DeVae(tiny_config(recon_kind="bce"))
        z = np.random.default_rng(1).uniform(-20, 20, size=(7, 2))
        out = model.decode(z).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_mse_decoder_output_finite_any_plane_point(self):
        model = DeVae(tiny_config())
        z = np.array([[1e3, -1e3], [0.0, 0.0], [-250.0, 4.2]])
        out = model.decode(z).data
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("recon_kind", ["bce", "mse"])
    def test_decode_is_decode_logits_then_the_sigmoid(self, recon_kind):
        model = DeVae(tiny_config(recon_kind=recon_kind))
        z = Tensor(np.random.default_rng(5).uniform(-20, 20, size=(7, 2)))
        out = model.decode(z)
        assert isinstance(out, Tensor)
        want = model.decode_logits(z)
        if recon_kind == "bce":
            _sigmoid_(want)
        assert out.data.tobytes() == want.tobytes()

    def test_encode_dimension_mismatch(self):
        model = DeVae(tiny_config())
        with pytest.raises(DimensionError):
            model.encode(np.zeros((3, 11)))

    def test_decode_dimension_mismatch(self):
        model = DeVae(tiny_config())
        with pytest.raises(DimensionError):
            model.decode(np.zeros((3, 3)))

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_roundtrip_shapes(self, batch):
        model = DeVae(tiny_config())
        x = np.random.default_rng(2).uniform(-1, 1, size=(batch, 10))
        out = model.decode(model.encode(x).mu)
        assert out.shape == x.shape


def _assert_each_decoded_alone(model: DeVae, z: np.ndarray) -> np.ndarray:
    got = model.decode_each(z).data
    assert got.shape == (len(z), model.config.input_dim)
    for i in range(len(z)):
        assert got[i].tobytes() == model.decode(z[i : i + 1]).data.tobytes(), f"row {i}"
    return got


class TestDecodeEach:
    """Row i of ``decode_each(z)`` is ``decode(z[i:i+1])`` byte for byte."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("recon_kind", RECON_KINDS)
    def test_rows_match_each_point_decoded_alone(self, monkeypatch, recon_kind, workers):
        monkeypatch.setattr(T, "WORKERS", workers)
        model = DeVae(tiny_config(recon_kind=recon_kind))
        _assert_each_decoded_alone(model, np.random.default_rng(workers).uniform(-20, 20, size=(37, 2)))

    def test_points_across_a_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(T, "WORKERS", 2)
        model = DeVae(tiny_config(recon_kind="bce", d=4))
        _assert_each_decoded_alone(model, np.random.default_rng(3).uniform(-5, 5, size=(INFER_CHUNK + 1, 2)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pixel_decoder_on_a_lattice(self, monkeypatch, workers):
        # The 784-d model's decoder: 2 -> 128 -> 512 -> 784, seeded weights.
        monkeypatch.setattr(T, "WORKERS", workers)
        model = DeVae(ModelConfig(784, LossWeights(20.0, 5.0), recon_kind="bce", seed=4))
        coords = np.random.default_rng(4).uniform(-6, 6, size=(50, 2))
        _assert_each_decoded_alone(model, grid_lattice(coords, 20))

    @pytest.mark.parametrize("recon_kind", RECON_KINDS)
    def test_saturated_points(self, recon_kind):
        model = DeVae(tiny_config(recon_kind=recon_kind))
        got = _assert_each_decoded_alone(model, np.array([[1e3, 1e3], [-1e3, 1e3], [1e3, -1e3], [-1e3, -1e3]]))
        if recon_kind == "bce":  # the sigmoid saturates and is pinned inside (0, 1)
            assert np.all(got > 0.0) and np.all(got < 1.0)
            assert np.isin(got, [_SIGMOID_LO, _SIGMOID_HI]).any()
        else:
            assert np.all(np.isfinite(got))

    def test_no_points(self):
        model = DeVae(tiny_config())
        assert model.decode_each(np.zeros((0, 2))).shape == (0, 10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            DeVae(tiny_config()).decode_each(np.zeros((3, 3)))


class TestForwardTrain:
    def test_degenerate_config_reduces_to_plain_autoencoder(self):
        cfg = tiny_config(head="none", weights=LossWeights(0.0, 0.0))
        model = DeVae(cfg)
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1, 1, size=(4, 10)), rng.uniform(-1, 1, size=(4, 2))
        result = forward_train(model, x, y)
        assert result.breakdown.total == result.breakdown.recon
        assert result.breakdown.ent == 0.0

    def test_zero_noise_isotropic_equals_none_baseline(self):
        iso = DeVae(tiny_config(head="isotropic"))
        none = DeVae(tiny_config(head="none"))
        # Align every shared parameter; only the variance head differs.
        for a, b in zip(none.trunk, iso.trunk):
            a.weight.data[...] = b.weight.data
            a.bias.data[...] = b.bias.data
        none.mu_head.weight.data[...] = iso.mu_head.weight.data
        none.mu_head.bias.data[...] = iso.mu_head.bias.data
        for a, b in zip(none.decoder, iso.decoder):
            a.weight.data[...] = b.weight.data
            a.bias.data[...] = b.bias.data
        rng = np.random.default_rng(4)
        x, y = rng.uniform(-1, 1, size=(4, 10)), rng.uniform(-1, 1, size=(4, 2))
        eps = np.zeros((4, 2))
        r_iso = forward_train(iso, x, y, eps)
        r_none = forward_train(none, x, y, eps)
        assert r_iso.breakdown.recon == r_none.breakdown.recon
        assert r_iso.breakdown.proj == r_none.breakdown.proj

    def test_gradient_step_decreases_singleton_batch_loss(self):
        model = DeVae(tiny_config())
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1, 1, size=(1, 10)), rng.uniform(-1, 1, size=(1, 2))
        eps = rng.standard_normal((1, 2))
        result = forward_train(model, x, y, eps)
        model.flat -= 1e-4 * backward(model, result)
        after = forward_train(model, x, y, eps)
        assert after.breakdown.total < result.breakdown.total

    def test_row_misalignment_rejected(self):
        model = DeVae(tiny_config())
        with pytest.raises(DimensionError):
            forward_train(model, np.zeros((3, 10)), np.zeros((2, 2)))

    @pytest.mark.parametrize("recon_kind", RECON_KINDS)
    @pytest.mark.parametrize("head", ["none", "isotropic", "diagonal", "full"])
    def test_forward_keeps_each_dense_layers_input_and_output(self, head, recon_kind):
        # The chain backward walks: trunk, mu (and var) on the last trunk
        # output, the decoder on the sample, the logits last.
        model = DeVae(tiny_config(head=head, recon_kind=recon_kind))
        rng = np.random.default_rng(6)
        x, y, eps = rng.uniform(0, 1, size=(4, 10)), rng.uniform(-1, 1, size=(4, 2)), rng.standard_normal((4, 2))
        result = forward_train(model, x, y, eps)
        io, n_trunk = result.io, len(model.trunk)
        assert len(io) == len(model.layers) == (6 if head == "none" else 7)
        assert io[0][0] is x and io[1][0] is io[0][1]
        assert all(inp is io[n_trunk - 1][1] for inp, _ in io[n_trunk : len(io) - len(model.decoder)])
        assert io[n_trunk][1] is result.latent.mu.data
        z = result.latent.sample(eps)[0]
        assert io[-len(model.decoder)][0].tobytes() == z.tobytes()
        assert io[-1][1] is result.x_hat
        for (inp, out), layer in zip(io, model.layers):
            assert out.tobytes() == layer(inp).tobytes()

    def test_forward_without_keep_is_bit_identical_and_keeps_nothing(self):
        model = DeVae(tiny_config(recon_kind="bce"))
        rng = np.random.default_rng(4)
        x, y, eps = rng.uniform(0, 1, size=(40, 10)), rng.uniform(-1, 1, size=(40, 2)), rng.standard_normal((40, 2))
        kept, bare = forward_train(model, x, y, eps), forward_train(model, x, y, eps, keep=False)
        assert bare.io is None and bare.breakdown == kept.breakdown
        assert bare.x_hat.tobytes() == kept.x_hat.tobytes()
        with pytest.raises(ContractError, match="kept its layers"):
            backward(model, bare)

    def test_backward_overwrites_the_gradient_and_leaves_the_forward(self):
        # Two passes give the same bytes, not twice the gradient, and no
        # array the forward kept is written.
        model = DeVae(tiny_config(head="full", recon_kind="bce"))
        rng = np.random.default_rng(8)
        x, y, eps = rng.uniform(0, 1, size=(40, 10)), rng.uniform(-1, 1, size=(40, 2)), rng.standard_normal((40, 2))
        model.grad[...] = np.nan
        result = forward_train(model, x, y, eps)
        kept = [a.tobytes() for pair in result.io for a in pair] + [result.latent.params.data.tobytes()]
        once = backward(model, result).copy()
        assert np.isfinite(once).all() and np.count_nonzero(once) > once.size // 2
        assert backward(model, result).tobytes() == once.tobytes()
        assert [a.tobytes() for pair in result.io for a in pair] + [result.latent.params.data.tobytes()] == kept

    def test_none_head_has_no_variance_parameters(self):
        none = DeVae(tiny_config(head="none"))
        full = DeVae(tiny_config(head="full"))
        assert none.var_head is None
        assert len(none.parameters()) == len(full.parameters()) - 2


HEADS = ["none", "isotropic", "diagonal", "full"]


def _batch(seed: int, rows: int = 12, d: int = 10):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(rows, d)), rng.uniform(-1, 1, size=(rows, 2)), rng.standard_normal((rows, 2))


def _train_steps(model: DeVae, seed: int, steps: int) -> np.ndarray:
    adam = Adam(model.flat, model.grad, [p.shape for p in model.parameters()], lr=0.01)
    for step in range(steps):
        backward(model, forward_train(model, *_batch(seed + step)))
        adam.step()
    return model.flat.copy()


class TestBackward:
    @pytest.mark.parametrize("recon_kind", RECON_KINDS)
    @pytest.mark.parametrize("head", HEADS)
    def test_backward_reaches_all_parameters(self, head, recon_kind):
        # Every weight and bias view is written, and each is the slice of
        # grad at its parameter's offset in flat.
        model = DeVae(tiny_config(head=head, recon_kind=recon_kind))
        model.grad[...] = np.nan
        backward(model, forward_train(model, *_batch(9)))
        assert np.isfinite(model.grad).all()
        names = model.parameter_names()
        views = [v for pair in model.layer_grads for v in pair]
        assert len(views) == len(model.parameters()) == len(names)
        for name, p, v in zip(names, model.parameters(), views):
            assert v.shape == p.shape, name
            assert np.shares_memory(v, model.grad) and not np.shares_memory(v, model.flat), name
            offset = (v.__array_interface__["data"][0] - model.grad.__array_interface__["data"][0]) // 8
            assert offset == (p.data.__array_interface__["data"][0] - model.flat.__array_interface__["data"][0]) // 8
            assert np.count_nonzero(v) > 0, f"{name} got no gradient"

    @pytest.mark.parametrize("head", HEADS)
    def test_component_seeds_sum_to_the_objective_gradient(self, head):
        # backward is linear in its seeds: the three one-term gradients add
        # up to the objective's, to rounding.
        model = DeVae(tiny_config(head=head, recon_kind="bce"))
        result = forward_train(model, *_batch(10))
        w_recon, w_proj, w_ent = objective_backward(model.config.weights)
        parts = [backward(model, result, seeds).copy()
                 for seeds in ((w_recon, 0.0, 0.0), (0.0, w_proj, 0.0), (0.0, 0.0, w_ent))]
        whole = backward(model, result)
        np.testing.assert_allclose(parts[0] + parts[1] + parts[2], whole, rtol=1e-12,
                                   atol=1e-14 * np.abs(whole).max())
        # The decoder sees only the reconstruction term.
        n_dec = sum(w.size + b.size for w, b in model.layer_grads[-len(model.decoder):])
        assert not parts[1][-n_dec:].any() and not parts[2][-n_dec:].any()
        if head == "none":
            assert not parts[2].any()
        else:
            assert parts[2].any()

    def test_inference_between_forward_and_backward_changes_no_gradient(self):
        # Inference runs the same forward functions; it must not touch what
        # a pending training forward kept, nor the gradient vector.
        bundle = blob_bundle()
        model = DeVae(tiny_config(head="full", recon_kind="mse"))
        batch = _batch(11)
        want = backward(model, forward_train(model, *batch)).copy()
        model.grad[...] = 0.0
        result = forward_train(model, *batch)
        model.encode_rows(bundle.X)
        model.decode(model.encode(bundle.X[:7]).mu)
        evaluate(model, bundle, "val")
        assert not model.grad.any()
        assert backward(model, result).tobytes() == want.tobytes()

    def test_gradient_does_not_share_memory_with_the_parameters(self):
        model = DeVae(tiny_config(head="diagonal"))
        before = model.flat.copy()
        assert not np.shares_memory(model.grad, model.flat)
        backward(model, forward_train(model, *_batch(12)))
        assert model.flat.tobytes() == before.tobytes()
        model.grad[...] = 7.0
        assert model.flat.tobytes() == before.tobytes()

    def test_steps_in_two_threads_match_serial_bytes(self):
        # No state is shared between models: two training loops running at
        # once end on the bytes each reaches alone.
        configs = [tiny_config(head="full", recon_kind="bce"), tiny_config(head="isotropic", seed=12)]
        serial = [_train_steps(DeVae(c), 20 * i, 15) for i, c in enumerate(configs)]
        models, out = [DeVae(c) for c in configs], [None, None]
        barrier = threading.Barrier(2)

        def run(i):
            barrier.wait()
            out[i] = _train_steps(models[i], 20 * i, 15)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(out, serial):
            assert a is not None and a.tobytes() == b.tobytes()


class TestInferenceMatchesTraining:
    @pytest.mark.parametrize("recon_kind", RECON_KINDS)
    @pytest.mark.parametrize("head", HEADS)
    def test_outputs_are_bit_identical_to_the_training_forward(self, head, recon_kind):
        # encode, encode_rows and decode_logits give the bytes the training
        # forward computes at zero noise.
        model = DeVae(tiny_config(head=head, recon_kind=recon_kind))
        x, y, _ = _batch(13, rows=30)
        result = forward_train(model, x, y)
        for latent in (model.encode(x), model.encode_rows(x), model.encode_rows(x, np.arange(30))):
            assert latent.mu.data.tobytes() == result.latent.mu.data.tobytes()
            if head == "none":
                assert latent.params is None and result.latent.params is None
            else:
                assert latent.params.data.tobytes() == result.latent.params.data.tobytes()
        assert model.decode_logits(result.latent.mu.data).tobytes() == result.x_hat.tobytes()


class TestInitialization:
    def test_same_seed_same_config_identical_parameters(self):
        a, b = DeVae(tiny_config(seed=42)), DeVae(tiny_config(seed=42))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a, b = DeVae(tiny_config(seed=42)), DeVae(tiny_config(seed=43))
        assert any(not np.array_equal(pa.data, pb.data) for pa, pb in zip(a.parameters(), b.parameters()))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            ModelConfig(input_dim=0, weights=LossWeights(1.0, 1.0))
        with pytest.raises(ContractError):
            ModelConfig(input_dim=4, weights=LossWeights(1.0, 1.0), head="spherical")
        with pytest.raises(ContractError):
            ModelConfig(input_dim=4, weights=LossWeights(1.0, 1.0), recon_kind="mae")


class TestParameterArena:
    def test_parameters_are_consecutive_views_of_one_vector(self):
        model = DeVae(tiny_config())
        model.flat[...] = np.arange(model.flat.size)
        offset = 0
        for p in model.parameters():
            np.testing.assert_array_equal(p.data.ravel(), np.arange(offset, offset + p.size))
            offset += p.size
        assert offset == model.flat.size

    def test_restore_of_snapshot_after_adam_steps(self):
        model = DeVae(tiny_config(seed=3))
        before = [p.data.tobytes() for p in model.parameters()]
        snap = model.snapshot()
        adam = Adam(model.flat, model.grad, [p.shape for p in model.parameters()], lr=0.01)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x, y = rng.uniform(-1, 1, size=(4, 10)), rng.uniform(-1, 1, size=(4, 2))
            backward(model, forward_train(model, x, y, rng.standard_normal((4, 2))))
            adam.step()
        assert [p.data.tobytes() for p in model.parameters()] != before
        model.restore(snap)
        assert [p.data.tobytes() for p in model.parameters()] == before


class TestParameterNames:
    @pytest.mark.parametrize("head", ["none", "isotropic", "diagonal", "full"])
    def test_names_follow_parameters(self, head):
        model = DeVae(tiny_config(head=head))
        layers = ["enc0", "enc1", "mu"] + ([] if head == "none" else ["var"]) + ["dec0", "dec1", "out"]
        names = model.parameter_names()
        assert names == [f"{layer}.{part}" for layer in layers for part in ("weight", "bias")]
        params = model.parameters()
        assert len(names) == len(params)
        shapes = dict(zip(names, (p.shape for p in params)))
        assert shapes["enc0.weight"] == (32, 10) and shapes["mu.bias"] == (2,)
        assert shapes["dec0.weight"] == (16, 2) and shapes["out.weight"] == (10, 32)

    def test_named_adam_reports_the_layer(self):
        model = DeVae(tiny_config())
        adam = Adam(model.flat, model.grad, [p.shape for p in model.parameters()], names=model.parameter_names())
        grad_weight, _ = model.layer_grads[3]  # enc0, enc1, mu, var
        grad_weight[0, 1] = np.nan
        with pytest.raises(DivergenceError, match=r"in var\.weight: parameter 6 of shape \(3, 16\)"):
            adam.step()


class TestCheckpoint:
    @pytest.mark.parametrize("head", ["none", "isotropic", "diagonal", "full"])
    def test_bytes_match_per_tensor_writer(self, tmp_path, head):
        model = DeVae(tiny_config(head=head, recon_kind="bce", seed=4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        config_blob = json.dumps(model.config.to_dict(), separators=(",", ":")).encode("utf-8")
        expected = b"DEVAE" + bytes([1]) + len(config_blob).to_bytes(4, "little") + config_blob
        for p in model.parameters():
            expected += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
        assert path.read_bytes() == expected

    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = DeVae(tiny_config(head="diagonal", seed=9))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        x = np.random.default_rng(6).uniform(-1, 1, size=(3, 10))
        np.testing.assert_array_equal(model.encode(x).mu.data, loaded.encode(x).mu.data)

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = DeVae(tiny_config(seed=9))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        assert loaded.flat.tobytes() == model.flat.tobytes()
        assert all(np.shares_memory(p.data, loaded.flat) for p in loaded.parameters())

    def test_bad_magic(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_version_bump(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[5] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported version 2"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(CheckpointError, match="parameter block: expected"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", MALFORMED_CONFIGS)
    def test_malformed_config_block(self, tmp_path, block):
        path = tmp_path / "m.ckpt"
        path.write_bytes(checkpoint_with_config(block))
        with pytest.raises(CheckpointError, match="invalid config block"):
            load_checkpoint(path)

    def test_envelope_layout(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob[:5] == b"DEVAE"
        assert blob[5] == 1
        config_len = int.from_bytes(blob[6:10], "little")
        n_param_floats = sum(p.size for p in model.parameters())
        assert len(blob) == 10 + config_len + 8 * n_param_floats
