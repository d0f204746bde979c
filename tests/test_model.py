"""Model assembly, forward passes, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from conftest import MALFORMED_CONFIGS, checkpoint_with_config, tiny_config
from devae.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractError,
    DimensionError,
    DivergenceError,
)
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig, forward_train, load_checkpoint, save_checkpoint
from devae.tensor import Tensor, _sigmoid_
from devae.trainer import Adam


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
    def test_decode_is_untaped_decode_logits(self, recon_kind):
        model = DeVae(tiny_config(recon_kind=recon_kind))
        z = Tensor(np.random.default_rng(5).uniform(-20, 20, size=(7, 2)), requires_grad=True)
        out = model.decode(z)
        assert out._parents == () and out._backward is None and not out.requires_grad
        want = model.decode_logits(z).data.copy()
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
        result.total.backward()
        for p in model.parameters():
            p.data -= 1e-4 * p.grad
        after = forward_train(model, x, y, eps)
        assert after.breakdown.total < result.breakdown.total

    def test_row_misalignment_rejected(self):
        model = DeVae(tiny_config())
        with pytest.raises(DimensionError):
            forward_train(model, np.zeros((3, 10)), np.zeros((2, 2)))

    def test_none_head_has_no_variance_parameters(self):
        none = DeVae(tiny_config(head="none"))
        full = DeVae(tiny_config(head="full"))
        assert none.var_head is None
        assert len(none.parameters()) == len(full.parameters()) - 2


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
        adam = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(7)
        for _ in range(3):
            model.zero_grad()
            x, y = rng.uniform(-1, 1, size=(4, 10)), rng.uniform(-1, 1, size=(4, 2))
            forward_train(model, x, y, rng.standard_normal((4, 2))).total.backward()
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
        adam = Adam(model.parameters(), names=model.parameter_names())
        for p in model.parameters():
            p.grad = np.zeros(p.shape)
        model.parameters()[6].grad[0, 1] = np.nan
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

    def test_bad_magic(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_version_bump(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[5] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = DeVae(tiny_config())
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError):
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
