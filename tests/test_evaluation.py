"""Split metrics, medoids, and per-class ellipse summaries."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import tiny_config
from devae.data import DatasetBundle
from devae.errors import ContractError, DataError
from devae.evaluation import (
    MEDOID_BLOCK,
    MetricsRow,
    class_ellipses,
    class_medoid,
    class_medoid_indices,
    distance_sums,
    evaluate,
    format_metrics_table,
    metrics_to_json,
)
from devae.gaussian import GaussianLatent, ellipse_from_cov
from devae.losses import LossWeights, proj_loss, recon_mse
from devae.model import DeVae, ModelConfig
from devae.tensor import Tensor
from devae.trainer import TrainSettings, train


def _identity_model() -> DeVae:
    """A 2-D model that reproduces its input exactly via relu(x) - relu(-x)."""
    cfg = ModelConfig(
        input_dim=2,
        latent_dim=2,
        encoder_widths=(4,),
        decoder_widths=(4,),
        head="none",
        recon_kind="mse",
        weights=LossWeights(1.0, 0.0),
        seed=0,
    )
    model = DeVae(cfg)
    split_pm = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    join_pm = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    for trunk in (model.trunk[0], model.decoder[0]):
        trunk.weight.data[...] = split_pm
        trunk.bias.data[...] = 0.0
    model.mu_head.weight.data[...] = join_pm
    model.mu_head.bias.data[...] = 0.0
    model.decoder[1].weight.data[...] = join_pm
    model.decoder[1].bias.data[...] = 0.0
    return model


class TestEvaluate:
    def test_memorizing_model_has_zero_losses(self):
        model = _identity_model()
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(10, 2))
        bundle = DatasetBundle(X=X, Y=X.copy(), split=np.array(["test"] * 10))
        bd = evaluate(model, bundle, "test")
        assert bd.proj == 0.0
        assert bd.recon == pytest.approx(0.0, abs=1e-20)

    def test_deterministic(self, bundle, trained):
        model, _ = trained
        assert evaluate(model, bundle, "test") == evaluate(model, bundle, "test")

    def test_trained_beats_untrained(self, bundle, trained):
        model, _ = trained
        fresh = DeVae(tiny_config())
        assert evaluate(model, bundle, "test").total < evaluate(fresh, bundle, "test").total

    def test_batch_size_independence(self, bundle, trained):
        model, _ = trained
        full = evaluate(model, bundle, "test")
        chunked = evaluate(model, bundle, "test", chunk_size=5)
        idx = bundle.indices("test")
        per_sample = []
        for i in idx:
            x, y = bundle.X[i : i + 1], bundle.Y[i : i + 1]
            latent = model.encode(x)
            x_hat = model.decode(latent.mu)
            per_sample.append((recon_mse(Tensor(x), x_hat).item(), proj_loss(Tensor(y), latent.mu).item()))
        means = np.mean(per_sample, axis=0)
        assert full.recon == pytest.approx(chunked.recon, rel=1e-12)
        assert full.recon == pytest.approx(means[0], rel=1e-10)
        assert full.proj == pytest.approx(means[1], rel=1e-10)

    def test_empty_split_rejected(self):
        model = _identity_model()
        bundle = DatasetBundle(X=np.zeros((4, 2)), Y=np.zeros((4, 2)), split=np.array(["train"] * 4))
        with pytest.raises(DataError):
            evaluate(model, bundle, "test")


class TestClassMedoid:
    def test_three_point_example(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        labels = np.zeros(3, dtype=int)
        medoid = class_medoid(pts, labels)[0]
        # Brute-force distance sums: 11, 10, 19.
        np.testing.assert_array_equal(medoid, [1.0, 0.0])

    def test_singleton_class(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        medoids = class_medoid(pts, np.array([7, 2]))
        np.testing.assert_array_equal(medoids[7], [3.0, 4.0])

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        idx = class_medoid_indices(pts, np.zeros(4, dtype=int))[0]
        sums = [np.linalg.norm(pts - p, axis=1).sum() for p in pts]
        firsts = [i for i, s in enumerate(sums) if s == min(sums)]
        assert idx == firsts[0]

    def test_medoid_is_class_member(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, size=(40, 2))
        labels = rng.integers(0, 4, size=40)
        for label, medoid in class_medoid(pts, labels).items():
            members = pts[labels == label]
            assert any(np.array_equal(medoid, m) for m in members)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, size=(25, 2))
        labels = rng.integers(0, 3, size=25)
        got = class_medoid_indices(pts, labels)
        for label in np.unique(labels):
            member_idx = np.flatnonzero(labels == label)
            sums = [sum(np.linalg.norm(pts[i] - pts[j]) for j in member_idx) for i in member_idx]
            assert got[int(label)] == member_idx[int(np.argmin(sums))]


def _one_shot_sums(pts: np.ndarray) -> np.ndarray:
    """The one-shot n x n x dim formula the row blocks replace."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).sum(axis=1)


class TestDistanceSums:
    # One block, exactly one block (n * n == MEDOID_BLOCK), and several
    # blocks whose last one is ragged; 2-D latents plus one 3-D case.
    @pytest.mark.parametrize("n, dim", [(1, 2), (37, 2), (512, 2), (1500, 2), (700, 3)])
    def test_bit_identical_to_one_shot_formula(self, n, dim):
        pts = np.random.default_rng(n).normal(scale=3.0, size=(n, dim))
        np.testing.assert_array_equal(distance_sums(pts), _one_shot_sums(pts))

    def test_block_sizes_cover_the_cases(self):
        assert 512 * 512 == MEDOID_BLOCK
        rows = MEDOID_BLOCK // 1500
        assert 1500 > 2 * rows and 1500 % rows != 0

    def test_exact_tie_across_blocks_goes_to_lowest_index(self):
        # A centrally symmetric cloud has its medoid at the centre; the
        # centre appears first and again as the last point, in another block.
        half = np.random.default_rng(8).uniform(-4, 4, size=(749, 2))
        pts = np.concatenate([[[0.0, 0.0]], half, -half, [[0.0, 0.0]]])
        assert pts.shape[0] - 1 >= MEDOID_BLOCK // pts.shape[0]
        sums = distance_sums(pts)
        np.testing.assert_array_equal(sums, _one_shot_sums(pts))
        assert sums[0] == sums[-1] == sums.min()
        labels = np.full(pts.shape[0], 4)
        assert class_medoid_indices(pts, labels) == {4: 0}


class TestClassEllipses:
    def test_isotropic_head_gives_circles(self, bundle):
        model, _ = _quick_train(bundle, "isotropic")
        for specs in class_ellipses(model.encode_rows(bundle.X), bundle.labels).values():
            for spec in specs:
                assert spec.semi_axes[0] == pytest.approx(spec.semi_axes[1], abs=1e-9)

    def test_diagonal_head_axis_aligned(self, bundle):
        model, _ = _quick_train(bundle, "diagonal")
        for specs in class_ellipses(model.encode_rows(bundle.X), bundle.labels).values():
            for spec in specs:
                assert spec.rotation in (0.0, math.pi / 2)

    def test_full_head_valid_specs_and_nesting(self, bundle, trained):
        model, _ = trained
        ellipses = class_ellipses(model.encode_rows(bundle.X), bundle.labels)
        assert sorted(ellipses) == [0, 1, 2]
        for specs in ellipses.values():
            assert [s.k for s in specs] == [1, 2, 3]
            base = specs[0]
            for spec in specs[1:]:
                assert spec.center == base.center
                assert spec.rotation == base.rotation
                np.testing.assert_allclose(
                    np.array(spec.semi_axes) / spec.k, base.semi_axes, rtol=1e-12
                )

    def test_none_head_unsupported(self, bundle):
        model = DeVae(tiny_config(head="none"))
        with pytest.raises(ContractError):
            class_ellipses(model.encode_rows(bundle.X), bundle.labels)

    def test_full_head_near_singular_covariance(self):
        # L L^T with L00 = 1e-14 is positive definite, but (tr - sqrt(disc)) / 2
        # cancels to 0 for it; the minor axis comes from the Cholesky diagonal.
        L = np.array([[1e-14, 0.0], [0.5, 0.3]])
        chol_raw = np.array([[L[1, 0], math.log(L[0, 0]), math.log(L[1, 1])]])
        latent = GaussianLatent("full", Tensor([[1.0, -2.0]]), chol_raw=Tensor(chol_raw))
        (specs,) = class_ellipses(latent, np.array([3])).values()
        # Semi-axes are k times L's singular values, whose product is det L.
        major = np.linalg.svd(L, compute_uv=False)[0]
        for spec in specs:
            a, b = spec.semi_axes
            assert a == pytest.approx(spec.k * major, rel=1e-12)
            assert a * b == pytest.approx(spec.k**2 * L[0, 0] * L[1, 1], rel=1e-12)

    @pytest.mark.parametrize("average_cov", [False, True])
    def test_diagonal_head_variance_ratio_1e17(self, average_cov):
        # tr = 1 + 1e-17 rounds to 1, so (tr - sqrt(disc)) / 2 is 0; the minor
        # axis comes from the product of the variances.
        log_var = np.log([[1.0, 1e-17], [1.0, 1e-17]])
        latent = GaussianLatent("diagonal", Tensor([[0.0, 0.0], [1.0, 1.0]]), log_var=Tensor(log_var))
        (specs,) = class_ellipses(latent, np.array([0, 0]), average_cov=average_cov).values()
        for spec in specs:
            assert spec.semi_axes == pytest.approx((spec.k, spec.k * math.sqrt(1e-17)), rel=1e-12)

    def test_average_cov_near_singular_members(self):
        # Class 0 averages to roughly [[5e-20, -2.6e-11], [-2.6e-11, 0.43]], the
        # shape seen on a trained full head: positive definite, but the minor
        # eigenvalue of the averaged entries cancels to 0. Class 1 is ordinary.
        l10 = np.array([-0.11, -0.09, -0.12, 0.4, 0.1])
        l00 = np.array([2e-10, 3e-10, 1.5e-10, 0.5, 0.8])
        l11 = np.array([0.65, 0.6, 0.7, 0.3, 0.6])
        chol_raw = np.column_stack([l10, np.log(l00), np.log(l11)])
        mu = np.arange(10.0).reshape(5, 2)
        labels = np.array([0, 0, 0, 1, 1])
        latent = GaussianLatent("full", Tensor(mu), chol_raw=Tensor(chol_raw))
        ellipses = class_ellipses(latent, labels, average_cov=True)
        for label, members in ((0, [0, 1, 2]), (1, [3, 4])):
            L = [np.array([[np.exp(chol_raw[i, 1]), 0.0], [l10[i], np.exp(chol_raw[i, 2])]])
                 for i in members]
            cov = np.mean([m @ m.T for m in L], axis=0)
            exact = [[sum(Fraction(m[r, 0]) * Fraction(m[c, 0]) + Fraction(m[r, 1]) * Fraction(m[c, 1])
                          for m in L) / len(L) for c in range(2)] for r in range(2)]
            det = float(exact[0][0] * exact[1][1] - exact[0][1] * exact[1][0])
            major = math.sqrt(np.linalg.eigvalsh(cov)[-1])
            for spec in ellipses[label]:
                a, b = spec.semi_axes
                assert a == pytest.approx(spec.k * major, rel=1e-12)
                assert a * b == pytest.approx(spec.k**2 * math.sqrt(det), rel=1e-9)
            if label == 0:  # the eigenvalue formula on the averaged entries cancels
                tr = cov[0, 0] + cov[1, 1]
                disc = tr * tr - 4.0 * (cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0])
                assert tr - math.sqrt(max(disc, 0.0)) <= 0.0

    @pytest.mark.parametrize("head", ["isotropic", "diagonal"])
    def test_average_cov_bit_identical_to_per_member_mean(self, head):
        rng = np.random.default_rng(14)
        n = 300
        width = 1 if head == "isotropic" else 2
        log_var = rng.uniform(-3.0, 3.0, size=(n, width))
        latent = GaussianLatent(head, Tensor(rng.standard_normal((n, 2))), log_var=Tensor(log_var))
        labels = rng.integers(0, 4, size=n)

        def member_cov(i):  # one covariance per Python call, as first written
            if head == "isotropic":
                return float(np.exp(log_var[i, 0])) * np.eye(2)
            return np.diag(np.exp(log_var[i]))

        ellipses = class_ellipses(latent, labels, average_cov=True)
        medoids = class_medoid_indices(latent.mu.data, labels)
        for label, specs in ellipses.items():
            cov = np.mean([member_cov(i) for i in np.flatnonzero(labels == label)], axis=0)
            det = float(np.prod(np.diag(cov)))
            want = [ellipse_from_cov(latent.mu.data[medoids[label]], cov, k, det) for k in (1, 2, 3)]
            assert specs == want

    def test_average_cov_flag(self, bundle, trained):
        model, _ = trained
        default = class_ellipses(model.encode_rows(bundle.X), bundle.labels)
        averaged = class_ellipses(model.encode_rows(bundle.X), bundle.labels, average_cov=True)
        assert default.keys() == averaged.keys()
        assert any(
            default[c][0].semi_axes != averaged[c][0].semi_axes for c in default
        )


def _quick_train(bundle, head):
    from devae.trainer import train as _train

    model = DeVae(tiny_config(head=head))
    return _train(model, bundle, TrainSettings(seed=11, max_epochs=4, patience=4))


class TestMetricsRow:
    def test_validation(self):
        with pytest.raises(ContractError):
            MetricsRow("none", 1, 0, 1, 0, 1, 0, n_runs=0)
        with pytest.raises(ContractError):
            MetricsRow("none", 1, -0.5, 1, 0, 1, 0, n_runs=2)

    def test_json_structure(self):
        row = MetricsRow("full", 1.0, 0.1, 2.0, 0.2, 30.0, 3.0, n_runs=10)
        blob = metrics_to_json([row], dataset="demo")
        import json

        parsed = json.loads(blob)
        assert parsed["dataset"] == "demo"
        assert parsed["rows"][0]["proj_loss"] == {"mean": 1.0, "std": 0.1}
        assert parsed["rows"][0]["n_runs"] == 10

    def test_table_structure(self):
        rows = [
            MetricsRow(h, 1.0, 0.1, 2.0, 0.2, 30.0, 3.0, n_runs=3)
            for h in ("none", "isotropic", "diagonal", "full")
        ]
        table = format_metrics_table(rows)
        lines = table.strip().split("\n")
        assert len(lines) == 4  # header + 3 metric blocks
        assert lines[0].split() == ["metric", "none", "isotropic", "diagonal", "full"]
        for line in lines[1:]:
            assert line.count("±") == 4
