"""Split metrics, medoids, and per-class ellipse summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import devae.evaluation
from conftest import tiny_config
from devae.data import DatasetBundle
from devae.errors import ContractError, DataError
from devae.evaluation import (
    _distance_row,
    class_ellipses,
    class_medoid_indices,
    evaluate,
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

    def test_batch_size_independence(self, bundle, trained, monkeypatch):
        model, _ = trained
        full = evaluate(model, bundle, "test")
        monkeypatch.setattr(devae.evaluation, "INFER_CHUNK", 5)
        chunked = evaluate(model, bundle, "test")
        idx = bundle.indices("test")
        per_sample = []
        for i in idx:
            x, y = bundle.X[i : i + 1], bundle.Y[i : i + 1]
            latent = model.encode(x)
            x_hat = model.decode(latent.mu)
            per_sample.append((recon_mse(x, x_hat), proj_loss(y, latent.mu)))
        means = np.mean(per_sample, axis=0)
        assert full.recon == pytest.approx(chunked.recon, rel=1e-12)
        assert full.recon == pytest.approx(means[0], rel=1e-10)
        assert full.proj == pytest.approx(means[1], rel=1e-10)

    def test_empty_split_rejected(self):
        model = _identity_model()
        bundle = DatasetBundle(X=np.zeros((4, 2)), Y=np.zeros((4, 2)), split=np.array(["train"] * 4))
        with pytest.raises(DataError, match="split 'test' is empty"):
            evaluate(model, bundle, "test")


class TestClassMedoid:
    def test_three_point_example(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        labels = np.zeros(3, dtype=int)
        medoid = pts[class_medoid_indices(pts, labels)[0]]
        # Brute-force distance sums: 11, 10, 19.
        np.testing.assert_array_equal(medoid, [1.0, 0.0])

    def test_singleton_class(self):
        pts = np.array([[3.0, 4.0], [0.0, 0.0]])
        medoids = class_medoid_indices(pts, np.array([7, 2]))
        np.testing.assert_array_equal(pts[medoids[7]], [3.0, 4.0])

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
        for label, i in class_medoid_indices(pts, labels).items():
            assert labels[i] == label

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
    """Every point's summed distance, by the one-shot n x n x dim formula."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).sum(axis=1)


def _oracle_medoids(pts: np.ndarray, labels: np.ndarray) -> dict[int, int]:
    """Per class, the first member whose one-shot sum is least."""
    out = {}
    for label in np.unique(labels):
        member_idx = np.flatnonzero(labels == label)
        out[int(label)] = int(member_idx[np.argmin(_one_shot_sums(pts[member_idx]))])
    return out


@st.composite
def labelled_clouds(draw):
    """Integer grids (exact ties) or real points, some rows repeated, axes
    scaled 1e-9 to 1e6 apart, 1-3 dimensions; up to five labels on as few as
    one point, so singleton classes occur."""
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    cells = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    ]))
    pts = draw(hnp.arrays(np.float64, (n, dim), elements=cells))
    if draw(st.booleans()):
        pts = pts[draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))]
    pts = pts * draw(hnp.arrays(np.float64, dim, elements=st.sampled_from([1e-9, 1.0, 1e6])))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)))
    return pts, labels


class TestMedoidSearch:
    @settings(max_examples=300, deadline=None)
    @given(labelled_clouds())
    def test_equals_brute_force_oracle(self, cloud):
        pts, labels = cloud
        assert class_medoid_indices(pts, labels) == _oracle_medoids(pts, labels)

    def test_tie_not_nearest_the_centroid_goes_to_lowest_index(self):
        # Every point between the middle two of an even 1-D set is a medoid:
        # 1 and 2 both sum to 11. The search starts at 2, nearest the centroid
        # 3.25, and must still evaluate and return 1.
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        assert class_medoid_indices(pts, np.zeros(4, dtype=int)) == {0: 1}

    def test_far_from_centroid(self):
        # On a noisy ring the centroid is empty space, far from every member.
        t = np.random.default_rng(4).uniform(0, 2 * np.pi, 500)
        pts = 10 * np.c_[np.cos(t), np.sin(t)] + np.random.default_rng(5).normal(scale=0.01, size=(500, 2))
        labels = np.zeros(500, dtype=int)
        assert class_medoid_indices(pts, labels) == _oracle_medoids(pts, labels)

    def test_evaluates_few_rows(self, monkeypatch):
        rows = []

        def counting(cols, i):
            rows.append(i)
            return _distance_row(cols, i)

        monkeypatch.setattr(devae.evaluation, "_distance_row", counting)
        pts = np.random.default_rng(0).normal(size=(2000, 2))
        labels = np.zeros(2000, dtype=int)
        assert class_medoid_indices(pts, labels) == _oracle_medoids(pts, labels)
        assert len(rows) <= 100  # a full scan evaluates 2000
        assert len(set(rows)) == len(rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_start_is_silent_and_exact(self):
        # x = 1e300 for every point: the centroid's rounding leaves differences
        # near 1e284, whose squares overflow; the distances are those of x = 0.
        y = np.random.default_rng(7).normal(size=(60, 1))
        labels = np.zeros(60, dtype=int)
        flat = class_medoid_indices(np.c_[np.zeros(60), y], labels)
        assert class_medoid_indices(np.c_[np.full(60, 1e300), y], labels) == flat

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pts", [
        # S(-a) = 3a is the least sum, but (2a)^2 overflows in the row of -a
        [[-1.3e154, 0.0]] * 10 + [[0.0, 0.0], [1.3e154, 0.0]],
        [[-1e200, 0.0], [1e200, 0.0], [3e200, 1.0]],  # every row overflows
    ])
    def test_overflowing_distances_name_their_class(self, pts):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]] + pts)
        labels = np.r_[2, 2, np.full(len(pts) - 2, 8)]
        with pytest.raises(DataError, match="^class 8: distances between members overflow float64$"):
            class_medoid_indices(pts, labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_its_class(self, value):
        pts = np.random.default_rng(6).normal(size=(30, 2))
        labels = np.repeat([5, 9], 15)
        pts[20, 1] = value
        with pytest.raises(DataError, match="class 9: point 20 is not finite"):
            class_medoid_indices(pts, labels)


class TestDistanceSums:
    # A singleton, small and large classes; 2-D latents plus one 3-D case.
    @pytest.mark.parametrize("n, dim", [(1, 2), (37, 2), (512, 2), (1500, 2), (700, 3)])
    def test_bit_identical_to_one_shot_formula(self, n, dim):
        pts = np.random.default_rng(n).normal(scale=3.0, size=(n, dim))
        cols = [np.ascontiguousarray(pts[:, j]) for j in range(dim)]
        sums = _one_shot_sums(pts)
        np.testing.assert_array_equal([_distance_row(cols, i).sum() for i in range(n)], sums)
        assert class_medoid_indices(pts, np.zeros(n, dtype=int)) == {0: int(np.argmin(sums))}

    def test_exact_tie_goes_to_lowest_index(self):
        # A centrally symmetric cloud has its medoid at the centre; the
        # centre appears first and again as the last point.
        half = np.random.default_rng(8).uniform(-4, 4, size=(749, 2))
        pts = np.concatenate([[[0.0, 0.0]], half, -half, [[0.0, 0.0]]])
        sums = _one_shot_sums(pts)
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
        latent = GaussianLatent("full", Tensor([[1.0, -2.0]]), Tensor(chol_raw))
        (specs,) = class_ellipses(latent, np.array([3])).values()
        # Semi-axes are k times L's singular values, whose product is det L.
        major = np.linalg.svd(L, compute_uv=False)[0]
        for spec in specs:
            a, b = spec.semi_axes
            assert a == pytest.approx(spec.k * major, rel=1e-12)
            assert a * b == pytest.approx(spec.k**2 * L[0, 0] * L[1, 1], rel=1e-12)

    @pytest.mark.parametrize("head, width", [("isotropic", 1), ("diagonal", 2), ("full", 3)])
    def test_each_class_draws_its_medoid_covariance(self, head, width):
        rng = np.random.default_rng(14)
        n = 300
        latent = GaussianLatent(head, Tensor(rng.standard_normal((n, 2))),
                                Tensor(rng.uniform(-3.0, 3.0, size=(n, width))))
        labels = rng.integers(0, 4, size=n)
        medoids = class_medoid_indices(latent.mu.data, labels)
        ellipses = class_ellipses(latent, labels)
        assert sorted(ellipses) == sorted(medoids) == [0, 1, 2, 3]
        for label, i in medoids.items():
            cov, det = latent.covariance(i)
            assert ellipses[label] == [ellipse_from_cov(latent.mu.data[i], cov, k, det) for k in (1, 2, 3)]

    def test_diagonal_head_variance_ratio_1e17(self):
        # tr = 1 + 1e-17 rounds to 1, so (tr - sqrt(disc)) / 2 is 0; the minor
        # axis comes from the product of the variances.
        log_var = np.log([[1.0, 1e-17], [1.0, 1e-17]])
        latent = GaussianLatent("diagonal", Tensor([[0.0, 0.0], [1.0, 1.0]]), Tensor(log_var))
        (specs,) = class_ellipses(latent, np.array([0, 0])).values()
        for spec in specs:
            assert spec.semi_axes == pytest.approx((spec.k, spec.k * math.sqrt(1e-17)), rel=1e-12)


def _quick_train(bundle, head):
    from devae.trainer import train as _train

    model = DeVae(tiny_config(head=head))
    return _train(model, bundle, TrainSettings(seed=11, max_epochs=4, patience=4))
