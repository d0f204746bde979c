"""Entropy closed forms, reparameterized sampling, and ellipse geometry."""

import math

import numpy as np
import pytest

from conftest import mc_entropy, random_latent
from devae.errors import ContractError, GeometryError
from devae.gaussian import (
    EllipseSpec,
    GaussianLatent,
    ellipse_from_cov,
    entropy_diagonal,
    entropy_full,
    entropy_isotropic,
)
from devae.tensor import Tensor, gradient_check
import devae.tensor as T

UNIT_H2 = 1.0 + math.log(2.0 * math.pi)  # entropy of N(0, I) in 2-D: 2.8378771


class TestEntropyValues:
    def test_isotropic_unit_variance(self):
        assert entropy_isotropic(2, Tensor(0.0)).item() == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_isotropic_variance_e(self):
        # Closed form; cross-checked against the Monte-Carlo oracle below.
        assert entropy_isotropic(2, Tensor(1.0)).item() == pytest.approx(3.8378770664093453, abs=1e-12)

    def test_isotropic_one_dimension(self):
        assert entropy_isotropic(1, Tensor(0.0)).item() == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_diagonal_unit_matches_isotropic(self):
        d = entropy_diagonal(Tensor([[0.0, 0.0]])).item()
        assert d == pytest.approx(entropy_isotropic(2, Tensor(0.0)).item(), abs=1e-12)
        assert d == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_diagonal_one_four(self):
        got = entropy_diagonal(Tensor([[0.0, math.log(4.0)]])).item()
        assert got == pytest.approx(UNIT_H2 + 0.5 * math.log(4.0), abs=1e-12)
        assert got == pytest.approx(3.5310242469692906, abs=1e-12)

    def test_diagonal_equal_variances_reduce_to_isotropic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0)
            d = entropy_diagonal(Tensor([[c, c]])).item()
            assert d == pytest.approx(entropy_isotropic(2, Tensor(c)).item(), abs=1e-12)

    def test_full_identity(self):
        assert entropy_full(Tensor([[1.0, 1.0]])).item() == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_full_log_det_example(self):
        # L = [[2,0],[1,1]]: entropy equals the diagonal (1,4) case since
        # both covariances have determinant 4.
        got = entropy_full(Tensor([[2.0, 1.0]])).item()
        assert got == pytest.approx(2.8378770664093453 + math.log(2.0), abs=1e-12)
        assert got == pytest.approx(entropy_diagonal(Tensor([[0.0, math.log(4.0)]])).item(), abs=1e-12)

    def test_full_ignores_off_diagonal(self):
        lat_a = GaussianLatent("full", Tensor([[0.0, 0.0]]), chol_raw=Tensor([[5.0, 0.0, 0.0]]))
        lat_b = GaussianLatent("full", Tensor([[0.0, 0.0]]), chol_raw=Tensor([[0.0, 0.0, 0.0]]))
        assert lat_a.entropy().item() == pytest.approx(lat_b.entropy().item(), abs=1e-15)
        assert lat_a.entropy().item() == pytest.approx(2.8378770664093453, abs=1e-12)

    def test_full_guards_nonpositive_diagonal(self):
        with pytest.raises(ContractError):
            entropy_full(Tensor([[1.0, -1.0]]))


class TestEntropyProperties:
    def test_family_consistency_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lv = rng.uniform(-2.0, 2.0)
            iso = entropy_isotropic(2, Tensor(lv)).item()
            diag = entropy_diagonal(Tensor([[lv, lv]])).item()
            # L = diag(sigma): raw diagonal entries are log(sigma) = lv / 2
            full = entropy_full(Tensor([[math.exp(0.5 * lv), math.exp(0.5 * lv)]])).item()
            assert abs(iso - diag) < 1e-9
            assert abs(iso - full) < 1e-9

    def test_monotone_in_each_log_variance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lv = rng.uniform(-2.0, 2.0, size=2)
            base = entropy_diagonal(Tensor(lv[None, :])).item()
            for i in range(2):
                bumped = lv.copy()
                bumped[i] += 0.1
                assert entropy_diagonal(Tensor(bumped[None, :])).item() > base
            iso = entropy_isotropic(2, Tensor(lv[0])).item()
            assert entropy_isotropic(2, Tensor(lv[0] + 0.1)).item() > iso

    def test_entropy_ignores_mu(self):
        rng = np.random.default_rng(3)
        for head in ("isotropic", "diagonal", "full"):
            lat = random_latent(head, rng)
            moved = GaussianLatent(
                head,
                Tensor(lat.mu.data + 100.0),
                log_var=None if lat.log_var is None else Tensor(lat.log_var.data.copy()),
                chol_raw=None if lat.chol_raw is None else Tensor(lat.chol_raw.data.copy()),
            )
            assert lat.entropy().item() == moved.entropy().item()

    def test_entropy_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        lv1 = Tensor(rng.uniform(-2, 2, size=(3, 1)), requires_grad=True)
        lv2 = Tensor(rng.uniform(-2, 2, size=(3, 2)), requires_grad=True)
        diag = Tensor(rng.uniform(0.2, 2.0, size=(3, 2)), requires_grad=True)
        assert gradient_check(lambda: T.tsum(entropy_isotropic(2, lv1)), [lv1], floor=1e-8) < 1e-6
        assert gradient_check(lambda: T.tsum(entropy_diagonal(lv2)), [lv2], floor=1e-8) < 1e-6
        assert gradient_check(lambda: T.tsum(entropy_full(diag)), [diag], floor=1e-8) < 1e-6

    @pytest.mark.parametrize("head", ["isotropic", "diagonal"])
    def test_monte_carlo_oracle_agreement(self, head):
        # Closed form vs -E[ln p(z)] over 10^6 reparameterized draws.
        rng = np.random.default_rng(5)
        lat = random_latent(head, rng)
        closed = lat.entropy().item()
        estimate = mc_entropy(lat, 0, 1_000_000, seed=6)
        assert abs(estimate - closed) / abs(closed) < 0.01


class TestSampling:
    @pytest.mark.parametrize("head", ["none", "isotropic", "diagonal", "full"])
    def test_zero_noise_returns_mu(self, head):
        lat = random_latent(head, np.random.default_rng(7))
        z = lat.sample(Tensor(np.zeros((1, 2))))
        np.testing.assert_array_equal(z.data, lat.mu.data)

    def test_full_hand_example(self):
        # L = [[2,0],[1,1]], eps = (1,1): z = (2, 2)
        lat = GaussianLatent(
            "full", Tensor([[0.0, 0.0]]), chol_raw=Tensor([[1.0, math.log(2.0), 0.0]])
        )
        z = lat.sample(Tensor([[1.0, 1.0]]))
        np.testing.assert_allclose(z.data, [[2.0, 2.0]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    def test_full_sample_records_at_most_five_nodes(self, monkeypatch, q):
        rng = np.random.default_rng(q)
        mu = Tensor(rng.standard_normal((4, q)), requires_grad=True)
        raw = Tensor(rng.uniform(-1, 1, size=(4, q * (q + 1) // 2)), requires_grad=True)
        lat = GaussianLatent("full", mu, chol_raw=raw)
        nodes = []
        record = T._node

        def counting_node(*args):
            nodes.append(record(*args))
            return nodes[-1]

        monkeypatch.setattr(T, "_node", counting_node)
        z = lat.sample(rng.standard_normal((4, q)))
        assert len(nodes) <= 5 and nodes[-1] is z
        T.tsum(z).backward()
        assert mu.grad is not None and raw.grad is not None

    def test_full_sample_is_mu_plus_l_eps(self):
        rng = np.random.default_rng(12)
        lat = random_latent("full", rng, q=4)
        eps = rng.standard_normal((1, 4))
        z = lat.sample(Tensor(eps)).data
        np.testing.assert_allclose(z[0], lat.mu.data[0] + lat.chol_matrix(0) @ eps[0], rtol=1e-13)

    def test_isotropic_componentwise_affine(self):
        lat = GaussianLatent("isotropic", Tensor([[1.0, 1.0]]), log_var=Tensor([[math.log(9.0)]]))
        z = lat.sample(Tensor([[1.0, -1.0]]))
        np.testing.assert_allclose(z.data, [[4.0, -2.0]], rtol=0, atol=1e-12)

    def test_eps_shape_checked(self):
        lat = random_latent("diagonal", np.random.default_rng(8))
        with pytest.raises(ContractError):
            lat.sample(Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
    def test_moments_match_covariance(self, head):
        """10^6 draws reproduce mean and covariance.

        The 1% covariance tolerance is taken relative to each entry's
        natural scale sqrt(S_ii * S_jj) (plus a 1e-3 floor): a plain
        relative bound is ill-posed for exactly-zero off-diagonals whose
        sampling noise scales with the marginal spreads.
        """
        n = 1_000_000
        rng = np.random.default_rng(9)
        lat = random_latent(head, rng)
        mu = np.tile(lat.mu.data[0], (n, 1))
        big = GaussianLatent(
            head,
            Tensor(mu),
            log_var=None if lat.log_var is None else Tensor(np.tile(lat.log_var.data[0], (n, 1))),
            chol_raw=None if lat.chol_raw is None else Tensor(np.tile(lat.chol_raw.data[0], (n, 1))),
        )
        z = big.sample(Tensor(rng.standard_normal((n, 2)))).data
        cov_true = lat.covariance_matrix(0)
        sigma_max = math.sqrt(cov_true.diagonal().max())
        assert np.all(np.abs(z.mean(axis=0) - lat.mu.data[0]) < 5.0 * sigma_max / math.sqrt(n))
        cov_emp = np.cov(z.T)
        scale = np.sqrt(np.outer(cov_true.diagonal(), cov_true.diagonal()))
        tol = 0.01 * scale + 1e-3
        assert np.all(np.abs(cov_emp - cov_true) <= tol)


class TestCovarianceMatrix:
    def test_isotropic(self):
        lat = GaussianLatent("isotropic", Tensor([[0.0, 0.0]]), log_var=Tensor([[math.log(4.0)]]))
        np.testing.assert_allclose(lat.covariance_matrix(0), [[4.0, 0.0], [0.0, 4.0]], atol=1e-14)

    def test_diagonal(self):
        lat = GaussianLatent(
            "diagonal", Tensor([[0.0, 0.0]]), log_var=Tensor([[0.0, math.log(9.0)]])
        )
        np.testing.assert_allclose(lat.covariance_matrix(0), [[1.0, 0.0], [0.0, 9.0]], atol=1e-14)

    def test_full_llt(self):
        lat = GaussianLatent(
            "full", Tensor([[0.0, 0.0]]), chol_raw=Tensor([[1.0, math.log(2.0), 0.0]])
        )
        np.testing.assert_allclose(lat.covariance_matrix(0), [[4.0, 2.0], [2.0, 2.0]], atol=1e-14)

    def test_none_head_unsupported(self):
        lat = GaussianLatent("none", Tensor([[0.0, 0.0]]))
        with pytest.raises(ContractError):
            lat.covariance_matrix(0)
        with pytest.raises(ContractError):
            lat.covariance_matrices([0])

    @pytest.mark.parametrize("head", ["isotropic", "diagonal", "full"])
    def test_batch_matches_each_sample(self, head):
        rng = np.random.default_rng(13)
        parts = [random_latent(head, rng, q=3) for _ in range(6)]

        def stacked(block):
            blocks = [getattr(p, block) for p in parts]
            return None if blocks[0] is None else Tensor(np.concatenate([b.data for b in blocks]))

        lat = GaussianLatent(head, stacked("mu"), log_var=stacked("log_var"), chol_raw=stacked("chol_raw"))
        rows = [4, 0, 4, 2]
        covs = lat.covariance_matrices(rows)
        assert covs.shape == (4, 3, 3)
        for cov, i in zip(covs, rows):
            np.testing.assert_array_equal(cov, parts[i].covariance_matrix(0))
            np.testing.assert_array_equal(cov, cov.T)

    def test_exactly_one_param_block(self):
        mu = Tensor([[0.0, 0.0]])
        with pytest.raises(ContractError):
            GaussianLatent("isotropic", mu, chol_raw=Tensor([[1.0, 0.0, 0.0]]))
        with pytest.raises(ContractError):
            GaussianLatent("none", mu, log_var=Tensor([[0.0]]))
        with pytest.raises(ContractError):
            GaussianLatent("full", mu, log_var=Tensor([[0.0]]))


class TestEllipse:
    def test_axis_aligned(self):
        spec = ellipse_from_cov((0.0, 0.0), np.diag([4.0, 1.0]), 2, 4.0)
        assert spec.semi_axes == pytest.approx((4.0, 2.0), abs=1e-12)
        assert spec.rotation == 0.0

    def test_degenerate_circle_tie_break(self):
        spec = ellipse_from_cov((1.0, -1.0), np.eye(2), 3, 1.0)
        assert spec.semi_axes == pytest.approx((3.0, 3.0), abs=1e-12)
        assert spec.rotation == 0.0

    def test_general_closed_form(self):
        spec = ellipse_from_cov((0.0, 0.0), [[4.0, 2.0], [2.0, 2.0]], 1, 4.0)
        assert spec.semi_axes[0] == pytest.approx(math.sqrt(3.0 + math.sqrt(5.0)), abs=1e-12)
        assert spec.semi_axes[1] == pytest.approx(math.sqrt(3.0 - math.sqrt(5.0)), abs=1e-12)
        assert spec.rotation == pytest.approx(0.5535743588970452, abs=1e-12)

    def test_boundary_points_satisfy_quadratic(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(-0.9, 0.9) * a
            d = rng.uniform(0.5, 3.0)
            cov = np.array([[a * a, a * b], [a * b, b * b + d * d]])  # SPD by construction
            center = rng.uniform(-5, 5, size=2)
            k = int(rng.integers(1, 4))
            spec = ellipse_from_cov(center, cov, k, (a * d) ** 2)
            pts = spec.boundary_points(64)
            diff = pts - center
            quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
            np.testing.assert_allclose(quad, k * k, rtol=0, atol=1e-6)

    def test_rejects_non_spd(self):
        with pytest.raises(GeometryError):
            ellipse_from_cov((0, 0), [[1.0, 2.0], [2.0, 1.0]], 1, -3.0)  # det < 0
        with pytest.raises(GeometryError):
            ellipse_from_cov((0, 0), [[1.0, 0.5], [0.0, 1.0]], 1, 1.0)  # asymmetric

    def test_spec_invariants(self):
        with pytest.raises(GeometryError):
            EllipseSpec(center=(0, 0), semi_axes=(1.0, 2.0), rotation=0.0, k=1)
        with pytest.raises(GeometryError):
            EllipseSpec(center=(0, 0), semi_axes=(2.0, 1.0), rotation=3.0, k=1)
        with pytest.raises(GeometryError):
            EllipseSpec(center=(0, 0), semi_axes=(2.0, 1.0), rotation=0.0, k=4)

    def test_rotation_always_in_halfopen_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            L = np.tril(rng.uniform(-1.5, 1.5, size=(2, 2)))
            L[0, 0] = abs(L[0, 0]) + 0.2
            L[1, 1] = abs(L[1, 1]) + 0.2
            spec = ellipse_from_cov((0, 0), L @ L.T, 1, (L[0, 0] * L[1, 1]) ** 2)
            assert -math.pi / 2 < spec.rotation <= math.pi / 2
            assert spec.semi_axes[0] >= spec.semi_axes[1] > 0
