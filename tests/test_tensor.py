"""Tensor engine: forward ops, their backward functions, and the finite-difference oracle."""

import os
import sys
import threading
import zlib
from functools import partial

import numpy as np
import pytest

import devae.tensor as T
from conftest import CountingPool, forked_exit_code
from devae import gradsuite
from devae.errors import ContractError, DimensionError
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig, _layer_specs
from devae.tensor import DenseLayer, Tensor, finite_diff_grad, gradient_check


class TestForwardDense:
    def test_identity_layer(self):
        layer = DenseLayer(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]), "identity")
        out = layer(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0, 4.0]])

    def test_relu_clamps_negative_preactivation(self):
        layer = DenseLayer(Tensor([[2.0]]), Tensor([1.0]), "relu")
        out = layer(np.array([[-3.0]]))  # pre-activation -5
        np.testing.assert_array_equal(out, [[0.0]])

    def test_sigmoid_at_zero(self):
        np.testing.assert_array_equal(T._sigmoid_(np.array([[0.0, -0.0]])), [[0.5, 0.5]])

    def test_shape_mismatch_names_both_shapes(self):
        layer = DenseLayer(Tensor(np.ones((4, 3))), Tensor(np.zeros(4)), "relu")
        with pytest.raises(DimensionError) as exc:
            layer(np.ones((2, 5)))
        assert "(2, 5)" in str(exc.value) and "(4, 3)" in str(exc.value)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractError):
            DenseLayer(Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), "tanh")

    def test_sigmoid_is_no_activation(self):
        # The decoder's sigmoid runs only in decode and bce_logits, outside any layer.
        assert T.ACTIVATIONS == ("identity", "relu")
        with pytest.raises(ContractError):
            DenseLayer(Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), "sigmoid")
        with pytest.raises(ContractError):
            T.linear(np.ones((1, 2)), np.ones((2, 2)), np.zeros(2), act="sigmoid")


def _three_exp_sigmoid(z):
    """The sigmoid as first written: both branches evaluated, three exps."""
    data = np.where(
        z >= 0,
        1.0 / (1.0 + np.exp(-np.clip(z, 0.0, None))),
        np.exp(np.clip(z, None, 0.0)) / (1.0 + np.exp(np.clip(z, None, 0.0))),
    )
    return np.clip(data, T._SIGMOID_LO, T._SIGMOID_HI)


def _copysign_sigmoid(z):
    """The blocked kernel as written before: -|z| by ``np.copysign``, the
    numerator as e * neg + ~neg, blocks cut by ``np.split``."""
    for block in np.split(z.reshape(-1), range(T.CACHE_BLOCK, z.size, T.CACHE_BLOCK)):
        neg = block < 0.0
        np.copysign(block, -1.0, out=block)
        np.exp(block, out=block)
        denom = block + 1.0
        block *= neg
        block += ~neg
        block /= denom
        np.clip(block, T._SIGMOID_LO, T._SIGMOID_HI, out=block)
    return z


_TINY = np.finfo(np.float64).tiny
SIGMOID_GRID = np.array([
    745.0, -745.0, 36.7, -36.7, 0.0, -0.0, np.inf, -np.inf,
    5e-324, -5e-324, _TINY, -_TINY, 709.0, -709.0, 37.0, -37.0, 1.0, -1.0,
])


def relu(a):
    """The unfused relu op, the reference for linear(..., act="relu")."""
    return np.maximum(a, 0.0)


def relu_backward(g, out):
    return g * (out > 0.0)


def sigmoid(a):
    """``_sigmoid_`` as an op of its own, its derivative read off the output."""
    return T._sigmoid_(a.copy())


def sigmoid_backward(g, out):
    return g * out * (1.0 - out)


def _dense_grads(g, x, w, out, act):
    """The input, weight and bias gradients of a dense layer for an output gradient ``g``."""
    gw, gb = np.empty_like(w), np.empty(w.shape[0])
    return T.linear_backward(g, x, w, out, act, gw, gb), gw, gb


class TestSigmoid:
    @pytest.mark.parametrize("scale", [0.0, 6.0, 40.0])
    def test_bit_identical_to_three_exp_formula(self, scale):
        rng = np.random.default_rng(int(scale))
        z = SIGMOID_GRID if scale == 0.0 else rng.normal(0.0, scale, size=(64, 784))
        got = T._sigmoid_(z.copy())
        assert got.tobytes() == _three_exp_sigmoid(z).tobytes()

    def test_blocks_match_one_shot_formula(self):
        # 97 x 1021 elements: three full blocks and a ragged fourth, which
        # holds the grid's extremes.
        z = np.random.default_rng(9).normal(0.0, 20.0, size=(97, 1021))
        assert 3 * T.CACHE_BLOCK < z.size < 4 * T.CACHE_BLOCK
        z[-1, -SIGMOID_GRID.size :] = SIGMOID_GRID
        for shape in (z.shape, (z.size,)):
            got = T._sigmoid_(z.copy().reshape(shape))
            assert got.shape == shape
            assert got.tobytes() == _three_exp_sigmoid(z).tobytes()

    def test_bit_identical_to_the_copysign_kernel(self):
        # NaN of either sign, infinities, signed zeros and subnormals, in
        # the last of three blocks and a ragged fourth.
        edges = np.concatenate([SIGMOID_GRID, [np.nan, -np.nan, 1e-310, -1e-310, 1e308, -1e308]])
        z = np.random.default_rng(10).normal(0.0, 20.0, size=3 * T.CACHE_BLOCK + 100)
        z[2 * T.CACHE_BLOCK - 5 : 2 * T.CACHE_BLOCK - 5 + edges.size] = edges
        z[-edges.size :] = edges
        assert T._sigmoid_(z.copy()).tobytes() == _copysign_sigmoid(z.copy()).tobytes()
        # bce_logits' forward forms -|z| the same way; an infinite logit
        # would make its loss NaN through inf - inf.
        for logits in (edges[np.abs(edges) < 1e300], np.array([np.nan, 2.0])):
            logits = np.tile(logits, (4, 1))
            x = np.random.default_rng(11).uniform(0.0, 1.0, size=logits.shape)
            loss = np.maximum(logits, 0.0) - logits * x + np.log1p(np.exp(np.copysign(logits, -1.0)))
            assert np.float64(T.bce_logits(x, logits)).tobytes() == np.float64(loss.sum() / 4).tobytes()

    def test_nan_stays_nan(self):
        out = T._sigmoid_(np.array([np.nan, 0.0]))
        assert np.isnan(out[0]) and out[1] == 0.5

    def test_input_not_modified(self):
        # The fused epilogue runs in place on the product and bce_logits'
        # backward sigmoid on a copy, never on an input.
        rng = np.random.default_rng(1)
        values = [rng.normal(0.0, 6.0, size=shape) for shape in ((5, 7), (3, 7), (3,))]
        x, w, b = (v.copy() for v in values)
        logits = T.linear(x, w, b, act="relu")
        target = rng.uniform(0.0, 1.0, size=(5, 3))
        values += [logits.copy(), target.copy()]
        T.bce_logits(target, logits)
        _dense_grads(T.bce_logits_backward(target, logits, 1.0), x, w, logits, "relu")
        for t, v in zip((x, w, b, logits, target), values):
            assert t.tobytes() == v.tobytes()


class TestFusedLinear:
    @pytest.mark.parametrize("act, unfused, unfused_backward", [pytest.param("relu", relu, relu_backward, id="relu-relu")])
    def test_values_and_gradients_match_composed_ops_bit_for_bit(self, act, unfused, unfused_backward):
        # 70 rows of width 784 span two epilogue blocks, the second ragged.
        rng = np.random.default_rng(12)
        x = rng.normal(0.0, 3.0, size=(70, 50))
        w = rng.normal(0.0, 1.0, size=(784, 50))
        b = rng.normal(0.0, 1.0, size=784)
        x[0], b[:5] = 0.0, 0.0  # exact zero pre-activations
        probe = rng.uniform(-1.0, 1.0, size=(70, 784))

        fused = T.linear(x, w, b, act=act)
        pre = T.linear(x, w, b)
        composed = unfused(pre)
        assert fused.tobytes() == composed.tobytes()
        g_fused = _dense_grads(T.squared_error_backward(probe, fused, 1.0), x, w, fused, act)
        g_composed = _dense_grads(unfused_backward(T.squared_error_backward(probe, composed, 1.0), composed),
                                  x, w, pre, "identity")
        for a, c in zip(g_fused, g_composed):
            assert a.tobytes() == c.tobytes()

    def test_act_is_keyword_only_and_checked(self):
        x, w, b = np.ones((1, 2)), np.ones((3, 2)), np.zeros(3)
        with pytest.raises(TypeError):
            T.linear(x, w, b, "relu")
        with pytest.raises(ContractError):
            T.linear(x, w, b, act="tanh")
        with pytest.raises(DimensionError):
            T.linear(x, w, np.zeros(2))

    def test_backward_writes_into_the_given_arrays(self):
        # The weight and bias gradients land in views of one vector, as in
        # DeVae.grad, with the bytes of freshly allocated ones.
        rng = np.random.default_rng(14)
        x, w, b, g = rng.random((9, 5)), rng.standard_normal((4, 5)), rng.standard_normal(4), rng.standard_normal((9, 4))
        out = T.linear(x, w, b, act="relu")
        vector = np.full(1 + w.size + b.size, np.nan)
        gw, gb = vector[1 : 1 + w.size].reshape(w.shape), vector[1 + w.size :]
        dx = T.linear_backward(g, x, w, out, "relu", gw, gb)
        masked = g * (out > 0.0)
        assert dx.tobytes() == (masked @ w).tobytes()
        assert gw.tobytes() == (masked.T @ x).tobytes() and gb.tobytes() == masked.sum(axis=0).tobytes()
        assert np.isnan(vector[0])
        assert T.linear_backward(g, x, w, out, "relu", gw, gb, need_dx=False) is None


class TestSquaredError:
    def test_value_and_gradients_match_the_numpy_chain_bit_for_bit(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(0.0, 3.0, size=(64, 2)), rng.normal(0.0, 3.0, size=(64, 2))
        d = a - b
        grad_a = (20.0 * (1.0 / 64)) * 2.0 * d  # a loss weight, as in the objective
        assert np.float64(T.squared_error(b, a)).tobytes() == np.float64((d * d).sum() * (1.0 / 64)).tobytes()
        assert T.squared_error_backward(b, a, 20.0).tobytes() == grad_a.tobytes()


# (out, in) of every dense layer of the default 784-d model.
PIXEL_LAYERS = sorted({(o, i) for _, o, i, _ in _layer_specs(ModelConfig(784, LossWeights(20.0, 5.0)))})


def _linear_products(rng, batch, out_dim, in_dim):
    """(a, b) of the forward ``x @ W.T`` and the backward ``g @ W`` and ``g.T @ x`` of one layer."""
    x, w, g = rng.random((batch, in_dim)), rng.standard_normal((out_dim, in_dim)), rng.standard_normal((batch, out_dim))
    return {"forward": (x, w.T), "dx": (g, w), "dW": (g.T, x)}


def _linear_run(x, w, b):
    """A relu layer's output and its three gradients under a fixed probe."""
    out = T.linear(x, w, b, act="relu")
    probe = np.random.default_rng(1).standard_normal(out.shape)
    return (out, *_dense_grads(T.squared_error_backward(probe, out, 1.0), x, w, out, "relu"))


class TestLanes:
    @pytest.mark.parametrize("workers, n, parts, grain, want", [
        (2, 64, 3, 8, [(0, 32), (32, 64)]),  # a batch-64 step's 784-wide product
        (4, 64, 3, 8, [(0, 16), (16, 40), (40, 64)]),
        (3, 3616, 226, 8, [(0, 1200), (1200, 2408), (2408, 3616)]),  # the last chunk of 20000 rows
        (4, 20, 4, 8, [(0, 8), (8, 16), (16, 20)]),  # at most one range per started grain
        (2, 100000, 100000, 1 << 15, [(0, 65536), (65536, 100000)]),  # Adam's runs of blocks
        (4, 100000, 100000, 1 << 15, [(0, 32768), (32768, 65536), (65536, 98304), (98304, 100000)]),
        (4, 40000, 1, 1 << 15, [(0, 40000)]),  # a sigmoid of one whole block and a ragged one
        (4, 3, 3, 1, [(0, 1), (1, 2), (2, 3)]),  # one-row products, one range per row
        (1, 10, 10, 1, [(0, 10)]),
        (2, 5, 0, 1, [(0, 5)]),
        (4, 0, 0, 8, [(0, 0)]),
        (4, 0, 5, 1, [(0, 0)]),
    ])
    def test_table(self, monkeypatch, workers, n, parts, grain, want):
        monkeypatch.setattr(T, "WORKERS", workers)
        assert T.lanes(n, parts, grain) == want

    @pytest.mark.parametrize("grain", [1, 2, 8])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_balanced_ranges_cover_every_index_once(self, monkeypatch, workers, grain):
        monkeypatch.setattr(T, "WORKERS", workers)
        for n in range(70):
            grains = -(-n // grain)
            for parts in range(7):
                got = T.lanes(n, parts, grain)
                assert len(got) == max(1, min(workers, parts, grains)), (n, parts)
                assert got[0][0] == 0 and got[-1][1] == n and all(a[1] == b[0] for a, b in zip(got, got[1:]))
                assert all(hi % grain == 0 for _, hi in got[:-1]), (n, parts)
                counts = [-(-(hi - lo) // grain) for lo, hi in got]
                assert max(counts) - min(counts) <= 1, (n, parts, got)


@pytest.mark.skipif(not T.BLAS_PINNED, reason="no BLAS thread setter found: products are never split")
class TestSplitProducts:
    @pytest.mark.parametrize("each", [False, True], ids=["blocks", "each"])
    @pytest.mark.parametrize("batch", [37, 64, 500, 3616, 4096])
    @pytest.mark.parametrize("out_dim, in_dim", PIXEL_LAYERS)
    def test_row_split_is_bit_identical(self, monkeypatch, batch, out_dim, in_dim, each):
        # 3616 rows is the last INFER_CHUNK of 20000. Lanes of down to an
        # eighth of LANE_MADDS are cut here, so the batches of 37 and 64 rows
        # are split too, with a margin below the floor; never below 2^20,
        # where blocks would reach OpenBLAS's small-matrix kernel. With
        # ``each``, linear's one-row mode: row i is linear of row i alone.
        monkeypatch.setattr(T, "LANE_MADDS", max(T.LANE_MADDS // 8, 1 << 20))
        rng = np.random.default_rng(batch + out_dim + in_dim)
        products = _linear_products(rng, batch, out_dim, in_dim)
        if each:
            x, w, bias = products["forward"][0], products["forward"][1].T, rng.standard_normal(out_dim)
            alone = np.vstack([T.linear(x[i : i + 1], w, bias, act="relu") for i in range(batch)])
            runs = {"each": (partial(T.linear, x, w, bias, act="relu", each=True), alone.tobytes())}
        else:
            runs = {name: (partial(T._matmul, a, b), (a @ b).tobytes()) for name, (a, b) in products.items()}
        for name, (run, want) in runs.items():
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(T, "WORKERS", workers)
                assert run().tobytes() == want, (name, workers)

    def test_linear_bytes_equal_at_one_and_two_workers(self, monkeypatch):
        rng = np.random.default_rng(3)
        x, w, b = rng.random((256, 784)), rng.standard_normal((512, 784)), rng.standard_normal(512)
        assert 256 * 784 * 512 >= 2 * T.LANE_MADDS
        monkeypatch.setattr(T, "WORKERS", 1)
        one = _linear_run(x, w, b)
        pool = CountingPool(T._pool)
        monkeypatch.setattr(T, "WORKERS", 2)
        monkeypatch.setattr(T, "_pool", pool)
        two = _linear_run(x, w, b)
        assert pool.submitted == 3  # the forward product, dx and dW
        for a, b in zip(one, two):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [3616, 4096])
    def test_model_inference_bytes_equal_at_one_to_four_workers(self, monkeypatch, rows):
        # 3616 rows is the last INFER_CHUNK of 20000, 4096 a whole one.
        model = DeVae(ModelConfig(784, LossWeights(20.0, 5.0), head="full", recon_kind="bce"))
        rng = np.random.default_rng(rows)
        X = ((rng.random((rows, 784)) < 0.2) * rng.integers(0, 256, (rows, 784))).astype(np.uint8)
        Z = rng.normal(0.0, 3.0, size=(rows, 2))
        runs = []
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(T, "WORKERS", workers)
            latent = model.encode_rows(X)
            pool = CountingPool(T._pool)
            monkeypatch.setattr(T, "_pool", pool)
            out = model.decode(Z)
            monkeypatch.setattr(T, "_pool", pool.pool)
            # dec1's and the output layer's products, and the sigmoid
            assert pool.submitted == 3 * (workers - 1)
            runs.append((latent.mu.data.tobytes(), latent.params.data.tobytes(), out.data.tobytes()))
        assert runs[1:] == runs[:1] * 3

    @pytest.mark.parametrize("workers, lanes", [(2, 2), (4, 3)])
    def test_batch_64_products_split_by_the_lane_floor(self, monkeypatch, workers, lanes):
        # In a batch-64 step the 25.7M products of a 784<->512 layer reach
        # the pool and the 4.2M ones of a 512<->128 layer stay whole.
        assert 64 * 784 * 512 >= 3 * T.LANE_MADDS and 64 * 512 * 128 < T.LANE_MADDS
        pool = CountingPool(T._pool)
        monkeypatch.setattr(T, "WORKERS", workers)
        monkeypatch.setattr(T, "_pool", pool)
        rng = np.random.default_rng(4)
        _linear_run(rng.random((64, 512)), rng.standard_normal((128, 512)), rng.standard_normal(128))
        assert pool.submitted == 0
        _linear_run(rng.random((64, 784)), rng.standard_normal((512, 784)), rng.standard_normal(512))
        assert pool.submitted == 3 * (lanes - 1)  # the forward product, dx and dW

    @pytest.mark.parametrize("floor", [1, 1 << 20])
    def test_no_block_has_one_row(self, monkeypatch, floor):
        # A 1-row block rounds differently from the 3-row product, so three
        # rows stay whole at any floor and worker count.
        monkeypatch.setattr(T, "LANE_MADDS", floor)
        rng = np.random.default_rng(7)
        a, b = rng.random((3, 784)), rng.standard_normal((784, 512))
        whole = (a @ b).tobytes()
        for workers in (2, 3, 4):
            monkeypatch.setattr(T, "WORKERS", workers)
            assert T._matmul(a, b).tobytes() == whole, workers

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # More splitting threads than cores, switching often: every caller
        # must get its own product whole, each row block written once.
        monkeypatch.setattr(T, "WORKERS", 4)
        rng = np.random.default_rng(6)
        pairs = [(rng.random((128, 784)), rng.standard_normal((784, 704))) for _ in range(4)]
        wholes = [a @ b for a, b in pairs]
        results = {}

        def caller(k):
            a, b = pairs[k]
            results[k] = all(np.array_equal(T._matmul(a, b), wholes[k]) for _ in range(5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(pairs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == dict.fromkeys(range(len(pairs)), True)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_split_product(self, monkeypatch):
        monkeypatch.setattr(T, "WORKERS", 2)
        rng = np.random.default_rng(5)
        a, b = rng.random((256, 784)), rng.standard_normal((784, 512))
        whole = a @ b
        assert np.array_equal(T._matmul(a, b), whole)  # the parent's pool now has a thread
        code = forked_exit_code(lambda: np.array_equal(T._matmul(a, b), whole))
        assert code is not None, "the forked child's split product did not finish within 30 s"
        assert code == 0


class TestBackward:
    def test_linear_derivative(self):
        # d/dw (w x + b - 0)^2 = 2 (w x + b) x = 2 * 7 * 3
        x, w, b = np.array([[3.0]]), np.array([[2.0]]), np.array([1.0])
        out = T.linear(x, w, b)
        _, gw, _ = _dense_grads(T.squared_error_backward(np.array([[0.0]]), out, 1.0), x, w, out, "identity")
        np.testing.assert_array_equal(gw, [[42.0]])

    def test_bce_logits_derivative_at_zero(self):
        # (sigmoid(0) - x) / batch for targets 0 and 1 over a batch of 2.
        grad = T.bce_logits_backward(np.array([[0.0], [1.0]]), np.zeros((2, 1)), 1.0)
        np.testing.assert_array_equal(grad, [[0.25], [-0.25]])

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        l1 = DenseLayer(Tensor(rng.uniform(-1, 1, size=(5, 4))), Tensor(rng.uniform(-1, 1, size=5)), "relu")
        l2 = DenseLayer(Tensor(rng.uniform(-1, 1, size=(3, 5))), Tensor(rng.uniform(-1, 1, size=3)), "identity")
        x = rng.uniform(-2, 2, size=(4, 4))
        target = rng.uniform(0, 1, size=(4, 3))

        def grads():
            h = l1(x)
            out = l2(h)
            dh, gw2, gb2 = _dense_grads(T.bce_logits_backward(target, out, 1.0), h, l2.weight.data, out, "identity")
            _, gw1, gb1 = _dense_grads(dh, x, l1.weight.data, h, "relu")
            return [gw1, gb1, gw2, gb2]

        params = [l1.weight.data, l1.bias.data, l2.weight.data, l2.bias.data]
        assert gradient_check(lambda: T.bce_logits(target, l2(l1(x))), grads, params) < 1e-4


class TestFiniteDiff:
    def test_square_slope(self):
        p = np.array([3.0])
        grad = finite_diff_grad(lambda: float(p[0]) ** 2, [p])[0]
        np.testing.assert_allclose(grad, [6.0], rtol=0, atol=1e-8)

    def test_exp_slope_at_zero(self):
        p = np.array([0.0])
        grad = finite_diff_grad(lambda: float(np.exp(p[0])), [p])[0]
        np.testing.assert_allclose(grad, [1.0], rtol=0, atol=1e-9)

    def test_restores_parameter_values(self):
        p = np.array([1.0, 2.0])
        before = p.copy()
        finite_diff_grad(lambda: float(p.sum()), [p])
        np.testing.assert_array_equal(p, before)


def _op_cases(rng):
    """The gradient suite's op cases, plus the unfused activations the fused
    layer is compared against."""
    cases = gradsuite._op_cases(rng)
    (a,) = next(params for name, _, _, params in cases if name == "squared_error")
    target = rng.uniform(-1, 1, size=(2, 3))

    def unfused(name, fn, fn_backward):
        grads = lambda: [fn_backward(T.squared_error_backward(target, fn(a), 1.0), fn(a))]  # noqa: E731
        return (name, lambda: T.squared_error(target, fn(a)), grads, [a])

    return cases + [unfused("relu", relu, relu_backward), unfused("sigmoid", sigmoid, sigmoid_backward)]


OP_NAMES = [case[0] for case in _op_cases(np.random.default_rng(0))]


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_op_gradients_match_finite_differences(op_name):
    """Analytic vs central-difference gradients, randomized trials per op.

    10 ops x 8 trials = 80 randomized checks across the suite, seeded the
    same in every process.
    """
    for trial in range(8):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()) + trial)
        for name, loss, grads, params in _op_cases(rng):
            if name != op_name:
                continue
            err = gradient_check(loss, grads, params)
            assert err < 1e-4, f"{name} trial {trial}: rel err {err}"


class TestDeterminism:
    def test_fixed_forward_is_bitwise_stable(self):
        rng = np.random.default_rng(5)
        layer = DenseLayer(Tensor(rng.uniform(-1, 1, size=(8, 6))), Tensor(rng.uniform(-1, 1, size=8)), "relu")
        x = rng.uniform(-2, 2, size=(5, 6))
        first = layer(x)
        for _ in range(3):
            np.testing.assert_array_equal(layer(x), first)

    def test_invariants_after_ops(self):
        a, x = np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]])
        assert np.isfinite(T.bce_logits(x, a))
        assert T.bce_logits_backward(x, a, 1.0).shape == a.shape
