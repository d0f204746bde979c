"""Tensor engine: forward ops, the tape, and the finite-difference oracle."""

import os
import sys
import threading
import zlib

import numpy as np
import pytest

import devae.tensor as T
from conftest import CountingPool, blob_bundle, forked_exit_code, tiny_config
from devae import gradsuite
from devae.errors import ContractError, DimensionError
from devae.losses import LossWeights
from devae.model import DeVae, ModelConfig, _layer_specs, forward_train
from devae.tensor import DenseLayer, Tensor, finite_diff_grad, gradient_check, no_grad


class TestForwardDense:
    def test_identity_layer(self):
        layer = DenseLayer(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]), "identity")
        out = layer(Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_relu_clamps_negative_preactivation(self):
        layer = DenseLayer(Tensor([[2.0]]), Tensor([1.0]), "relu")
        out = layer(Tensor([[-3.0]]))  # pre-activation -5
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_sigmoid_at_zero(self):
        np.testing.assert_array_equal(T._sigmoid_(np.array([[0.0, -0.0]])), [[0.5, 0.5]])

    def test_shape_mismatch_names_both_shapes(self):
        layer = DenseLayer(Tensor(np.ones((4, 3))), Tensor(np.zeros(4)), "relu")
        with pytest.raises(DimensionError) as exc:
            layer(Tensor(np.ones((2, 5))))
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
            T.linear(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), act="sigmoid")


def _three_exp_sigmoid(z):
    """The sigmoid as first written: both branches evaluated, three exps."""
    data = np.where(
        z >= 0,
        1.0 / (1.0 + np.exp(-np.clip(z, 0.0, None))),
        np.exp(np.clip(z, None, 0.0)) / (1.0 + np.exp(np.clip(z, None, 0.0))),
    )
    return np.clip(data, T._SIGMOID_LO, T._SIGMOID_HI)


_TINY = np.finfo(np.float64).tiny
SIGMOID_GRID = np.array([
    745.0, -745.0, 36.7, -36.7, 0.0, -0.0, np.inf, -np.inf,
    5e-324, -5e-324, _TINY, -_TINY, 709.0, -709.0, 37.0, -37.0, 1.0, -1.0,
])


def relu(a):
    """The unfused relu op, the reference for linear(..., act="relu")."""
    data = np.maximum(a.data, 0.0)
    return T._node(data, (a,), lambda g: ((a, g * (data > 0.0)),))


def sigmoid(a):
    """``_sigmoid_`` as a tape op, its derivative read off the output."""
    data = T._sigmoid_(a.data.copy())
    return T._node(data, (a,), lambda g: ((a, g * data * (1.0 - data)),))


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
        assert 3 * T.EPILOGUE_BLOCK < z.size < 4 * T.EPILOGUE_BLOCK
        z[-1, -SIGMOID_GRID.size :] = SIGMOID_GRID
        for shape in (z.shape, (z.size,)):
            got = T._sigmoid_(z.copy().reshape(shape))
            assert got.shape == shape
            assert got.tobytes() == _three_exp_sigmoid(z).tobytes()

    def test_nan_stays_nan(self):
        out = T._sigmoid_(np.array([np.nan, 0.0]))
        assert np.isnan(out[0]) and out[1] == 0.5

    def test_input_not_modified(self):
        # The fused epilogue runs in place on the product and bce_logits'
        # backward sigmoid on a copy, never on an input.
        rng = np.random.default_rng(1)
        values = [rng.normal(0.0, 6.0, size=shape) for shape in ((5, 7), (3, 7), (3,))]
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in values)
        logits = T.linear(x, w, b, act="relu")
        values.append(logits.data.copy())
        T.bce_logits(logits, Tensor(rng.uniform(0.0, 1.0, size=(5, 3)))).backward()
        for t, v in zip((x, w, b, logits), values):
            assert t.data.tobytes() == v.tobytes()


class TestFusedLinear:
    @pytest.mark.parametrize("act, unfused", [("relu", relu)])
    def test_values_and_gradients_match_composed_ops_bit_for_bit(self, act, unfused):
        # 70 rows of width 784 span two epilogue blocks, the second ragged.
        rng = np.random.default_rng(12)
        xv = rng.normal(0.0, 3.0, size=(70, 50))
        wv = rng.normal(0.0, 1.0, size=(784, 50))
        bv = rng.normal(0.0, 1.0, size=784)
        xv[0], bv[:5] = 0.0, 0.0  # exact zero pre-activations
        probe = Tensor(rng.uniform(-1.0, 1.0, size=(70, 784)))

        def run(fused):
            x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
            out = T.linear(x, w, b, act=act) if fused else unfused(T.linear(x, w, b))
            T.squared_error(out, probe).backward()
            return out.data, x.grad, w.grad, b.grad

        for fused, composed in zip(run(True), run(False)):
            assert fused.tobytes() == composed.tobytes()

    def test_act_is_keyword_only_and_checked(self):
        x, w, b = Tensor(np.ones((1, 2))), Tensor(np.ones((3, 2))), Tensor(np.zeros(3))
        with pytest.raises(TypeError):
            T.linear(x, w, b, "relu")
        with pytest.raises(ContractError):
            T.linear(x, w, b, act="tanh")
        with pytest.raises(DimensionError):
            T.linear(x, w, Tensor(np.zeros(2)))

    @pytest.mark.parametrize("head, recon_kind", [("full", "bce"), ("none", "mse")])
    def test_model_forward_records_one_node_per_dense_layer(self, tape_nodes, head, recon_kind):
        model = DeVae(tiny_config(head=head, recon_kind=recon_kind))
        nodes = tape_nodes
        latent = model.encode(Tensor(np.random.default_rng(2).uniform(0, 1, size=(6, 10))))
        x_hat = model.decode_logits(latent.mu)
        assert len(nodes) == len(model.layers)
        assert all(n._backward is not None for n in nodes)
        assert x_hat is nodes[-1]
        assert x_hat._parents == (nodes[-2], model.decoder[-1].weight, model.decoder[-1].bias)


class TestSquaredError:
    def test_value_and_gradients_match_the_numpy_chain_bit_for_bit(self):
        rng = np.random.default_rng(13)
        av, bv = rng.normal(0.0, 3.0, size=(64, 2)), rng.normal(0.0, 3.0, size=(64, 2))
        a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
        loss = T.squared_error(a, b)
        zero = Tensor(0.0)
        LossWeights(20.0, 0.0).combine_node(zero, loss, zero).backward()  # a loss weight, as in the objective
        d = av - bv
        grad_a = (20.0 * (1.0 / 64)) * 2.0 * d
        assert loss.data.tobytes() == np.asarray((d * d).sum() * (1.0 / 64)).tobytes()
        assert a.grad.tobytes() == grad_a.tobytes()
        assert b.grad.tobytes() == (-grad_a).tobytes()


# (out, in) of every dense layer of the default 784-d model.
PIXEL_LAYERS = sorted({(o, i) for o, i, _ in _layer_specs(ModelConfig(784, LossWeights(20.0, 5.0)))})


def _linear_products(rng, batch, out_dim, in_dim):
    """(a, b) of the forward ``x @ W.T`` and the backward ``g @ W`` and ``g.T @ x`` of one layer."""
    x, w, g = rng.random((batch, in_dim)), rng.standard_normal((out_dim, in_dim)), rng.standard_normal((batch, out_dim))
    return {"forward": (x, w.T), "dx": (g, w), "dW": (g.T, x)}


def _linear_run(x, w, b):
    """A relu layer's output and its three gradients under a fixed probe."""
    xt, wt, bt = (Tensor(v.copy(), requires_grad=True) for v in (x, w, b))
    out = T.linear(xt, wt, bt, act="relu")
    probe = Tensor(np.random.default_rng(1).standard_normal(out.shape))
    T.squared_error(out, probe).backward()
    return out.data, xt.grad, wt.grad, bt.grad


@pytest.mark.skipif(not T.BLAS_PINNED, reason="no BLAS thread setter found: products are never split")
class TestSplitProducts:
    @pytest.mark.parametrize("batch", [37, 64, 500, 3616, 4096])
    @pytest.mark.parametrize("out_dim, in_dim", PIXEL_LAYERS)
    def test_row_split_is_bit_identical(self, monkeypatch, batch, out_dim, in_dim):
        # 3616 rows is the last INFER_CHUNK of 20000. Lanes of down to an
        # eighth of LANE_MADDS are cut here, so the batches of 37 and 64 rows
        # are split too, with a margin below the floor; never below 2^20,
        # where blocks would reach OpenBLAS's small-matrix kernel.
        monkeypatch.setattr(T, "LANE_MADDS", max(T.LANE_MADDS // 8, 1 << 20))
        rng = np.random.default_rng(batch + out_dim + in_dim)
        for name, (a, b) in _linear_products(rng, batch, out_dim, in_dim).items():
            whole = (a @ b).tobytes()
            for workers in (2, 3, 4):
                monkeypatch.setattr(T, "WORKERS", workers)
                assert T._matmul(a, b).tobytes() == whole, (name, workers)

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
        w = Tensor([[2.0]], requires_grad=True)
        T.squared_error(T.linear(Tensor([[3.0]]), w, Tensor([1.0])), Tensor([[0.0]])).backward()
        np.testing.assert_array_equal(w.grad, [[42.0]])

    def test_bce_logits_derivative_at_zero(self):
        # (sigmoid(0) - x) / batch for targets 0 and 1 over a batch of 2.
        pre = Tensor([[0.0], [0.0]], requires_grad=True)
        T.bce_logits(pre, Tensor([[0.0], [1.0]])).backward()
        np.testing.assert_array_equal(pre.grad, [[0.25], [-0.25]])

    def test_accumulation_is_exactly_double(self):
        w = Tensor(np.array([[1.5, -0.5]]), requires_grad=True)
        x = Tensor(np.array([[2.0, 3.0]]))
        loss = T.squared_error(T.linear(x, w, Tensor([0.25])), Tensor([[1.0]]))
        loss.backward()
        once = w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0 * once)

    def test_shared_gradient_memory_is_not_written_through(self):
        # A node may hand one array to several parents, as this sum does;
        # accumulating a's two contributions must not change what b received.
        def total(x, y):
            return T._node(x.data + y.data, (x, y), lambda g: ((x, g), (y, g)))

        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        total(total(a, b), a).backward()
        np.testing.assert_array_equal(a.grad, [2.0])
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            T.linear(Tensor(np.ones((1, 2))), w, Tensor(np.zeros(2))).backward()

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        l1 = DenseLayer(
            Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True),
            Tensor(rng.uniform(-1, 1, size=5), requires_grad=True),
            "relu",
        )
        l2 = DenseLayer(
            Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True),
            Tensor(rng.uniform(-1, 1, size=3), requires_grad=True),
            "identity",
        )
        x = Tensor(rng.uniform(-2, 2, size=(4, 4)))
        target = Tensor(rng.uniform(0, 1, size=(4, 3)))
        params = [l1.weight, l1.bias, l2.weight, l2.bias]
        err = gradient_check(lambda: T.bce_logits(l2(l1(x)), target), params)
        assert err < 1e-4

    def test_backward_reaches_all_parameters(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
        T.squared_error(T.linear(x, w, b, act="relu"), Tensor(np.ones((2, 4)))).backward()
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_only_leaves_keep_gradients(self):
        """Intermediates hold no .grad; leaf gradients keep the same bytes."""
        bundle = blob_bundle(n=40)
        model = DeVae(tiny_config(head="full", recon_kind="bce"))
        X = (bundle.X - bundle.X.min()) / (bundle.X.max() - bundle.X.min())
        eps = np.random.default_rng(8).standard_normal((40, 2))
        total = forward_train(model, X, bundle.Y, eps).total
        total.backward()
        nodes, stack, seen = [], [total], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        intermediates = [n for n in nodes if n._backward is not None]
        assert len(intermediates) == 12  # 7 dense layers, the sample, 2 losses, the entropy, the objective
        assert all(n.grad is None for n in intermediates)
        leaves = [n for n in nodes if n.requires_grad and n._backward is None]
        assert {id(p) for p in leaves} == {id(p) for p in model.parameters()}

        # The same gradients with every node keeping its own, as before.
        kept = [p.grad for p in model.parameters()]
        model.zero_grad()
        total = forward_train(model, X, bundle.Y, eps).total
        order, incoming = [], {id(total): np.ones_like(total.data)}
        stack, seen = [(total, False)], set()
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents if id(p) not in seen)
        for node in reversed(order):
            grad = incoming.pop(id(node), None)
            if grad is None:
                continue
            node._accumulate(grad)
            if node._backward is not None:
                for parent, pgrad in node._backward(grad):
                    if parent.requires_grad:
                        prev = incoming.get(id(parent))
                        incoming[id(parent)] = pgrad if prev is None else prev + pgrad
        for p, g in zip(model.parameters(), kept):
            assert p.grad.tobytes() == g.tobytes()


class TestFiniteDiff:
    def test_square_slope(self):
        p = Tensor([3.0])
        grad = finite_diff_grad(lambda: float(p.data[0]) ** 2, [p])[0]
        np.testing.assert_allclose(grad, [6.0], rtol=0, atol=1e-8)

    def test_exp_slope_at_zero(self):
        p = Tensor([0.0])
        grad = finite_diff_grad(lambda: float(np.exp(p.data[0])), [p])[0]
        np.testing.assert_allclose(grad, [1.0], rtol=0, atol=1e-9)

    def test_restores_parameter_values(self):
        p = Tensor([1.0, 2.0])
        before = p.data.copy()
        finite_diff_grad(lambda: float(p.data.sum()), [p])
        np.testing.assert_array_equal(p.data, before)


def _op_cases(rng):
    """The gradient suite's op cases, plus the unfused activations the fused
    layer is compared against."""
    cases = gradsuite._op_cases(rng)
    a, _ = next(params for name, _, params in cases if name == "squared_error")
    target = Tensor(rng.uniform(-1, 1, size=(2, 3)))
    return cases + [
        ("relu", lambda: T.squared_error(relu(a), target), [a]),
        ("sigmoid", lambda: T.squared_error(sigmoid(a), target), [a]),
    ]


OP_NAMES = [case[0] for case in _op_cases(np.random.default_rng(0))]


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_op_gradients_match_finite_differences(op_name):
    """Analytic vs central-difference gradients, randomized trials per op.

    10 ops x 8 trials = 80 randomized checks across the suite, seeded the
    same in every process.
    """
    for trial in range(8):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()) + trial)
        for name, build, params in _op_cases(rng):
            if name != op_name:
                continue
            err = gradient_check(build, params)
            assert err < 1e-4, f"{name} trial {trial}: rel err {err}"


class TestDeterminism:
    def test_fixed_forward_is_bitwise_stable(self):
        rng = np.random.default_rng(5)
        layer = DenseLayer(
            Tensor(rng.uniform(-1, 1, size=(8, 6)), requires_grad=True),
            Tensor(rng.uniform(-1, 1, size=8), requires_grad=True),
            "relu",
        )
        x = Tensor(rng.uniform(-2, 2, size=(5, 6)))
        first = layer(x).data
        for _ in range(3):
            np.testing.assert_array_equal(layer(x).data, first)

    def test_invariants_after_ops(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = T.bce_logits(a, Tensor([[0.0, 1.0]]))
        assert np.isfinite(out.data).all()
        out.backward()
        assert a.grad.shape == a.data.shape


def _records(t: Tensor) -> bool:
    return t.requires_grad and t._backward is not None and len(t._parents) > 0


def _taped_op() -> Tensor:
    return T.squared_error(Tensor([[1.0, 2.0]], requires_grad=True), Tensor([[0.0, 3.0]]))


class TestNoGrad:
    @pytest.mark.parametrize("op_name", OP_NAMES)
    def test_outputs_untaped_and_bit_identical(self, op_name):
        (build,) = [b for name, b, _ in _op_cases(np.random.default_rng(3)) if name == op_name]
        taped = build()
        assert _records(taped)
        with no_grad():
            bare = build()
        assert bare._parents == () and bare._backward is None and not bare.requires_grad
        np.testing.assert_array_equal(bare.data, taped.data)

    def test_model_forward_untaped_and_bit_identical(self):
        bundle = blob_bundle(n=40)
        model = DeVae(tiny_config())
        eps = np.random.default_rng(4).standard_normal((40, 2))
        taped = forward_train(model, bundle.X, bundle.Y, eps)
        with no_grad():
            bare = forward_train(model, bundle.X, bundle.Y, eps)
        for t in (bare.total, bare.x_hat, bare.latent.mu, bare.latent.params):
            assert t._parents == () and t._backward is None
        np.testing.assert_array_equal(bare.x_hat.data, taped.x_hat.data)
        np.testing.assert_array_equal(bare.total.data, taped.total.data)
        assert bare.breakdown == taped.breakdown

    def test_flag_restored_when_nested_and_after_exception(self):
        with no_grad():
            with no_grad():
                assert not _records(_taped_op())
            assert not _records(_taped_op())
        assert _records(_taped_op())
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert _records(_taped_op())

    def test_other_thread_keeps_recording(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                seen["worker"] = _records(_taped_op())

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=10)
            seen["main"] = _records(_taped_op())
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == {"main": True, "worker": False}

    def test_training_gradients_unchanged_after_no_grad_block(self):
        bundle = blob_bundle(n=40)
        model = DeVae(tiny_config())
        eps = np.random.default_rng(6).standard_normal((40, 2))

        def grads():
            model.zero_grad()
            forward_train(model, bundle.X, bundle.Y, eps).total.backward()
            return [p.grad.copy() for p in model.parameters()]

        before = grads()
        with no_grad():
            forward_train(model, bundle.X, bundle.Y, eps)
        for a, b in zip(before, grads()):
            np.testing.assert_array_equal(a, b)
