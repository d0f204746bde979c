"""Tensor engine: forward ops, the tape, and the finite-difference oracle."""

import threading

import numpy as np
import pytest

import devae.tensor as T
from conftest import blob_bundle, tiny_config
from devae import gradsuite
from devae.errors import ContractError, DimensionError
from devae.model import DeVae, forward_train
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
        layer = DenseLayer(Tensor([[1.0]]), Tensor([0.0]), "sigmoid")
        out = layer(Tensor([[0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5]])

    def test_shape_mismatch_names_both_shapes(self):
        layer = DenseLayer(Tensor(np.ones((4, 3))), Tensor(np.zeros(4)), "relu")
        with pytest.raises(DimensionError) as exc:
            layer(Tensor(np.ones((2, 5))))
        assert "(2, 5)" in str(exc.value) and "(4, 3)" in str(exc.value)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractError):
            DenseLayer(Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), "tanh")


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
    """The unfused sigmoid op, the reference for linear(..., act="sigmoid")."""
    data = T._sigmoid_(a.data.copy())
    return T._node(data, (a,), lambda g: ((a, g * data * (1.0 - data)),))


class TestSigmoid:
    @pytest.mark.parametrize("scale", [0.0, 6.0, 40.0])
    def test_bit_identical_to_three_exp_formula(self, scale):
        rng = np.random.default_rng(int(scale))
        z = SIGMOID_GRID if scale == 0.0 else rng.normal(0.0, scale, size=(64, 784))
        got = T._sigmoid_(z.copy())
        assert got.tobytes() == _three_exp_sigmoid(z).tobytes()

    def test_nan_stays_nan(self):
        out = T._sigmoid_(np.array([np.nan, 0.0]))
        assert np.isnan(out[0]) and out[1] == 0.5

    def test_input_not_modified(self):
        # The fused epilogue runs in place on the product, never on an input.
        rng = np.random.default_rng(1)
        values = [rng.normal(0.0, 6.0, size=shape) for shape in ((5, 7), (3, 7), (3,))]
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in values)
        T.tsum(T.linear(x, w, b, act="sigmoid")).backward()
        for t, v in zip((x, w, b), values):
            assert t.data.tobytes() == v.tobytes()


class TestFusedLinear:
    @pytest.mark.parametrize("act, unfused", [("relu", relu), ("sigmoid", sigmoid)])
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
            T.tsum(T.mul(out, probe)).backward()
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
    def test_model_forward_records_one_node_per_dense_layer(self, monkeypatch, head, recon_kind):
        model = DeVae(tiny_config(head=head, recon_kind=recon_kind))
        nodes = []
        record = T._node

        def counting_node(*args):
            nodes.append(record(*args))
            return nodes[-1]

        monkeypatch.setattr(T, "_node", counting_node)
        latent = model.encode(Tensor(np.random.default_rng(2).uniform(0, 1, size=(6, 10))))
        x_hat = model.decode(latent.mu)
        assert len(nodes) == len(model.layers)
        assert all(n._backward is not None for n in nodes)
        assert x_hat._parents[1:] == (model.decoder[-1].weight, model.decoder[-1].bias)


def _old_sample_chain(strict, diag, eps):
    """L @ eps as the full-head sample used to build it: per-column slice/mul/add."""
    z0 = diag[:, :1] * eps[:, :1]
    z1 = diag[:, 1:] * eps[:, 1:] + strict * eps[:, :1]
    return np.concatenate([z0, z1], axis=1)


def _tril_inputs(rng, batch=7):
    return (
        Tensor(rng.uniform(-2, 2, size=(batch, 1)), requires_grad=True),
        Tensor(rng.uniform(0.1, 2, size=(batch, 2)), requires_grad=True),
        Tensor(rng.standard_normal((batch, 2)), requires_grad=True),
    )


class TestTrilMatvec:
    def test_gradients_of_every_input_match_finite_differences(self):
        rng = np.random.default_rng(2)
        strict, diag, v = _tril_inputs(rng, batch=3)
        probe = Tensor(rng.uniform(-1, 1, size=(3, 2)))
        err = gradient_check(lambda: T.tsum(T.mul(T.tril_matvec(strict, diag, v), probe)),
                             [strict, diag, v])
        assert err < 1e-6
        assert all(t.grad is not None for t in (strict, diag, v))

    def test_values_match_the_slice_mul_add_chain(self):
        strict, diag, v = _tril_inputs(np.random.default_rng(22), batch=64)
        got = T.tril_matvec(strict, diag, v).data
        want = _old_sample_chain(strict.data, diag.data, v.data)
        assert got.tobytes() == want.tobytes()

    def test_shapes_checked(self):
        strict, diag, v = _tril_inputs(np.random.default_rng(31))
        with pytest.raises(DimensionError):
            T.tril_matvec(strict, diag, Tensor(np.zeros((7, 3))))
        with pytest.raises(DimensionError):
            T.tril_matvec(Tensor(np.zeros((7, 2))), diag, v)
        with pytest.raises(DimensionError):
            T.tril_matvec(strict, Tensor(np.zeros((7, 1))), v)
        with pytest.raises(DimensionError):
            T.tril_matvec(strict, diag, Tensor(np.zeros(2)))


class TestBackward:
    def test_linear_derivative(self):
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([3.0])
        T.tsum(T.mul(w, x)).backward()
        np.testing.assert_array_equal(w.grad, [3.0])

    def test_sigmoid_derivative_at_zero(self):
        pre = Tensor([[0.0]], requires_grad=True)
        T.tsum(T.linear(pre, Tensor([[1.0]]), Tensor([0.0]), act="sigmoid")).backward()
        np.testing.assert_allclose(pre.grad, [[0.25]], rtol=0, atol=1e-15)

    def test_accumulation_is_exactly_double(self):
        w = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        x = Tensor(np.array([2.0, 3.0]))
        loss = T.tsum(T.square(T.mul(w, x)))
        loss.backward()
        once = w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0 * once)

    def test_shared_gradient_memory_is_not_written_through(self):
        # add's backward hands one array to both operands; accumulating a's
        # two contributions must not change what b received.
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        T.add(T.add(a, b), a).backward()
        np.testing.assert_array_equal(a.grad, [2.0])
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            T.square(w).backward()

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
            "sigmoid",
        )
        x = Tensor(rng.uniform(-2, 2, size=(4, 4)))
        params = [l1.weight, l1.bias, l2.weight, l2.bias]
        err = gradient_check(lambda: T.tsum(T.square(l2(l1(x)))), params)
        assert err < 1e-4

    def test_backward_reaches_all_parameters(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=4), requires_grad=True)
        T.tsum(T.linear(x, w, b, act="relu")).backward()
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
        assert len(intermediates) > 20
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

    def test_requires_positive_step(self):
        p = Tensor([1.0])
        with pytest.raises(ContractError):
            finite_diff_grad(lambda: 0.0, [p], step=0.0)

    def test_restores_parameter_values(self):
        p = Tensor([1.0, 2.0])
        before = p.data.copy()
        finite_diff_grad(lambda: float(p.data.sum()), [p])
        np.testing.assert_array_equal(p.data, before)


def _op_cases(rng):
    """The gradient suite's op cases, plus ``tsum`` over all axes, one more
    ``add``, and the unfused activations the fused layer is compared against."""
    cases = gradsuite._op_cases(rng)
    a, b = next(params for name, _, params in cases if name == "add")
    probe = Tensor(rng.uniform(-1, 1, size=(2, 3)))
    return cases + [
        ("sum_bare", lambda: T.square(T.tsum(a)), [a]),
        ("broadcast_bias", lambda: T.tsum(T.square(T.add(a, T.slice_cols(b, 0, 3)))), [a, b]),
        ("relu", lambda: T.tsum(T.mul(relu(a), probe)), [a]),
        ("sigmoid", lambda: T.tsum(T.mul(sigmoid(a), probe)), [a]),
    ]


OP_NAMES = [case[0] for case in _op_cases(np.random.default_rng(0))]


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_op_gradients_match_finite_differences(op_name):
    """Analytic vs central-difference gradients, randomized trials per op.

    18 ops x 8 trials = 144 randomized checks across the suite.
    """
    for trial in range(8):
        rng = np.random.default_rng(hash((op_name, trial)) % (2**32))
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
            "sigmoid",
        )
        x = Tensor(rng.uniform(-2, 2, size=(5, 6)))
        first = layer(x).data
        for _ in range(3):
            np.testing.assert_array_equal(layer(x).data, first)

    def test_invariants_after_ops(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = T.tsum(T.exp(a))
        assert np.isfinite(out.data).all()
        out.backward()
        assert a.grad.shape == a.data.shape


def _records(t: Tensor) -> bool:
    return t.requires_grad and t._backward is not None and len(t._parents) > 0


def _taped_op() -> Tensor:
    return T.mul(Tensor([1.0, 2.0], requires_grad=True), 3.0)


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
