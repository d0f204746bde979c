"""Tensor engine: forward ops, the tape, and the finite-difference oracle."""

import numpy as np
import pytest

import devae.tensor as T
from devae.errors import ContractError, DimensionError
from devae.tensor import DenseLayer, Tensor, finite_diff_grad, forward_dense, gradient_check


class TestForwardDense:
    def test_identity_layer(self):
        layer = DenseLayer(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([0.0, 0.0]), "identity")
        out = forward_dense(layer, Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_relu_clamps_negative_preactivation(self):
        layer = DenseLayer(Tensor([[2.0]]), Tensor([1.0]), "relu")
        out = forward_dense(layer, Tensor([[-3.0]]))  # pre-activation -5
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_sigmoid_at_zero(self):
        layer = DenseLayer(Tensor([[1.0]]), Tensor([0.0]), "sigmoid")
        out = forward_dense(layer, Tensor([[0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5]])

    def test_shape_mismatch_names_both_shapes(self):
        layer = DenseLayer(Tensor(np.ones((4, 3))), Tensor(np.zeros(4)), "relu")
        with pytest.raises(DimensionError) as exc:
            forward_dense(layer, Tensor(np.ones((2, 5))))
        assert "(2, 5)" in str(exc.value) and "(4, 3)" in str(exc.value)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractError):
            DenseLayer(Tensor(np.ones((2, 2))), Tensor(np.zeros(2)), "tanh")


class TestBackward:
    def test_linear_derivative(self):
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([3.0])
        T.tsum(T.mul(w, x)).backward()
        np.testing.assert_array_equal(w.grad, [3.0])

    def test_sigmoid_derivative_at_zero(self):
        pre = Tensor([0.0], requires_grad=True)
        T.tsum(T.sigmoid(pre)).backward()
        np.testing.assert_allclose(pre.grad, [0.25], rtol=0, atol=1e-15)

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
        a = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)
        T.tsum(T.matmul(a, b)).backward()
        assert a.grad is not None and b.grad is not None


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
    """(name, loss builder, params) with randomized values in [-2, 2]."""
    a = Tensor(rng.uniform(-2, 2, size=(2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, size=(2, 3)), requires_grad=True)
    m1 = Tensor(rng.uniform(-2, 2, size=(2, 3)), requires_grad=True)
    m2 = Tensor(rng.uniform(-2, 2, size=(3, 2)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, size=(4, 3)), requires_grad=True)
    bias = Tensor(rng.uniform(-2, 2, size=4), requires_grad=True)
    pos = Tensor(rng.uniform(0.1, 2.0, size=(2, 3)), requires_grad=True)
    mix = Tensor(rng.uniform(-2, 2, size=(2, 4)), requires_grad=True)
    probe = Tensor(rng.uniform(-1, 1, size=(2, 3)))
    return [
        ("add", lambda: T.tsum(T.mul(T.add(a, b), probe)), [a, b]),
        ("sub", lambda: T.tsum(T.mul(T.sub(a, b), probe)), [a, b]),
        ("mul", lambda: T.tsum(T.mul(T.mul(a, b), probe)), [a, b]),
        ("matmul", lambda: T.tsum(T.square(T.matmul(m1, m2))), [m1, m2]),
        ("linear", lambda: T.tsum(T.square(T.linear(a, w, bias))), [a, w, bias]),
        ("exp", lambda: T.tsum(T.mul(T.exp(a), probe)), [a]),
        ("log", lambda: T.tsum(T.log(pos)), [pos]),
        ("relu", lambda: T.tsum(T.mul(T.relu(a), probe)), [a]),
        ("sigmoid", lambda: T.tsum(T.mul(T.sigmoid(a), probe)), [a]),
        ("square", lambda: T.tsum(T.mul(T.square(a), probe)), [a]),
        ("sum_axis", lambda: T.tsum(T.square(T.tsum(a, axis=1, keepdims=True))), [a]),
        ("sum_bare", lambda: T.square(T.tsum(a)), [a]),
        ("mean", lambda: T.square(T.tmean(a)), [a]),
        ("clamp", lambda: T.tsum(T.square(T.clamp(pos, 0.05, 3.0))), [pos]),
        (
            "slice_concat",
            lambda: T.tsum(T.square(T.concat_cols([T.slice_cols(mix, 2, 4), T.slice_cols(mix, 0, 2)]))),
            [mix],
        ),
        ("broadcast_bias", lambda: T.tsum(T.square(T.add(a, T.slice_cols(b, 0, 3)))), [a, b]),
    ]


OP_NAMES = [case[0] for case in _op_cases(np.random.default_rng(0))]


@pytest.mark.parametrize("op_name", OP_NAMES)
def test_op_gradients_match_finite_differences(op_name):
    """Analytic vs central-difference gradients, randomized trials per op.

    16 ops x 8 trials = 128 randomized checks across the suite.
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
        first = forward_dense(layer, x).data
        for _ in range(3):
            np.testing.assert_array_equal(forward_dense(layer, x).data, first)

    def test_invariants_after_ops(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = T.tsum(T.exp(a))
        assert np.isfinite(out.data).all()
        out.backward()
        assert a.grad.shape == a.data.shape
