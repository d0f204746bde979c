"""Dense float64 tensors with reverse-mode automatic differentiation.

Each operation builds a node of a dynamic tape: the output tensor keeps
references to its parents and a closure that scatters the output gradient
back onto them. ``backward()`` walks the tape in reverse topological order.
The op set is intentionally small: dense layers, the elementwise functions
the losses need, and two structural column ops used to assemble Cholesky
factors from raw head outputs.

A graph and its tensors belong to one thread for the duration of a
forward/backward pass; tensors without a recorded graph are plain values
and can move freely between threads.

Gradient arrays are never written in place: ``backward()`` stores the first
gradient a tensor receives as is and adds later ones out of place, so one
array may be shared by several tensors' ``.grad``. Callers must treat
``.grad`` as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

ACTIVATIONS = ("identity", "relu", "sigmoid")


def _as_f64(data) -> Array:
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-d float64 array participating in the gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        # Maps the output gradient to (parent, parent-gradient) pairs.
        self._backward: Callable[[Array], Sequence[tuple[Tensor, Array]]] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def _accumulate(self, grad: Array) -> None:
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Populate ``grad`` on every tensor reachable from this scalar.

        Repeated calls without ``zero_grad`` accumulate, so two passes give
        exactly twice the single-pass gradient.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        incoming: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = incoming.pop(id(node), None)
            if grad is None:
                continue
            if node.requires_grad:
                node._accumulate(grad)
            if node._backward is None:
                continue
            for parent, pgrad in node._backward(grad):
                if not parent.requires_grad:
                    continue
                prev = incoming.get(id(parent))
                incoming[id(parent)] = pgrad if prev is None else prev + pgrad

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- arithmetic ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError.mismatch("add", a.shape, b.shape) from None

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise DimensionError.mismatch("sub", a.shape, b.shape) from None

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError.mismatch("mul", a.shape, b.shape) from None

    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        )

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError.mismatch("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _node(data, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused dense pre-activation: ``x @ weight.T + bias``."""
    x, weight, bias = _lift(x), _lift(weight), _lift(bias)
    if x.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise DimensionError.mismatch("linear input vs weight", x.shape, weight.shape)
    data = x.data @ weight.data.T + bias.data

    def backward(g):
        pairs = []
        if x.requires_grad:
            pairs.append((x, g @ weight.data))
        if weight.requires_grad:
            pairs.append((weight, g.T @ x.data))
        if bias.requires_grad:
            pairs.append((bias, g.sum(axis=0)))
        return pairs

    return _node(data, (x, weight, bias), backward)


# -- elementwise functions ------------------------------------------------


def exp(a) -> Tensor:
    a = _lift(a)
    data = np.exp(a.data)

    def backward(g):
        return ((a, g * data),)

    return _node(data, (a,), backward)


def log(a) -> Tensor:
    a = _lift(a)
    data = np.log(a.data)

    def backward(g):
        return ((a, g / a.data),)

    return _node(data, (a,), backward)


def relu(a) -> Tensor:
    a = _lift(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        return ((a, g * (a.data > 0.0)),)

    return _node(data, (a,), backward)


_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = 1.0 - 2.0**-53  # largest double strictly below 1


def sigmoid(a) -> Tensor:
    a = _lift(a)
    # Split by sign so neither exp() overflows; pin saturated values to the
    # nearest representable numbers inside (0, 1) so downstream logs stay
    # finite and the open-interval output contract holds.
    data = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(a.data, 0.0, None))),
        np.exp(np.clip(a.data, None, 0.0)) / (1.0 + np.exp(np.clip(a.data, None, 0.0))),
    )
    data = np.clip(data, _SIGMOID_LO, _SIGMOID_HI)

    def backward(g):
        return ((a, g * data * (1.0 - data)),)

    return _node(data, (a,), backward)


def square(a) -> Tensor:
    a = _lift(a)
    data = a.data * a.data

    def backward(g):
        return ((a, g * 2.0 * a.data),)

    return _node(data, (a,), backward)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient is zero where the clip engaged."""
    a = _lift(a)
    data = np.clip(a.data, lo, hi)

    def backward(g):
        return ((a, g * ((a.data > lo) & (a.data < hi))),)

    return _node(data, (a,), backward)


# -- reductions ------------------------------------------------------------


def tsum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return ((a, np.broadcast_to(g, a.shape).copy()),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg, a.shape).copy()),)

    return _node(np.asarray(data), (a,), backward)


def tmean(a) -> Tensor:
    a = _lift(a)
    n = a.data.size
    data = np.asarray(a.data.mean())

    def backward(g):
        return ((a, np.broadcast_to(g / n, a.shape).copy()),)

    return _node(data, (a,), backward)


# -- structural column ops ---------------------------------------------------


def slice_cols(a, j0: int, j1: int) -> Tensor:
    """Columns [j0, j1) of a 2-d tensor, gradient scattered back in place."""
    a = _lift(a)
    if a.data.ndim != 2:
        raise ContractError(f"slice_cols needs a 2-d tensor, got shape {a.shape}")
    data = a.data[:, j0:j1].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, j0:j1] = g
        return ((a, full),)

    return _node(data, (a,), backward)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [_lift(p) for p in parts]
    widths = [p.shape[1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        grads = []
        j = 0
        for p, w in zip(parts, widths):
            grads.append((p, g[:, j : j + w]))
            j += w
        return tuple(grads)

    return _node(data, parts, backward)


# -- dense layer -----------------------------------------------------------


@dataclass
class DenseLayer:
    """Fully connected layer: weight [out, in], bias [out], one activation."""

    weight: Tensor
    bias: Tensor
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")
        if self.weight.data.ndim != 2 or self.bias.data.ndim != 1:
            raise DimensionError.mismatch("dense layer", self.weight.shape, self.bias.shape)
        if self.weight.shape[0] != self.bias.shape[0]:
            raise DimensionError.mismatch("dense weight vs bias", self.weight.shape, self.bias.shape)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return forward_dense(self, x)


def forward_dense(layer: DenseLayer, x: Tensor) -> Tensor:
    """activation(x @ weight.T + bias) for a [batch, in] input."""
    x = _lift(x)
    if x.data.ndim != 2 or x.shape[1] != layer.in_dim:
        raise DimensionError.mismatch("dense input vs weight", x.shape, layer.weight.shape)
    pre = linear(x, layer.weight, layer.bias)
    if layer.activation == "relu":
        return relu(pre)
    if layer.activation == "sigmoid":
        return sigmoid(pre)
    return pre


# -- finite differences -------------------------------------------------------


def finite_diff_grad(
    f: Callable[[], float], params: Sequence[Tensor], step: float = 1e-5
) -> list[Array]:
    """Central-difference gradient estimate of ``f`` for each parameter entry.

    ``f`` must be deterministic and must read the current values of ``params``
    when called; entries are perturbed in place and restored afterwards.
    """
    if not step > 0:
        raise ContractError(f"finite difference step must be positive, got {step}")
    grads: list[Array] = []
    for p in params:
        est = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        out = est.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f()
            flat[i] = orig - step
            down = f()
            flat[i] = orig
            out[i] = (up - down) / (2.0 * step)
        grads.append(est)
    return grads


def max_rel_error(analytic: Array, numeric: Array, floor: float = 1e-6) -> float:
    """Largest relative disagreement, with a small-magnitude floor."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gradient_check(
    build_loss: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    floor: float = 1e-6,
) -> float:
    """Compare backward() against finite differences; return the max rel error.

    ``build_loss`` must rebuild the graph from ``params`` on every call.
    """
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    numeric = finite_diff_grad(lambda: build_loss().item(), params, step)
    return max(
        max_rel_error(a, n, floor) for a, n in zip(analytic, numeric)
    )
