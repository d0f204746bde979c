"""Dense float64 tensors with reverse-mode automatic differentiation.

Each operation builds a node of a dynamic tape: the output tensor keeps
references to its parents and a closure that scatters the output gradient
back onto them. ``backward()`` walks the tape in reverse topological order.
The op set is what the model uses: the fused dense layer ``linear``,
``add``/``sub``/``mul``, the elementwise ``exp``/``square``, the
reductions ``tsum``/``tmean``, ``slice_cols`` to split a head's output into
parameter blocks, ``tril_matvec``, which applies a batch of 2x2
lower-triangular factors to a batch of 2-D vectors for the full-covariance
sample, and ``bce_logits``, the binary cross-entropy computed from logits.

A dense layer is one fused node, ``linear(x, W, b, act=...)``: the bias add
and the activation (identity, relu, or a one-exp sigmoid) run in place on
the product, a cache-sized row block at a time, and the node keeps
only that output. Its backward reads both activation derivatives off the
output (relu' is out > 0, sigmoid' is out (1 - out)), so no pre-activation
buffer is kept.

A graph and its tensors belong to one thread for the duration of a
forward/backward pass; tensors without a recorded graph are plain values
and can move freely between threads.

Inside ``with no_grad():`` operations record no tape: outputs keep no
parents and no closure, so each intermediate is freed as soon as the next
operation has consumed it. Inference (evaluation, encoding a dataset,
decoding a grid) runs this way. The flag is thread-local, so a no-grad
block in one thread never drops the tape another thread is recording.

``backward()`` stores ``.grad`` only on leaves: tensors that require a
gradient but have no recorded backward (parameters and user inputs).
Intermediates pass their gradient on and keep none. Gradient arrays are
never written in place: a leaf keeps the first gradient it receives as is
and adds later ones out of place, so one array may be shared by several
tensors' ``.grad``. Callers must treat ``.grad`` as read-only.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def _accumulate(self, grad: Array) -> None:
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Populate ``grad`` on every leaf reachable from this scalar.

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
            if node._backward is None:
                if node.requires_grad:
                    node._accumulate(grad)
                continue
            for parent, pgrad in node._backward(grad):
                if not parent.requires_grad:
                    continue
                prev = incoming.get(id(parent))
                incoming[id(parent)] = pgrad if prev is None else prev + pgrad

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class _GradMode(threading.local):
    recording = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the block without recording a tape in this thread."""
    was = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = was


def _node(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    out.requires_grad = _grad_mode.recording and any(p.requires_grad for p in parents)
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


# Elements of one row block of a dense layer's epilogue (256 KB), so the
# bias add and every pass of the activation find the block in cache.
EPILOGUE_BLOCK = 1 << 15


def _epilogue(data: Array, bias: Array, act: str) -> None:
    """``data = act(data + bias)`` in place, one row block at a time."""
    rows = max(1, EPILOGUE_BLOCK // max(data.shape[1], 1))
    for start in range(0, data.shape[0], rows):
        block = data[start : start + rows]
        block += bias
        if act == "relu":
            np.maximum(block, 0.0, out=block)
        elif act == "sigmoid":
            _sigmoid_(block)


def linear(x: Tensor, weight: Tensor, bias: Tensor, *, act: str = "identity") -> Tensor:
    """Fused dense layer ``act(x @ weight.T + bias)``, one tape node.

    The bias add and the activation run in place on the product; the node
    keeps only its output, which is all its backward needs.
    """
    if act not in ACTIVATIONS:
        raise ContractError(f"unknown activation {act!r}")
    x, weight, bias = _lift(x), _lift(weight), _lift(bias)
    if x.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise DimensionError.mismatch("dense input vs weight", x.shape, weight.shape)
    if bias.shape != weight.shape[:1]:
        raise DimensionError.mismatch("dense weight vs bias", weight.shape, bias.shape)
    data = x.data @ weight.data.T
    _epilogue(data, bias.data, act)

    def backward(g):
        # The activation's derivative, read off the output: out > 0 exactly where pre > 0.
        if act == "relu":
            g = g * (data > 0.0)
        elif act == "sigmoid":
            g = g * data * (1.0 - data)
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


_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = 1.0 - 2.0**-53  # largest double strictly below 1


def _sigmoid_(z: Array) -> Array:
    """Logistic function of ``z``, in place, with one exp per element.

    With e = exp(-|z|) <= 1 no exp can overflow, and sigmoid(z) is
    1 / (1 + e) for z >= 0 and e / (1 + e) for z < 0; the numerator
    e * neg + ~neg is exactly 1 or e. Saturated values are pinned to the
    nearest doubles inside (0, 1), so the open-interval output contract
    holds. NaN stays NaN.
    """
    neg = z < 0.0
    np.copysign(z, -1.0, out=z)
    np.exp(z, out=z)
    denom = z + 1.0
    z *= neg
    z += ~neg
    z /= denom
    return np.clip(z, _SIGMOID_LO, _SIGMOID_HI, out=z)


def square(a) -> Tensor:
    a = _lift(a)
    data = a.data * a.data

    def backward(g):
        return ((a, g * 2.0 * a.data),)

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


def bce_logits(z, x) -> Tensor:
    """Binary cross-entropy of targets ``x`` against ``sigmoid(z)``, one tape node.

    Summed over all elements and divided by the batch (the first axis), in
    the form ``sum(max(z, 0) - z x + log1p(exp(-|z|))) / batch``: no
    probability is formed, so a saturated logit keeps its true loss and
    gradient. The backward is ``(sigmoid(z) - x) g / batch``; the targets
    are constants and receive no gradient.
    """
    z, x = _lift(z), _lift(x)
    if z.shape != x.shape:
        raise DimensionError.mismatch("bce_logits", z.shape, x.shape)
    batch = z.shape[0]
    loss = np.maximum(z.data, 0.0)
    term = np.multiply(z.data, x.data)
    loss -= term
    np.copysign(z.data, -1.0, out=term)  # -|z|
    np.exp(term, out=term)
    loss += np.log1p(term, out=term)
    data = np.asarray(loss.sum() / batch)

    def backward(g):
        grad = _sigmoid_(z.data.copy())
        grad -= x.data
        grad *= g / batch
        return ((z, grad),)

    return _node(data, (z,), backward)


# -- structural ops ------------------------------------------------------------


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


def tril_matvec(strict, diag, v) -> Tensor:
    """``L_n @ v[n]`` for each row n of a batch of 2-D vectors, one tape node.

    L_n = [[diag[n, 0], 0], [strict[n, 0], diag[n, 1]]]; ``diag`` and ``v``
    are [batch, 2] and ``strict`` is [batch, 1]. The second entry of a row is
    ``diag_1 v_1 + L_10 v_0``, summed in that order.
    """
    strict, diag, v = _lift(strict), _lift(diag), _lift(v)
    n = v.shape[0] if v.data.ndim == 2 else -1
    if v.shape != (n, 2) or diag.shape != v.shape or strict.shape != (n, 1):
        raise DimensionError(
            f"tril_matvec: strict {strict.shape}, diag {diag.shape} and v {v.shape} do not agree"
        )
    data = diag.data * v.data
    data[:, 1] += strict.data[:, 0] * v.data[:, 0]

    def backward(g):
        gv = g * diag.data
        gv[:, 0] += g[:, 1] * strict.data[:, 0]
        return ((strict, g[:, 1:] * v.data[:, :1]), (diag, g * v.data), (v, gv))

    return _node(data, (strict, diag, v), backward)


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

    def __call__(self, x: Tensor) -> Tensor:
        """activation(x @ weight.T + bias) for a [batch, in] input, one tape node."""
        return linear(x, self.weight, self.bias, act=self.activation)


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
