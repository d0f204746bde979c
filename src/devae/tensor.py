"""Dense float64 tensors with reverse-mode automatic differentiation.

Each operation builds a node of a dynamic tape: the output tensor keeps
references to its parents and a closure that scatters the output gradient
back onto them. ``backward()`` walks the tape in reverse topological order.
The op set is what the model uses: the fused dense layer ``linear`` and
the losses ``bce_logits`` (binary cross-entropy from logits) and
``squared_error``. The nodes that know the covariance heads, the latent
sample and the entropy term, are built with ``_node`` next to their users
in ``gaussian`` and ``losses``, and so is the weighted objective.

A dense layer is one fused node, ``linear(x, W, b, act=...)``: the bias add
and the activation (identity or relu) run in place on the product, a
cache-sized row block at a time, and the node keeps only that output, off
which its backward reads relu' (out > 0). The one sigmoid, ``_sigmoid_``,
is no tape op: it runs in place in ``bce_logits``' backward and on
``DeVae.decode``'s untaped output, there on the output product's row blocks.

A graph and its tensors belong to one thread for the duration of a
forward/backward pass; tensors without a recorded graph are plain values
and can move freely between threads.

A small thread pool has three users, and ``fan_out`` is their one hand-off:
it runs the first item of a list in the caller and the others on the pool,
and returns once all have finished. The three products of ``linear``
(``x @ W.T`` forward, ``g @ W`` and ``g.T @ x`` backward) go through
``_matmul``, which cuts a product into balanced blocks of output rows
(``_row_blocks``), at most one per lane, each of at least two rows and
about ``LANE_MADDS`` multiply-adds or more; each lane finishes its own
block, so a dense layer's bias add and activation run in the lanes too.
The 784-wide products of a batch-64 training step are split this way, the
512x128 ones stay whole. ``data.pca_project`` works on two row blocks at a
time, one per lane, and ``trainer.Adam`` updates its parameter blocks in
lanes. The pool's workers touch only raw arrays, never a tensor or a tape:
each computes and finishes one row block of a product, one block of a PCA
pass or one lane of Adam's blocks, in arrays its caller allocated. At
import, numpy's OpenBLAS is pinned to one thread, since it rounds a product
differently at other thread counts; a row of a product does not depend on
the other rows computed with it, so the bytes of every output are the same
at any ``OPENBLAS_NUM_THREADS`` and any worker count. Where no setter for
the BLAS thread count is found, ``BLAS_PINNED`` is False, ``WORKERS`` is 1
and nothing reaches the pool.

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

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

ACTIVATIONS = ("identity", "relu")


def _as_f64(data) -> Array:
    """``data`` as a C-contiguous float64 array of its own shape (0-d stays 0-d);
    an array that already is one is returned as is, not copied."""
    return np.asarray(data, dtype=np.float64, order="C")


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
    """A tensor of ``data``; taped, with ``parents`` and ``backward``, when
    recording and a parent requires a gradient. ``backward`` maps the output
    gradient to (parent, parent-gradient) pairs."""
    out = Tensor(data)
    out.requires_grad = _grad_mode.recording and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- BLAS threads and the product pool ------------------------------------------


def _openblas_symbol(names: Sequence[str]):
    """The first of ``names`` that an OpenBLAS among the mapped libraries exports.

    None where none is found: another BLAS, or no ``/proc``.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            symbol = getattr(lib, name, None)
            if symbol is not None:
                return symbol
    return None


def _pin_blas() -> bool:
    """Set numpy's OpenBLAS to one thread; False where no setter is found."""
    setter = _openblas_symbol(("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                               "openblas_set_num_threads64_", "openblas_set_num_threads"))
    if setter is None:
        return False
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)
    return True


BLAS_PINNED = _pin_blas()

# Threads that share one large product or one Adam step, the caller
# included: the usable CPUs, at most four; never sized from the input. A
# PCA pass uses at most two of them (``data.PCA_LANES``).
WORKERS = min(len(os.sched_getaffinity(0)), 4) if BLAS_PINNED else 1

# Fewest multiply-adds a lane of a split product gets (8.4M). Measured on 2
# vCPUs at one BLAS thread: a batch-64 784-d step's 25.7M products took
# 1.5-1.7 ms whole and 0.85-1.25 ms in two row blocks, and 4096-row
# inference chunks (268M-1644M) about half their whole time; the step's
# 4.2M products ran no faster split. The floor also keeps every block out of
# OpenBLAS's small-matrix kernel (up to about 1e6 multiply-adds), which
# rounds differently from the kernel of the whole product.
LANE_MADDS = 1 << 23


def _new_pool() -> None:
    """Bind ``_pool``: an executor starts no thread before its first task."""
    global _pool
    _pool = ThreadPoolExecutor(max(WORKERS - 1, 1), thread_name_prefix="devae-pool")


_new_pool()
# A forked child inherits the pool object but not its threads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def fan_out(fn: Callable, items: Sequence[tuple]) -> list:
    """``[fn(*item) for item in items]``, item 0 in the caller and the others on the pool.

    Returns once every call has finished, so no worker is still writing when
    the caller moves on; the first exception, in item order, is raised only
    then. ``fn`` must not fan out itself: a worker that waited on the pool
    could wait on its own queue.
    """
    if len(items) <= 1:  # nothing to hand off, so nothing to wait for
        return [fn(*item) for item in items]
    futures = [_pool.submit(fn, *item) for item in items[1:]]
    try:
        first = fn(*items[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _row_blocks(m: int, madds: int) -> list[tuple[int, int]]:
    """Balanced row blocks ``(lo, hi)`` of ``m`` rows of a job of ``madds``
    multiply-adds: at most one per lane, each of at least two rows (a 1-row
    block rounds differently from a multi-row product) and about
    ``LANE_MADDS`` multiply-adds or more; one in all for a small job."""
    parts = max(1, min(WORKERS, m // 2, madds // LANE_MADDS))
    cuts = [m * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _matmul(a: Array, b: Array, finish: Callable[[Array], object] | None = None) -> Array:
    """``a @ b``, split by rows over up to ``WORKERS`` threads (``_row_blocks``); then ``finish``.

    Each lane computes its block of output rows in place into one output
    array, so the workers allocate nothing, and then runs ``finish`` on that
    C-contiguous block; the caller computes the first block itself while the
    pool computes the others (numpy releases the GIL in ``matmul``).
    """
    m = a.shape[0]
    out = np.empty((m, b.shape[1]))

    def lane(lo, hi):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
        if finish is not None:
            finish(out[lo:hi])

    fan_out(lane, _row_blocks(m, m * a.shape[1] * b.shape[1]))
    return out


# Elements per block (256 KB) of a dense layer's epilogue and of
# ``_sigmoid_``, so every pass over a block finds it in cache.
EPILOGUE_BLOCK = 1 << 15


def _epilogue(data: Array, bias: Array, act: str) -> None:
    """``data = act(data + bias)`` in place, one row block at a time."""
    rows = max(1, EPILOGUE_BLOCK // max(data.shape[1], 1))
    for start in range(0, data.shape[0], rows):
        block = data[start : start + rows]
        block += bias
        if act == "relu":
            np.maximum(block, 0.0, out=block)


def linear(x: Tensor, weight: Tensor, bias: Tensor, *, act: str = "identity") -> Tensor:
    """Fused dense layer ``act(x @ weight.T + bias)``, one tape node.

    The bias add and the activation run in place on the product, each lane
    on the rows it computed; the node keeps only its output, which is all
    its backward needs.
    """
    if act not in ACTIVATIONS:
        raise ContractError(f"unknown activation {act!r}")
    if x.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise DimensionError.mismatch("dense input vs weight", x.shape, weight.shape)
    if bias.shape != weight.shape[:1]:
        raise DimensionError.mismatch("dense weight vs bias", weight.shape, bias.shape)
    data = _matmul(x.data, weight.data.T, partial(_epilogue, bias=bias.data, act=act))

    def backward(g):
        if act == "relu":  # relu' read off the output: out > 0 exactly where pre > 0
            g = g * (data > 0.0)
        pairs = []
        if x.requires_grad:
            pairs.append((x, _matmul(g, weight.data)))
        if weight.requires_grad:
            pairs.append((weight, _matmul(g.T, x.data)))
        if bias.requires_grad:
            pairs.append((bias, g.sum(axis=0)))
        return pairs

    return _node(data, (x, weight, bias), backward)


_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = 1.0 - 2.0**-53  # largest double strictly below 1


def _sigmoid_(z: Array) -> Array:
    """Logistic function of a C-contiguous ``z``, in place, ``EPILOGUE_BLOCK`` elements at a time.

    With e = exp(-|z|) <= 1 no exp can overflow, and sigmoid(z) is
    1 / (1 + e) for z >= 0 and e / (1 + e) for z < 0; the numerator
    e * neg + ~neg is exactly 1 or e. Saturated values are pinned to the
    nearest doubles inside (0, 1), so the open-interval output contract
    holds. NaN stays NaN.
    """
    for block in np.split(z.reshape(-1), range(EPILOGUE_BLOCK, z.size, EPILOGUE_BLOCK)):
        neg = block < 0.0
        np.copysign(block, -1.0, out=block)
        np.exp(block, out=block)
        denom = block + 1.0
        block *= neg
        block += ~neg
        block /= denom
        np.clip(block, _SIGMOID_LO, _SIGMOID_HI, out=block)
    return z


def bce_logits(z: Tensor, x: Tensor) -> Tensor:
    """Binary cross-entropy of targets ``x`` against ``sigmoid(z)``, one tape node.

    Summed over all elements and divided by the batch (the first axis), in
    the form ``sum(max(z, 0) - z x + log1p(exp(-|z|))) / batch``: no
    probability is formed, so a saturated logit keeps its true loss and
    gradient. The backward is ``(sigmoid(z) - x) g / batch``; the targets
    are constants and receive no gradient.
    """
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


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    """``sum((a - b)**2) / batch`` of two same-shape operands (batch: the first axis), one tape node."""
    if a.shape != b.shape:
        raise DimensionError.mismatch("squared_error", a.shape, b.shape)
    batch = a.shape[0]
    d = a.data - b.data
    data = np.asarray((d * d).sum() * (1.0 / batch))

    def backward(g):
        ga = (g * (1.0 / batch)) * 2.0 * d
        return ((a, ga), (b, -ga))

    return _node(data, (a, b), backward)


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


# The central-difference step of every gradient check.
FD_STEP = 1e-5


def finite_diff_grad(f: Callable[[], float], params: Sequence[Tensor]) -> list[Array]:
    """Central-difference gradient estimate of ``f`` for each parameter entry, step ``FD_STEP``.

    ``f`` must be deterministic and must read the current values of ``params``
    when called; entries are perturbed in place and restored afterwards.
    """
    grads: list[Array] = []
    for p in params:
        est = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        out = est.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = f()
            flat[i] = orig - FD_STEP
            down = f()
            flat[i] = orig
            out[i] = (up - down) / (2.0 * FD_STEP)
        grads.append(est)
    return grads


def max_rel_error(analytic: Array, numeric: Array, floor: float = 1e-6) -> float:
    """Largest relative disagreement, with a small-magnitude floor."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gradient_check(build_loss: Callable[[], Tensor], params: Sequence[Tensor], floor: float = 1e-6) -> float:
    """Compare backward() against finite differences; return the max rel error.

    ``build_loss`` must rebuild the graph from ``params`` on every call.
    """
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    numeric = finite_diff_grad(lambda: build_loss().item(), params)
    return max(
        max_rel_error(a, n, floor) for a, n in zip(analytic, numeric)
    )
