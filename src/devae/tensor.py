"""Dense float64 arrays, the model's ops with their backward functions, and the product pool.

The model is one fixed chain, so its gradient is the hand-written adjoint
of that chain: reverse mode without a tape. Each op is a pair of functions
on arrays, a forward that returns its value and a backward that maps the
gradient of its output to the gradients of its inputs: the fused dense
layer ``linear`` and the losses ``bce_logits`` (binary cross-entropy from
logits) and ``squared_error``. The latent sample and the entropy term pair
up the same way in ``gaussian`` and ``losses``, and ``model.backward``
walks the chain. ``Tensor`` is only a value: the type that
``DeVae.encode``, ``decode`` and ``parameters()`` return.

``linear(x, W, b, act=...)`` runs the bias add and the activation (identity
or relu) in place on the product, a cache-sized row block at a time; its
backward reads relu' off the output (out > 0) and writes the weight and
bias gradients into arrays its caller gives, views of ``DeVae.grad``. The
one sigmoid, ``_sigmoid_``, runs in place in ``bce_logits``' backward and
on ``DeVae.decode``'s output, there on the output product's row blocks.

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
time, one per lane, and ``trainer.Adam`` updates blocks of the parameter
vector in lanes. The pool's workers touch only raw arrays: each computes
and finishes one row block of a product, one block of a PCA pass or one
lane of Adam's blocks, in arrays its caller allocated. At import, numpy's
OpenBLAS is pinned to one thread, since it rounds a product differently at
other thread counts; a row of a product does not depend on the other rows
computed with it, so the bytes of every output are the same at any
``OPENBLAS_NUM_THREADS`` and any worker count. Where no setter for the BLAS
thread count is found, ``BLAS_PINNED`` is False, ``WORKERS`` is 1 and
nothing reaches the pool.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

ACTIVATIONS = ("identity", "relu")


def as_array(x) -> Array:
    """The value of a ``Tensor``, or ``x`` as a C-contiguous float64 array of its
    own shape (0-d stays 0-d); an array that already is one is not copied."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64, order="C")


class Tensor:
    """An n-d float64 value: what ``encode``, ``decode`` and ``parameters()`` return."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data: Array = as_array(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size


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


def _matmul(a: Array, b: Array, finish: Callable[[Array], object] | None = None, out: Array | None = None) -> Array:
    """``a @ b`` into ``out`` (a new array when None), split by rows over up to
    ``WORKERS`` threads (``_row_blocks``); then ``finish``.

    Each lane computes its block of output rows in place into the one output
    array, so the workers allocate nothing, and then runs ``finish`` on that
    C-contiguous block; the caller computes the first block itself while the
    pool computes the others (numpy releases the GIL in ``matmul``).
    """
    m = a.shape[0]
    if out is None:
        out = np.empty((m, b.shape[1]))

    def lane(lo, hi):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
        if finish is not None:
            finish(out[lo:hi])

    fan_out(lane, _row_blocks(m, m * a.shape[1] * b.shape[1]))
    return out


# Elements per block (256 KB) of every in-place multi-pass sweep: a dense
# layer's epilogue, ``_sigmoid_`` and the Adam update (``trainer.Adam``), so
# each pass over a block finds it in cache.
CACHE_BLOCK = 1 << 15


def _epilogue(data: Array, bias: Array, act: str) -> None:
    """``data = act(data + bias)`` in place, one row block at a time."""
    rows = max(1, CACHE_BLOCK // max(data.shape[1], 1))
    for start in range(0, data.shape[0], rows):
        block = data[start : start + rows]
        block += bias
        if act == "relu":
            np.maximum(block, 0.0, out=block)


def linear(x: Array, weight: Array, bias: Array, *, act: str = "identity") -> Array:
    """Fused dense layer ``act(x @ weight.T + bias)``.

    The bias add and the activation run in place on the product, each lane
    on the rows it computed. ``linear_backward`` needs only the input and
    this output.
    """
    if act not in ACTIVATIONS:
        raise ContractError(f"unknown activation {act!r}")
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise DimensionError.mismatch("dense input vs weight", x.shape, weight.shape)
    if bias.shape != weight.shape[:1]:
        raise DimensionError.mismatch("dense weight vs bias", weight.shape, bias.shape)
    return _matmul(x, weight.T, partial(_epilogue, bias=bias, act=act))


def linear_backward(g: Array, x: Array, weight: Array, out: Array, act: str,
                    grad_weight: Array, grad_bias: Array, need_dx: bool = True) -> Array | None:
    """The backward of ``out = linear(x, weight, bias, act=act)`` for an output gradient ``g``.

    Writes the weight and bias gradients into ``grad_weight`` and
    ``grad_bias`` and returns the input gradient, or None when ``need_dx`` is
    False (the model's input needs none).
    """
    if act == "relu":  # relu' read off the output: out > 0 exactly where pre > 0
        g = g * (out > 0.0)
    _matmul(g.T, x, out=grad_weight)
    np.sum(g, axis=0, out=grad_bias)
    return _matmul(g, weight) if need_dx else None


_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = 1.0 - 2.0**-53  # largest double strictly below 1


def _sigmoid_(z: Array) -> Array:
    """Logistic function of a C-contiguous ``z``, in place, ``CACHE_BLOCK`` elements at a time.

    With e = exp(-|z|) <= 1 no exp can overflow, and sigmoid(z) is
    1 / (1 + e) for z >= 0 and e / (1 + e) for z < 0; the numerator
    max(e, z >= 0) is exactly 1 or e. Saturated values are pinned to the
    nearest doubles inside (0, 1), so the open-interval output contract
    holds. NaN stays NaN.
    """
    flat = z.reshape(-1)
    for start in range(0, flat.size, CACHE_BLOCK):
        block = flat[start : start + CACHE_BLOCK]
        pos = block >= 0.0
        np.abs(block, out=block)
        np.negative(block, out=block)
        np.exp(block, out=block)
        denom = block + 1.0
        np.maximum(block, pos, out=block)
        block /= denom
        np.clip(block, _SIGMOID_LO, _SIGMOID_HI, out=block)
    return z


def bce_logits(z: Array, x: Array) -> float:
    """Binary cross-entropy of targets ``x`` against ``sigmoid(z)``.

    Summed over all elements and divided by the batch (the first axis), in
    the form ``sum(max(z, 0) - z x + log1p(exp(-|z|))) / batch``: no
    probability is formed, so a saturated logit keeps its true loss and
    gradient.
    """
    if z.shape != x.shape:
        raise DimensionError.mismatch("bce_logits", z.shape, x.shape)
    loss = np.maximum(z, 0.0)
    term = np.multiply(z, x)
    loss -= term
    np.negative(np.abs(z, out=term), out=term)  # -|z|
    np.exp(term, out=term)
    loss += np.log1p(term, out=term)
    return float(loss.sum() / z.shape[0])


def bce_logits_backward(z: Array, x: Array, g: float) -> Array:
    """The gradient on ``z`` of ``g * bce_logits(z, x)``: ``(sigmoid(z) - x) g / batch``.

    The targets are constants and receive none.
    """
    grad = _sigmoid_(z.copy())
    grad -= x
    grad *= g / z.shape[0]
    return grad


def squared_error(a: Array, b: Array) -> float:
    """``sum((a - b)**2) / batch`` of two same-shape operands (batch: the first axis)."""
    if a.shape != b.shape:
        raise DimensionError.mismatch("squared_error", a.shape, b.shape)
    d = a - b
    return float((d * d).sum() * (1.0 / a.shape[0]))


def squared_error_backward(a: Array, b: Array, g: float) -> Array:
    """The gradient on ``a`` of ``g * squared_error(a, b)``; ``b``'s is its negation."""
    return (g * (1.0 / a.shape[0])) * 2.0 * (a - b)


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

    def __call__(self, x: Array) -> Array:
        """activation(x @ weight.T + bias) for a [batch, in] input."""
        return linear(x, self.weight.data, self.bias.data, act=self.activation)


# -- finite differences -------------------------------------------------------


# The central-difference step of every gradient check.
FD_STEP = 1e-5


def finite_diff_grad(f: Callable[[], float], params: Sequence[Array]) -> list[Array]:
    """Central-difference gradient estimate of ``f`` for each entry of each array, step ``FD_STEP``.

    ``f`` must be deterministic and must read the current values of ``params``
    when called; entries are perturbed in place and restored afterwards.
    """
    grads: list[Array] = []
    for p in params:
        est = np.zeros_like(p)
        flat = p.reshape(-1)
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


def gradient_check(loss: Callable[[], float], grads: Callable[[], Sequence[Array]],
                   params: Sequence[Array], floor: float = 1e-6) -> float:
    """Max relative error of a backward against finite differences of its forward: ``loss``
    computes the scalar, ``grads`` its gradient on each of ``params``, from their current values."""
    analytic = [np.array(g) for g in grads()]
    numeric = finite_diff_grad(loss, params)
    return max(max_rel_error(a, n, floor) for a, n in zip(analytic, numeric))
