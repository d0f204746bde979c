"""Tracing of the devae modules from outside the package.

The tracer replaces public functions and methods with timing wrappers for
the length of a traced phase and puts the originals back afterwards.
Because the modules import each other's functions by name, a function is
wrapped at every module that binds it (``devae.trainer.forward_train``,
``devae.cli.load_checkpoint``, ...). Tensor ops are wrapped at
``devae.tensor``; ``gaussian`` and ``losses`` reach them through that
module, and the operator methods of ``Tensor`` look them up there too.

Every wrapped call records a span (name, start, end, parent, run id). The
backward closure an op leaves on its output is wrapped as well, so each
op's backward time is a span of its own, nested in ``tensor.backward``.
Spans stay in memory until the phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

OPS = ("linear", "relu", "sigmoid", "exp", "log", "add", "sub", "mul", "square",
       "clamp", "tsum", "tmean", "slice_cols", "concat_cols")
LAYERS = ("enc0", "enc1", "mu", "var", "dec0", "dec1", "out")
LOSSES = ("recon_bce", "recon_mse", "proj_loss", "ent_loss")
CLI_COMMANDS = ("project", "reconstruct", "latent-plot", "pca")

# Adam's minimal memory traffic per parameter and step: read p, g, m, v;
# write p, m, v; 8 bytes each.
ADAM_ACCESSES = 7


class Tracer:
    """Span recorder with per-tag counters for backward attribution."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self.run_id = 0
        self.enabled = True
        self.in_step = 0
        # Open attribution scopes (layer, loss, sampling); backward closures
        # created inside them add their time to each scope's counter.
        self.tags: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_names: dict[int, str] = {}

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> float:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        return t - self.start[i]

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    @contextlib.contextmanager
    def paused(self):
        """Leave the benchmark's own checks out of the trace."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrappers ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, tag: bool = False, step: bool = False):
        """Run ``fn`` inside a span; ``tag`` opens an attribution scope."""
        if tag:
            self.tags.append(name)
        if step:
            self.in_step += 1
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(i)
            if tag:
                self.tags.pop()
            if step:
                self.in_step -= 1

    def wrap(self, name: str, fn, tag: bool = False, step: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, tag, step)
        return traced

    def wrap_op(self, op: str, fn):
        fwd_name, bwd_name = f"tensor.op.{op}.fwd", f"tensor.op.{op}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.begin(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            flops_bwd = 0.0
            if op == "linear":
                fwd, flops_bwd = linear_flops(*args)
                self._count("linear.fwd_flops", fwd)
            closure = getattr(out, "_backward", None)
            if closure is not None:
                tags = tuple(self.tags)
                self._count("nodes", 1)
                for t in tags:
                    self.counters[t + ".nodes"] += 1
                out._backward = self._timed_closure(bwd_name, closure, tags, flops_bwd)
            return out
        return traced

    def _count(self, key: str, value: float) -> None:
        self.counters[key] += value
        if self.in_step:
            self.counters[key + ".step"] += value

    def _timed_closure(self, name, closure, tags, flops):
        def run(grad):
            i = self.begin(name)
            try:
                return closure(grad)
            finally:
                dt = self.finish(i)
                for t in tags:
                    self.counters[t + ".bwd_s"] += dt
                if flops:
                    self._count("linear.bwd_flops", flops)
        return run

    # -- output -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def write_spans(self, path) -> None:
        s = self.spans()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for i in range(s["start"].size):
                fh.write(f"{i},{self.names[s['name_id'][i]]},{s['start'][i]!r},{s['end'][i]!r},"
                         f"{s['parent'][i]},{s['run'][i]}\n")


def linear_flops(x, weight, bias) -> tuple[float, float]:
    """Computed FLOPs of one ``linear`` call: (forward, backward).

    Forward is the [b, i] x [i, o] product plus the bias add. Backward counts
    the input gradient and weight gradient products and the bias reduction,
    each only when that operand requires a gradient.
    """
    b, i = x.shape
    o = weight.shape[0]
    product = 2.0 * b * i * o
    def grad(t):
        return getattr(t, "requires_grad", False)

    bwd = (product if grad(x) else 0.0) + (product if grad(weight) else 0.0)
    bwd += float(b * o) if grad(bias) else 0.0
    return product + b * o, bwd


def summarize(names, name_id, start, end, parent) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the durations of the spans
    whose parent it is; spans nest, so children never overlap.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=dur, minlength=n)
    own = np.bincount(name_id, weights=dur - child, minlength=n)
    return {name: (int(calls[k]), float(total[k]), float(own[k])) for k, name in enumerate(names)}


class Patcher:
    """Sets attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced boundary of the package; returns the undo handle."""
    import devae.cli
    import devae.data
    import devae.evaluation
    import devae.gaussian
    import devae.model
    import devae.tensor
    import devae.trainer
    import devae.viz

    p = Patcher()
    w = tracer.wrap

    for op in OPS:
        p.replace(devae.tensor, op, lambda fn, op=op: tracer.wrap_op(op, fn))
    p.replace(devae.tensor.Tensor, "backward", lambda fn: w("tensor.backward", fn, step=True))

    def layer_call(fn):
        @functools.wraps(fn)
        def traced(layer, x):
            if not tracer.enabled:
                return fn(layer, x)
            name = "model.layer." + tracer.layer_names.get(id(layer), "unknown")
            return tracer.call(name, fn, (layer, x), {}, tag=True)
        return traced

    p.replace(devae.tensor.DenseLayer, "__call__", layer_call)

    def register_layers(fn):
        @functools.wraps(fn)
        def init(model, *args, **kwargs):
            fn(model, *args, **kwargs)
            names = {}
            for k, layer in enumerate(model.trunk):
                names[id(layer)] = f"enc{k}"
            names[id(model.mu_head)] = "mu"
            if model.var_head is not None:
                names[id(model.var_head)] = "var"
            for k, layer in enumerate(model.decoder[:-1]):
                names[id(layer)] = f"dec{k}"
            names[id(model.decoder[-1])] = "out"
            tracer.layer_names.update(names)
        return init

    DeVae = devae.model.DeVae
    p.replace(DeVae, "__init__", register_layers)
    for method in ("encode", "decode", "zero_grad", "snapshot"):
        p.replace(DeVae, method, lambda fn, m=method: w(f"model.{m}", fn))
    p.replace(devae.model, "save_checkpoint", lambda fn: w("model.save_checkpoint", fn))
    for owner in (devae.model, devae.cli):
        p.replace(owner, "load_checkpoint", lambda fn: w("model.load_checkpoint", fn))

    Latent = devae.gaussian.GaussianLatent
    p.replace(Latent, "sample", lambda fn: w("gaussian.sample", fn, tag=True))
    p.replace(Latent, "entropy", lambda fn: w("gaussian.entropy", fn, tag=True))
    p.replace(Latent, "covariance_matrix", lambda fn: w("gaussian.covariance_matrix", fn))

    for loss in LOSSES:
        p.replace(devae.model, loss, lambda fn, n=loss: w(f"losses.{n}", fn, tag=True))

    p.replace(devae.trainer, "forward_train", lambda fn: w("trainer.forward", fn, step=True))
    p.replace(devae.trainer.Adam, "step", lambda fn: w("trainer.adam", fn))
    for owner in (devae.trainer, devae.cli):
        p.replace(owner, "evaluate", lambda fn: w("evaluation.evaluate", fn))

    p.replace(devae.cli, "class_ellipses", lambda fn: w("evaluation.class_ellipses", fn))
    p.replace(devae.evaluation, "class_medoid_indices",
              lambda fn: w("evaluation.class_medoid_indices", fn))

    def read_csv(fn):
        traced = w("data.read_csv_vectors", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            X, labels = traced(*args, **kwargs)
            if tracer.enabled:
                tracer.counters["csv.cells"] += X.shape[0] * (X.shape[1] + (labels is not None))
            return X, labels
        return counted

    p.replace(devae.data, "read_csv_vectors", read_csv)
    for fn_name in ("read_idx", "scale_pixels", "write_csv_vectors", "read_projection_csv",
                    "write_projection_csv", "make_blobs", "pca_project"):
        p.replace(devae.data, fn_name, lambda fn, n=fn_name: w(f"data.{n}", fn))

    p.replace(devae.cli, "grid_inverse_sheet", lambda fn: w("viz.grid_inverse_sheet", fn))
    p.replace(devae.cli, "latent_plot_svg", lambda fn: w("viz.latent_plot_svg", fn))
    p.replace(devae.viz, "decode_to_bytes", lambda fn: w("viz.decode_to_bytes", fn))
    p.replace(devae.viz, "write_pgm", lambda fn: w("viz.write_pgm", fn))
    return p


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced phase, as name -> (value, unit).

    ``facts`` holds what the benchmark measured around the trace: the traced
    training run's epoch durations, parameter count, input and output
    properties, ``ru_maxrss`` after each operation and the tracing overhead.
    Names ending in ``_ms`` without ``step``/``epoch`` are totals over the
    traced phase, which does a fixed amount of work.
    """
    s = tracer.spans()
    stats = summarize(tracer.names, s["name_id"], s["start"], s["end"], s["parent"])
    c = tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total_ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for op in OPS:
        out[f"tensor.op.{op}.fwd_ms"] = (total_ms(f"tensor.op.{op}.fwd"), "ms")
        out[f"tensor.op.{op}.bwd_ms"] = (total_ms(f"tensor.op.{op}.bwd"), "ms")
        out[f"tensor.op.{op}.calls"] = (calls(f"tensor.op.{op}.fwd"), "count")

    steps = calls("trainer.adam")
    epochs_s = facts["epochs_s"]
    n_epochs = len(epochs_s)
    out["tensor.nodes_per_step"] = (ratio(c["nodes.step"], steps), "count")
    out["tensor.backward.walk_ms"] = (self_ms("tensor.backward"), "ms")
    linear_s = (total_ms("tensor.op.linear.fwd") + total_ms("tensor.op.linear.bwd")) / 1e3
    out["tensor.linear.gflops"] = (ratio(c["linear.fwd_flops"] + c["linear.bwd_flops"], linear_s) / 1e9, "GFLOP/s")
    out["tensor.linear.fwd_flops_per_step"] = (ratio(c["linear.fwd_flops.step"], steps), "FLOP")
    out["tensor.linear.bwd_flops_per_step"] = (ratio(c["linear.bwd_flops.step"], steps), "FLOP")

    for layer in LAYERS:
        name = f"model.layer.{layer}"
        out[f"{name}.fwd_ms"] = (total_ms(name), "ms")
        out[f"{name}.bwd_ms"] = (1e3 * c[name + ".bwd_s"], "ms")
    for m in ("encode", "decode"):
        out[f"model.{m}.ms"] = (total_ms(f"model.{m}"), "ms")
        out[f"model.{m}.calls"] = (calls(f"model.{m}"), "count")
    out["model.load_checkpoint.ms"] = (total_ms("model.load_checkpoint"), "ms")
    out["model.snapshot.ms"] = (total_ms("model.snapshot"), "ms")
    out["model.snapshot.calls"] = (calls("model.snapshot"), "count")
    out["model.zero_grad.ms"] = (total_ms("model.zero_grad"), "ms")

    out["gaussian.sample.ms"] = (total_ms("gaussian.sample") + 1e3 * c["gaussian.sample.bwd_s"], "ms")
    out["gaussian.sample.nodes"] = (ratio(c["gaussian.sample.nodes"], calls("gaussian.sample")), "count")
    out["gaussian.entropy.ms"] = (total_ms("gaussian.entropy") + 1e3 * c["gaussian.entropy.bwd_s"], "ms")
    out["gaussian.covariance_matrix.calls"] = (calls("gaussian.covariance_matrix"), "count")

    for loss in LOSSES:
        name = f"losses.{loss}"
        out[f"{name}.ms"] = (total_ms(name) + 1e3 * c[name + ".bwd_s"], "ms")
    out["losses.bce_clamped_share"] = (facts["bce_clamped_share"], "ratio")

    per_step = {
        "forward_ms": total_ms("trainer.forward"),
        "backward_ms": total_ms("tensor.backward"),
        "adam_ms": total_ms("trainer.adam"),
        "zero_grad_ms": total_ms("model.zero_grad"),
    }
    for key, ms in per_step.items():
        out[f"trainer.step.{key}"] = (ratio(ms, steps), "ms")
    epoch_ms = ratio(1e3 * sum(epochs_s), n_epochs)
    validate_ms = ratio(total_ms("evaluation.evaluate"), n_epochs)
    attributed = ratio(sum(per_step.values()) + total_ms("model.snapshot"), n_epochs) + validate_ms
    out["trainer.epoch.validate_ms"] = (validate_ms, "ms")
    out["trainer.epoch.other_ms"] = (epoch_ms - attributed, "ms")
    out["trainer.steps_per_epoch"] = (ratio(steps, n_epochs), "count")
    out["trainer.adam.share"] = (ratio(per_step["adam_ms"], 1e3 * sum(epochs_s)), "ratio")
    out["trainer.adam.bytes_per_step"] = (8.0 * ADAM_ACCESSES * facts["n_params"], "B")

    out["evaluation.evaluate.ms"] = (total_ms("evaluation.evaluate"), "ms")
    out["evaluation.class_medoid_indices.ms"] = (total_ms("evaluation.class_medoid_indices"), "ms")
    out["evaluation.class_ellipses.ms"] = (total_ms("evaluation.class_ellipses"), "ms")

    csv_ms = total_ms("data.read_csv_vectors")
    out["data.read_csv_vectors.ms"] = (csv_ms, "ms")
    out["data.read_csv_vectors.cells_per_s"] = (ratio(c["csv.cells"], csv_ms / 1e3), "cells/s")
    for fn_name in ("read_idx", "read_projection_csv", "pca_project", "write_csv_vectors"):
        out[f"data.{fn_name}.ms"] = (total_ms(f"data.{fn_name}"), "ms")
    out["data.zero_pixel_share"] = (facts["zero_pixel_share"], "ratio")

    out["viz.grid_inverse_sheet.ms"] = (total_ms("viz.grid_inverse_sheet"), "ms")
    out["viz.decode_to_bytes.calls"] = (calls("viz.decode_to_bytes"), "count")
    out["viz.latent_plot_svg.ms"] = (total_ms("viz.latent_plot_svg"), "ms")

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_ms"] = (self_ms(f"cli.{cmd}"), "ms")

    for op, mb in facts["rss_after"].items():
        out[f"process.rss_after.{op}"] = (mb, "MB")
    for op, ms in facts["overhead_ms"].items():
        out[f"trace.overhead.{op}_ms"] = (ms, "ms")
    return out
