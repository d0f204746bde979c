"""Run the devae benchmark.

    python3 perfbench/run.py --workload desk_mse --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --workload all --smoke  # tiny sizes, every step and check

Run it from the root of a checkout; it imports the package from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-module
metrics of a traced phase and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full record (environment, tail percentile, failures) goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread: the steadiest setting on a small shared box. It must be
# fixed before numpy loads, which happens in the functions below.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Fixed glibc malloc thresholds for this process. Left dynamic, the mmap
# threshold follows the allocation history, and whether each encode's
# megabyte-sized temporaries are fresh zeroed pages or reused heap differed
# between seeds: desk encode took 4.2 or 7 ms. Set before numpy allocates.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = {"mmap": 64 << 20, "trim": 256 << 20}


def _fix_malloc():
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    ok = (mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLDS["mmap"])
          and mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLDS["trim"]))
    return MALLOC_THRESHOLDS if ok else None


MALLOC_FIXED = _fix_malloc()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk_mse", "pixels_bce", "pixels_infer")

# The one-off baseline the per-step split is compared with (2 cores, OpenBLAS,
# batch 64, full head): 784-d BCE per epoch, and the desk run's Adam share.
BASELINE_BCE_MS = {"forward": 284.0, "backward": 468.0, "adam": 795.0, "validate": 35.0, "epoch": 1550.0}
BASELINE_DESK_ADAM_SHARE = 29.0 / 53.0

# Calls of each inference operation per run, at least; the first is warm-up.
MIN_CALLS = 3


class Tally:
    """Operations attempted and failed; a failed check counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted and the run goes on
            self.fail(name, exc)
            return None

    def fail(self, name: str, exc) -> None:
        self.failures.append(f"{name}: {exc}")
        print(f"FAILED {name}: {exc}", file=sys.stderr)
        if isinstance(exc, BaseException):
            traceback.print_exception(exc, file=sys.stderr)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads_in_effect():
    """Thread count OpenBLAS reports, read from the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "malloc_thresholds": MALLOC_FIXED,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# -- one workload ------------------------------------------------------------


def end_to_end(spec, runs, setup_s, times, n_train) -> tuple[dict, dict]:
    from perfbench import stats

    epochs = [e for r in runs for e in r.epochs_s[1:]]  # first epoch of a run is warm-up
    pct, tail_s, n = stats.tail(epochs)

    # Throughputs and per-call times are means over the run, first call left
    # out: the box alternates between two speeds, and a median jumps from one
    # to the other with the mix a run gets, where a mean moves with it.
    def mean_call(name):
        return stats.mean(times[name][1:])

    first = runs[0]
    metrics = {
        "setup_s": (stats.median(setup_s), "s"),
        "train_samples_per_s": (n_train / stats.mean(epochs), "samples/s"),
        "epoch_ms.p50": (1e3 * stats.median(epochs), "ms"),
        "test_recon_mse": (first.test_recon_mse, "loss"),
        "encode_rows_per_s": (spec.rows / mean_call("encode"), "rows/s"),
        "decode_rows_per_s": (spec.rows / mean_call("decode"), "rows/s"),
        "pca_s": (mean_call("pca"), "s"),
        "project_s": (mean_call("project"), "s"),
        "reconstruct_s": (mean_call("reconstruct"), "s"),
        "latent_plot_s": (mean_call("latent_plot"), "s"),
        "peak_rss_mb": (maxrss_mb(), "MB"),
    }
    detail = {
        # Printed and recorded, not benchmark metrics: over ten seeds each
        # spread by more than any bound allows. The projection loss varies by
        # a third or more (the training outcome); the pure-Python CSV parse
        # by up to 0.3 and the desk epoch tail by up to 0.48 (the box's two
        # speeds: the tail lands in the slow one or not).
        "recorded_only": {"epoch_ms.tail": (1e3 * tail_s, "ms"),
                          "test_proj_mse": (first.test_proj_mse, "loss"),
                          "csv_load_s": (mean_call("csv_load"), "s")},
        "epoch_ms.tail": {"percentile": pct, "samples": n},
        "training_runs": len(runs),
        "samples_ms": {"epochs": [1e3 * e for e in epochs],
                       **{k: [1e3 * t for t in v] for k, v in times.items()}},
    }
    return metrics, detail


class Scheduler:
    """Interleaved calls of the inference operations, in time slices.

    Every operation gets an equal share of the inference time and at least
    MIN_CALLS calls, the first of which is warm-up: the next call always goes
    to the operation that has used the least time, so cheap operations get
    more calls than expensive ones. On the training workloads the slices
    alternate with training runs, so both phases sample the whole run.
    ``rss`` receives ``ru_maxrss`` after each operation's first call, so the
    operation that raises the high-water mark shows.
    """

    def __init__(self, ops, tally, share: float, rss: dict):
        self.ops, self.tally, self.share, self.rss = ops, tally, share, rss
        self.times = {name: [] for name in ops.ORDER}
        self.calls = dict.fromkeys(ops.ORDER, 0)
        self.spent = dict.fromkeys(ops.ORDER, 0.0)

    def run(self, until: float, finish: bool = False) -> None:
        """Call due operations until ``until``; ``finish`` tops up MIN_CALLS."""
        while True:
            due = [name for name in self.ops.ORDER
                   if (self.spent[name] < self.share and perf_counter() < until)
                   or (finish and self.calls[name] < MIN_CALLS)]
            if not due:
                return
            name = min(due, key=lambda n: (self.calls[n] >= MIN_CALLS, self.spent[n]))
            t0 = perf_counter()
            self.calls[name] += 1
            dt = self.tally.attempt(name, self.ops.run, name)
            self.spent[name] += perf_counter() - t0
            self.rss.setdefault(name, maxrss_mb())
            if dt is not None:
                self.times[name].append(dt)


def run_workload(args) -> int:
    from perfbench import workloads as wl

    spec = wl.SPECS[args.workload]
    if args.smoke:
        spec = wl.smoke(spec)
    env = environment(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_work" / f"{spec.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    session = wl.Session()
    clock = wl.EpochClock()
    try:
        setup_s, runs = [], []
        for _ in range(spec.setups):
            t0 = perf_counter()
            tally.attempted += 1
            inputs, run = wl.set_up(spec, args.seed, workdir, clock, session)  # nothing runs without it
            setup_s.append(perf_counter() - t0)
            if run is not None:
                runs.append(run)

        t_start = perf_counter()
        end = t_start + budget
        train_budget = spec.train_share * budget
        share = (budget - train_budget) / len(wl.Operations.ORDER)
        rss, sched = {}, None

        def scheduler():  # after the first training run, which wrote the checkpoint
            rss["train"] = maxrss_mb()
            return Scheduler(wl.Operations(spec, inputs, workdir, session), tally, share, rss)

        attempts, train_spent, dt = 0, 0.0, 0.0
        # Start another run while it would end nearer the training budget than not.
        while not spec.trains_in_setup and (attempts < (1 if args.trace else 2) or (
                train_spent + dt / 2 < train_budget and perf_counter() < end)):
            t0 = perf_counter()
            attempts += 1
            run = tally.attempt("train", wl.train_run, spec, inputs, args.seed, clock, session)
            dt = perf_counter() - t0
            train_spent += dt
            if run is not None:
                runs.append(run)
            sched = sched or scheduler()
            sched.run(until=perf_counter() + dt * (1.0 - spec.train_share) / spec.train_share)
        sched = sched or scheduler()
        sched.run(until=end, finish=True)
        if not runs:
            raise RuntimeError("no training run completed")
        for k, run in enumerate(runs[1:], start=1):
            if (run.test_proj_mse, run.test_recon_mse) != (runs[0].test_proj_mse, runs[0].test_recon_mse):
                tally.fail("determinism", f"training run {k} of one seed gave other test losses")
        ops, times = sched.ops, sched.times
        n_train = int(inputs.bundle.indices("train").size)
        metrics, detail = end_to_end(spec, runs, setup_s, times, n_train)
        if args.trace:
            metrics, extra = traced_phase(spec, args.seed, workdir, clock, session, ops, tally,
                                          runs, times, rss, metrics, out_dir)
            detail.update(extra)
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    lines = [f"workload {spec.name}  seed {args.seed}  trace {args.trace}  smoke {int(args.smoke)}",
             "environment " + json.dumps(env, sort_keys=True)]
    if not args.trace:
        d = detail["epoch_ms.tail"]
        lines.append(f"epoch_ms.tail is p{d['percentile']:.1f} of {d['samples']} epochs")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:>16.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in detail["recorded_only"].items():
            lines.append(f"  {name:40s} {value:>16.6g} {unit} (recorded only)")
    lines.append(f"  {'ops_failed':40s} {failed:>16d} count (of {tally.attempted} attempted)")
    for line in detail.get("baseline", []):
        lines.append(line)
    print("\n".join(lines))

    record = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "detail": detail, "failures": tally.failures,
              "attempted": tally.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    name = f"{spec.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def traced_phase(spec, seed, workdir, clock, session, ops, tally, runs, times, rss, e2e, out_dir):
    """One traced set-up, training run and call of every operation.

    The phase does a fixed amount of work, so call and node counts repeat
    exactly. Its times are compared with the untraced ones before it for
    the tracing overhead. ``rss`` comes from that untraced part, where the
    process's high-water mark still rises operation by operation.
    """
    import numpy as np

    from perfbench import stats, tracing, workloads as wl

    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    session.tracer = tracer
    traced = {}
    try:
        tracer.run_id = 1
        with tracer.span("setup"):
            inputs, run = tally.attempt("traced setup", wl.set_up, spec, seed, workdir, clock, session) or (None, None)
        if not spec.trains_in_setup:
            tracer.run_id = 2
            with tracer.span("train.run"):
                run = tally.attempt("traced train", wl.train_run, spec, ops.inputs, seed, clock, session)
        for name in ops.ORDER:
            tracer.run_id += 1
            with tracer.span(f"op.{name}"):
                traced[name] = tally.attempt(f"traced {name}", ops.run, name)
    finally:
        patch.restore()
        session.tracer = None
    if run is None or any(v is None for v in traced.values()):
        raise RuntimeError("the traced phase did not complete")
    if (run.test_proj_mse, run.test_recon_mse) != (runs[0].test_proj_mse, runs[0].test_recon_mse):
        tally.fail("determinism", "the traced training run gave other test losses")

    untraced_epochs = [e for r in runs for e in r.epochs_s[1:]]
    overhead = {"epoch": 1e3 * (stats.median(run.epochs_s[1:]) - stats.median(untraced_epochs))}
    for name in ops.ORDER:
        overhead[name] = 1e3 * (traced[name] - stats.median(times[name][1:]))
    facts = {
        "epochs_s": run.epochs_s,
        "n_params": sum(p.data.size for p in run.model.parameters()),
        "zero_pixel_share": float(np.mean(ops.inputs.X == 0.0)),
        "bce_clamped_share": run.bce_clamped_share,
        "rss_after": rss,
        "overhead_ms": overhead,
    }
    metrics = tracing.layer_metrics(tracer, facts)
    tracer.write_spans(out_dir / f"spans-{spec.name}-seed{seed}.csv")
    return metrics, {"baseline": baseline_lines(spec, metrics, e2e), "untraced": {k: v for k, (v, _) in e2e.items()},
                     "boundaries_missing": patch.missing}


def baseline_lines(spec, m, e2e) -> list[str]:
    """The per-epoch split of the traced run next to the one-off baseline."""
    v = {k: val for k, (val, _) in m.items()}
    steps = v["trainer.steps_per_epoch"]
    split = {
        "forward": v["trainer.step.forward_ms"] * steps,
        "backward": v["trainer.step.backward_ms"] * steps,
        "adam": v["trainer.step.adam_ms"] * steps,
        "zero_grad": v["trainer.step.zero_grad_ms"] * steps,
        "validate": v["trainer.epoch.validate_ms"],
        "other": v["trainer.epoch.other_ms"],
    }
    epoch = sum(split.values())
    lines = [f"per-epoch split of the traced run ({steps:.0f} steps/epoch, untraced epoch p50 "
             f"{e2e['epoch_ms.p50'][0]:.1f} ms):"]
    for k, ms in split.items():
        ref = BASELINE_BCE_MS.get(k) if spec.name == "pixels_bce" else None
        lines.append(f"  {k:10s} {ms:10.1f} ms  {100 * ms / epoch:5.1f}%"
                     + (f"   baseline {ref:.0f} ms" if ref is not None else ""))
    ref = f"   baseline {BASELINE_BCE_MS['epoch']:.0f} ms" if spec.name == "pixels_bce" else ""
    lines.append(f"  {'epoch':10s} {epoch:10.1f} ms  (parts sum to the traced epoch){ref}")
    share = f"Adam share {v['trainer.adam.share']:.3f}"
    if spec.name == "desk_mse":
        share += f"   baseline {BASELINE_DESK_ADAM_SHARE:.3f}"
    lines.append("  " + share)
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; runs every step and check in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "devae" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'devae'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import devae

    if not Path(devae.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported devae from {devae.__file__}, not from this checkout", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
