"""Tests of the benchmark's own helpers, and a smoke run of every workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import stats, tracing, workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ----------------------------------------------------------------


def test_tail_is_the_order_statistic_with_ten_samples_beyond():
    pct, value, n = stats.tail(list(range(100, 0, -1)))
    assert (pct, value, n) == (90.0, 90.0, 100)
    pct, value, n = stats.tail([float(v) for v in range(1, 41)])
    assert (pct, value, n) == (75.0, 30.0, 40)


def test_tail_falls_back_to_the_median_when_the_run_is_short():
    assert stats.tail([5.0, 1.0, 3.0]) == (50.0, 3.0, 3)
    assert stats.tail(list(range(20))) == (50.0, 9.5, 20)
    pct, value, _ = stats.tail(list(range(21)))
    assert pct > 50.0 and value == 10


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # A [0,10] holds B [1,4] and C [5,6]; B holds D [2,3]; E [20,21] is a root.
    names = ["A", "B", "C", "D", "E"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 5.0, 6.0, 0), (3, 2.0, 3.0, 1), (4, 20.0, 21.0, -1)]
    name_id, start, end, parent = (np.array(col) for col in zip(*spans))
    got = tracing.summarize(names, name_id, start, end, parent)
    assert got["A"] == (1, 10.0, 6.0)
    assert got["B"] == (1, 3.0, 2.0)
    assert got["C"] == (1, 1.0, 1.0)
    assert got["D"] == (1, 1.0, 1.0)
    assert got["E"] == (1, 1.0, 1.0)


def test_repeated_span_names_add_up():
    names = ["step", "op"]
    name_id = np.array([0, 1, 1, 0, 1])
    start = np.array([0.0, 0.0, 1.0, 5.0, 5.5])
    end = np.array([4.0, 1.0, 3.0, 6.0, 6.0])
    parent = np.array([-1, 0, 0, -1, 3])
    got = tracing.summarize(names, name_id, start, end, parent)
    assert got["step"] == (2, 5.0, 1.5)
    assert got["op"] == (3, 3.5, 3.5)


def test_tracer_nests_spans_and_pauses():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    with tracer.paused():
        assert outer(1) == 4
    s = tracer.spans()
    assert [tracer.names[i] for i in s["name_id"]] == ["outer", "inner"]
    assert list(s["parent"]) == [-1, 0]
    assert np.all(s["end"] >= s["start"])


def test_linear_flops_count_only_operands_that_need_gradients():
    class T:
        def __init__(self, shape, grad):
            self.shape, self.requires_grad = shape, grad

    fwd, bwd = tracing.linear_flops(T((64, 784), False), T((512, 784), True), T((512,), True))
    assert fwd == 2 * 64 * 784 * 512 + 64 * 512
    assert bwd == 2 * 64 * 784 * 512 + 64 * 512
    _, bwd = tracing.linear_flops(T((64, 512), True), T((128, 512), True), T((128,), True))
    assert bwd == 2 * (2 * 64 * 512 * 128) + 64 * 128


# -- output checks ---------------------------------------------------------------


def test_same_up_to_sign():
    rng = np.random.default_rng(0)
    want = rng.standard_normal((50, 2))
    assert wl.same_up_to_sign(want * [1.0, -1.0], want, 1e-12)
    assert wl.same_up_to_sign(want + 1e-9, want, 1e-6)
    assert not wl.same_up_to_sign(want + 1e-3, want, 1e-6)
    assert not wl.same_up_to_sign(want[:, ::-1], want, 1e-6)
    assert not wl.same_up_to_sign(want[:10], want, 1e-6)


def test_sheet_matches_allows_one_level_only():
    want = np.full((4, 4), 100, dtype=np.uint8)
    got = want.copy()
    got[1, 2] = 101
    assert wl.sheet_matches(got, want)
    got[0, 0] = 98
    assert not wl.sheet_matches(got, want)
    assert not wl.sheet_matches(want[:2], want)


def test_tile_sheet_places_grid_points_row_major():
    n, side = 3, 2
    pixels = np.repeat(np.arange(n * n, dtype=np.uint8)[:, None], side * side, axis=1)
    sheet = wl.tile_sheet(pixels, n, side)
    assert sheet.shape == (n * side, n * side)
    for r in range(n):
        for c in range(n):
            assert np.all(sheet[r * side : (r + 1) * side, c * side : (c + 1) * side] == r * n + c)


def test_lattice_starts_at_the_top_left():
    points = wl.lattice(np.array([[0.0, 0.0], [2.0, 4.0]]), 3)
    assert points[0].tolist() == [0.0, 4.0]
    assert points[2].tolist() == [2.0, 4.0]
    assert points[-1].tolist() == [2.0, 0.0]


def test_pgm_payload_keeps_leading_whitespace_bytes():
    payload = bytes([10, 32, 9, 0, 255, 13])
    w, h, got = wl.pgm_payload(b"P5\n3 2\n255\n" + payload)
    assert (w, h, got) == (3, 2, payload)
    with pytest.raises(wl.CheckFailed):
        wl.pgm_payload(b"P2\n3 2\n255\n" + payload)


def test_pixels_are_mostly_zero_and_seeded():
    a, la = wl.make_pixels(300, 4)
    b, lb = wl.make_pixels(300, 4)
    c, _ = wl.make_pixels(300, 5)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    assert a.shape == (300, 784) and a.dtype == np.uint8
    assert 0.6 < np.mean(a == 0) < 0.95
    assert sorted(set(la.tolist())) == list(range(10))


# -- the command ---------------------------------------------------------------


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["desk_mse", "pixels_bce", "pixels_infer"])
def test_smoke_run_passes_every_check_and_prints_every_metric(workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_fails_without_the_package_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "desk_mse", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
