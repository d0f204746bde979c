"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. The desk-scale pipeline (criteria 5-10) drives the real CLI on
the synthetic blob dataset; entropy/gradient/moment criteria (1-4) check
the numerical core against independent oracles.
"""

import json
import math
import re
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import blob_bundle, mc_entropy, random_latent, read_pgm, run_cli
from devae.data import read_csv_vectors, read_projection_csv, write_csv_vectors
from devae.gaussian import GaussianLatent
from devae.gradsuite import run_gradient_suite
from devae.losses import LossWeights
from devae.model import load_checkpoint
from devae.tensor import Tensor
from devae.trainer import EarlyStopping, TrainSettings, run_matrix
from devae.viz import decode_to_bytes, grid_lattice

MAX_EPOCHS = 100


def _ok(n: int, message: str) -> None:
    print(f"\n[criterion {n:2d}] PASS - {message}")


# -- pipeline fixtures -----------------------------------------------------------


TRAIN_FLAGS = ["--head", "full", "--lambda-proj", 5, "--lambda-ent", 0.001,
               "--recon", "mse", "--seed", 7]


def _run_blob_pipeline(root, train_extra=()):
    """synth(600, 50, 3, 0.5, seed 7) -> pca -> train full head."""
    data, proj = root / "blobs.csv", root / "proj.csv"
    ckpt, report = root / "model.ckpt", root / "report.json"
    r = run_cli(["synth", "--out", data, "--n", 600, "--dims", 50, "--blobs", 3,
                 "--spread", 0.5, "--seed", 7])
    assert r.returncode == 0, r.stderr
    r = run_cli(["pca", "--data", data, "--out", proj])
    assert r.returncode == 0, r.stderr
    t0 = time.perf_counter()
    r = run_cli(["train", "--data", data, "--proj", proj, *TRAIN_FLAGS,
                 "--out", ckpt, "--report", report, *train_extra])
    train_seconds = time.perf_counter() - t0
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "proj": proj, "ckpt": ckpt,
            "report": report, "train_seconds": train_seconds}


def _eval_test(run, ckpt) -> dict:
    r = run_cli(["eval", "--model", ckpt, "--data", run["data"],
                 "--proj", run["proj"], "--split", "test"])
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    run = _run_blob_pipeline(tmp_path_factory.mktemp("c5"))
    run["final_test"] = _eval_test(run, run["ckpt"])
    # Same seed, capped at one epoch: determinism makes this the epoch-1 model.
    e1_ckpt = run["root"] / "epoch1.ckpt"
    r = run_cli(["train", "--data", run["data"], "--proj", run["proj"], *TRAIN_FLAGS,
                 "--out", e1_ckpt, "--max-epochs", 1, "--patience", 1])
    assert r.returncode == 0, r.stderr
    run["epoch1_test"] = _eval_test(run, e1_ckpt)
    return run


@pytest.fixture(scope="module")
def bce_run(tmp_path_factory):
    """16x16 synthetic images in [0, 1], BCE model, for the grid sheet."""
    root = tmp_path_factory.mktemp("c9")
    from devae.data import make_blobs

    X, labels = make_blobs(300, 256, 3, 0.5, seed=13)
    X = (X - X.min()) / (X.max() - X.min())
    data, proj = root / "pix.csv", root / "pix_proj.csv"
    write_csv_vectors(data, X, labels)
    assert run_cli(["pca", "--data", data, "--out", proj]).returncode == 0
    ckpt = root / "bce.ckpt"
    r = run_cli(["train", "--data", data, "--proj", proj, "--head", "full",
                 "--recon", "bce", "--seed", 13, "--out", ckpt,
                 "--max-epochs", 5, "--patience", 5])
    assert r.returncode == 0, r.stderr
    sheet = root / "sheet.pgm"
    r = run_cli(["reconstruct", "--model", ckpt, "--proj", proj, "--grid", 5,
                 "--out", sheet])
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "proj": proj, "ckpt": ckpt, "sheet": sheet}


# -- criteria -----------------------------------------------------------------


def test_c01_entropy_matches_monte_carlo_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for head in ("isotropic", "diagonal", "full"):
        for _ in range(10):
            lat = random_latent(head, rng)
            closed = lat.entropy().item()
            estimate = mc_entropy(lat, 0, 1_000_000, seed=int(rng.integers(2**31)))
            assert abs(estimate - closed) / abs(closed) < 0.01, (head, closed, estimate)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"entropy oracle took {elapsed:.1f}s"
    _ok(1, f"{checked} latents, closed form within 1% of 1e6-sample MC, {elapsed:.1f}s")


def test_c02_entropy_family_consistency():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        lv = rng.uniform(-2.0, 2.0)
        mu = Tensor([[0.0, 0.0]])
        iso = GaussianLatent("isotropic", mu, Tensor([[lv]])).entropy().item()
        diag = GaussianLatent("diagonal", mu, Tensor([[lv, lv]])).entropy().item()
        # L = diag(sigma): raw diagonal entries are ln sigma = lv / 2
        full = GaussianLatent("full", mu, Tensor([[0.0, 0.5 * lv, 0.5 * lv]])).entropy().item()
        worst = max(worst, abs(iso - diag), abs(iso - full), abs(diag - full))
    assert worst < 1e-9
    _ok(2, f"isotropic == diagonal == full for 100 sigma, worst gap {worst:.2e}")


def test_c03_gradient_suite_all_heads():
    t0 = time.perf_counter()
    results = run_gradient_suite(seed=0)
    elapsed = time.perf_counter() - t0
    failures = [r for r in results if not r.passed]
    assert not failures, [(r.name, r.max_rel_error) for r in failures]
    model_checks = [r for r in results if "/" in r.name]
    for head in ("none", "isotropic", "diagonal", "full"):
        assert any(r.name.startswith(head) for r in model_checks)
    assert any(r.name.endswith("/total") for r in model_checks)
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _ok(3, f"{len(results)} checks < 1e-4 rel err vs central differences, {elapsed:.1f}s")


def test_c04_sampling_moments_full_head():
    n = 1_000_000
    lat = GaussianLatent(
        "full",
        Tensor(np.zeros((n, 2))),
        Tensor(np.tile([1.0, math.log(2.0), 0.0], (n, 1))),
    )
    eps = np.random.default_rng(104).standard_normal((n, 2))
    z, _ = lat.sample(eps)
    cov_emp = np.cov(z.T)
    cov_true = np.array([[4.0, 2.0], [2.0, 2.0]])
    rel = np.abs(cov_emp - cov_true) / np.abs(cov_true)
    assert np.all(rel < 0.01), cov_emp
    _ok(4, f"1e6-draw covariance within {rel.max() * 100:.2f}% of [[4,2],[2,2]]")


def test_c05_desk_scale_end_to_end(pipeline):
    report = json.loads(pipeline["report"].read_text())
    assert report["epochs_run"] <= MAX_EPOCHS
    assert pipeline["train_seconds"] < 300.0
    e1, final = pipeline["epoch1_test"], pipeline["final_test"]
    assert final["proj"] <= 0.1 * e1["proj"], (final["proj"], e1["proj"])
    assert final["recon"] <= 0.5 * e1["recon"], (final["recon"], e1["recon"])
    # Same contraction visible in the training-split losses of the report.
    train_projs = [e["train"]["proj"] for e in report["epochs"]]
    assert train_projs[-1] < 0.1 * train_projs[0]
    # The typical training point's encoding lands within 0.5 of its target.
    model = load_checkpoint(pipeline["ckpt"])
    X, _ = read_csv_vectors(pipeline["data"])
    Y, _ = read_projection_csv(pipeline["proj"])
    from devae.trainer import split_dataset

    train_rows = np.flatnonzero(split_dataset(X.shape[0], 7) == "train")
    mu = model.encode(X[train_rows]).mu.data
    dist = np.linalg.norm(mu - Y[train_rows], axis=1)
    assert float(np.median(dist)) < 0.5
    _ok(5, (
        f"{report['epochs_run']} epochs in {pipeline['train_seconds']:.0f}s; "
        f"test proj {e1['proj']:.2f}->{final['proj']:.3f}, "
        f"recon {e1['recon']:.0f}->{final['recon']:.1f}"
    ))


def test_c06_early_stopping_contract(pipeline):
    stopper = EarlyStopping(patience=5)
    stops = [stopper.update(epoch, v) for epoch, v in enumerate([5, 4, 4, 4, 4, 4, 4], start=1)]
    assert stops == [False] * 6 + [True]
    assert stopper.best_epoch == 2
    report = json.loads(pipeline["report"].read_text())
    assert report["epochs_run"] <= MAX_EPOCHS
    assert len(report["epochs"]) == report["epochs_run"]
    assert TrainSettings().max_epochs == 100  # protocol cap is the default
    _ok(6, "sequence [5,4,4,4,4,4,4] stops after epoch 7 with best_epoch 2")


def test_c06b_epoch_cap_is_hard(pipeline):
    # Complementary check: a run that never improves still halts at patience,
    # and no configuration can run past max_epochs.
    stopper = EarlyStopping(patience=5)
    ran = 0
    for epoch in range(1, 1000):
        ran = epoch
        if stopper.update(epoch, 1.0 + epoch):
            break
    assert ran == 6  # one improvement (epoch 1) + 5 patience epochs
    _ok(6, "patience exhausts after 5 non-improving epochs (cap property)")


def test_c07_matrix_mirrors_summary_table(pipeline):
    args = ["matrix", "--data", pipeline["data"], "--proj", pipeline["proj"],
            "--runs", 3, "--heads", "all", "--lambda-proj", 5, "--lambda-ent", 0.001,
            "--recon", "mse", "--seed", 7, "--max-epochs", 8, "--patience", 8,
            "--encoder-widths", "64,32", "--decoder-widths", "32,64"]
    r = run_cli(args)
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert [row["head"] for row in rows] == ["none", "isotropic", "diagonal", "full"]
    for row in rows:
        assert row["n_runs"] == 3
        for block in ("proj_loss", "recon_loss", "epochs"):
            assert math.isfinite(row[block]["mean"])
            assert math.isfinite(row[block]["std"]) and row[block]["std"] >= 0
    r = run_cli(args + ["--format", "table"])
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 4 and all(line.count("±") == 4 for line in lines[1:])
    _ok(7, "4 heads x 3 blocks of mean +/- std, all finite, JSON and table")


def _ellipse_groups(svg_path):
    root = ET.parse(svg_path).getroot()
    groups: dict[str, list] = {}
    for el in root.iter():
        if el.tag.split("}")[-1] != "ellipse":
            continue
        center = el.get("transform").split(" rotate")[0]
        groups.setdefault(center, []).append(
            (float(el.get("rx")), float(el.get("ry")))
        )
    return groups


def test_c08_latent_plot_reproduction(pipeline):
    svg = pipeline["root"] / "latent.svg"
    r = run_cli(["latent-plot", "--model", pipeline["ckpt"], "--data", pipeline["data"],
                 "--proj", pipeline["proj"], "--split", "test", "--out", svg])
    assert r.returncode == 0, r.stderr
    groups = _ellipse_groups(svg)
    assert len(groups) == 3  # one center per blob class
    for center, axes in groups.items():
        assert len(axes) == 3
        rx = sorted(a[0] for a in axes)
        ry = sorted(a[1] for a in axes)
        for series in (rx, ry):  # nested: k=1,2,3 scale the same base axis
            assert series[1] == pytest.approx(2 * series[0], rel=1e-4)
            assert series[2] == pytest.approx(3 * series[0], rel=1e-4)

    iso_ckpt = pipeline["root"] / "iso.ckpt"
    r = run_cli(["train", "--data", pipeline["data"], "--proj", pipeline["proj"],
                 "--head", "isotropic", "--lambda-proj", 5, "--lambda-ent", 0.001,
                 "--recon", "mse", "--seed", 7, "--out", iso_ckpt,
                 "--max-epochs", 5, "--patience", 5])
    assert r.returncode == 0, r.stderr
    iso_svg = pipeline["root"] / "latent_iso.svg"
    r = run_cli(["latent-plot", "--model", iso_ckpt, "--data", pipeline["data"],
                 "--proj", pipeline["proj"], "--split", "test", "--out", iso_svg])
    assert r.returncode == 0, r.stderr
    iso_groups = _ellipse_groups(iso_svg)
    assert iso_groups
    for axes in iso_groups.values():
        for rx, ry in axes:
            assert abs(rx - ry) <= 1e-9 * max(rx, 1.0)
    _ok(8, "3 nested ellipses per class (full); isotropic plot is all circles")


def test_c09_grid_sheet_reproduction(bce_run):
    image = read_pgm(bce_run["sheet"])
    assert image.shape == (80, 80)  # 5 x 5 tiles of 16 x 16
    blob = bce_run["sheet"].read_bytes()
    assert blob.startswith(b"P5\n80 80\n255\n")
    model = load_checkpoint(bce_run["ckpt"])
    coords, _ = read_projection_csv(bce_run["proj"])
    points = grid_lattice(coords, 5)
    for r in range(5):
        for c in range(5):
            tile = image[r * 16 : (r + 1) * 16, c * 16 : (c + 1) * 16]
            expected = decode_to_bytes(model, points[r * 5 + c]).reshape(16, 16)
            np.testing.assert_array_equal(tile, expected)
    _ok(9, "80x80 P5 sheet; all 25 tiles equal individually decoded grid points")


def _normalize_wall(report_text: str) -> str:
    return re.sub(r'"wall_seconds": [0-9.eE+-]+', '"wall_seconds": 0', report_text)


def test_c10_pipeline_determinism(pipeline, bce_run, tmp_path_factory):
    rerun = _run_blob_pipeline(tmp_path_factory.mktemp("c10"))
    assert rerun["ckpt"].read_bytes() == pipeline["ckpt"].read_bytes()
    assert rerun["data"].read_bytes() == pipeline["data"].read_bytes()
    assert rerun["proj"].read_bytes() == pipeline["proj"].read_bytes()
    # Reports are byte-identical up to the measured wall-clock field.
    assert _normalize_wall(rerun["report"].read_text()) == _normalize_wall(
        pipeline["report"].read_text()
    )
    svg_a, svg_b = pipeline["root"] / "det_a.svg", pipeline["root"] / "det_b.svg"
    for out, ckpt in ((svg_a, pipeline["ckpt"]), (svg_b, rerun["ckpt"])):
        r = run_cli(["latent-plot", "--model", ckpt, "--data", pipeline["data"],
                     "--proj", pipeline["proj"], "--split", "test", "--out", out])
        assert r.returncode == 0, r.stderr
    assert svg_a.read_bytes() == svg_b.read_bytes()
    sheet_b = bce_run["root"] / "sheet_again.pgm"
    r = run_cli(["reconstruct", "--model", bce_run["ckpt"], "--proj", bce_run["proj"],
                 "--grid", 5, "--out", sheet_b])
    assert r.returncode == 0, r.stderr
    assert sheet_b.read_bytes() == bce_run["sheet"].read_bytes()
    _ok(10, "checkpoint/data/SVG/PGM byte-identical; report identical up to wall time")


def test_c11_baseline_reconstruction_ordering():
    from conftest import tiny_config

    bundle = blob_bundle(n=600, d=50, k=3, spread=0.5, seed=7)
    template = tiny_config(d=50, weights=LossWeights(20.0, 5.0))
    settings = TrainSettings(seed=7, max_epochs=20, patience=20)
    rows = run_matrix(bundle, ["none", "isotropic", "diagonal", "full"], 3, settings, template)
    recon = {r["head"]: r["recon_loss"]["mean"] for r in rows}
    for head in ("isotropic", "diagonal", "full"):
        assert recon["none"] <= recon[head], (head, recon["none"], recon[head])
    _ok(11, (
        f"none recon {recon['none']:.1f} <= "
        + ", ".join(f"{h} {recon[h]:.1f}" for h in ("isotropic", "diagonal", "full"))
    ))
