"""Command-line interface: pipeline smoke, exit codes, determinism."""

import argparse
import json
import re

import numpy as np
import pytest

from conftest import GOOD_CONFIG, MALFORMED_CONFIGS, checkpoint_with_config, run_cli
from devae.cli import build_parser

FAST_TRAIN = [
    "--encoder-widths", "16,8",
    "--decoder-widths", "8,16",
    "--max-epochs", "4",
    "--patience", "4",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> pca -> train on a tiny blob dataset."""
    root = tmp_path_factory.mktemp("cli")
    data, proj = root / "blobs.csv", root / "proj.csv"
    ckpt, report = root / "model.ckpt", root / "report.json"
    r = run_cli(["synth", "--out", data, "--n", 80, "--dims", 10, "--blobs", 3,
                 "--spread", 0.5, "--seed", 7])
    assert r.returncode == 0, r.stderr
    r = run_cli(["pca", "--data", data, "--out", proj])
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--data", data, "--proj", proj, "--head", "full",
                 "--lambda-proj", 5, "--lambda-ent", 0.001, "--recon", "mse",
                 "--seed", 7, "--out", ckpt, "--report", report, *FAST_TRAIN])
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "proj": proj, "ckpt": ckpt,
            "report": report, "train_stdout": r.stdout}


class TestPipelineSmoke:
    def test_outputs_exist(self, pipeline):
        assert pipeline["ckpt"].exists()
        assert pipeline["report"].exists()
        summary = json.loads(pipeline["train_stdout"])
        assert summary["epochs_run"] <= 4

    def test_report_fields(self, pipeline):
        report = json.loads(pipeline["report"].read_text())
        for key in ("seed", "config", "epochs", "epochs_run", "best_epoch",
                    "best_val_total", "wall_seconds"):
            assert key in report
        assert len(report["epochs"]) == report["epochs_run"]

    def test_eval_emits_loss_breakdown(self, pipeline):
        r = run_cli(["eval", "--model", pipeline["ckpt"], "--data", pipeline["data"],
                     "--proj", pipeline["proj"], "--split", "test"])
        assert r.returncode == 0, r.stderr
        breakdown = json.loads(r.stdout)
        assert set(breakdown) == {"recon", "proj", "ent", "total"}

    def test_project_writes_head_params(self, pipeline):
        out = pipeline["root"] / "coords.csv"
        r = run_cli(["project", "--model", pipeline["ckpt"], "--data", pipeline["data"],
                     "--out", out])
        assert r.returncode == 0, r.stderr
        header = out.read_text().split("\n")[0]
        assert header == "id,mu_x,mu_y,chol_raw_0,chol_raw_1,chol_raw_2"

    def test_latent_plot_and_reconstruct(self, pipeline):
        svg = pipeline["root"] / "plot.svg"
        sheet = pipeline["root"] / "sheet.out"
        r = run_cli(["latent-plot", "--model", pipeline["ckpt"], "--data", pipeline["data"],
                     "--proj", pipeline["proj"], "--split", "all", "--out", svg])
        assert r.returncode == 0, r.stderr
        assert svg.read_text().startswith("<?xml")
        r = run_cli(["reconstruct", "--model", pipeline["ckpt"], "--proj", pipeline["proj"],
                     "--grid", 3, "--out", sheet])
        assert r.returncode == 0, r.stderr  # d=10 falls back to CSV
        assert "not a perfect square" in r.stderr

    def test_latent_plot_encodes_each_chunk_once(self, pipeline, tmp_path, monkeypatch):
        import devae.model
        from devae.cli import main

        encode, rows = devae.model.DeVae.encode, []

        def counting(model, x):
            rows.append(x.shape[0])
            return encode(model, x)

        monkeypatch.setattr(devae.model, "INFER_CHUNK", 16)
        monkeypatch.setattr(devae.model.DeVae, "encode", counting)
        svg = tmp_path / "plot.svg"
        assert main(["latent-plot", "--model", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                     "--proj", str(pipeline["proj"]), "--split", "all", "--out", str(svg)]) == 0
        assert rows == [16] * 5  # the 80 rows once, no second encode for the ellipses
        assert svg.read_text().count("<ellipse") == 9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_latent_plot_rejects_non_finite_means(self, pipeline, tmp_path, value):
        from devae.model import load_checkpoint, save_checkpoint

        model = load_checkpoint(pipeline["ckpt"])
        model.parameters()[model.parameter_names().index("mu.bias")].data[0] = value
        ckpt, svg = tmp_path / "bad.ckpt", tmp_path / "plot.svg"
        save_checkpoint(model, ckpt)
        r = run_cli(["latent-plot", "--model", ckpt, "--data", pipeline["data"],
                     "--proj", pipeline["proj"], "--split", "all", "--out", svg])
        assert r.returncode == 2
        assert "class 0: point 0 is not finite" in r.stderr
        assert not svg.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, code", [("mu.bias", 0), ("mu.weight", 2)])
    def test_latent_plot_extreme_finite_means(self, pipeline, tmp_path, capsys, name, code):
        # x offset by 1e300 only moves the plot; x scaled by 1e300 spreads
        # each class so far that squared distances overflow float64.
        from devae.cli import main
        from devae.model import load_checkpoint, save_checkpoint

        model = load_checkpoint(pipeline["ckpt"])
        param = model.parameters()[model.parameter_names().index(name)].data
        param[0] = 1e300 if name == "mu.bias" else param[0] * 1e300
        ckpt, svg = tmp_path / "extreme.ckpt", tmp_path / "plot.svg"
        save_checkpoint(model, ckpt)
        argv = ["latent-plot", "--model", str(ckpt), "--data", str(pipeline["data"]), "--proj", str(pipeline["proj"]),
                "--split", "all", "--out", str(svg)]
        assert main(argv) == code
        message = capsys.readouterr().err
        if code == 0:
            assert message == "" and svg.read_text().count("<ellipse") == 9
        else:
            assert re.fullmatch(r"error: class \d+: distances between members overflow float64\n", message), message
            assert not svg.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # eval names the dataset row of the first test sample: row 11 of split_dataset(80, 7).
    @pytest.mark.parametrize("command, code, kind, sample", [("eval", 3, "divergence", 11),
                                                             ("latent-plot", 2, "error", None)])
    def test_overflowing_covariance_head_names_the_sample(self, pipeline, tmp_path, capsys, command, code, kind,
                                                          sample):
        from devae.cli import main
        from devae.model import load_checkpoint, save_checkpoint
        from devae.trainer import split_dataset

        assert sample is None or np.flatnonzero(split_dataset(80, 7) == "test")[0] == sample
        model = load_checkpoint(pipeline["ckpt"])
        model.parameters()[model.parameter_names().index("var.bias")].data[1] = 1e200  # ln L00
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(model, ckpt)
        argv = [command, "--model", str(ckpt), "--data", str(pipeline["data"]), "--proj", str(pipeline["proj"])]
        assert main(argv + (["--out", str(tmp_path / "plot.svg")] if command == "latent-plot" else [])) == code
        message = capsys.readouterr().err
        assert message.count("\n") == 1
        # latent-plot reaches the covariance at a class medoid, the first sample it draws.
        which = r"\d+" if sample is None else str(sample)
        assert re.fullmatch(rf"{kind}: covariance head 'full': chol_raw_1 = 1e\+200 of sample {which} "
                            r"overflows the covariance\n", message), message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_latent_plot_names_an_overflowing_medoid_by_its_dataset_row(self, pipeline, tmp_path, capsys):
        # The first class's medoid among the test split's rows is drawn first.
        from devae.cli import main
        from devae.data import read_csv_vectors
        from devae.evaluation import class_medoid_indices
        from devae.model import load_checkpoint, save_checkpoint
        from devae.trainer import split_dataset

        model = load_checkpoint(pipeline["ckpt"])
        X, labels = read_csv_vectors(pipeline["data"])
        test = np.flatnonzero(split_dataset(80, 7) == "test")
        first = next(iter(class_medoid_indices(model.encode_rows(X, test).mu.data, labels[test]).values()))
        row = test[first]
        assert row != first  # a place in the split would name another sample
        model.parameters()[model.parameter_names().index("var.bias")].data[1] = 1e200  # ln L00
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(model, ckpt)
        argv = ["latent-plot", "--model", str(ckpt), "--data", str(pipeline["data"]), "--proj", str(pipeline["proj"]),
                "--split", "test", "--out", str(tmp_path / "plot.svg")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: covariance head 'full': chol_raw_1 = 1e+200 of sample {row} "
                                           "overflows the covariance\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_with_an_overflowing_total_is_divergence(self, pipeline, tmp_path, capsys):
        from dataclasses import replace

        from devae.cli import main
        from devae.losses import LossWeights
        from devae.model import load_checkpoint, save_checkpoint

        model = load_checkpoint(pipeline["ckpt"])
        model.config = replace(model.config, weights=LossWeights(5.0, 1e308))
        ckpt = tmp_path / "heavy.ckpt"
        save_checkpoint(model, ckpt)
        assert main(["eval", "--model", str(ckpt), "--data", str(pipeline["data"]), "--proj", str(pipeline["proj"])]) == 3
        assert capsys.readouterr().err == "divergence: loss component 'total' is non-finite: -inf\n"

    def test_matrix_json(self, pipeline):
        r = run_cli(["matrix", "--data", pipeline["data"], "--proj", pipeline["proj"],
                     "--runs", 1, "--heads", "none,full", "--lambda-proj", 5,
                     "--lambda-ent", 0.001, "--recon", "mse", "--seed", 7,
                     "--max-epochs", "2", "--patience", "2",
                     "--encoder-widths", "16,8", "--decoder-widths", "8,16"])
        assert r.returncode == 0, r.stderr
        rows = json.loads(r.stdout)["rows"]
        assert [row["head"] for row in rows] == ["none", "full"]


class TestExitCodes:
    def test_negative_lambda_is_usage_error(self, pipeline):
        r = run_cli(["train", "--data", pipeline["data"], "--proj", pipeline["proj"],
                     "--lambda-proj", 5, "--lambda-ent", -1, "--recon", "mse",
                     "--out", pipeline["root"] / "x.ckpt", *FAST_TRAIN])
        assert r.returncode == 1
        assert "usage error" in r.stderr

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "0"], "learning_rate must be positive, got 0.0"),
        (["--max-epochs", "5", "--patience", "10"], "patience (10) cannot exceed max_epochs (5)"),
    ])
    def test_settings_contract_is_usage_error(self, pipeline, capsys, flags, message):
        from devae.cli import main

        argv = ["train", "--data", str(pipeline["data"]), "--proj", str(pipeline["proj"]),
                "--lambda-proj", "5", "--lambda-ent", "0.001", "--out", str(pipeline["root"] / "x.ckpt"), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_mse_requires_explicit_weights(self, pipeline):
        r = run_cli(["train", "--data", pipeline["data"], "--proj", pipeline["proj"],
                     "--recon", "mse", "--out", pipeline["root"] / "x.ckpt", *FAST_TRAIN])
        assert r.returncode == 1
        assert "lambda" in r.stderr

    def test_out_of_memory_is_one_line_exit_2(self, tmp_path, capsys):
        from devae.cli import main

        # 10**15 x 50 float64 is 355 PiB: the allocation is refused before any page is touched.
        assert main(["synth", "--out", str(tmp_path / "x.csv"), "--n", "1000000000000000",
                     "--dims", "50", "--blobs", "1"]) == 2
        message = capsys.readouterr().err
        assert re.fullmatch(r"error: out of memory: Unable to allocate [^\n]+\n", message), message
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [["--spread", "inf"], ["--spread", "nan"], ["--n", "2", "--blobs", "3"],
                                       ["--dims", "1"]], ids=["spread-inf", "spread-nan", "n-below-blobs", "dims-1"])
    def test_synth_sizes_outside_the_rule_are_usage_errors(self, tmp_path, capsys, flags):
        from devae.cli import main

        assert main(["synth", "--out", str(tmp_path / "x.csv"), *flags]) == 1
        assert capsys.readouterr().err.startswith("usage error: invalid blob sizes: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_synth_overflow_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        from devae.cli import main

        assert main(["synth", "--out", str(tmp_path / "x.csv"), "--spread", "1e308", "--n", "1000"]) == 2
        assert capsys.readouterr().err == "error: spread 1e+308 overflows float64: a sample is not finite\n"
        assert not (tmp_path / "x.csv").exists()

    def test_train_label_count_mismatch_is_data_error(self, pipeline, tmp_path, capsys):
        from devae.cli import main

        labels = tmp_path / "labels.csv"
        labels.write_text("0\n" * 79)
        assert main(["train", "--data", str(pipeline["data"]), "--proj", str(pipeline["proj"]),
                     "--labels", str(labels), "--lambda-proj", "5", "--lambda-ent", "0.001",
                     "--out", str(tmp_path / "x.ckpt"), *FAST_TRAIN]) == 2
        assert capsys.readouterr().err == "error: labels cover 79 of 80 rows\n"

    @pytest.mark.parametrize("command", ["train", "matrix"])
    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_sample_file_without_feature_columns_is_data_error(self, tmp_path, capsys, command, kind):
        from conftest import write_idx
        from devae.cli import main
        from devae.data import IDX_IMAGES_MAGIC, write_projection_csv

        data, proj = tmp_path / f"samples.{kind}", tmp_path / "proj.csv"
        if kind == "csv":
            data.write_text("label\n" + "0\n" * 30)  # labels and no feature column
        else:
            write_idx(data, IDX_IMAGES_MAGIC, (30, 0, 0), b"")  # 30 images of 0 x 0 pixels
        write_projection_csv(proj, np.zeros((30, 2)))
        out = ["--out", str(tmp_path / "x.ckpt")] if command == "train" else []
        assert main([command, "--data", str(data), "--proj", str(proj), "--recon", "bce", *out]) == 2
        assert capsys.readouterr().err == "error: samples must be rows of at least one feature, got shape (30, 0)\n"

    @pytest.mark.parametrize("command", ["train", "matrix"])
    def test_train_flag_defaults_are_the_settings_defaults(self, command):
        from devae.cli import _config, _settings, build_parser
        from devae.losses import LossWeights
        from devae.model import ModelConfig
        from devae.trainer import TrainSettings

        out = ["--out", "x.ckpt"] if command == "train" else []
        args = build_parser().parse_args([command, "--data", "x.csv", "--proj", "p.csv", *out])
        assert _settings(args) == TrainSettings()
        args.lambda_proj, args.lambda_ent = 1.0, 0.5  # MSE, the default, has no default weights
        assert _config(args, 4) == ModelConfig(4, LossWeights(1.0, 0.5))

    def test_unknown_flag_is_usage_error(self):
        r = run_cli(["synth", "--nope", "1"])
        assert r.returncode == 1

    def test_negative_seed_is_usage_error(self, tmp_path):
        r = run_cli(["synth", "--out", tmp_path / "x.csv", "--seed", -3])
        assert r.returncode == 1
        assert "seed" in r.stderr

    def test_pca_label_count_mismatch_is_data_error(self, tmp_path):
        data, labels = tmp_path / "x.csv", tmp_path / "labels.csv"
        data.write_text("1,2\n3,5\n4,4\n")
        labels.write_text("0\n1\n")
        r = run_cli(["pca", "--data", data, "--labels", labels, "--out", tmp_path / "proj.csv"])
        assert r.returncode == 2, r.stderr
        assert "labels cover 2 of 3 rows" in r.stderr
        assert "Traceback" not in r.stderr

    def test_dimension_mismatch_is_data_error(self, pipeline, tmp_path):
        wide = tmp_path / "wide.csv"
        r = run_cli(["synth", "--out", wide, "--n", 80, "--dims", 12, "--blobs", 3,
                     "--spread", 0.5, "--seed", 7])
        assert r.returncode == 0
        r = run_cli(["eval", "--model", pipeline["ckpt"], "--data", wide,
                     "--proj", pipeline["proj"]])
        assert r.returncode == 2
        assert "input_dim" in r.stderr or "shape" in r.stderr

    def test_malformed_csv_is_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n")
        r = run_cli(["pca", "--data", bad, "--out", tmp_path / "p.csv"])
        assert r.returncode == 2
        assert "line 3" in r.stderr

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_projection_id_is_data_error(self, pipeline, tmp_path, cell):
        proj = tmp_path / "proj.csv"
        proj.write_text(pipeline["proj"].read_text().replace("\n0,", f"\n{cell},", 1))
        r = run_cli(["train", "--data", pipeline["data"], "--proj", proj, "--head", "full",
                     "--lambda-proj", 5, "--lambda-ent", 0.001, "--recon", "mse",
                     "--out", tmp_path / "m.ckpt", *FAST_TRAIN])
        assert r.returncode == 2, r.stderr
        assert "line 2" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_projection_coordinate_is_parse_error(self, pipeline, tmp_path, cell):
        proj = tmp_path / "proj.csv"
        lines = pipeline["proj"].read_text().split("\n")
        cells = lines[3].split(",")
        lines[3] = ",".join([cells[0], cell, *cells[2:]])
        proj.write_text("\n".join(lines))
        out = tmp_path / "sheet.csv"
        r = run_cli(["reconstruct", "--model", pipeline["ckpt"], "--proj", proj, "--out", out])
        assert r.returncode == 2, r.stderr
        assert f"cell {cell} at line 4 is not finite" in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    def test_non_integer_labels_csv_is_data_error(self, pipeline, tmp_path):
        labels = tmp_path / "labs.csv"
        labels.write_text("0\n1.5\nnan\n" + "0\n" * 77)
        r = run_cli(["pca", "--data", pipeline["data"], "--labels", labels,
                     "--out", tmp_path / "p.csv"])
        assert r.returncode == 2, r.stderr
        assert "line 2" in r.stderr and "Traceback" not in r.stderr

    def test_non_utf8_projection_is_parse_error(self, pipeline, tmp_path):
        proj = tmp_path / "p.csv"
        lines = pipeline["proj"].read_bytes().split(b"\n")
        lines[5] = lines[5].replace(b",", b",\xff", 1)
        proj.write_bytes(b"\n".join(lines))
        r = run_cli(["reconstruct", "--model", pipeline["ckpt"], "--proj", proj,
                     "--out", tmp_path / "sheet.csv"])
        assert r.returncode == 2, r.stderr
        assert "line 6 is not UTF-8" in r.stderr and "Traceback" not in r.stderr

    def test_missing_file_is_data_error(self, tmp_path):
        r = run_cli(["pca", "--data", tmp_path / "nope.csv", "--out", tmp_path / "p.csv"])
        assert r.returncode == 2

    def test_row_count_mismatch_is_data_error(self, pipeline, tmp_path):
        small = tmp_path / "small.csv"
        r = run_cli(["synth", "--out", small, "--n", 40, "--dims", 10, "--blobs", 2,
                     "--spread", 0.5, "--seed", 1])
        assert r.returncode == 0
        r = run_cli(["eval", "--model", pipeline["ckpt"], "--data", small,
                     "--proj", pipeline["proj"]])
        assert r.returncode == 2
        assert r.stderr == "error: data has 40 rows but projection has 80\n"


class TestLabelsRule:
    """A --labels file beats the data CSV's label column, which beats the projection CSV's labels."""

    N = 30
    LABELS = {"file": np.arange(N) % 3, "column": np.arange(N) % 2, "proj": np.arange(N) % 5}

    def _inputs(self, tmp_path, column: bool, file: bool) -> list[str]:
        from devae.data import write_csv_vectors

        data = tmp_path / "x.csv"
        X = np.random.default_rng(0).standard_normal((self.N, 4))
        write_csv_vectors(data, X, self.LABELS["column"] if column else None)
        argv = ["--data", str(data)]
        if file:
            (tmp_path / "labels.csv").write_text("".join(f"{label}\n" for label in self.LABELS["file"]))
            argv += ["--labels", str(tmp_path / "labels.csv")]
        return argv

    @pytest.mark.parametrize("column, file, winner", [
        (True, True, "file"), (False, True, "file"), (True, False, "column"), (False, False, None),
    ])
    def test_pca(self, tmp_path, column, file, winner):
        from devae.cli import main
        from devae.data import read_projection_csv

        out = tmp_path / "proj.csv"
        assert main(["pca", *self._inputs(tmp_path, column, file), "--out", str(out)]) == 0
        labels = read_projection_csv(out)[1]
        assert labels is None if winner is None else np.array_equal(labels, self.LABELS[winner])

    @pytest.mark.parametrize("column, file, winner", [
        (True, True, "file"), (False, True, "file"), (True, False, "column"), (False, False, "proj"),
    ])
    def test_train(self, tmp_path, monkeypatch, capsys, column, file, winner):
        from devae import cli
        from devae.data import write_projection_csv

        seen, real_train = [], cli.train

        def spy(model, bundle, settings):
            seen.append(bundle.labels)
            return real_train(model, bundle, settings)

        monkeypatch.setattr(cli, "train", spy)
        proj = tmp_path / "proj.csv"
        write_projection_csv(proj, np.random.default_rng(1).standard_normal((self.N, 2)), self.LABELS["proj"])
        assert cli.main(["train", *self._inputs(tmp_path, column, file), "--proj", str(proj),
                         "--lambda-proj", "5", "--lambda-ent", "0.001", "--out", str(tmp_path / "m.ckpt"),
                         *FAST_TRAIN]) == 0, capsys.readouterr().err
        np.testing.assert_array_equal(seen[0], self.LABELS[winner])


class TestDeterminism:
    def test_synth_and_pca_byte_equal(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            data, proj = tmp_path / f"{tag}.csv", tmp_path / f"{tag}_p.csv"
            assert run_cli(["synth", "--out", data, "--n", 50, "--dims", 6, "--blobs", 2,
                            "--spread", 0.3, "--seed", 123]).returncode == 0
            assert run_cli(["pca", "--data", data, "--out", proj]).returncode == 0
            outs.append((data.read_bytes(), proj.read_bytes()))
        assert outs[0] == outs[1]

    def test_eval_stdout_stable(self, pipeline):
        args = ["eval", "--model", pipeline["ckpt"], "--data", pipeline["data"],
                "--proj", pipeline["proj"]]
        assert run_cli(args).stdout == run_cli(args).stdout

    def test_seed_is_only_randomness(self, pipeline, tmp_path):
        # Same flags, fresh output paths: the checkpoint must be byte-equal.
        ckpt2 = tmp_path / "again.ckpt"
        r = run_cli(["train", "--data", pipeline["data"], "--proj", pipeline["proj"],
                     "--head", "full", "--lambda-proj", 5, "--lambda-ent", 0.001,
                     "--recon", "mse", "--seed", 7, "--out", ckpt2, *FAST_TRAIN])
        assert r.returncode == 0, r.stderr
        assert ckpt2.read_bytes() == pipeline["ckpt"].read_bytes()


def test_checkpoint_declaring_huge_model_exits_two(tmp_path):
    # The config declares ~4e12 bytes of parameters; the file has none.
    config = {"input_dim": 10**9, "latent_dim": 2, "encoder_widths": [512, 128],
              "decoder_widths": [128, 512], "head": "full", "recon_kind": "bce",
              "lambda_proj": 20.0, "lambda_ent": 5.0, "seed": 0}
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(checkpoint_with_config(config))
    r = run_cli(["project", "--model", ckpt, "--data", tmp_path / "absent.csv",
                 "--out", tmp_path / "coords.csv"])
    assert r.returncode == 2, r.stderr
    assert "parameter block" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("head,latent_dim", [("full", 10**6), ("diagonal", 10**9)])
def test_checkpoint_declaring_huge_latent_exits_two(tmp_path, head, latent_dim):
    # Sizing the declared model must not build anything per latent dimension.
    config = {"input_dim": 10, "latent_dim": latent_dim, "encoder_widths": [4], "decoder_widths": [4],
              "head": head, "recon_kind": "mse", "lambda_proj": 1.0, "lambda_ent": 0.1, "seed": 0}
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(checkpoint_with_config(config))
    r = run_cli(["project", "--model", ckpt, "--data", tmp_path / "absent.csv",
                 "--out", tmp_path / "coords.csv"], timeout=60)
    assert r.returncode == 2, r.stderr
    assert "parameter block" in r.stderr
    assert "Traceback" not in r.stderr


def test_checkpoint_declaring_three_latent_dims_exits_two(tmp_path):
    # A complete, well-formed checkpoint of a 3-D diagonal model: 10 -> 4 -> (mu 3, log_var 3) -> 4 -> 10.
    n_params = 4 * 11 + 3 * 5 + 3 * 5 + 4 * 4 + 10 * 5
    ckpt = tmp_path / "q3.ckpt"
    ckpt.write_bytes(checkpoint_with_config({**GOOD_CONFIG, "head": "diagonal", "latent_dim": 3})
                     + np.zeros(n_params).tobytes())
    data = tmp_path / "x.csv"
    data.write_text("\n".join(",".join(["0.5"] * 10) for _ in range(3)) + "\n")
    out = tmp_path / "coords.csv"
    r = run_cli(["project", "--model", ckpt, "--data", data, "--out", out])
    assert r.returncode == 2, r.stderr
    assert "latent_dim" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("block", MALFORMED_CONFIGS)
def test_checkpoint_with_malformed_config_exits_two(tmp_path, block):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(checkpoint_with_config(block))
    r = run_cli(["project", "--model", ckpt, "--data", tmp_path / "absent.csv",
                 "--out", tmp_path / "coords.csv"])
    assert r.returncode == 2, r.stderr
    assert "invalid config block" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.fixture(scope="module")
def idx_files(tmp_path_factory):
    import numpy as np

    from conftest import write_idx
    from devae.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC

    root = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(3)
    n, side = 60, 4
    # Two pixel-intensity clusters so PCA has structure to find.
    labels = np.arange(n) % 2
    pixels = np.where(labels[:, None] == 0, 60, 180) + rng.integers(
        0, 40, size=(n, side * side)
    )
    images = root / "imgs.idx"
    write_idx(images, IDX_IMAGES_MAGIC, (n, side, side), pixels.astype(np.uint8).tobytes())
    label_file = root / "labels.idx"
    write_idx(label_file, IDX_LABELS_MAGIC, (n,), labels.astype(np.uint8).tobytes())
    floats = root / "floats.idx"  # IDX type 0x0D, float32 images: a type devae does not read
    write_idx(floats, 0x0D03, (n, side, side), pixels.astype(">f4").tobytes())
    stub = root / "stub.idx"
    stub.write_bytes(b"\x00\x00\x08")
    return {"root": root, "images": images, "labels": label_file, "floats": floats, "stub": stub}


# IDX files no flag reads, and what read_idx reports for them.
UNREADABLE_IDX = [("floats", "bad magic 0x00000d03 at byte 0"),
                  ("stub", "truncated magic at byte 0: need 4 bytes, file has 3")]


class TestIdxWorkflow:
    def test_image_pipeline_end_to_end(self, idx_files):
        root = idx_files["root"]
        proj, ckpt, sheet = root / "proj.csv", root / "m.ckpt", root / "sheet.pgm"
        r = run_cli(["pca", "--data", idx_files["images"], "--labels", idx_files["labels"],
                     "--out", proj])
        assert r.returncode == 0, r.stderr
        r = run_cli(["train", "--data", idx_files["images"], "--proj", proj,
                     "--labels", idx_files["labels"], "--recon", "bce", "--head",
                     "isotropic", "--seed", 5, "--out", ckpt, *FAST_TRAIN])
        assert r.returncode == 0, r.stderr  # bce lambda defaults apply
        r = run_cli(["reconstruct", "--model", ckpt, "--proj", proj, "--grid", 3,
                     "--out", sheet])
        assert r.returncode == 0, r.stderr
        assert sheet.read_bytes().startswith(b"P5\n12 12\n255\n")
        svg = root / "plot.svg"
        r = run_cli(["latent-plot", "--model", ckpt, "--data", idx_files["images"],
                     "--proj", proj, "--labels", idx_files["labels"], "--split", "all",
                     "--out", svg])
        assert r.returncode == 0, r.stderr
        assert svg.read_text().count("<ellipse") == 6  # 2 classes x k=1,2,3

    def test_label_file_passed_as_data_is_rejected(self, idx_files, capsys):
        from devae.cli import main

        labels = str(idx_files["labels"])
        for name, message in [("labels", f"{labels} is an IDX label file; pass it via --labels"), *UNREADABLE_IDX]:
            assert main(["pca", "--data", str(idx_files[name]), "--out", str(idx_files["root"] / "p.csv")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_image_file_passed_as_labels_is_rejected(self, idx_files, capsys):
        from devae.cli import main

        images = str(idx_files["images"])
        for name, message in [("images", f"{images} is an IDX image file; pass it via --data"), *UNREADABLE_IDX]:
            argv = ["pca", "--data", images, "--labels", str(idx_files[name]), "--out", str(idx_files["root"] / "p.csv")]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_pixels_match_a_float_csv_of_scaled_pixels(self, idx_files, tmp_path):
        # IDX pixels stay uint8 and are scaled per batch; every output must
        # equal the one from a vector CSV holding scale_pixels(raw) exactly.
        from devae.data import read_idx, scale_pixels, write_csv_vectors

        images, labels, proj = idx_files["images"], idx_files["labels"], tmp_path / "proj.csv"
        floats = tmp_path / "floats.csv"
        write_csv_vectors(floats, scale_pixels(read_idx(images)[1]))
        assert run_cli(["pca", "--data", images, "--out", proj]).returncode == 0
        assert run_cli(["pca", "--data", floats, "--out", tmp_path / "proj-csv.csv"]).returncode == 0
        assert (tmp_path / "proj-csv.csv").read_bytes() == proj.read_bytes()
        outputs = {}
        for name, data in (("idx", images), ("csv", floats)):
            ckpt = tmp_path / f"{name}.ckpt"
            runs = [
                ["train", "--data", data, "--proj", proj, "--labels", labels, "--recon", "bce",
                 "--seed", 4, "--out", ckpt, *FAST_TRAIN],
                ["eval", "--model", ckpt, "--data", data, "--proj", proj, "--split", "all"],
                ["project", "--model", ckpt, "--data", data, "--out", tmp_path / f"{name}.csv"],
                ["latent-plot", "--model", ckpt, "--data", data, "--proj", proj, "--labels", labels,
                 "--split", "all", "--out", tmp_path / f"{name}.svg"],
            ]
            stdout = []
            for argv in runs:
                r = run_cli(argv)
                assert r.returncode == 0, r.stderr
                stdout.append(r.stdout)
            outputs[name] = [stdout] + [(tmp_path / f"{name}{ext}").read_bytes()
                                        for ext in (".ckpt", ".csv", ".svg")]
        assert outputs["idx"] == outputs["csv"]

    def test_label_file_with_broken_magic_is_parse_error(self, idx_files, tmp_path):
        # A corrupted magic is not sniffed as IDX: the file is read as a CSV.
        broken = tmp_path / "labels.idx"
        broken.write_bytes(b"\xff" + idx_files["labels"].read_bytes()[1:])
        r = run_cli(["pca", "--data", idx_files["images"], "--labels", broken,
                     "--out", tmp_path / "p.csv"])
        assert r.returncode == 2, r.stderr
        assert "line 1 is not UTF-8" in r.stderr and "Traceback" not in r.stderr


class TestGradcheckCommand:
    def test_green_suite_exits_zero(self):
        r = run_cli(["gradcheck", "--seed", 0])
        assert r.returncode == 0, r.stdout + r.stderr
        assert "gradient checks passed" in r.stdout
        assert "FAIL" not in r.stdout


_TRAIN_FLAGS = [
    ("--head", False, "full", ("none", "isotropic", "diagonal", "full")),
    ("--lambda-proj", False, None, None),
    ("--lambda-ent", False, None, None),
    ("--recon", False, "mse", ("mse", "bce")),
    ("--seed", False, 0, None),
    ("--lr", False, 0.001, None),
    ("--batch-size", False, 64, None),
    ("--max-epochs", False, 100, None),
    ("--patience", False, 5, None),
    ("--encoder-widths", False, (512, 128), None),
    ("--decoder-widths", False, (128, 512), None),
]
_SPLITS = ("train", "val", "test", "all")

# (option, required, default, choices) of every option but -h, in the order --help lists them.
PARSER_TABLE = {
    "synth": [("--out", True, None, None), ("--n", False, 600, None), ("--dims", False, 50, None),
              ("--blobs", False, 3, None), ("--spread", False, 0.5, None), ("--seed", False, 7, None)],
    "pca": [("--data", True, None, None), ("--labels", False, None, None), ("--out", True, None, None)],
    "train": [("--data", True, None, None), ("--proj", True, None, None), ("--labels", False, None, None),
              ("--out", True, None, None), ("--report", False, None, None), *_TRAIN_FLAGS],
    "matrix": [("--data", True, None, None), ("--proj", True, None, None), ("--labels", False, None, None),
               ("--runs", False, 10, None), ("--heads", False, "all", None),
               ("--format", False, "json", ("json", "table")), *_TRAIN_FLAGS],
    "eval": [("--model", True, None, None), ("--data", True, None, None), ("--proj", True, None, None),
             ("--labels", False, None, None), ("--split", False, "test", _SPLITS)],
    "project": [("--model", True, None, None), ("--data", True, None, None), ("--out", True, None, None)],
    "reconstruct": [("--model", True, None, None), ("--proj", True, None, None), ("--grid", False, 5, None),
                    ("--out", True, None, None)],
    "latent-plot": [("--model", True, None, None), ("--data", True, None, None), ("--proj", True, None, None),
                    ("--labels", False, None, None), ("--split", False, "test", _SPLITS),
                    ("--out", True, None, None)],
    "gradcheck": [("--seed", False, 0, None)],
}


def test_parser_options_match_the_table():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(PARSER_TABLE)
    for command, expected in PARSER_TABLE.items():
        got = [(*a.option_strings, a.required, a.default, None if a.choices is None else tuple(a.choices))
               for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)]
        assert got == expected, command
