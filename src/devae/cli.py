"""Command-line interface.

Exit codes: 0 success, 1 usage error (a bad flag, or a flag value that
TrainSettings, LossWeights or make_blobs rejects), 2 data/parse
error or out of memory (an allocation the machine refuses), 3 numerical
divergence. Errors go to stderr; results go to stdout or to files. All
randomness comes from --seed, so identical invocations produce identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as dio
from .errors import ContractError, DataError, DevaeError, DivergenceError, UsageError
from .evaluation import class_ellipses, evaluate
from .gaussian import HEAD_PARAMS, HEADS
from .gradsuite import run_gradient_suite
from .losses import LossWeights
from .model import RECON_KINDS, DeVae, ModelConfig, load_checkpoint, save_checkpoint
from .trainer import TrainSettings, format_metrics_table, metrics_to_json, run_matrix, split_dataset, train
from .viz import grid_inverse_sheet, latent_plot_svg

# The BCE defaults; MSE datasets must pick their own weights explicitly
# because good values are dataset-specific.
DEFAULT_LAMBDA_PROJ = 20.0
DEFAULT_LAMBDA_ENT = 5.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 1
        raise UsageError(message)


def _widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"widths must be a comma-separated list of integers, got {text!r}") from None
    if not widths or any(w < 1 for w in widths):
        raise UsageError(f"widths must be positive integers, got {text!r}")
    return widths


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--head", choices=HEADS, default=ModelConfig.head)
    p.add_argument("--lambda-proj", type=float, default=None)
    p.add_argument("--lambda-ent", type=float, default=None)
    p.add_argument("--recon", choices=RECON_KINDS, default=ModelConfig.recon_kind)
    p.add_argument("--seed", type=int, default=TrainSettings.seed)
    p.add_argument("--lr", type=float, default=TrainSettings.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainSettings.batch_size)
    p.add_argument("--max-epochs", type=int, default=TrainSettings.max_epochs)
    p.add_argument("--patience", type=int, default=TrainSettings.patience)
    p.add_argument("--encoder-widths", type=_widths, default=ModelConfig.encoder_widths)
    p.add_argument("--decoder-widths", type=_widths, default=ModelConfig.decoder_widths)


def _resolve_weights(args) -> LossWeights:
    lam_p, lam_e = args.lambda_proj, args.lambda_ent
    if args.recon == "mse" and (lam_p is None or lam_e is None):
        raise UsageError("--recon mse requires explicit --lambda-proj and --lambda-ent")
    if lam_p is None:
        lam_p = DEFAULT_LAMBDA_PROJ
    if lam_e is None:
        lam_e = DEFAULT_LAMBDA_ENT
    return LossWeights(lambda_proj=lam_p, lambda_ent=lam_e)


def _sniff_idx_magic(path) -> int | None:
    with open(path, "rb") as fh:
        head = fh.read(4)
    if len(head) == 4 and head[:2] == b"\x00\x00":
        return int.from_bytes(head, "big")
    return None


def _load_matrix(path):
    """Sample matrix from a vector CSV (float64) or an IDX image file (uint8 pixels,
    scaled per batch by ``gather_rows``)."""
    magic = _sniff_idx_magic(path)
    if magic == dio.IDX_IMAGES_MAGIC:
        _, values = dio.read_idx(path)
        return values, None
    if magic == dio.IDX_LABELS_MAGIC:
        raise DataError(f"{path} is an IDX label file; pass it via --labels")
    return dio.read_csv_vectors(path)


def _load_labels(path) -> np.ndarray:
    """Label vector from an IDX label file or a labels CSV."""
    magic = _sniff_idx_magic(path)
    if magic == dio.IDX_IMAGES_MAGIC:
        raise DataError(f"{path} is an IDX image file; pass it via --data")
    if magic == dio.IDX_LABELS_MAGIC:
        _, values = dio.read_idx(path)
        return values
    return dio.read_labels_csv(path)


def _load_bundle(data_path, proj_path, seed: int, labels_path=None) -> dio.DatasetBundle:
    X, labels = _load_matrix(data_path)
    Y, proj_labels = dio.read_projection_csv(proj_path)
    if Y.shape[0] != X.shape[0]:
        raise DataError(
            f"data has {X.shape[0]} rows but projection has {Y.shape[0]}"
        )
    if labels_path is not None:
        labels = _load_labels(labels_path)
    elif labels is None:
        labels = proj_labels
    split = split_dataset(X.shape[0], seed)
    return dio.DatasetBundle(X=X, Y=Y, split=split, labels=labels, name=str(data_path))


def _settings(args) -> TrainSettings:
    return TrainSettings(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )


def _config(args, input_dim: int) -> ModelConfig:
    return ModelConfig(
        input_dim=input_dim,
        weights=_resolve_weights(args),
        encoder_widths=args.encoder_widths,
        decoder_widths=args.decoder_widths,
        head=args.head,
        recon_kind=args.recon,
        seed=args.seed,
    )


# -- subcommand bodies -------------------------------------------------------


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")


def _cmd_synth(args) -> int:
    _check_seed(args.seed)
    X, labels = dio.make_blobs(args.n, args.dims, args.blobs, args.spread, args.seed)
    dio.write_csv_vectors(args.out, X, labels)
    return 0


def _cmd_pca(args) -> int:
    X, labels = _load_matrix(args.data)
    if args.labels is not None:
        labels = _load_labels(args.labels)
    Y = dio.pca_project(X)
    dio.write_projection_csv(args.out, Y, labels)
    return 0


def _cmd_train(args) -> int:
    settings = _settings(args)  # validates seed and schedule before any I/O
    bundle = _load_bundle(args.data, args.proj, args.seed, args.labels)
    config = _config(args, bundle.dim)
    model = DeVae(config)
    model, report = train(model, bundle, settings)
    save_checkpoint(model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json() + "\n")
    print(json.dumps({
        "epochs_run": report.epochs_run,
        "best_epoch": report.best_epoch,
        "best_val_total": report.best_val_total,
    }))
    return 0


def _cmd_matrix(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    heads = list(HEADS) if args.heads == "all" else [h.strip() for h in args.heads.split(",")]
    for head in heads:
        if head not in HEADS:
            raise UsageError(f"unknown head {head!r}")
    settings = _settings(args)
    bundle = _load_bundle(args.data, args.proj, args.seed, args.labels)
    template = _config(args, bundle.dim)
    rows = run_matrix(bundle, heads, args.runs, settings, template)
    if args.format == "table":
        print(format_metrics_table(rows), end="")
    else:
        print(metrics_to_json(rows, dataset=bundle.name))
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    bundle = _load_bundle(args.data, args.proj, model.config.seed, args.labels)
    breakdown = evaluate(model, bundle, args.split)
    print(json.dumps(breakdown.as_dict()))
    return 0


def _cmd_project(args) -> int:
    model = load_checkpoint(args.model)
    X, _ = _load_matrix(args.data)
    latent = model.encode_rows(X)
    blocks = [latent.mu.data] if latent.params is None else [latent.mu.data, latent.params.data]
    names = ["mu_x", "mu_y", *HEAD_PARAMS[model.config.head]]
    dio.write_csv(args.out, names, np.hstack(blocks), ids=True)
    return 0


def _cmd_reconstruct(args) -> int:
    if args.grid < 2:
        raise UsageError("--grid must be >= 2")
    model = load_checkpoint(args.model)
    coords, _ = dio.read_projection_csv(args.proj)
    kind = grid_inverse_sheet(model, coords, args.grid, args.out)
    if kind == "csv":
        print(
            f"output dimension {model.config.input_dim} is not a perfect square; wrote CSV instead of PGM",
            file=sys.stderr,
        )
    return 0


def _cmd_latent_plot(args) -> int:
    model = load_checkpoint(args.model)
    bundle = _load_bundle(args.data, args.proj, model.config.seed, args.labels)
    idx = bundle.indices(args.split)
    latent = model.encode_rows(bundle.X, idx)
    mu = latent.mu.data
    labels = bundle.labels[idx] if bundle.labels is not None else None
    ellipses = None
    if model.config.head != "none" and labels is not None:
        ellipses = class_ellipses(latent, labels, idx)
    latent_plot_svg(mu, labels, ellipses, args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    _check_seed(args.seed)
    results = run_gradient_suite(args.seed)
    failures = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name:28s} max_rel_err={r.max_rel_error:.3e} tol={r.tolerance:.0e}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return 0 if failures == 0 else 3


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="devae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a Gaussian-blob vector CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--dims", type=int, default=50)
    p.add_argument("--blobs", type=int, default=3)
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pca", help="write a 2-D PCA projection CSV for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None, help="optional IDX or CSV label file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("train", help="train one model and write checkpoint + report")
    p.add_argument("--data", required=True)
    p.add_argument("--proj", required=True)
    p.add_argument("--labels", default=None, help="optional IDX or CSV label file")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("matrix", help="train heads x seeds and tabulate test metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--proj", required=True)
    p.add_argument("--labels", default=None, help="optional IDX or CSV label file")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--heads", default="all")
    p.add_argument("--format", choices=("json", "table"), default="json")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("eval", help="loss breakdown of a checkpoint on one split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--proj", required=True)
    p.add_argument("--labels", default=None, help="optional IDX or CSV label file")
    p.add_argument("--split", choices=(*dio.SPLIT_NAMES, "all"), default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("project", help="encode a dataset to mu (+ head params) CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("reconstruct", help="inverse-project an evenly spaced grid to an image sheet")
    p.add_argument("--model", required=True)
    p.add_argument("--proj", required=True)
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("latent-plot", help="latent scatter with medoid ellipses as SVG")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--proj", required=True)
    p.add_argument("--labels", default=None, help="optional IDX or CSV label file")
    p.add_argument("--split", choices=(*dio.SPLIT_NAMES, "all"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_latent_plot)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ContractError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (DevaeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
