"""devae: entropy-regularized VAEs for parametric, invertible 2-D projections.

The encoder learns a parametric projection whose latent mean tracks a
precomputed 2-D embedding; the decoder learns the inverse projection; a
differential-entropy term regularizes the latent covariance (isotropic,
diagonal, or full Gaussian, plus a covariance-free baseline).
"""

from .data import DatasetBundle, make_blobs, pca_project, read_csv_vectors, read_idx, read_projection_csv, scale_pixels
from .errors import DevaeError
from .evaluation import class_ellipses, evaluate
from .gaussian import EllipseSpec, GaussianLatent, ellipse_from_cov
from .losses import LossBreakdown, LossWeights, ent_loss, total_loss
from .model import DeVae, ModelConfig, forward_train, load_checkpoint, save_checkpoint
from .tensor import DenseLayer, Tensor, finite_diff_grad
from .trainer import Adam, EarlyStopping, TrainReport, TrainSettings, run_matrix, split_dataset, train
from .viz import grid_inverse_sheet, latent_plot_svg

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "DatasetBundle",
    "DeVae",
    "DevaeError",
    "DenseLayer",
    "EarlyStopping",
    "EllipseSpec",
    "GaussianLatent",
    "LossBreakdown",
    "LossWeights",
    "ModelConfig",
    "Tensor",
    "TrainReport",
    "TrainSettings",
    "class_ellipses",
    "ellipse_from_cov",
    "ent_loss",
    "evaluate",
    "finite_diff_grad",
    "forward_train",
    "grid_inverse_sheet",
    "latent_plot_svg",
    "load_checkpoint",
    "make_blobs",
    "pca_project",
    "read_csv_vectors",
    "read_idx",
    "read_projection_csv",
    "run_matrix",
    "save_checkpoint",
    "scale_pixels",
    "split_dataset",
    "total_loss",
    "train",
]
