"""Exception hierarchy shared by all devae modules.

The CLI maps these onto exit codes: usage problems exit 1, data/parse/shape
problems exit 2, numerical divergence exits 3. The CLI treats every
ContractError as a usage error: the ones a flag value can raise come from
TrainSettings and LossWeights, and the other sites are preconditions that the
CLI meets before it calls them. Every problem with a checkpoint file is one
CheckpointError, whose message names it (bad magic, unsupported version,
truncated block, trailing bytes or an invalid config block).
"""

from __future__ import annotations


class DevaeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(DevaeError):
    """Invalid flags or argument values at the CLI boundary."""


class DimensionError(DevaeError):
    """Operands have incompatible shapes."""

    @classmethod
    def mismatch(cls, what: str, a, b) -> "DimensionError":
        return cls(f"{what}: shapes {tuple(a)} and {tuple(b)} are incompatible")


class ContractError(DevaeError):
    """An operation was called outside its contract (non-shape precondition)."""


class DomainError(DevaeError):
    """Input values outside the mathematical domain of an operation."""


class DivergenceError(DevaeError):
    """A loss or gradient became non-finite during training."""


class ParseError(DevaeError):
    """Malformed input file (IDX or CSV)."""


class DataError(DevaeError):
    """Dataset-level problem: too small, degenerate, or inconsistent."""


class GeometryError(DevaeError):
    """Invalid geometric input, e.g. a covariance matrix that is not SPD."""


class CheckpointError(DevaeError):
    """Problem reading or writing a model checkpoint."""
