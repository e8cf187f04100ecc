"""Exception types shared across the package.

The CLI maps these onto exit codes: config/validation errors exit 1,
I/O and file-format errors exit 2, numerical divergence exits 3.
"""


class ClozermError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ClozermError):
    """Tensor shapes incompatible with the requested operation."""


class ContractError(ClozermError):
    """A documented precondition was violated by the caller."""


class ConfigError(ClozermError):
    """Invalid configuration value or combination."""


class DataError(ClozermError):
    """Dataset-level failure; carries per-line issues when available."""

    def __init__(self, message, issues=None):
        super().__init__(message)
        self.issues = list(issues) if issues else []


class SkipRecord(ClozermError):
    """A single record cannot be rendered and should be skipped.

    Carries the offending record's id so callers can report it.
    """

    def __init__(self, record_id, reason):
        super().__init__(f"skip {record_id}: {reason}")
        self.record_id = record_id
        self.reason = reason


class CheckpointError(ClozermError):
    """Checkpoint file is malformed, truncated, or has an unknown version."""


class DivergenceError(ClozermError):
    """Numerics diverged: the training loss, the trained parameters or an
    evaluated option logit became non-finite."""
