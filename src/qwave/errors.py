"""Exception types shared across the package.

The CLI maps these onto exit codes: config errors exit 1, numerical
failures exit 2, missing pipeline artifacts exit 3.
"""


class ConfigError(ValueError):
    """A run configuration key is unknown, malformed, or out of range."""


class FrameCountError(ValueError):
    """A frame table holds a different number of rows than its reader expects."""

    def __init__(self, message: str, rows: int):
        super().__init__(message)
        self.rows = rows


class NumericalError(RuntimeError):
    """Base class for failures of a numerical guarantee."""


class ConvergenceError(NumericalError):
    """The eigensolver failed on a block, or an eigenpair missed its residual bound."""


class ConservationError(NumericalError):
    """Probability conservation drifted beyond the abort threshold."""


class NonFiniteError(NumericalError):
    """A NaN or infinity appeared where a finite value is required."""


class MissingArtifactError(FileNotFoundError):
    """A pipeline input file is absent; the message names the command that produces it."""
