"""Exception types shared across the package.

The CLI maps these onto exit codes: a `ValueError` (a refused config,
flag or artifact) exits 1, `NumericalError` 2, `MissingArtifactError` 3.
"""


class FrameCountError(ValueError):
    """A frame table holds a different number of rows than its reader expects."""

    def __init__(self, message: str, rows: int):
        super().__init__(message)
        self.rows = rows


class NumericalError(RuntimeError):
    """A numerical guarantee failed (eigenpair, conservation, finiteness); the message says which."""


class MissingArtifactError(FileNotFoundError):
    """A pipeline input file is absent; the message names the command that produces it."""
