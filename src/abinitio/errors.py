"""Exception types shared across the package.

Everything user-facing derives from AbinitioError so the CLI can map
precondition failures to a single exit code.
"""


class AbinitioError(Exception):
    """Base class for all precondition and construction failures."""


class UnknownVertex(AbinitioError):
    """A vertex name does not occur in the ambient graph."""


class CoefficientMismatch(AbinitioError):
    """Two graphs that must share the sparsity coefficient do not."""


class OutsideK0(AbinitioError):
    """An operation required a hereditarily nonnegative ambient and got none."""


class InvalidMap(AbinitioError):
    """An embedding or partial isomorphism violates its invariants."""


class AmalgamError(AbinitioError):
    """A free amalgam specification failed eager validation."""


class ConstructionFailed(AbinitioError):
    """An internal construction step could not be completed.

    Carries the stage log collected so far, to make reports actionable.
    """

    def __init__(self, message: str, stage_log=None):
        super().__init__(message)
        self.stage_log = list(stage_log) if stage_log is not None else []
