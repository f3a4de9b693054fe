"""Exception types shared across the lab.

Every error raised on purpose by this package derives from InterpLabError,
so callers (the CLI in particular) can separate our failures from bugs.
ConfigError marks unusable user input; everything under NumericalError
marks a computation that was attempted and could not be completed at the
required accuracy.
"""


class InterpLabError(Exception):
    """Base class for all errors raised by interplab."""


class InvalidInput(InterpLabError):
    """An argument violates a documented precondition (shape, finiteness)."""


class DimensionMismatch(InvalidInput):
    """Operands have incompatible shapes."""


class ShapeMismatch(DimensionMismatch):
    """A parameter vector or an input does not match the network's shape."""


class InvalidSpec(InterpLabError):
    """A declarative spec (distribution, kernel, scan) is malformed."""


class ConfigError(InterpLabError):
    """An experiment config file cannot be parsed or validated."""


# --- data generation ---

class NoAnalyticOracle(InterpLabError):
    """The distribution family has no closed-form risk oracle."""


class BadMagic(InterpLabError):
    """IDX file does not start with a recognized magic number."""


class TruncatedFile(InterpLabError):
    """IDX file ends before the declared payload, or holds fewer rows than requested."""


class UnknownClass(InterpLabError):
    """A requested class label does not occur in the label file."""


# --- numerics ---

class NumericalError(InterpLabError):
    """A computation failed to reach the required accuracy."""


class NotSymmetric(NumericalError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(NumericalError):
    """Cholesky factorization failed even after the allowed jitter."""


class NoConvergence(NumericalError):
    """Iterative routine exhausted its iteration budget."""


class IllConditioned(NumericalError):
    """Linear system too ill-conditioned to certify the requested residual."""


class Diverged(NumericalError):
    """Gradient descent's loss left the finite range."""


class TargetUnreachable(NumericalError):
    """Optimizer hit its iteration cap before reaching the target loss."""


class NoCorruptedNeighbor(InterpLabError):
    """Perturbation search found no corrupted training point to aim at."""
