"""Exception hierarchy for density construction and verification.

Everything derives from :class:`DensityError` (itself a ``ValueError``) so
callers can catch the whole family with one clause while tests can pin the
precise failure mode.
"""


class DensityError(ValueError):
    """Base class for all density / verification errors."""


class NonPositiveSpacing(DensityError):
    """Grid spacing dx must be positive and finite."""


class NegativeValue(DensityError):
    """Density values must be nonnegative."""


class EmptyGrid(DensityError):
    """A grid must contain at least one cell."""


class ZeroMass(DensityError):
    """Operation requires strictly positive total mass."""


class GridMismatch(DensityError):
    """Operands must share the same grid (x0, dx, cell count)."""


class SpacingMismatch(DensityError):
    """Convolution operands must share the same cell spacing."""


class OrderOutOfRange(DensityError):
    """Renyi order outside the admissible range for this operation."""


class BetaOutOfRange(DensityError):
    """Shape parameter beta outside the admissible range."""


class BadParameter(DensityError):
    """Scalar parameter outside its documented domain."""


class TruncationInsufficient(DensityError):
    """Truncated series does not meet the requested tail tolerance."""


class ConfigInvalid(DensityError):
    """Suite configuration failed validation."""


class InaccurateResult(DensityError):
    """A numerical routine could not reach its accuracy target; no value is returned."""


class DensityOverflow(DensityError):
    """A density value is too large to represent as a float."""
