"""Exception types shared across the package."""


class TFFCombError(Exception):
    """Base class for all errors raised by tffcomb."""


class NotDominated(TFFCombError):
    """Chain construction requested between incomparable partitions."""


class DoesNotFit(TFFCombError):
    """Partition does not fit inside the requested rectangle."""


class DimensionMismatch(TFFCombError):
    """Matrix dimensions are inconsistent with the declared (dim, ranks)."""


class InvalidRanks(TFFCombError):
    """Rank sequence is empty, not positive, or exceeds the ambient dimension."""


class InvalidCertificate(TFFCombError):
    """Matrix fails the configuration-matrix properties."""


class MalformedInput(TFFCombError):
    """Input data does not have the documented layout (e.g. JSON not an object)."""


class SizeMismatch(TFFCombError):
    """Partition size is incompatible with the requested completion."""


class InvalidShape(TFFCombError, ValueError):
    """Partition is malformed, or rectangle product parameters are out of
    order."""


class AlphaOutOfRange(TFFCombError):
    """Bound check only applies to frame bounds strictly between 1 and 2."""


class AlphaNotGreaterThanOne(TFFCombError):
    """Operation requires a frame bound strictly greater than 1."""


class InvalidAlpha(TFFCombError):
    """Frame bound is not a rational alpha >= 1 with alpha * dim integral."""


class PreconditionNotMet(TFFCombError):
    """Recursive stripping requires the top rank to equal dim * (alpha - 1)."""


class DegenerateDual(TFFCombError):
    """Dual would have no positive ranks (or no ambient dimensions) left."""


class NotATFFSequence(TFFCombError):
    """Certificate or realization requested for a sequence that is not tight."""


class InvalidMultiplicity(TFFCombError):
    """Multiplicity function violates the two-projection spectrum conditions."""


class InvalidParameter(TFFCombError, ValueError):
    """Option is missing or out of range (e.g. a negative tolerance)."""


class ConvergenceFailure(TFFCombError):
    """Optimizer failed to reach the target residual within the restart budget."""
