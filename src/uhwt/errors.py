"""Exception types raised across the library."""


class UhwtError(Exception):
    """Base class for all library errors."""


class EmptyChildError(UhwtError):
    """A split group carries no data points, so masses/means are undefined."""


class InvalidDatasetError(UhwtError, ValueError):
    """Locations and responses do not form a dataset: shape, count, duplicates, norm."""


class NonFiniteDataError(InvalidDatasetError):
    """Locations or responses contain NaN or infinity."""


class OutOfDomainError(UhwtError):
    """Query point lies outside the root cell of a tree."""


class EmptyInputError(UhwtError):
    """An operation requiring a nonempty collection received an empty one."""


class NoInternalNodesError(UhwtError):
    """Tree has no internal nodes (no coefficients to collect)."""


class AntipodalPointsError(UhwtError):
    """Geodesic midpoint of antipodal points is undefined."""


class DegenerateTriangleError(UhwtError):
    """Spherical triangle has coincident or antipodal vertices."""


class InvalidQuantileError(UhwtError):
    """Quantile level must lie strictly inside (0, 1)."""


class ExplosionGuardError(UhwtError):
    """Recursion reached more distinct cells than the configured cap."""


class TooLargeError(UhwtError):
    """Exhaustive enumeration requested on a dataset too large to enumerate."""


class TooFewDrawsError(UhwtError):
    """Posterior summaries need at least two stored draws."""


class PreconditionViolatedError(UhwtError):
    """An operation's stated precondition does not hold for the inputs."""


class BadMagicError(UhwtError):
    """File does not start with the expected magic bytes."""


class DimensionMismatchError(UhwtError):
    """Declared dimensions are inconsistent with the payload."""


class TruncatedPayloadError(UhwtError):
    """File ends before the declared payload is complete."""


class UnknownSignalError(UhwtError):
    """Requested synthetic signal id is not registered."""
