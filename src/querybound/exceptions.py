"""Error types raised across the library.

Every class derives from ValueError so generic callers can catch broadly;
the CLI maps specific classes to exit codes.
"""


class QueryBoundError(ValueError):
    """Base class for all library errors."""


class NonSymmetric(QueryBoundError):
    """Matrix is not symmetric within tolerance."""


class NonFinite(QueryBoundError):
    """Input contains NaN or infinity, or a result left float range."""


class NotPSD(QueryBoundError):
    """Matrix has an eigenvalue below the negative tolerance."""


class DimOutOfRange(QueryBoundError):
    """A dimension, count, or parameter is outside its allowed range."""


class IndexOutOfRange(QueryBoundError):
    """A cell index is outside 1..n, or a subset is empty."""


class DimensionMismatch(QueryBoundError):
    """Operands are defined over different cell counts or lengths."""


class EmptyCuboidList(QueryBoundError):
    """Data-cube construction requires at least one cuboid."""


class GramOnlyL1(QueryBoundError):
    """L1 sensitivity requires an explicit matrix, not a Gram."""


class SupportViolation(QueryBoundError):
    """The strategy cannot represent the workload (W A+ A != W)."""


class NotPowerOfTwo(QueryBoundError):
    """Construction requires n = 2^k."""


class SubsetTooLarge(QueryBoundError):
    """Exhaustive projection enumeration requested beyond the cap."""


class FamilyTooLarge(QueryBoundError):
    """Projection family would exceed the subset-count cap."""


class NotVariableAgnostic(QueryBoundError):
    """Gram is not of the constant-diagonal/off-diagonal form with a > b."""


class NotPredicate(QueryBoundError):
    """Conjunction requires 0/1-valued workloads."""


class ExplicitRequired(QueryBoundError):
    """Operation needs an explicit query matrix, not a Gram-only form."""


class StreamMismatch(QueryBoundError):
    """Block-derived noise seeds disagree with NumPy's SeedSequence."""
