"""Exception types shared across the package."""


class SuperpositionError(Exception):
    """Base class for all package errors."""


class NonUnitColumn(SuperpositionError):
    """A basis column deviates from unit norm beyond tolerance."""


class LinearlyDependent(SuperpositionError):
    """Gram determinant is not positive; the vectors are not a basis."""


class OverlapOutOfRange(SuperpositionError):
    """Constant overlap outside the open interval (1/(1-d), 1)."""


class DimensionMismatch(SuperpositionError):
    pass


class InvalidCoefficients(SuperpositionError):
    pass


class NotIsometry(SuperpositionError):
    pass


class ParameterOutOfRange(SuperpositionError):
    pass


class InvalidRank(SuperpositionError):
    pass


class NotTracePreserving(SuperpositionError):
    """Kraus operators do not sum to the identity within tolerance."""


class WrongDimension(SuperpositionError):
    pass


class InvalidProbabilities(SuperpositionError):
    pass


class ChannelMismatch(SuperpositionError):
    """A verified channel identity failed; signals an implementation bug."""


class ComplexBasis(SuperpositionError):
    """Operation requires a real basis matrix."""


class ComplexCoefficients(SuperpositionError):
    pass


class InvalidPartition(SuperpositionError):
    pass


class ProjectorMismatch(SuperpositionError):
    """Oblique block projectors fail E_i E_j = delta_ij E_i or sum_i E_i = I."""


class ZeroTrace(SuperpositionError):
    pass


class BlockSizeMismatch(SuperpositionError):
    pass


class UnknownMeasure(SuperpositionError):
    pass


class UnknownChannelFamily(SuperpositionError):
    pass


class UnknownOracle(SuperpositionError):
    pass
