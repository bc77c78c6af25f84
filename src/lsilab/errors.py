"""Exception hierarchy shared by all lsilab modules.

Every error raised by the library derives from :class:`LsiLabError`, so
callers (in particular the CLI) can distinguish validation problems from
genuine numerical findings.
"""


class LsiLabError(Exception):
    """Base class for all lsilab errors. Its message is one line: each line break, such as
    those in the repr of a 2-d array that a message echoes, becomes one space."""

    def __str__(self) -> str:
        first, *rest = super().__str__().splitlines() or [""]
        return " ".join([first, *(line.strip() for line in rest)])


class InvalidInputError(LsiLabError):
    """Malformed data: bad grids, non-finite values, unparseable files."""


class UnknownFamilyError(LsiLabError):
    """Requested closed-form function family does not exist."""


class ParamOutOfRangeError(LsiLabError):
    """A numeric parameter violates its documented range."""


class DomainMismatchError(LsiLabError):
    """Operation requires a different domain (kind, endpoints or length)."""


class TruncationTooLargeError(LsiLabError):
    """Fourier truncation does not fit on the sample grid."""


class NotHermitianError(LsiLabError):
    """Non-real Fourier data: a_{-n} != conj(a_n) beyond HERMITIAN_TOL, or a non-real a_0."""


class NegativeFunctionError(LsiLabError):
    """Function has values below the admissible negativity tolerance."""


class NonPositiveFunctionError(LsiLabError):
    """Function must be strictly positive for this operation."""


class NotNormalizedError(LsiLabError):
    """Squared mass differs from 1 beyond tolerance."""


class ZeroMassError(LsiLabError):
    """Root mean square (or mean) is numerically zero."""


class EvenSampleCountError(LsiLabError):
    """Reflection needs an odd sample count so the fold lands on a node."""


class InsufficientDataError(LsiLabError):
    """Too few distinct data points for the requested extrapolation."""
