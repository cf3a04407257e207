"""Exception types shared across the package.

Every error raised deliberately by this package derives from NormlocError so
callers (and the command line front end) can distinguish our diagnostics from
genuine bugs.  Data/validation problems and verification failures are kept as
separate branches because they map to different process exit codes.
"""


class NormlocError(Exception):
    """Base class for all errors raised by this package."""


class DataError(NormlocError):
    """Malformed or inconsistent input data (files, parameters, indices)."""


class VerificationError(NormlocError):
    """A quantitative check that was expected to hold did not."""


class FormatError(DataError):
    """A serialized object does not match the documented layout."""


class InvalidParams(DataError):
    """Parameters passed to a generator or search are out of range."""


class UnknownPoint(DataError):
    """A point index is outside the underlying space."""


class DisconnectedGraph(DataError):
    """A graph that must be connected is not."""


class InvalidRadii(DataError):
    """A propagation/localization radius pair violates its precondition."""


class EmptySubset(DataError):
    """A subset-form certificate assigns an empty set to some point."""


class NotATree(DataError):
    """The distance-one graph of the space is not a tree."""


class RadiusMismatch(DataError):
    """A map built for one localization radius was applied at another."""


class ZeroOperator(DataError):
    """An operation that needs a nonzero operator received the zero one."""


class DegenerateWitness(VerificationError):
    """A localization search produced an identically zero candidate vector."""


class ConvergenceFailure(NormlocError):
    """An iterative solver exhausted its iteration budget."""
