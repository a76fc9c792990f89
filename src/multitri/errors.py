"""Exception types shared by every module in the package."""


class MultitriError(Exception):
    """Base class for all errors raised by this package."""


class TooLarge(MultitriError):
    """An enumeration request exceeds the configured search budget."""


class StructureViolation(MultitriError):
    """A structural law that must hold for valid input failed.

    This signals a bug (or deliberately corrupted input), never a
    user-recoverable condition.
    """


class EdgeTooLong(StructureViolation):
    """A class list holds a class longer than the maximum admissible length
    k*n, so it is no triangulation of C_n."""


class NotRelevant(MultitriError):
    """The edge is too short to be flipped."""


class NotInTriangulation(MultitriError):
    """The edge is not present in the triangulation."""


class NotPeriodic(MultitriError):
    """The polygon triangulation is not invariant under the required shift."""


class LengthPrecondition(MultitriError):
    """An angle fails the length requirements for star extraction."""


class MalformedShape(MultitriError):
    """A pipe entered a tile through a side that has no connection."""


class ShapeMismatch(MultitriError):
    """A pipe dream has the wrong shape for the requested transformation."""
