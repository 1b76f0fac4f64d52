"""Exception types shared across the package."""


class SuperBerezinError(Exception):
    """Base class for all library errors."""


class DimensionError(SuperBerezinError):
    """Mismatched sizes: generator counts, matrix blocks, coordinate counts."""


class ParityError(SuperBerezinError):
    """An element has the wrong parity for the slot it was placed in."""


class NonInvertibleError(SuperBerezinError):
    """Inversion of an element whose body is not a unit."""


class DomainBoxError(SuperBerezinError):
    """Coordinate box violated: containment failure or backend mismatch."""


class OrientationError(SuperBerezinError):
    """A morphism declared oriented has a nonpositive body Jacobian sample."""


class NonIntegrableError(SuperBerezinError):
    """The requested exact integral does not exist in the value domain."""


class InconclusiveError(SuperBerezinError):
    """A truncated computation did not stabilise; no verdict is implied."""


class StructureError(SuperBerezinError):
    """Structural data violates its defining identities."""


class NormalizationError(SuperBerezinError):
    """Supplied densities do not satisfy the required normalisation."""

    def __init__(self, message, discrepancy=None):
        super().__init__(message)
        self.discrepancy = discrepancy


class ParseError(SuperBerezinError):
    """Malformed text input; carries the 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
