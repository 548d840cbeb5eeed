"""Exception types shared across the package."""


class TorusConjError(Exception):
    pass


class LatticeError(TorusConjError):
    """Exact integer-lattice precondition violated (not an eigenvalue,
    dependent basis, non-saturated sublattice, ...)."""


class SpecParseError(TorusConjError):
    """Map-spec text rejected; carries 1-based line/column of the offender."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ContractionError(TorusConjError):
    """Inverse-lift fixed-point iteration is not certified to contract."""


class EngineError(TorusConjError):
    """Semi-conjugacy engine cannot be built or evaluated as requested."""


class FiberSolveError(TorusConjError):
    """Fiber root isolation failed (bad bracket or stall)."""


class FloatRangeError(TorusConjError):
    """A value leaves float64: a NaN or infinity in a report, a cone pencil overflow."""
