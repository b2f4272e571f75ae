"""Exception hierarchy shared by all fracsol modules."""


class FracsolError(Exception):
    """Base class for all library errors."""


class PoleError(FracsolError):
    """A gamma evaluation landed on (or within tolerance of) a pole."""


class DivergentInputError(FracsolError):
    """Argument lies outside the convergence radius of a series."""


class NoConvergenceError(FracsolError):
    """Series summation hit its term cap before its stop rule fired."""


class CancellationError(FracsolError):
    """Series terms cancel past the accuracy the evaluator guarantees."""


class UnsupportedClassError(FracsolError):
    """The evaluator does not handle this parameter class."""


class NonConvergentError(FracsolError):
    """Contour-integral convergence conditions are violated (omega <= 0)."""


class QuadratureFailureError(FracsolError):
    """Quadrature refinement stalled before reaching the target tolerance."""


class ShapeMismatchError(FracsolError):
    """Spec does not carry the parameter entries required by the identity."""


class NonDecayingError(FracsolError):
    """Asymptotic decay envelope undefined (nu <= 0)."""


class ExponentOutOfRangeError(FracsolError):
    """Leading exponent outside the fractionally differentiable range."""


class BranchMismatchError(FracsolError):
    """Fractional order does not select this solution branch."""


class ComplexRootsError(FracsolError):
    """Characteristic roots are complex; the contour evaluator declines."""


class DegenerateLeadingError(FracsolError):
    """Leading operator coefficient vanishes."""


class DegenerateDError(FracsolError):
    """Space exponent d = 2: the similarity reduction degenerates."""


class UnsupportedAlphaError(FracsolError):
    """Fractional order falls in the gap no solution branch covers."""


class ComplexDiscriminantError(FracsolError):
    """Closed-form branch requires a non-negative discriminant."""


class StepTooLargeError(FracsolError):
    """Grunwald-Letnikov step too coarse for the requested point."""


class ExponentMisalignmentError(FracsolError):
    """Two series do not share an exponent lattice."""


class PreconditionViolationError(FracsolError):
    """Operator-identity preconditions not met by the supplied spec."""


class DomainError(FracsolError):
    """Evaluation point outside the open domain x > 0, t > 0."""


class InputError(FracsolError):
    """Malformed CLI input (JSON, flags or grid syntax)."""
