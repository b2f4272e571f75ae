"""Exception hierarchy shared by all fracsol modules."""


class FracsolError(Exception):
    """Base class for all library errors."""


class PoleError(FracsolError):
    """A gamma evaluation landed on (or within tolerance of) a pole."""


class DivergentInputError(FracsolError):
    """Series or integral diverges: an argument outside a series'
    convergence radius, or a contour integral with omega <= 0."""


class NoConvergenceError(FracsolError):
    """Series summation hit its term cap before its stop rule fired, or a
    term overflowed the double range."""


class CancellationError(FracsolError):
    """Series terms cancel past the accuracy the evaluator guarantees."""


class UnsupportedClassError(FracsolError):
    """The evaluator does not handle this parameter class."""


class QuadratureFailureError(FracsolError):
    """Quadrature stalled before its target tolerance, or its sum passed the double range."""


class ExponentOutOfRangeError(FracsolError):
    """Leading exponent outside the fractionally differentiable range."""


class BranchMismatchError(FracsolError):
    """Fractional order does not select this solution branch."""


class ComplexRootsError(FracsolError):
    """Characteristic roots are complex (negative discriminant); the H form
    and the exponential closed form decline."""


class DegenerateLeadingError(FracsolError):
    """Leading operator coefficient a_n (n >= 1) is not positive, or a
    characteristic root fails its residual check (coefficients near underflow)."""


class DegenerateDError(FracsolError):
    """Space exponent d = 2 in a formula that divides by 2 - d."""


class StepTooLargeError(FracsolError):
    """Grunwald-Letnikov step too coarse for the requested point."""


class ExponentMisalignmentError(FracsolError):
    """Two series do not share an exponent lattice."""


class PreconditionViolationError(FracsolError):
    """The spec lacks the entries or values an identity requires."""


class DomainError(FracsolError):
    """Evaluation point outside the open domain x > 0, t > 0, or where a
    quantity of the solution's formula passes the double range."""


class InputError(FracsolError):
    """Malformed CLI input (JSON, flags or grid syntax)."""
