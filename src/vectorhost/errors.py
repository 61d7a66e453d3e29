"""Exception types shared across the package."""


class VectorHostError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VectorHostError, ValueError):
    """An input violates a documented precondition or invariant."""


class MeshMismatchError(ValidationError):
    """Two fields that must share a mesh do not."""


class ConfigError(ValidationError):
    """A run configuration violates the schema.

    Carries the JSON path of the offending entry so CLI diagnostics can
    point at it directly.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class AdmissibilityError(ValidationError):
    """A perturbation size violates one of the named smallness inequalities."""

    def __init__(self, inequality, detail=""):
        self.inequality = inequality
        msg = f"inadmissible perturbation: {inequality} fails"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SingularSystemError(VectorHostError):
    """A system is singular, or not positive definite for LDL^T (bad pivot, or Neumann with c = 0)."""


class ConvergenceError(VectorHostError):
    """An iteration hit its cap before reaching tolerance, or lost an invariant it relies on."""

    def __init__(self, message, residual=None, iterations=None):
        self.residual = residual
        self.iterations = iterations
        if residual is not None:
            message += f" (last residual {residual:.3e}"
            if iterations is not None:
                message += f" after {iterations} iterations"
            message += ")"
        super().__init__(message)


class MonotonicityError(VectorHostError):
    """A monotone sweep moved the wrong way at some node, or a pass of the
    endemic bracket broke the order its upper and lower pairs must keep."""


class UniquenessViolation(VectorHostError):
    """The upper and lower limits of the endemic bracket disagree beyond tolerance."""


class StabilityError(ValidationError):
    """Requested time step exceeds the explicit-reaction stability bound."""


class BlowUpError(VectorHostError):
    """A trajectory fell below the round-off clamping band or overflowed to non-finite values."""
