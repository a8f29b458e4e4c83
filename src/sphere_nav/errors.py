"""Exception types shared across the package."""


class SphereNavError(Exception):
    """Base class for all library errors."""


class NearZeroVector(SphereNavError):
    """Normalization of a vector whose norm is below the safe threshold."""


class AntipodalEndpoints(SphereNavError):
    """Geodesic endpoints are (numerically) antipodal; the arc is undefined."""


class DomainError(SphereNavError):
    """Scalar argument outside the documented domain."""


class OriginInsideBody(SphereNavError):
    """Euclidean star body contains the origin; radial projection is undefined."""


class NotStarShaped(SphereNavError):
    """A ray from the kernel point does not cross the body boundary exactly once."""


class TargetInsideUnsafe(SphereNavError):
    """Target point lies inside the unsafe union."""


class KernelAntipodalToTarget(SphereNavError):
    """A kernel point is antipodal to the target; the reference arcs degenerate."""


class InsideUnsafe(SphereNavError):
    """Controller evaluated at a state inside the unsafe interior."""


class TooCloseToBoundary(SphereNavError):
    """Finite-difference stencil would straddle the unsafe boundary."""


class DegenerateProjection(SphereNavError):
    """Projection of the state onto the kernel's tangent space is numerically zero."""


class DimensionMismatch(SphereNavError):
    """Operation requires a specific sphere dimension."""


class NonSmoothNeighborhood(SphereNavError):
    """Finite-difference Jacobian requested within a step of a control-law kink."""


class MultipleActiveConstraints(SphereNavError, AssertionError):
    """State lies in more than one constraint band; admissible configurations exclude this."""


class ScenarioParseError(SphereNavError):
    """Scenario file is not well-formed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InvariantViolation(SphereNavError):
    """Scenario violates one or more declared invariants; lists every violation found."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
