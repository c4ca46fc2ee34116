"""Exception types shared across the toolkit."""


class PoleEvaluationError(ValueError):
    """Evaluation point is too close to the resonance pole."""


class NoConvergenceError(RuntimeError):
    """Contour quadrature failed to settle within the node budget."""


class NegativeTimeError(ValueError):
    """Semigroup evolution is only defined for t >= 0."""


class IndexOutOfRangeError(IndexError):
    """Basis index outside 0..r-1."""


class EmptyGridError(ValueError):
    """A sampling grid must contain at least one point."""


class ConfigInvalidError(ValueError):
    """Run configuration failed validation."""


class JTooLargeError(ValueError):
    """Requested certification order exceeds the configured cap."""


class UnderflowError(ArithmeticError):
    """A reference value underflowed to zero and cannot scale a result."""
