"""Exception types shared across the package."""

__all__ = ["DomainError", "CancellationError", "ConvergenceError"]


class DomainError(ValueError):
    """An input is outside the validated domain of a formula or model."""


class CancellationError(DomainError):
    """A finite-difference step lost its signal to floating-point roundoff.

    Carries ``suggested_step`` (rad/fs), the step at which the derivative
    should be resolvable again.
    """

    def __init__(self, message: str, suggested_step: float):
        super().__init__(message)
        self.suggested_step = suggested_step


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget.

    Attributes
    ----------
    achieved : float
        Error estimate actually reached (absolute, same scale as the result).
    points_used : int
        Number of integrand evaluations spent.
    """

    def __init__(self, message: str, achieved: float, points_used: int):
        super().__init__(message)
        self.achieved = achieved
        self.points_used = points_used
