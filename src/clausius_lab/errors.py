"""Failure types and input checks shared across the numerical modules."""

import math


class NumericalFailure(RuntimeError):
    """A computation could not reach its accuracy target.

    Raised instead of returning a silently inaccurate value. ``diagnostics``
    carries whatever the failing routine knew (achieved error, truncation
    sizes, offending eigenvalues, ...).
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics

    def __str__(self):
        base = super().__str__()
        if self.diagnostics:
            details = ", ".join(f"{k}={v!r}" for k, v in sorted(self.diagnostics.items()))
            return f"{base} ({details})"
        return base


def require_positive(name: str, value: float) -> None:
    """Refuse ``value`` unless 0 < value < inf; a chained comparison, so NaN fails."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_non_negative(name: str, value: float) -> None:
    """Refuse ``value`` unless 0 <= value < inf; a chained comparison, so NaN fails."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
