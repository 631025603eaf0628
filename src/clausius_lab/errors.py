"""Failure types and input checks shared across the numerical modules."""

import functools
import math
import numbers

import numpy as np


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


def require_count(name: str, value, minimum: int = 1) -> None:
    """Refuse ``value`` unless it is a Python or numpy integer >= ``minimum``: a bare
    comparison would let a float such as 2.5 or 9.0 into a grid, and a bool too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def refuse(message: str, failed, **diagnostics) -> None:
    """Raise ``NumericalFailure(message)`` at the first row where the boolean 1-d array ``failed`` holds,
    with each diagnostic (a scalar, or a 1-d array over the rows) at that row, as a Python scalar."""
    i = np.flatnonzero(failed)[0]
    at = {name: np.asarray(value) for name, value in diagnostics.items()}
    raise NumericalFailure(message, **{name: (v[i] if v.ndim else v).item() for name, v in at.items()})


def require_accurate(message: str, target: float, estimates: dict, **context) -> None:
    """Refuse unless every estimate (a scalar or a 1-d array over points) is <= ``target``, so NaN fails:
    the ``NumericalFailure`` carries the estimates and the context at the first failing point, as Python scalars.

    Every accuracy target of the package passes this one gate. A relative estimate is a numpy division, so a
    value that underflowed to 0 gives an infinite or NaN estimate, which fails."""
    passed = np.less_equal(functools.reduce(np.maximum, estimates.values()), target)  # NaN propagates, and fails
    if not passed.all():
        refuse(message, ~np.atleast_1d(passed), **estimates, **context)
