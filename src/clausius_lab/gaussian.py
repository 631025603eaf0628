"""Gaussian-state mathematics for a single oscillator mode.

Second moments of position and momentum fully determine the state here
(means vanish in equilibrium), so entropy, energy and the thermal
reference state are all functions of the moment pair (f1, f2) and the
symmetrized cross-correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, require_positive

# Violations of the uncertainty bound smaller than this (natural units)
# are treated as numerical noise.
HEISENBERG_TOL = 1e-12


@dataclass(frozen=True)
class Constants:
    """Unit system; defaults are natural units."""

    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        require_positive("hbar", self.hbar)
        require_positive("kB", self.kB)


@dataclass(frozen=True)
class OscillatorParams:
    mass: float
    frequency: float

    def __post_init__(self):
        require_positive("mass", self.mass)
        require_positive("frequency", self.frequency)


@dataclass(frozen=True)
class Moments:
    """Equilibrium second moments: f1 = <q^2>, f2 = <p^2>, cross = <qp+pq>/2."""

    f1: float
    f2: float
    cross: float = 0.0

    def __post_init__(self):
        require_positive("f1", self.f1)
        require_positive("f2", self.f2)
        if not math.isfinite(self.cross):
            raise ValueError(f"cross must be finite, got {self.cross}")

    def covariance(self) -> np.ndarray:
        """2x2 covariance matrix in (q, p) ordering."""
        return np.array([[self.f1, self.cross], [self.cross, self.f2]])


def symplectic_param(m: Moments, c: Constants = Constants()) -> float:
    """sqrt(f1*f2 - cross^2)/hbar; rejects moments beating the uncertainty bound."""
    return float(_symplectic_v(m.f1 * m.f2 - m.cross**2, c))


def _symplectic_v(det, c: Constants):
    """sqrt(det)/hbar elementwise for determinants det = f1*f2 - cross^2,
    rejecting any that beats the uncertainty bound by more than roundoff."""
    bound = c.hbar**2 / 4
    if np.any(det < bound - HEISENBERG_TOL):
        worst = np.min(det)
        raise ValueError(
            f"moments violate the Heisenberg bound: f1*f2 - cross^2 = {worst} < hbar^2/4 = {bound}"
        )
    return np.maximum(np.sqrt(np.maximum(det, bound)) / c.hbar, 0.5)


def entropy(v: float) -> float:
    """Von Neumann entropy in nats of a single-mode Gaussian state.

    (v + 1/2) ln(v + 1/2) - (v - 1/2) ln(v - 1/2), written with u = v - 1/2
    as ln(1 + u) + u ln(1 + 1/u): both terms are positive, so no digit
    cancels near the pure-state boundary v = 1/2, where it is 0, or at
    large v.
    """
    if not 0.5 - 1e-9 <= v < math.inf:  # a chained comparison, so NaN fails
        raise ValueError(f"symplectic parameter must be at least the pure-state bound 1/2 and finite, got {v}")
    u = max(float(v) - 0.5, 0.0)
    return math.log1p(u) + u * math.log1p(1 / u) if u else 0.0


def mean_energy(m: Moments, o: OscillatorParams) -> float:
    """<H_o> = f2/2M + M w^2 f1/2."""
    return m.f2 / (2 * o.mass) + o.mass * o.frequency**2 * m.f1 / 2


def thermal_moments_decoupled(
    o: OscillatorParams, temperature: float, c: Constants = Constants()
) -> Moments:
    """Gibbs-state moments of the bare oscillator (exact decoupled limit).

    f1 = (hbar/2Mw) coth(hbar w / 2 kB T), f2 = (M hbar w / 2) coth(...).
    """
    require_positive("temperature", temperature)
    hbar = np.float64(c.hbar)  # numpy arithmetic, so that a quotient past float64's range is 0 or inf, not an error
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # out of range: 0, inf or NaN, refused below
        x = hbar * o.frequency / (2 * c.kB * temperature)
        coth = 1.0 / np.float64(math.tanh(x))
        f1 = hbar / (2 * o.mass * o.frequency) * coth
        f2 = o.mass * hbar * o.frequency / 2 * coth
    if not (0 < f1 < math.inf and 0 < f2 < math.inf):
        raise NumericalFailure(
            "moments beyond float64's range", mass=float(o.mass), frequency=float(o.frequency), temperature=temperature
        )
    return Moments(f1=float(f1), f2=float(f2), cross=0.0)
