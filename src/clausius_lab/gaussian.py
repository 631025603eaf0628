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

# Violations of the uncertainty bound smaller than this (natural units)
# are treated as numerical noise.
HEISENBERG_TOL = 1e-12


@dataclass(frozen=True)
class Constants:
    """Unit system; defaults are natural units."""

    hbar: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.kB <= 0:
            raise ValueError("hbar and kB must be strictly positive")


@dataclass(frozen=True)
class OscillatorParams:
    mass: float
    frequency: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.mass < math.inf:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not 0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be positive and finite, got {self.frequency}")


@dataclass(frozen=True)
class Moments:
    """Equilibrium second moments: f1 = <q^2>, f2 = <p^2>, cross = <qp+pq>/2."""

    f1: float
    f2: float
    cross: float = 0.0

    def __post_init__(self):
        if self.f1 <= 0 or self.f2 <= 0:
            raise ValueError(f"variances must be positive, got f1={self.f1}, f2={self.f2}")

    def covariance(self) -> np.ndarray:
        """2x2 covariance matrix in (q, p) ordering."""
        return np.array([[self.f1, self.cross], [self.cross, self.f2]])


@dataclass(frozen=True)
class SymplecticParam:
    v: float

    def __post_init__(self):
        if self.v < 0.5 - 1e-9:
            raise ValueError(f"symplectic parameter below pure-state bound: {self.v}")


def symplectic_param(m: Moments, c: Constants = Constants()) -> SymplecticParam:
    """sqrt(f1*f2 - cross^2)/hbar; rejects moments beating the uncertainty bound."""
    return SymplecticParam(float(_symplectic_v(m.f1 * m.f2 - m.cross**2, c)))


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


def entropy(v: SymplecticParam | float) -> float:
    """Von Neumann entropy in nats of a single-mode Gaussian state.

    (v + 1/2) ln(v + 1/2) - (v - 1/2) ln(v - 1/2), with the second term
    read as 0 at the pure-state boundary v = 1/2.
    """
    x = v.v if isinstance(v, SymplecticParam) else float(v)
    if x < 0.5 - 1e-9:
        raise ValueError(f"symplectic parameter below pure-state bound: {x}")
    x = max(x, 0.5)
    up = x + 0.5
    dn = x - 0.5
    if dn < 1e-30:
        return up * math.log(up)
    return up * math.log(up) - dn * math.log(dn)


def mean_energy(m: Moments, o: OscillatorParams) -> float:
    """<H_o> = f2/2M + M w^2 f1/2."""
    return m.f2 / (2 * o.mass) + o.mass * o.frequency**2 * m.f1 / 2


def thermal_moments_decoupled(
    o: OscillatorParams, temperature: float, c: Constants = Constants()
) -> Moments:
    """Gibbs-state moments of the bare oscillator (exact decoupled limit).

    f1 = (hbar/2Mw) coth(hbar w / 2 kB T), f2 = (M hbar w / 2) coth(...).
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = c.hbar * o.frequency / (2 * c.kB * temperature)
    coth = 1.0 / math.tanh(x)
    f1 = c.hbar / (2 * o.mass * o.frequency) * coth
    f2 = o.mass * c.hbar * o.frequency / 2 * coth
    return Moments(f1=f1, f2=f2, cross=0.0)
