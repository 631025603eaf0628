"""Closed-form referee for the Drude-damped oscillator.

For the Drude kernel the Matsubara summand is rational in nu, so the sums
close in digamma and log-gamma functions (Grabert, Schramm & Ingold,
Phys. Rep. 168, 115 (1988)). With lambda_i the negated roots of
P(nu) = nu^3 + wD nu^2 + (w^2 + gamma wD) nu + w^2 wD and nu1 = 2 pi kB T/hbar:

    f1 = (1/M beta) [1/w^2 - (2/nu1) sum_i A_i psi(1 + lambda_i/nu1)]
    f2 = (M/beta)   [1     - (2/nu1) sum_i B_i psi(1 + lambda_i/nu1)]
    dF = (1/beta) ln[G(1+iw/nu1) G(1-iw/nu1) G(1+wD/nu1) / prod_i G(1+lambda_i/nu1)]

A_i = (wD - lambda_i)/prod_{j!=i}(lambda_j - lambda_i) and
B_i = (w^2 wD - (w^2 + gamma wD) lambda_i)/prod_{j!=i}(lambda_j - lambda_i).

This module shares no code with the package's bath module: it is the
independent reference the benchmark checks every produced moment against.
Near a double root of P the partial fractions cancel badly, so the referee
re-evaluates in 40-digit arithmetic whenever the float cancellation estimate
exceeds its own accuracy target.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import loggamma, psi

# accuracy the referee itself must reach before it may judge a 1e-8 route
OWN_TOL = 1e-11
_EPS = np.finfo(float).eps


def _roots(w, damping, cutoff) -> np.ndarray:
    """lambda_i for each point, shape (k, 3), polished by Newton steps on the cubic."""
    c2, c1, c0 = cutoff, w * w + damping * cutoff, w * w * cutoff
    companion = np.zeros((len(c2), 3, 3))
    companion[:, 0, 0], companion[:, 0, 1], companion[:, 0, 2] = -c2, -c1, -c0
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    x = np.linalg.eigvals(companion).astype(complex)
    c2, c1, c0 = c2[:, None], c1[:, None], c0[:, None]
    for _ in range(3):
        x = x - (((x + c2) * x + c1) * x + c0) / ((3 * x + 2 * c2) * x + c1)
    return -x


def _weights(lam, numerator):
    """Partial-fraction weights numerator(l_i)/prod_{j!=i}(l_j - l_i); works on
    arrays and on mpmath numbers alike."""
    out = []
    for i, li in enumerate(lam):
        den = 1.0
        for j, lj in enumerate(lam):
            if j != i:
                den = den * (lj - li)
        out.append(numerator(li) / den)
    return out


def _sums_float(w, damping, cutoff, nu1):
    """Bracketed sums of f1 and f2 and their float error estimate, per point."""
    w, damping, cutoff, nu1 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (w, damping, cutoff, nu1))
    lam = list(_roots(w, damping, cutoff).T)
    a = _weights(lam, lambda li: cutoff - li)
    b = _weights(lam, lambda li: w * w * cutoff - (w * w + damping * cutoff) * li)
    ps = [psi(1.0 + li / nu1) for li in lam]
    s1 = 1.0 / (w * w) - 2.0 / nu1 * sum(ai * pi for ai, pi in zip(a, ps)).real
    s2 = 1.0 - 2.0 / nu1 * sum(bi * pi for bi, pi in zip(b, ps)).real
    # cancellation among the partial-fraction terms sets the float error
    e1 = 64 * _EPS * 2.0 / nu1 * sum(abs(ai * pi) for ai, pi in zip(a, ps)) / abs(s1)
    e2 = 64 * _EPS * 2.0 / nu1 * sum(abs(bi * pi) for bi, pi in zip(b, ps)) / abs(s2)
    return s1, s2, np.maximum(e1, e2)


def _sums_mp(w, damping, cutoff, nu1):
    with mpmath.workdps(40):
        w, g, wd, nu1 = (mpmath.mpf(float(x)) for x in (w, damping, cutoff, nu1))
        lam = [-r for r in mpmath.polyroots([1, wd, w * w + g * wd, w * w * wd], maxsteps=200, extraprec=80)]
        a = _weights(lam, lambda li: wd - li)
        b = _weights(lam, lambda li: w * w * wd - (w * w + g * wd) * li)
        ps = [mpmath.digamma(1 + li / nu1) for li in lam]
        s1 = 1 / (w * w) - 2 / nu1 * mpmath.re(mpmath.fsum(ai * pi for ai, pi in zip(a, ps)))
        s2 = 1 - 2 / nu1 * mpmath.re(mpmath.fsum(bi * pi for bi, pi in zip(b, ps)))
        return float(s1), float(s2)


def moments_many(mass, frequency, temperature, damping, cutoff, hbar=1.0, kB=1.0):
    """Exact (f1, f2) arrays of the Drude-damped oscillator's reduced state,
    one entry per point; arguments broadcast like numpy arrays."""
    mass, frequency, temperature, damping, cutoff, hbar, kB = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (mass, frequency, temperature, damping, cutoff, hbar, kB))
    )
    beta = 1.0 / (kB * temperature)
    coth = 1.0 / np.tanh(hbar * frequency * beta / 2)
    s1, s2 = coth / (2 * frequency), frequency * coth / 2  # gamma = 0: decoupled Gibbs moments
    s1, s2 = s1 * beta * hbar, s2 * beta * hbar
    damped = damping > 0
    if damped.any():
        nu1 = 2 * math.pi * kB[damped] * temperature[damped] / hbar[damped]
        args = (frequency[damped], damping[damped], cutoff[damped], nu1)
        d1, d2, err = _sums_float(*args)
        for i in np.flatnonzero(err > OWN_TOL):
            d1[i], d2[i] = _sums_mp(*(x[i] for x in args))
        s1[damped], s2[damped] = d1, d2
    return s1 / (mass * beta), mass / beta * s2


def moments(mass, frequency, temperature, damping, cutoff, hbar=1.0, kB=1.0):
    """Exact (f1, f2) at one point."""
    f1, f2 = moments_many(mass, frequency, temperature, damping, cutoff, hbar, kB)
    return float(f1[0]), float(f2[0])


def coupling_free_energy(frequency, temperature, damping, cutoff, hbar=1.0, kB=1.0):
    """F_MF(gamma) - F_MF(0) in closed form."""
    if damping == 0:
        return 0.0
    nu1 = 2 * math.pi * kB * temperature / hbar
    lam = _roots(np.array([frequency]), np.array([damping]), np.array([cutoff]))[0]
    x = 1j * frequency / nu1
    total = loggamma(1 + x) + loggamma(1 - x) + loggamma(1 + cutoff / nu1 + 0j)
    total -= sum(loggamma(1 + lam / nu1))
    return kB * temperature * float(total.real)


def entropy(v: float) -> float:
    """Von Neumann entropy (nats) of a Gaussian mode with symplectic parameter v."""
    up, dn = v + 0.5, v - 0.5
    return up * math.log(up) - (dn * math.log(dn) if dn > 0 else 0.0)


def entropy_slope(v: float) -> float:
    """dS/dv, used to turn a relative moment tolerance into an entropy one."""
    dn = v - 0.5
    return math.log((v + 0.5) / dn) if dn > 1e-300 else 700.0
