"""Digamma, trigamma, log-gamma and zeta for the arguments the Matsubara kernel passes.

Every argument has Re z >= 1: the roots of the Drude cubic lie in the left
half-plane, so 1 + lambda/nu1 with lambda a negated root does not reach
Re z < 1, and no reflection formula is needed. Only psi also takes the
kernel's contour nodes, at Re z >= 3/4. Each function shifts its
argument up by recurrence and sums an asymptotic series there (DLMF 5.11.2,
5.11.1, 25.11.43); ln Gamma near 1 and 2 sums its Taylor series instead.
``tests/test_special.py`` measures each against 30-digit mpmath.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# B_2, B_4, ..., B_18
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798)
_EPS = float(np.finfo(float).eps)

# psi(w) = ln w - 1/(2w) - sum_{k<=5} B_2k / (2k w^2k) at w = z + 16. Off the
# real axis the remainder's bound gains a factor sec^12(ph w / 2) (DLMF
# 5.11(ii)), which |w| >= Re w / cos(ph w) more than cancels, so the first
# omitted term at Re w >= 16.75, B_12 / (12 16.75^12) < 5e-17, bounds it. The shift
# terms 1/(z + k) are one sum over a last axis, so a call costs a few array
# operations; Horner order, highest power first
_PSI_SHIFT = np.arange(16.0) + 0j
_PSI_TAIL = [b / (2 * k) for k, b in enumerate(_BERNOULLI[:5], start=1)][::-1]


def psi(z):
    """The digamma function elementwise over an array of Re z >= 3/4, as complex."""
    z = np.asarray(z, dtype=complex)
    w = z + len(_PSI_SHIFT)
    iw = 1 / w
    t = iw * iw
    series = _PSI_TAIL[0] * t
    for coef in _PSI_TAIL[1:]:
        series = (series + coef) * t
    return np.log(w) - ((0.5 * iw + series) + (1 / (z[..., None] + _PSI_SHIFT)).sum(axis=-1))


# the term-by-term derivative of psi's series: B_2k / w^(2k+1), whose first
# omitted term, B_12 / 17^13 < 3e-17, is below 4e-16 of the leading 1/w
_TRIGAMMA_TAIL = list(_BERNOULLI[:5])[::-1]


def trigamma(z):
    """psi'(z) elementwise over an array of Re z >= 1, as complex: the
    derivative of ``psi``'s shift and asymptotic series, term by term."""
    z = np.asarray(z, dtype=complex)
    w = z + len(_PSI_SHIFT)
    iw = 1 / w
    t = iw * iw
    series = _TRIGAMMA_TAIL[0] * t
    for coef in _TRIGAMMA_TAIL[1:]:
        series = (series + coef) * t
    shifted = 1 / (z[..., None] + _PSI_SHIFT)
    return iw * (1 + 0.5 * iw + series) + (shifted * shifted).sum(axis=-1)


# zeta(s) = sum_{k<n} k^-s + zeta(s, n), and zeta(s, w) = w^(1-s)/(s-1) [1 +
# (s-1)/(2w) + sum_{j<=8} B_2j C(s+2j-2, 2j) w^-2j] omits a first term of
# relative size B_18 C(s+16, 18) w^-18, which grows with s; n = 1 + shift(s)
# keeps it below eps/8
_BINOMIAL = np.array([[math.comb(s + 2 * j - 2, 2 * j) for j in range(1, 9)] for s in range(64)])


def _shift(s: int) -> int:
    return math.ceil((8 * _BERNOULLI[8] * math.comb(s + 16, 18) / _EPS) ** (1 / 18))


def zeta(s):
    """The Riemann zeta function elementwise over integers s from 2 to 63,
    the terms of each summed exactly."""
    s = np.asarray(s)[..., None]
    k = np.arange(1, _shift(int(s.max())) + 2.0)
    powers = k ** -s.astype(float)
    w = k[-1:]
    lead = powers[..., -1:] * w / (s - 1)
    series = [np.ones_like(lead), (s - 1) / (2 * w), _BERNOULLI[:8] * _BINOMIAL[s[..., 0]] / w ** (2 * np.arange(1, 9))]
    terms = np.concatenate([powers[..., :-1], lead * np.concatenate(series, axis=-1)], axis=-1)
    sums = [math.fsum(row) for row in terms.reshape(-1, terms.shape[-1]).tolist()]
    return np.reshape(sums, s.shape[:-1])


# ln Gamma(1 + t) = -gamma t + sum_{k>=2} (-1)^k zeta(k) t^k / k, and about 2
# the same with zeta(k) - 1 and 1 - gamma; summed for |t| <= 0.5, each to its
# last term above 1e-19 there; Horner order, highest power first
_TAYLOR_RADIUS = 0.5
_ZETA = zeta(np.arange(2, 59)).tolist()


def _taylor(coefs: list[float]) -> list[float]:
    size = max(i for i, a in enumerate(coefs, start=1) if abs(a) * _TAYLOR_RADIUS ** (i + 1) > 1e-19)
    return coefs[:size][::-1]


_LNGAMMA_TAYLOR = (
    (1.0, -np.euler_gamma, _taylor([(-1) ** k * z / k for k, z in enumerate(_ZETA, start=2)])),
    (2.0, 1 - np.euler_gamma, _taylor([(-1) ** k * (z - 1) / k for k, z in enumerate(_ZETA, start=2)])),
)
# ln Gamma(w) = (w - 1/2) ln w - w + ln(2 pi)/2 + sum_{k<=8} B_2k / (2k (2k - 1) w^(2k - 1))
# for Re w >= 8, where the first omitted term, B_18 / (306 w^17), is below 1e-16
_STIRLING_FROM = 8.0
_STIRLING_TAIL = [b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI[:8], start=1)][::-1]
_HALF_LN_2PI = 0.5 * math.log(2 * math.pi)


def loggamma(z: complex) -> complex:
    """The principal branch of ln Gamma(z) at one complex z with Re z >= 1."""
    for centre, slope, taylor in _LNGAMMA_TAYLOR:
        t = z - centre
        if abs(t) <= _TAYLOR_RADIUS:
            series = 0.0
            for coef in taylor:
                series = series * t + coef
            return t * (series * t + slope)
    # ln Gamma(z) = ln Gamma(w) - sum_{k<n} ln(z + k) with w = z + n, and
    # (w - 1/2) ln w - sum_k ln(z + k) = (z - 1/2) ln w - ln prod_k (z + k)/w:
    # ln w is then weighted by z - 1/2, not by w - 1/2. The phases of the
    # factors (z + k)/w share one sign and sum to less than 2.7 for n <= 7,
    # so the principal log of their product is the sum of their logs
    n = max(0, math.ceil(_STIRLING_FROM - z.real))
    w = z + n
    ratio = 1.0
    for k in range(n):
        ratio *= (z + k) / w
    iw = 1 / w
    t = iw * iw
    series = 0.0
    for coef in _STIRLING_TAIL:
        series = series * t + coef
    return ((z - 0.5) * cmath.log(w) - w + _HALF_LN_2PI + series * iw) - cmath.log(ratio)
