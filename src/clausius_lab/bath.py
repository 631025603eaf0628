"""Equilibrium moments of the damped oscillator, by two independent routes.

The bath is Ohmic with a Drude cutoff; its Laplace-domain damping kernel is
ghat(z) = gamma * wD / (z + wD). Route one sums the Matsubara series exactly:
its summands are rational, so the sum closes in digamma functions of the
roots of the Drude denominator, and the coupling free energy in log-gamma
functions of the same roots. Route two integrates the fluctuation-dissipation
form of the same susceptibility along the real frequency axis. Agreement of
the two is itself a correctness check, and both are certified against the
explicit discrete-bath model in :mod:`clausius_lab.oracle`.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import loggamma, polygamma, psi

from .errors import NumericalFailure
from .gaussian import Constants, Moments, OscillatorParams

_TARGET_REL = 1e-8
# quad's reported error near a sharp resonance is conservative by one to two
# orders, so the spectral route gates on a looser (still sub-1e-6) threshold
_SPECTRAL_TARGET_REL = 1e-7
# rounding-error unit of the closed forms: psi and loggamma are good to a few ulps
_ROUND = 32 * float(np.finfo(float).eps)
# a root pair closer than this fraction of nu1 + its midpoint is confluent
_CONFLUENT = 1e-3
# Gauss-Legendre rule on [-1, 1] for ln Gamma differences over short steps
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class BathSpec:
    """Bath temperature, damping rate gamma, and Drude cutoff frequency."""

    temperature: float
    damping: float
    cutoff: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.damping < 0:
            raise ValueError(f"damping must be non-negative, got {self.damping}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    def warn_if_cutoff_low(self, o: OscillatorParams) -> None:
        if self.cutoff < 10 * o.frequency:
            warnings.warn(
                f"Drude cutoff {self.cutoff} is below 10x the oscillator frequency "
                f"{o.frequency}; continuum formulas assume a wide-band bath",
                stacklevel=3,
            )


class MomentRoute(enum.Enum):
    MATSUBARA = "matsubara"
    SPECTRAL_INTEGRAL = "spectral_integral"


@dataclass(frozen=True)
class MomentDerivatives:
    df1: float
    df2: float
    df1_error: float
    df2_error: float


def _drude_poles(o: OscillatorParams, b: BathSpec) -> tuple[float, complex, complex, float, float]:
    """Negated roots (r, x, y) of P(nu) = nu^3 + wD nu^2 + (w^2 + gamma wD) nu + w^2 wD,
    r real and x, y = m +- sqrt(q) complex conjugate or real, with m and q.

    m = (wD - r)/2 comes from P(-r) = 0 without that cancellation and q from
    Vieta's relations, so both stay accurate at weak damping and where the
    pair merges at critical damping.
    """
    wd, w2 = b.cutoff, o.frequency**2
    c1, c0 = w2 + b.damping * wd, w2 * wd
    roots = np.roots([1.0, -wd, c1, -c0])
    if np.iscomplexobj(roots):
        r = roots[roots.imag == 0][0].real
    else:
        x = np.sort(roots)
        r = x[2] if x[1] - x[0] < x[2] - x[1] else x[0]
    r = float(r)
    for _ in range(2):
        slope = (3 * r - 2 * wd) * r + c1
        if slope != 0:
            r -= (((r - wd) * r + c1) * r - c0) / slope
    m = b.damping * wd * r / (2 * (r * r + w2))
    q = m * m - c0 / r
    if q >= 0:
        a = m + math.sqrt(q)
        return r, complex(a), complex(c0 / r / a), m, q
    a = complex(m, math.sqrt(-q))
    return r, a, a.conjugate(), m, q


def moments_matsubara(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    rel_tol: float = _TARGET_REL,
) -> Moments:
    """Moments from the Matsubara sum in its digamma closed form.

    f1 = (1/M beta) sum_n [nu_n^2 + w^2 + |nu_n| ghat(|nu_n|)]^-1
       = (1/M beta) [1/w^2 - (2/nu1) sum_i A_i psi(1 + lambda_i/nu1)]
    f2 = (M/beta) sum_n [w^2 + |nu_n| ghat(|nu_n|)] [same denominator]^-1
       = (M/beta) [1 - (2/nu1) sum_i B_i psi(1 + lambda_i/nu1)]

    with lambda_i the negated roots of P, A_i = (wD - lambda_i)/prod_{j!=i}
    (lambda_j - lambda_i) and B_i the same with numerator w^2 wD - (w^2 +
    gamma wD) lambda_i (Grabert, Schramm & Ingold, Phys. Rep. 168, 115
    (1988)). Each sum is a second divided difference over the roots and is
    evaluated as one, so a confluent pair at critical damping costs no
    accuracy. ``rel_tol`` gates the rounding estimate of that evaluation.
    """
    b.warn_if_cutoff_low(o)
    if b.damping == 0:
        from .gaussian import thermal_moments_decoupled

        return thermal_moments_decoupled(o, b.temperature, c)

    beta = 1.0 / (c.kB * b.temperature)
    nu1 = 2 * math.pi * c.kB * b.temperature / c.hbar
    w2, wd = o.frequency**2, b.cutoff
    c1 = w2 + b.damping * wd
    r, x, y, m, q = _drude_poles(o, b)
    # divided differences of psi(1 + l/nu1) over the roots, with rounding errors
    pr, py = psi(1 + r / nu1), psi(1 + y / nu1)
    d_yr = (py - pr) / (y - r)
    e_yr = _ROUND * (abs(py) + abs(pr) + 2) / abs(y - r)
    if abs(x - y) > _CONFLUENT * (nu1 + m):
        px = psi(1 + x / nu1)
        d_xy, e_xy = (px - py) / (x - y), _ROUND * (abs(px) + abs(py) + 2) / abs(x - y)
    else:  # confluent pair: Taylor series about its real midpoint, in q = ((x - y)/2)^2
        p1, p3, p5 = polygamma([1, 3, 5], 1 + m / nu1)
        d_xy = p1 / nu1 + p3 * q / (6 * nu1**3)
        e_xy = abs(p5 * q * q / (120 * nu1**5)) + _ROUND * abs(d_xy)
    d_xyr = (d_yr - d_xy) / (r - x)
    e_xyr = (e_yr + e_xy + _ROUND * (abs(d_yr) + abs(d_xy))) / abs(r - x)

    def bracket(lead, n_x, slope):
        # sum_i N(l_i) psi_i / prod_{j!=i}(l_j - l_i) = (N psi)[x, y, r], and
        # for linear N Leibniz gives N(x) psi[x, y, r] + N' psi[y, r]
        total = float(lead - 2 / nu1 * (n_x * d_xyr + slope * d_yr).real)
        err = abs(n_x) * e_xyr + abs(slope) * e_yr + _ROUND * (abs(n_x * d_xyr) + abs(slope * d_yr))
        return total, float(2 / nu1 * err / abs(total) + _ROUND)

    sum1, err1 = bracket(1.0 / w2, wd - x, -1.0)
    sum2, err2 = bracket(1.0, w2 * wd - c1 * x, -c1)
    if err1 > rel_tol or err2 > rel_tol:
        raise NumericalFailure(
            "Matsubara closed form lost its accuracy to cancellation",
            achieved_rel_f1=err1,
            achieved_rel_f2=err2,
            temperature=b.temperature,
            damping=b.damping,
        )
    return Moments(f1=sum1 / (o.mass * beta), f2=o.mass / beta * sum2, cross=0.0)


def _susceptibility_im(u, o: OscillatorParams, damping, cutoff):
    """Im chi(u) for the Drude kernel continued to the real frequency axis."""
    kernel = damping * cutoff / (cutoff - 1j * u)
    chi = 1.0 / (o.mass * (o.frequency**2 - u**2 - 1j * u * kernel))
    return chi.imag


def moments_spectral(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    rel_tol: float = _SPECTRAL_TARGET_REL,
) -> Moments:
    """Moments from the fluctuation-dissipation integral.

    f1 = (hbar/pi) int_0^inf coth(hbar u / 2 kB T) Im chi(u) du, and f2 the
    same with an extra M^2 u^2 weight. The integration range is split at the
    resonance and at the cutoff. At gamma = 0 the Lorentzian in Im chi
    collapses to a delta function at the bare frequency; that limit is taken
    analytically rather than integrated over a vanishing width.
    """
    b.warn_if_cutoff_low(o)
    if b.damping == 0:
        from .gaussian import thermal_moments_decoupled

        return thermal_moments_decoupled(o, b.temperature, c)
    damping = b.damping
    x0 = c.hbar / (2 * c.kB * b.temperature)

    def coth(u):
        return 1.0 / math.tanh(x0 * u)

    def i1(u):
        return coth(u) * _susceptibility_im(u, o, damping, b.cutoff)

    def i2(u):
        return u * u * coth(u) * _susceptibility_im(u, o, damping, b.cutoff)

    w = o.frequency
    width = max(damping, 1e-9 * w)
    # geometric ladders away from the resonance keep each segment's scale
    # ratio modest even when the Lorentzian width is orders of magnitude
    # below the frequency or the cutoff
    points = {0.0, w, b.cutoff, 10 * b.cutoff}
    offset = width
    while offset < 10 * b.cutoff:
        points.add(w + offset)
        if w - offset > 0:
            points.add(w - offset)
        offset *= 10
    breaks = sorted(x for x in points if 0.0 <= x <= 10 * b.cutoff)

    f1 = f2 = err1 = err2 = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        val, err = quad(i1, lo, hi, epsrel=1e-11, limit=400)
        f1 += val
        err1 += err
        val, err = quad(i2, lo, hi, epsrel=1e-11, limit=400)
        f2 += val
        err2 += err
    # the tail converges slowly in u but quickly in t = 1/u
    t_hi = 1.0 / breaks[-1]
    val, err = quad(lambda t: i1(1.0 / t) / t**2, 0.0, t_hi, epsrel=1e-11, limit=400)
    f1 += val
    err1 += err
    val, err = quad(lambda t: i2(1.0 / t) / t**2, 0.0, t_hi, epsrel=1e-11, limit=400)
    f2 += val
    err2 += err

    f1 *= c.hbar / math.pi
    f2 *= c.hbar * o.mass**2 / math.pi
    err1 *= c.hbar / math.pi
    err2 *= c.hbar * o.mass**2 / math.pi
    if err1 > rel_tol * abs(f1) or err2 > rel_tol * abs(f2):
        raise NumericalFailure(
            "spectral quadrature did not reach its target accuracy",
            achieved_rel_f1=err1 / abs(f1),
            achieved_rel_f2=err2 / abs(f2),
        )
    return Moments(f1=f1, f2=f2, cross=0.0)


def equilibrium_moments(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    route: MomentRoute = MomentRoute.MATSUBARA,
) -> Moments:
    """Moments by the chosen route, by default the Matsubara closed form."""
    if route is MomentRoute.SPECTRAL_INTEGRAL:
        return moments_spectral(o, b, c)
    return moments_matsubara(o, b, c)


def _lngamma_step(y: complex, h: complex) -> tuple[complex, float]:
    """ln Gamma(1 + y + h) - ln Gamma(1 + y) and its rounding error; a short
    step integrates psi along it, keeping the relative accuracy of h."""
    if 8 * abs(h) < abs(1 + y):
        values = psi(1 + y + h * (1 + _GL_NODES) / 2)
        return h / 2 * np.dot(_GL_WEIGHTS, values), _ROUND * abs(h) * (np.max(np.abs(values)) + 2)
    hi, lo = loggamma(1 + y + h), loggamma(1 + y)
    return hi - lo, _ROUND * (abs(hi) + abs(lo) + abs(1 + y + h) + abs(1 + y))


def coupling_free_energy(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    rel_tol: float = _TARGET_REL,
) -> float:
    """Free energy of coupling: F_MF(gamma) - F_MF(0) at fixed M, w, T.

    The Matsubara product formula for the mean-force partition function,
    (1/beta) sum_{n>=1} ln[1 + nu_n ghat(nu_n) / (nu_n^2 + w^2)], closes to
    (1/beta) ln[G(1 + iw/nu1) G(1 - iw/nu1) G(1 + wD/nu1) / prod_i G(1 + lambda_i/nu1)]
    (Hanggi, Ingold & Talkner, New J. Phys. 10, 115008 (2008)). Each root is
    paired with its gamma = 0 limit wD, iw, -iw, so weak damping keeps full
    relative accuracy. This is the quasistatic work needed to switch the
    coupling on isothermally. ``rel_tol`` gates the rounding estimate.
    """
    if b.damping == 0:
        return 0.0
    beta = 1.0 / (c.kB * b.temperature)
    nu1 = 2 * math.pi * c.kB * b.temperature / c.hbar
    r, x, y, _, _ = _drude_poles(o, b)
    lam = (complex(r), x, y)
    mu = (complex(b.cutoff), 1j * o.frequency, -1j * o.frequency)
    total = 0j
    err = 0.0
    for i in range(3):
        # each root solves prod_j (l - mu_j) = -gamma wD l, so its shift from
        # mu_i follows without the cancellation of l - mu_i
        shift = -b.damping * b.cutoff * lam[i] / math.prod(lam[i] - mu[j] for j in range(3) if j != i)
        step, step_err = _lngamma_step(mu[i] / nu1, shift / nu1)
        total -= step
        err += step_err + _ROUND * abs(step)
    err = float(err / abs(total.real) + _ROUND)
    if err > rel_tol:
        raise NumericalFailure(
            "free-energy closed form lost its accuracy to cancellation",
            achieved_rel=err,
            temperature=b.temperature,
            damping=b.damping,
        )
    return float(total.real) / beta


def _derivative_with_error(f, x0: float, step: float, lower_bound: float | None):
    """Richardson-extrapolated finite difference with an error estimate.

    Central stencils when the domain allows, one-sided otherwise.
    """
    if lower_bound is None or x0 - step >= lower_bound:
        d_h = (f(x0 + step) - f(x0 - step)) / (2 * step)
        d_h2 = (f(x0 + step / 2) - f(x0 - step / 2)) / step
    else:
        d_h = (-3 * f(x0) + 4 * f(x0 + step) - f(x0 + 2 * step)) / (2 * step)
        d_h2 = (-3 * f(x0) + 4 * f(x0 + step / 2) - f(x0 + step)) / step
    value = (4 * d_h2 - d_h) / 3
    error = abs(d_h2 - d_h) / 3 + 1e-14 * abs(value)
    return value, error


def moment_derivatives(
    o: OscillatorParams,
    b: BathSpec,
    alpha: str,
    route: MomentRoute = MomentRoute.MATSUBARA,
    c: Constants = Constants(),
) -> MomentDerivatives:
    """d f1/d alpha and d f2/d alpha for alpha in {"mass", "damping"}.

    The mass derivative holds the microscopic oscillator-bath coupling fixed:
    the damping rate is mass-normalized, so gamma scales as 1/M along a mass
    change. Holding gamma itself fixed would make the mass dependence a pure
    prefactor and the sweep a null process even at strong coupling.
    """
    compute = moments_matsubara if route is MomentRoute.MATSUBARA else moments_spectral

    if alpha == "mass":
        coupling = o.mass * b.damping

        def f(m_val):
            osc = OscillatorParams(mass=m_val, frequency=o.frequency)
            bath = BathSpec(temperature=b.temperature, damping=coupling / m_val, cutoff=b.cutoff)
            return compute(osc, bath, c)

        x0 = o.mass
        lower = None
    elif alpha == "damping":

        def f(g_val):
            bath = BathSpec(temperature=b.temperature, damping=g_val, cutoff=b.cutoff)
            return compute(o, bath, c)

        x0 = b.damping
        lower = 0.0
    else:
        raise ValueError(f"unknown sweep parameter {alpha!r}")

    step = max(1e-5 * abs(x0), 1e-7)
    cache: dict[float, Moments] = {}

    def cached(x):
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    df1, e1 = _derivative_with_error(lambda x: cached(x).f1, x0, step, lower)
    df2, e2 = _derivative_with_error(lambda x: cached(x).f2, x0, step, lower)

    ref1 = max(abs(df1), 1e-3 * cached(x0).f1 / max(abs(x0), 1.0))
    ref2 = max(abs(df2), 1e-3 * cached(x0).f2 / max(abs(x0), 1.0))
    if e1 > 1e-5 * ref1 or e2 > 1e-5 * ref2:
        raise NumericalFailure(
            "moment derivative error estimate exceeds tolerance",
            alpha=alpha,
            df1_rel_error=e1 / ref1,
            df2_rel_error=e2 / ref2,
        )
    return MomentDerivatives(df1=df1, df2=df2, df1_error=e1, df2_error=e2)
