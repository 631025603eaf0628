"""The kernel's special functions against 30-digit mpmath, and against scipy.special
where it has them.

Each function is held to the rounding budget that the Matsubara kernel's
error model assumes for it (``bath._ROUND``, 32 ulps, times the scale the
kernel multiplies it by), and to no larger a worst error than scipy.special
on the same points.
"""

import math

import numpy as np
import pytest

from clausius_lab import _special
from clausius_lab.bath import _ROUND, _coupling_steps, _drude_poles

mpmath = pytest.importorskip("mpmath")
sc = pytest.importorskip("scipy.special")

EPS = float(np.finfo(float).eps)
RNG_SEED = 20261018


@pytest.fixture(autouse=True)
def thirty_digits():
    with mpmath.workdps(30):
        yield


def log_spread_complex(rng, n, top):
    """n points with Re z >= 1, |z - 1| log-uniform in [1e-3, top] and phase
    uniform over the right half-plane."""
    z = 1 + 10 ** rng.uniform(-3, math.log10(top), n) * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, n))
    return np.where(z.real < 1, z + (1 - z.real), z)


def test_psi_at_complex_arguments():
    # the kernel's divided differences and contour sums charge each psi value
    # _ROUND (|psi| + 1); the contour nodes reach Re z = 3/4
    z = log_spread_complex(np.random.default_rng(RNG_SEED), 4000, 1e8) - 0.25
    ref = np.array([complex(mpmath.digamma(mpmath.mpc(v.real, v.imag))) for v in z])
    ours = np.max(abs(_special.psi(z) - ref) / (abs(ref) + 1))
    theirs = np.max(abs(sc.psi(z) - ref) / (abs(ref) + 1))
    print(f"psi: worst {ours / EPS:.2f} ulps of |psi| + 1, scipy.special {theirs / EPS:.2f}")
    assert ours <= _ROUND
    assert ours <= theirs


def test_trigamma_at_complex_arguments():
    # the kernel's gamma slopes charge each psi' value _ROUND |psi'|; scipy.special
    # has no complex polygamma to compare with
    z = log_spread_complex(np.random.default_rng([RNG_SEED, 1]), 4000, 1e8)
    ref = np.array([complex(mpmath.psi(1, mpmath.mpc(v.real, v.imag))) for v in z])
    ours = np.max(abs(_special.trigamma(z) - ref) / abs(ref))
    print(f"psi': worst {ours / EPS:.2f} ulps")
    assert ours <= _ROUND


def test_zeta_at_integers():
    s = np.arange(2, 21)
    ref = np.array([float(mpmath.zeta(int(k))) for k in s])
    ours = np.max(abs(_special.zeta(s) - ref) / ref)
    theirs = np.max(abs(sc.zeta(s) - ref) / ref)
    assert ours <= _ROUND
    assert ours <= theirs


def kernel_long_steps(n_points):
    """(y, h, z) of every step that the free energy differences ln Gamma along,
    at log-spread T in [1e-6, 1e3], gamma in [1e-8, 1e3], wD in [5, 1e3]."""
    rng = np.random.default_rng(RNG_SEED)
    steps = []
    for _ in range(n_points):
        t, g, wd = 10 ** rng.uniform(-6, 3), 10 ** rng.uniform(-8, 3), 10 ** rng.uniform(math.log10(5), 3)
        r, x, y, _, _ = _drude_poles(np.array([1.0]), wd, np.array([g]))
        points, _, _ = _coupling_steps([1.0], [wd], [g], r.tolist(), x.tolist(), y.tolist(), 2 * math.pi * t)
        steps += [step for _, _, point in points for step in point if step[2] is not None]
    return steps


def test_lngamma_differences_at_the_kernel_steps():
    # the free energy charges Re[ln Gamma(z) - ln Gamma(1 + y)], z = 1 + y + h,
    # _ROUND (|hi| + |lo| + |z| + |1 + y| + |h|)
    steps = kernel_long_steps(1500)
    assert len(steps) > 500
    worst = {"ours": 0.0, "scipy": 0.0}
    for y, h, a in steps:
        b = 1 + y
        ref = float(mpmath.re(mpmath.loggamma(mpmath.mpc(a.real, a.imag)) - mpmath.loggamma(mpmath.mpc(b.real, b.imag))))
        for name, lngamma in (("ours", _special.loggamma), ("scipy", lambda z: complex(sc.loggamma(z)))):
            hi, lo = lngamma(a), lngamma(b)
            scale = abs(hi) + abs(lo) + abs(a) + abs(b) + abs(h)
            worst[name] = max(worst[name], abs((hi - lo).real - ref) / scale)
    print(f"ln Gamma steps: worst {worst['ours'] / EPS:.2f} ulps, scipy.special {worst['scipy'] / EPS:.2f}")
    assert worst["ours"] <= _ROUND
    assert worst["ours"] <= worst["scipy"]


def test_loggamma_is_the_principal_branch():
    # its imaginary part is continuous, not reduced to (-pi, pi]
    for z in (1 + 50j, 3 - 200j, 1e4 + 1e6j, 1.2 + 0.3j, 2.4 - 0.1j):
        ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert abs(_special.loggamma(z) - ref) <= 8 * EPS * (abs(ref) + abs(z))
