"""Unit tests for the continuum moment routes and their derivatives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clausius_lab import (
    BathSpec,
    Constants,
    NumericalFailure,
    OscillatorParams,
    composed_process,
    coupling_free_energy,
    moments_matsubara,
    moments_spectral,
    thermal_moments_decoupled,
)
import clausius_lab.bath as bath
from clausius_lab.bath import _matsubara_moments
from clausius_lab.errors import require_accurate

C = Constants()
OSC = OscillatorParams(mass=1.0, frequency=1.0)


def brute_matsubara(o, b, c, n_max=4_000_000):
    """[DERIVED] independent reference: direct partial sums of the Matsubara
    series at n_max and n_max/2 terms, Aitken-style extrapolated against the
    known O(1/N) truncation decay. Shares no code with the library route."""
    beta = 1.0 / (c.kB * b.temperature)
    nu1 = 2 * math.pi * c.kB * b.temperature / c.hbar

    def partial(n_terms):
        n = np.arange(1, n_terms + 1)
        nu = nu1 * n
        ghat = b.damping * b.cutoff / (nu + b.cutoff)
        den = nu**2 + o.frequency**2 + nu * ghat
        return float(np.sum(1.0 / den)), float(np.sum((o.frequency**2 + nu * ghat) / den))

    s1_h, s2_h = partial(n_max // 2)
    s1_f, s2_f = partial(n_max)
    s1 = 2 * s1_f - s1_h
    s2 = 2 * s2_f - s2_h
    f1 = (1.0 / o.frequency**2 + 2 * s1) / (o.mass * beta)
    f2 = o.mass / beta * (1.0 + 2 * s2)
    return f1, f2


class TestBathSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BathSpec(temperature=0.0, damping=1.0, cutoff=10.0)
        with pytest.raises(ValueError):
            BathSpec(temperature=1.0, damping=-0.1, cutoff=10.0)
        with pytest.raises(ValueError):
            BathSpec(temperature=1.0, damping=1.0, cutoff=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["temperature", "damping", "cutoff"])
    def test_rejects_nan_and_infinite_fields(self, field, value):
        # NaN compares False with every bound, so a check written as x <= 0
        # lets it through to numpy, which warns
        kwargs = {"temperature": 1.0, "damping": 1.0, "cutoff": 50.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be"):
            moments_matsubara(OSC, BathSpec(**kwargs), C)

    def test_narrow_band_cutoff_warns(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=5.0)
        with pytest.warns(UserWarning, match="cutoff"):
            moments_matsubara(OSC, b, C)


class TestMatsubaraRoute:
    def test_matches_independent_partial_sums(self):
        # [DERIVED] brute-force series evaluation, extrapolated; see helper
        for temperature, damping, cutoff in [(1.0, 1.0, 50.0), (5.0, 5.0, 200.0), (0.2, 0.1, 50.0)]:
            b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
            m = moments_matsubara(OSC, b, C)
            f1_ref, f2_ref = brute_matsubara(OSC, b, C)
            assert m.f1 == pytest.approx(f1_ref, rel=1e-7)
            assert m.f2 == pytest.approx(f2_ref, rel=1e-7)

    def test_zero_damping_is_exact_gibbs(self):
        b = BathSpec(temperature=0.7, damping=0.0, cutoff=100.0)
        m = moments_matsubara(OSC, b, C)
        ref = thermal_moments_decoupled(OSC, 0.7, C)
        assert m.f1 == ref.f1 and m.f2 == ref.f2

    def test_cross_is_exact_zero(self):
        b = BathSpec(temperature=1.0, damping=5.0, cutoff=100.0)
        assert moments_matsubara(OSC, b, C).cross == 0.0

    def test_fields_are_python_floats(self):
        m = moments_matsubara(OSC, BathSpec(temperature=1.0, damping=5.0, cutoff=100.0), C)
        assert type(m.f1) is float and type(m.f2) is float and type(m.cross) is float

    @pytest.mark.parametrize("temperature", [0.05, 1.0])
    @pytest.mark.parametrize("branch", [0, 1])
    def test_confluent_roots_at_critical_damping(self, temperature, branch):
        # at critical damping P has a double root: 2 l^3 - wD l^2 + w^2 wD = 0
        # locates it and gamma_c = (2 wD l - 3 l^2 - w^2)/wD (1.9596, 12.52)
        cutoff = 50.0
        roots = np.roots([2.0, -cutoff, 0.0, cutoff])
        l0 = sorted(x.real for x in roots if x.imag == 0 and x.real > 0)[branch]
        gamma_c = (2 * cutoff * l0 - 3 * l0**2 - 1.0) / cutoff

        def at(damping):
            return moments_matsubara(OSC, BathSpec(temperature, damping, cutoff), C)

        m = at(gamma_c)
        lo, hi = at(gamma_c * (1 - 1e-6)), at(gamma_c * (1 + 1e-6))
        assert m.f1 == pytest.approx((lo.f1 + hi.f1) / 2, rel=1e-9)
        assert m.f2 == pytest.approx((lo.f2 + hi.f2) / 2, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:Drude cutoff")
    @pytest.mark.parametrize("temperature", [0.01, 1.0])
    def test_triple_root(self, temperature):
        # wD = 3 sqrt(3) w and gamma = 8 sqrt(3)/9 w make P = (nu + sqrt(3) w)^3
        cutoff, gamma_t = 3 * math.sqrt(3), 8 * math.sqrt(3) / 9

        def at(damping):
            return moments_matsubara(OSC, BathSpec(temperature, damping, cutoff), C)

        m = at(gamma_t)
        lo, hi = at(gamma_t * (1 - 1e-6)), at(gamma_t * (1 + 1e-6))
        assert m.f1 == pytest.approx((lo.f1 + hi.f1) / 2, rel=1e-9)
        assert m.f2 == pytest.approx((lo.f2 + hi.f2) / 2, rel=1e-9)

    def test_strong_coupling_squeezes_position(self):
        weak = BathSpec(temperature=0.05, damping=0.0, cutoff=100.0)
        strong = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        m_weak = moments_matsubara(OSC, weak, C)
        m_strong = moments_matsubara(OSC, strong, C)
        assert m_strong.f1 < m_weak.f1
        assert m_strong.f2 > m_weak.f2


def critical_damping(cutoff, branch):
    """gamma at which P has a double root: 2 l^3 - wD l^2 + w^2 wD = 0 locates
    it and gamma_c = (2 wD l - 3 l^2 - w^2)/wD (w = 1)."""
    roots = np.roots([2.0, -cutoff, 0.0, cutoff])
    l0 = sorted(x.real for x in roots if x.imag == 0 and x.real > 0)[branch]
    return (2 * cutoff * l0 - 3 * l0**2 - 1.0) / cutoff


def mixed_branch_points():
    """(mass, gamma, w, wD) covering every branch of the kernel: generic,
    a confluent pair on either side of both critical dampings at wD = 50
    (gamma_c (1 +- 1e-6) takes the circle at T = 1, gamma_c (1 +- 1e-10)
    at every T here), near the triple root of P (wD = 3 sqrt(3) w, gamma =
    8 sqrt(3)/9 w) at two frequencies, and gamma = 0."""
    near_critical = [
        (mass, critical_damping(50.0, branch) * (1 + eps), 1.0, 50.0)
        for branch in (0, 1)
        for mass, eps in ((2.0, -1e-6), (0.5, 1e-6), (1.0, -1e-10), (1.5, 1e-10))
    ]
    return near_critical + [
        (1.0, 5.0, 1.0, 100.0),
        (1.0, 8 * math.sqrt(3) / 9, 1.0, 3 * math.sqrt(3)),
        (1.0, 16 * math.sqrt(3) / 9 * (1 + 1e-6), 2.0, 6 * math.sqrt(3)),
        (3.0, 0.0, 1.0, 50.0),
        (1.0, 2.0, 0.5, 60.0),
    ]


@pytest.mark.filterwarnings("ignore:Drude cutoff")
class TestArrayKernel:
    @pytest.mark.parametrize("temperature", [0.01, 0.05, 1.0])
    def test_array_equals_one_point_calls(self, temperature):
        points = mixed_branch_points()
        mass, damping, w, wd = (np.array(col) for col in zip(*points))
        s, free = _matsubara_moments(damping, w, wd, temperature, C, free_energy=True)
        for (m, g, freq, cutoff), a1, a2, a3 in zip(points, s.f1 / mass, mass * s.f2, free):
            o, b = OscillatorParams(m, freq), BathSpec(temperature, g, cutoff)
            ref = moments_matsubara(o, b, C)
            assert abs(a1 - ref.f1) <= 4 * np.spacing(ref.f1)
            assert abs(a2 - ref.f2) <= 4 * np.spacing(ref.f2)
            assert a3 == coupling_free_energy(o, b, C)

    def test_failing_element_raises_as_its_one_point_call(self):
        # each damped element's rounding estimate, read from a one-point call
        # with a zero target; a target between the largest and the rest fails
        # that element alone
        temperature = 0.05
        points = [p for p in mixed_branch_points() if p[1] > 0]

        def one_point(p, rel_tol):
            m, g, freq, cutoff = p
            return moments_matsubara(OscillatorParams(m, freq), BathSpec(temperature, g, cutoff), C, rel_tol)

        estimates = []
        for p in points:
            with pytest.raises(NumericalFailure) as info:
                one_point(p, 0.0)
            diagnostics = info.value.diagnostics
            estimates.append(max(diagnostics["achieved_rel_f1"], diagnostics["achieved_rel_f2"]))
        order = np.argsort(estimates)
        rel_tol = math.sqrt(estimates[order[-1]] * estimates[order[-2]])
        assert estimates[order[-2]] < rel_tol < estimates[order[-1]]
        _, damping, w, wd = (np.array(col) for col in zip(*points))
        with pytest.raises(NumericalFailure) as array_call:
            _matsubara_moments(damping, w, wd, temperature, C, rel_tol)
        with pytest.raises(NumericalFailure) as point_call:
            one_point(points[order[-1]], rel_tol)
        assert str(array_call.value) == str(point_call.value)
        assert array_call.value.diagnostics == point_call.value.diagnostics


class TestSpectralRoute:
    def test_agrees_with_matsubara(self):
        for temperature, damping, cutoff in [(0.05, 5.0, 100.0), (1.0, 1.0, 50.0), (20.0, 10.0, 200.0)]:
            b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
            m_sum = moments_matsubara(OSC, b, C)
            m_int = moments_spectral(OSC, b, C)
            assert m_int.f1 == pytest.approx(m_sum.f1, rel=1e-7)
            assert m_int.f2 == pytest.approx(m_sum.f2, rel=1e-7)

    def test_zero_damping_delta_limit(self):
        b = BathSpec(temperature=0.3, damping=0.0, cutoff=100.0)
        m = moments_spectral(OSC, b, C)
        ref = thermal_moments_decoupled(OSC, 0.3, C)
        assert m.f1 == ref.f1 and m.f2 == ref.f2

    def test_nonunit_mass_and_frequency(self):
        o = OscillatorParams(mass=3.0, frequency=0.5)
        b = BathSpec(temperature=1.0, damping=2.0, cutoff=60.0)
        m_sum = moments_matsubara(o, b, C)
        m_int = moments_spectral(o, b, C)
        assert m_int.f1 == pytest.approx(m_sum.f1, rel=1e-7)
        assert m_int.f2 == pytest.approx(m_sum.f2, rel=1e-7)

    @pytest.mark.parametrize(
        "temperature, damping, cutoff",
        [(6.31e-5, 9.10, 10.0), (6.31e-5, 9.10, 100.0), (6.31e-5, 9.10, 1000.0),
         (1e-5, 50.0, 100.0), (1e-5, 50.0, 1000.0)],
    )
    def test_low_temperature_meets_its_tolerance_or_raises(self, temperature, damping, cutoff):
        # points where quad, given no breakpoints at the thermal scale
        # 2 kB T / hbar, misses the coth bend by up to 2.35e-7 and reports
        # no error
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        m_sum = moments_matsubara(OSC, b, C)
        try:
            m_int = moments_spectral(OSC, b, C)
        except NumericalFailure:
            return
        assert m_int.f1 == pytest.approx(m_sum.f1, rel=1e-7)
        assert m_int.f2 == pytest.approx(m_sum.f2, rel=1e-7)


    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        log_t=st.floats(math.log(1e-5), math.log(1e2)),
        log_gamma=st.floats(math.log(1e-3), math.log(1e2)),
        log_cutoff=st.floats(math.log(10.0), math.log(1e3)),
    )
    def test_within_its_tolerance_or_refused(self, log_t, log_gamma, log_cutoff):
        b = BathSpec(temperature=math.exp(log_t), damping=math.exp(log_gamma), cutoff=math.exp(log_cutoff))
        ref = moments_matsubara(OSC, b, C)
        try:
            m = moments_spectral(OSC, b, C)
        except NumericalFailure:
            return
        assert abs(m.f1 / ref.f1 - 1) <= 1e-7
        assert abs(m.f2 / ref.f2 - 1) <= 1e-7

    def test_squares_past_the_float_range_are_refused(self):
        # M^2 or w^2 past float64's range is inf, not Python's OverflowError,
        # and the gate refuses the estimate it leaves
        points = [(OscillatorParams(1e160, 1.0), 100.0), (OscillatorParams(1.0, 1e160), 1e162)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for o, cutoff in points:
                with pytest.raises(NumericalFailure, match="spectral quadrature"):
                    moments_spectral(o, BathSpec(1.0, 1.0, cutoff), C)
            heavy = moments_spectral(OscillatorParams(1e150, 1.0), BathSpec(1.0, 1.0, 100.0), C)
        unit = moments_spectral(OSC, BathSpec(1.0, 1.0, 100.0), C)
        assert heavy.f1 * 1e150 == pytest.approx(unit.f1, rel=1e-12)
        assert heavy.f2 / 1e150 == pytest.approx(unit.f2, rel=1e-12)

    def test_unreachable_tolerance_raises_with_diagnostics(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        with pytest.raises(NumericalFailure, match="spectral quadrature") as failure:
            moments_spectral(OSC, b, C, rel_tol=1e-17)
        diagnostics = failure.value.diagnostics
        assert 1e-17 < max(diagnostics["achieved_rel_f1"], diagnostics["achieved_rel_f2"]) < 1e-7
        assert diagnostics["pending_segments"] == 0


class TestDispatch:
    def test_low_temperature_default_agrees_with_spectral(self):
        # the closed form needs no term count, so the default route stays on
        # it as T -> 0, where a truncated sum would need ~1e8 terms
        for temperature in (1e-3, 1e-6):
            b = BathSpec(temperature=temperature, damping=1.0, cutoff=50.0)
            m = moments_matsubara(OSC, b, C)
            ref = moments_spectral(OSC, b, C)
            assert m.f1 == pytest.approx(ref.f1, rel=1e-7)
            assert m.f2 == pytest.approx(ref.f2, rel=1e-7)


class TestCouplingFreeEnergy:
    def test_zero_at_zero_damping(self):
        b = BathSpec(temperature=1.0, damping=0.0, cutoff=100.0)
        assert coupling_free_energy(OSC, b, C) == 0.0

    def test_positive_and_increasing_in_damping(self):
        values = []
        for damping in (0.1, 1.0, 5.0):
            b = BathSpec(temperature=1.0, damping=damping, cutoff=100.0)
            values.append(coupling_free_energy(OSC, b, C))
        assert values[0] > 0
        assert values[0] < values[1] < values[2]

    def test_matches_independent_log_sum(self):
        # [DERIVED] direct partial sums of the log series with 1/N Richardson
        b = BathSpec(temperature=1.0, damping=5.0, cutoff=100.0)
        beta = 1.0
        nu1 = 2 * math.pi

        def partial(n_terms):
            n = np.arange(1, n_terms + 1)
            nu = nu1 * n
            ghat = b.damping * b.cutoff / (nu + b.cutoff)
            return float(np.sum(np.log1p(nu * ghat / (nu**2 + 1.0))))

        ref = (2 * partial(4_000_000) - partial(2_000_000)) / beta
        assert coupling_free_energy(OSC, b, C) == pytest.approx(ref, rel=1e-6)

    def test_small_damping_keeps_relative_accuracy(self):
        # [DERIVED] direct log sums as above; at gamma = 1e-8 the log-gamma
        # terms are ~1e11 times the result, so a plain difference of them
        # would keep only ~5 digits
        b = BathSpec(temperature=1.0, damping=1e-8, cutoff=1000.0)
        nu1 = 2 * math.pi

        def partial(n_terms):
            nu = nu1 * np.arange(1, n_terms + 1)
            return float(np.sum(np.log1p(nu * b.damping * b.cutoff / ((nu + b.cutoff) * (nu**2 + 1.0)))))

        ref = 2 * partial(4_000_000) - partial(2_000_000)
        assert coupling_free_energy(OSC, b, C) == pytest.approx(ref, rel=1e-6)

    def test_a_root_far_below_its_limit_matches_the_referee(self):
        # at T = 1e-30, gamma = 1e30, wD = 10 the real root moves from wD to
        # ~1e-30: forming 1 + y + h from y = wD/nu1 ~ 1.6e30 cancels every digit
        free = mpmath_referee(1e-30, 1e30, 10.0)[2]
        assert abs(coupling_free_energy(OSC, BathSpec(1e-30, 1e30, 10.0), C) - free) <= 1e-8 * abs(free)

    @pytest.mark.parametrize("temperature", [1e6, 1e8])
    @pytest.mark.parametrize("damping, cutoff", [(0.01, 10.0), (50.0, 1000.0)])
    def test_high_temperature_matches_direct_sum(self, temperature, damping, cutoff):
        # [DERIVED] the defining log series summed in 30-digit arithmetic; the
        # first-order terms of the closed form cancel across the roots here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            nu1 = 2 * mpmath.pi * temperature
            ref = temperature * mpmath.nsum(
                lambda n: mpmath.log1p(
                    n * nu1 * damping * cutoff / ((n * nu1 + cutoff) * ((n * nu1) ** 2 + 1))
                ),
                [1, mpmath.inf],
            )
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        assert coupling_free_energy(OSC, b, C) == pytest.approx(float(ref), rel=1e-8)


    @pytest.mark.filterwarnings("ignore:Drude cutoff")
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        log_t=st.floats(math.log(1e-3), math.log(1e2)),
        log_gamma=st.floats(math.log(1e-2), math.log(50.0)),
        log_cutoff=st.floats(math.log(10.0), math.log(1000.0)),
        mass=st.floats(0.3, 3.0),
        frequency=st.floats(0.3, 3.0),
    )
    def test_damping_slope_from_the_moments(self, log_t, log_gamma, log_cutoff, mass, frequency):
        # [DERIVED] d/dgamma of each log term is nu wD / P(nu), and the f1 and
        # f2 sums combine to the same sum: dF_MF/dgamma = (f2/M - M w^2 f1)/(2 gamma);
        # checked against a Richardson central difference of the free energy
        o = OscillatorParams(mass=mass, frequency=frequency)
        t, gamma, cutoff = math.exp(log_t), math.exp(log_gamma), math.exp(log_cutoff)

        def free_energy(g):
            return coupling_free_energy(o, BathSpec(temperature=t, damping=g, cutoff=cutoff), C)

        def central(h):
            return (free_energy(gamma + h) - free_energy(gamma - h)) / (2 * h)

        h = 1e-3 * gamma
        slope = (4 * central(h / 2) - central(h)) / 3
        m = moments_matsubara(o, BathSpec(temperature=t, damping=gamma, cutoff=cutoff), C)
        identity = (m.f2 / mass - mass * frequency**2 * m.f1) / (2 * gamma)
        assert identity == pytest.approx(slope, rel=1e-7)


def mpmath_referee(temperature, damping, cutoff, digits=50):
    """[DERIVED] f1, f2 (M = w = 1) and the coupling free energy from the digamma
    and log-gamma closed forms at 50 digits, with the roots of P from
    mpmath.polyroots: shares no code with the kernel, and keeps more than 30
    digits through the cancellation of near-equal roots. A wide band, whose
    root near wD cancels against it, takes more ``digits``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        t, g, wd, w = (mpmath.mpf(v) for v in (temperature, damping, cutoff, 1))
        nu1 = 2 * mpmath.pi * t
        lam = [-z for z in mpmath.polyroots([1, wd, w * w + g * wd, w * w * wd], maxsteps=400, extraprec=4 * digits)]
        den = [(lam[(i + 1) % 3] - lam[i]) * (lam[(i + 2) % 3] - lam[i]) for i in range(3)]
        psi = [mpmath.digamma(1 + l / nu1) for l in lam]
        s1 = 1 / (w * w) - 2 / nu1 * mpmath.re(sum((wd - l) / d * p for l, d, p in zip(lam, den, psi)))
        s2 = 1 - 2 / nu1 * mpmath.re(sum((w * w * wd - (w * w + g * wd) * l) / d * p for l, d, p in zip(lam, den, psi)))

        def lngamma(z):
            return mpmath.loggamma(1 + z / nu1)

        free = t * mpmath.re(lngamma(1j * w) + lngamma(-1j * w) + lngamma(wd) - sum(lngamma(l) for l in lam))
        return float(t * s1), float(t * s2), float(free)


def meets_gate_or_raises(temperature, damping, cutoff, digits=50):
    """moments_matsubara and coupling_free_energy each agree with the referee
    within their 1e-8 gate or raise NumericalFailure, and no numerical
    warning is emitted (the narrow-band cutoff warning is the bath's own)."""
    b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
    f1, f2, free = mpmath_referee(temperature, damping, cutoff, digits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message="Drude cutoff", category=UserWarning)
        try:
            m = moments_matsubara(OSC, b, C)
            assert abs(m.f1 - f1) <= 1e-8 * f1 and abs(m.f2 - f2) <= 1e-8 * f2
        except NumericalFailure:
            pass
        try:
            assert abs(coupling_free_energy(OSC, b, C) - free) <= 1e-8 * abs(free)
        except NumericalFailure:
            pass


# the triple root and both critical dampings at three cutoffs, where two or
# three roots of P merge
CONFLUENT = [(8 * math.sqrt(3) / 9, 3 * math.sqrt(3))] + [
    (critical_damping(cutoff, branch), cutoff) for cutoff in (5.5, 50.0, 1000.0) for branch in (0, 1)
]
CONFLUENT_IDS = ["triple"] + [f"critical{branch}-{cutoff:g}" for cutoff in (5.5, 50.0, 1000.0) for branch in (0, 1)]
CONFLUENT_TEMPERATURES = [1e-6, 1e-3, 1.0, 1e3]


class TestAdversarialMatsubara:
    """The contract of the digamma route across wide log-ranges of T, gamma and
    wD, at confluent roots and toward T = 0: within the gate, or refused."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        log_t=st.floats(math.log(1e-6), math.log(1e3)),
        log_gamma=st.floats(math.log(1e-8), math.log(1e3)),
        log_cutoff=st.floats(math.log(5.0), math.log(1e3)),
    )
    def test_within_the_gate_or_refused(self, log_t, log_gamma, log_cutoff):
        meets_gate_or_raises(math.exp(log_t), math.exp(log_gamma), math.exp(log_cutoff))

    @pytest.mark.parametrize("temperature", CONFLUENT_TEMPERATURES)
    @pytest.mark.parametrize("damping, cutoff", CONFLUENT, ids=CONFLUENT_IDS)
    def test_confluent_roots_within_the_gate_or_refused(self, temperature, damping, cutoff):
        meets_gate_or_raises(temperature, damping, cutoff)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        log_t=st.floats(math.log(1e-3), math.log(1e3)),
        log_gamma=st.floats(math.log(1e-200), math.log(1e3)),
        log_cutoff=st.floats(math.log(10.0), math.log(1.79e308)),
    )
    def test_any_cutoff_within_the_gate_or_refused(self, log_t, log_gamma, log_cutoff):
        # gamma down to 1e-200 and wD up to float64's largest; the referee
        # keeps 50 digits beyond the cancellation of wD's root with wD and of
        # the free energy's shifts of order gamma
        digits = 50 + round(log_cutoff / math.log(10)) + max(0, round(-log_gamma / math.log(10)))
        meets_gate_or_raises(math.exp(log_t), math.exp(log_gamma), math.exp(log_cutoff), digits)


class TestWideBand:
    """Cutoffs far above the other scales: within the gate, or refused with
    NumericalFailure before numpy can overflow."""

    def test_free_energy_sums_its_series_at_the_small_nodes_only(self):
        # at T = 1.6 a short step's nodes reach below |z| = 0.1, beside steps
        # whose nodes are ~wD/nu1 ~ 1e17, whose z^19 would overflow
        b = BathSpec(1.6, 0.5, 1e18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = coupling_free_energy(OSC, b, C)
        free = mpmath_referee(1.6, 0.5, 1e18)[2]
        assert abs(value - free) <= 1e-8 * abs(free)

    @pytest.mark.parametrize("temperature, damping", [(1e-3, 0.5), (1.0, 1e-8), (1.0, 0.5), (5.0, 1e3)])
    def test_the_largest_cutoff_meets_the_gate(self, temperature, damping):
        b = BathSpec(temperature, damping, bath._MAX_CUTOFF)
        f1, f2, free = mpmath_referee(temperature, damping, b.cutoff, digits=170)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, value = moments_matsubara(OSC, b, C), coupling_free_energy(OSC, b, C)
        assert abs(m.f1 - f1) <= 1e-8 * f1 and abs(m.f2 - f2) <= 1e-8 * f2
        assert abs(value - free) <= 1e-8 * abs(free)

    @pytest.mark.parametrize(
        "o, b",
        [
            (OSC, BathSpec(1.0, 0.5, math.nextafter(bath._MAX_CUTOFF, math.inf))),
            (OSC, BathSpec(1.0, 1e-8, 1e109)),
            (OSC, BathSpec(1.0, 0.5, 1e154)),
            (OscillatorParams(1.0, 10**99.5), BathSpec(1.0, 0.5, 1e200)),
        ],
        ids=["just-beyond", "polish-overflow", "root-square-overflow", "c0-overflow"],
    )
    def test_beyond_the_cutoff_range_every_route_refuses(self, o, b):
        # past ~1e108 the roots' Newton polish overflowed, past 1.3e154 the
        # square of the real root did and gamma = 0's moments came back, and
        # w^2 wD overflowed into numpy's LinAlgError
        ops = [
            moments_matsubara,
            coupling_free_energy,
            lambda o, b: composed_process(o, b, b.temperature, C, check_consistency=False),
            lambda o, b: _matsubara_moments([0.0, b.damping], o.frequency, b.cutoff, b.temperature, C, nodes=True),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for op in ops:
                with pytest.raises(NumericalFailure, match="cutoff beyond the closed form's range") as info:
                    op(o, b)
                assert info.value.diagnostics == {"cutoff": b.cutoff, "frequency": o.frequency}

    @pytest.mark.parametrize(
        "temperature, damping, cutoff, digits",
        [
            (0.05, 917077450674293.1, 100.0, 60),
            (2787.270389510236, 435239845.9383163, 64090930.086138286, 50),
            (3.340889713911804e19, 5.540687671385791e53, 1.5433104480732924e21, 120),
        ],
    )
    def test_a_tiny_real_root_gives_a_free_energy(self, temperature, damping, cutoff, digits):
        # the real root r ~ w^2/gamma is so small that its long step's ln Gamma
        # argument, once formed as 1 + y + h, cancelled to about 1 and rounded
        # below it, where a NaN sentinel refused the point; 1 + r/nu1 does not
        b = BathSpec(temperature, damping, cutoff)
        free = mpmath_referee(temperature, damping, cutoff, digits)[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = coupling_free_energy(OSC, b, C)
            report = composed_process(OSC, b, temperature, C, check_consistency=False)
        assert abs(value - free) <= 1e-15 * abs(free)
        assert math.isfinite(report.heat) and math.isfinite(report.delta_entropy)

    def test_a_long_step_takes_its_psi1_term_over_its_ln_gamma_interval(self):
        # the flagship scaled by 2^-350, whose root shifts h (~1e-313 before
        # the division by nu1) are subnormal and carry ~1e-12 of rounding: a
        # long step takes its psi(1) term, like its ln Gamma difference, over
        # 1 + y to z = 1 + l/nu1 and not from h, so F_MF scales by 2^-350
        w, t, g, wd = (math.ldexp(v, -350) for v in (1.0, 0.05, 5.0, 100.0))
        value = math.ldexp(coupling_free_energy(OscillatorParams(1.0, w), BathSpec(t, g, wd), C), 350)
        free = mpmath_referee(0.05, 5.0, 100.0)[2]
        assert abs(value - free) <= 1e-13 * abs(free)

    @pytest.mark.filterwarnings("ignore:Drude cutoff")
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        log_t=st.floats(math.log(1e-3), math.log(1e24)),
        log_gamma=st.floats(math.log(1e10), math.log(1e190)),
        share=st.floats(0.0, 1.0),
    )
    def test_strong_coupling_gives_a_value_across_the_closed_forms_range(self, log_t, log_gamma, share):
        # gamma in [1e10, 1e190] and wD in [1, 1e107] with gamma wD <= 1e200:
        # the unchecked composed op, which takes the free energy at gamma and
        # gamma/2, refuses no point
        cutoff = math.exp(share * min(math.log(1e107), math.log(1e200) - log_gamma)) * (1 - 1e-12)
        b = BathSpec(math.exp(log_t), math.exp(log_gamma), cutoff)
        report = composed_process(OSC, b, b.temperature, C, check_consistency=False)
        assert math.isfinite(report.heat) and math.isfinite(report.delta_entropy)

    @pytest.mark.parametrize("cutoff", [1e150, 1e152, 1e160, 1e200, 1e300, 1.79e308])
    def test_spectral_route_gives_a_value_or_refuses_without_a_warning(self, cutoff):
        # from a cutoff near 1e152 its nodes and integrand overflowed, and
        # numpy warned up to 40 times before the NaN estimate was refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                m = moments_spectral(OSC, BathSpec(1.0, 0.5, cutoff), C)
            except NumericalFailure:
                return
        f1, f2, _ = mpmath_referee(1.0, 0.5, cutoff, digits=2 * round(math.log10(cutoff)) + 50)
        assert abs(m.f1 - f1) <= 1e-7 * f1 and abs(m.f2 - f2) <= 1e-7 * f2

    @pytest.mark.parametrize("cutoff", [10.0, 1e107, 1e300, 1.79e308])
    def test_decoupled_at_any_cutoff_is_the_gibbs_state(self, cutoff):
        b = BathSpec(1.0, 0.0, cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert moments_matsubara(OSC, b, C) == thermal_moments_decoupled(OSC, 1.0, C)
            assert coupling_free_energy(OSC, b, C) == 0.0


def mpmath_slope_referee(temperature, damping, cutoff):
    """[DERIVED] d f1/d gamma and d f2/d gamma (M = w = 1) from the Matsubara
    sums -(2/beta) sum_{n>=1} nu_n wD (nu_n + wD)/P(nu_n)^2 and (2/beta)
    sum_{n>=1} wD nu_n^3 (nu_n + wD)/P(nu_n)^2 at 50 digits. Each summand is
    split into partial fractions a_i/(nu + l_i)^2 + b_i/(nu + l_i) over the
    roots -l_i of P, from mpmath.polyroots, and sum_{n>=1} closes them in
    psi' and psi (the b_i sum to zero): shares no code with the kernel."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, g, wd = (mpmath.mpf(v) for v in (temperature, damping, cutoff))
        nu1 = 2 * mpmath.pi * t
        lam = [-z for z in mpmath.polyroots([1, wd, 1 + g * wd, wd], maxsteps=400, extraprec=200)]
        sums = []
        # each numerator and its derivative
        f1_num = (lambda v: v * (v + wd), lambda v: 2 * v + wd)
        f2_num = (lambda v: v**3 * (v + wd), lambda v: (4 * v + 3 * wd) * v * v)
        for num, dnum in (f1_num, f2_num):
            total = 0
            for i, l_i in enumerate(lam):
                others = [l for j, l in enumerate(lam) if j != i]
                den = mpmath.fprod((l - l_i) ** 2 for l in others)
                a = num(-l_i) / den
                b = (dnum(-l_i) - 2 * num(-l_i) * sum(1 / (l - l_i) for l in others)) / den
                z = 1 + l_i / nu1
                total += a * mpmath.psi(1, z) / nu1**2 - b * mpmath.digamma(z) / nu1
            sums.append(2 * t * wd * mpmath.re(total))
        return float(-sums[0]), float(sums[1])


def near_confluent():
    """gamma within a relative 1e-12..1e-1 of a critical damping (wD in
    [5.5, 1e3], either branch) or of the triple root, at T in [1e-6, 1e3]."""
    offset = st.builds(lambda sign, e: sign * 10**e, st.sampled_from([-1, 1]), st.floats(-12, -1))
    log_t = st.floats(math.log(1e-6), math.log(1e3))
    critical = st.builds(
        lambda lt, cutoff, branch, eps: (math.exp(lt), critical_damping(cutoff, branch) * (1 + eps), cutoff),
        log_t, st.floats(5.5, 1e3), st.sampled_from([0, 1]), offset,
    )
    triple = st.builds(
        lambda lt, eps: (math.exp(lt), 8 * math.sqrt(3) / 9 * (1 + eps), 3 * math.sqrt(3)), log_t, offset
    )
    return st.one_of(critical, triple)


def log_spread():
    """The kernel's log-ranges: T in [1e-6, 1e3], gamma in [1e-8, 1e3], wD in [5, 1e3]."""
    return st.tuples(
        *(st.floats(math.log(lo), math.log(hi)).map(math.exp) for lo, hi in ((1e-6, 1e3), (1e-8, 1e3), (5.0, 1e3)))
    )


@pytest.mark.filterwarnings("ignore:Drude cutoff")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(point=near_confluent())
def test_near_confluent_moments_within_their_estimates(point):
    # never refused: close roots take the contour sums, whose estimates the
    # slope-reading kernel call returns with the moments
    temperature, damping, cutoff = point
    f1, f2, _ = mpmath_referee(temperature, damping, cutoff)
    s, _ = _matsubara_moments([damping], 1.0, cutoff, temperature, C, nodes=True)
    assert abs(s.f1[0] - f1) <= s.f1_error[0]
    assert abs(s.f2[0] - f2) <= s.f2_error[0]


def slopes_at(b):
    """The kernel's gamma slopes at the reference point, one slope node, as floats."""
    s, _ = _matsubara_moments([b.damping], OSC.frequency, b.cutoff, b.temperature, C, nodes=True)
    return s._make(float(v[0]) for v in s)


class TestMomentDerivatives:
    @pytest.mark.filterwarnings("ignore:Drude cutoff")
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(point=st.one_of(log_spread().map(lambda p: (*p, False)), near_confluent().map(lambda p: (*p, True))))
    def test_within_their_estimates_or_refused(self, point):
        # the exact gamma slopes against the referee's Matsubara sums, each
        # within its own error estimate, or NumericalFailure from the kernel's
        # gate, which near-confluent roots never raise
        temperature, damping, cutoff, close = point
        dg1, dg2 = mpmath_slope_referee(temperature, damping, cutoff)
        try:
            d = slopes_at(BathSpec(temperature, damping, cutoff))
        except NumericalFailure:
            assert not close
            return
        assert abs(d.df1 - dg1) <= d.df1_error
        assert abs(d.df2 - dg2) <= d.df2_error

    @pytest.mark.filterwarnings("ignore:Drude cutoff")
    @pytest.mark.parametrize("temperature", CONFLUENT_TEMPERATURES)
    @pytest.mark.parametrize("damping, cutoff", CONFLUENT, ids=CONFLUENT_IDS)
    def test_at_confluent_roots_within_their_estimates(self, temperature, damping, cutoff):
        # where the roots merge exactly, the contour sums give the moments and
        # both slopes within their own estimates and never refuse them
        b = BathSpec(temperature, damping, cutoff)
        dg1, dg2 = mpmath_slope_referee(temperature, damping, cutoff)
        f1, f2, _ = mpmath_referee(temperature, damping, cutoff)
        d = slopes_at(b)
        assert abs(d.f1 - f1) <= d.f1_error
        assert abs(d.f2 - f2) <= d.f2_error
        assert abs(d.df1 - dg1) <= d.df1_error
        assert abs(d.df2 - dg2) <= d.df2_error

    def test_damping_derivative_matches_finite_difference(self):
        b = BathSpec(temperature=1.0, damping=2.0, cutoff=50.0)
        d = slopes_at(b)
        h = 1e-4
        up = moments_matsubara(OSC, BathSpec(1.0, 2.0 + h, 50.0), C)
        dn = moments_matsubara(OSC, BathSpec(1.0, 2.0 - h, 50.0), C)
        assert d.df1 == pytest.approx((up.f1 - dn.f1) / (2 * h), rel=1e-5)
        assert d.df2 == pytest.approx((up.f2 - dn.f2) / (2 * h), rel=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_the_kernel_gates_the_slopes_of_its_nodes_only(self):
        # the flagship scaled by 2^-350, where the moments pass their gate
        # and the gamma slopes leave float64's range: a node there is refused,
        # naming its damping, and an element that is no node is not
        w, t, g, wd = (math.ldexp(v, -350) for v in (1.0, 0.05, 5.0, 100.0))
        _matsubara_moments([g, 1e-3], w, wd, t, C, nodes=[False, True])
        with pytest.raises(NumericalFailure, match="moment derivative error estimate exceeds tolerance") as info:
            _matsubara_moments([1e-3, g], w, wd, t, C, nodes=[False, True])
        assert info.value.diagnostics.items() >= {"damping": g}.items()

    def test_a_node_at_zero_damping_takes_the_same_slopes_in_any_call(self):
        # alone, the node's call has no damped element, which gave it zero
        # slopes; beside a damped state it took the closed form's, and the
        # closed form is elementwise
        alone, _ = _matsubara_moments([0.0], 1.0, 100.0, 0.05, C, nodes=True)
        beside, _ = _matsubara_moments([1.0, 0.0], 1.0, 100.0, 0.05, C, nodes=[False, True])
        assert [v[0] for v in alone] == [v[1] for v in beside]
        assert alone.df1[0] < 0 < alone.df2[0]

    def test_the_gate_scales_each_slope_error_by_the_slope_or_its_floor(self, monkeypatch):
        # each node's slope error is gated within 1e-5 of max(|df|, 1e-3 |f| /
        # max(gamma, 1)). At T = 100, gamma = 100 the classical f1 barely moves
        # with gamma, so |df1| lies below 1e-3 |f1| / gamma, and |df2| lies
        # between that floor and 1e-3 |f2|: the gate divides each error by
        # its own scale, which a floor without the 1/gamma would raise
        gates = []
        gate = bath.require_accurate

        def record(message, target, estimates, **context):
            gates.append(estimates)
            gate(message, target, estimates, **context)

        monkeypatch.setattr(bath, "require_accurate", record)
        s = slopes_at(BathSpec(temperature=100.0, damping=100.0, cutoff=10.0))
        floor1, floor2 = 1e-3 * s.f1 / 100, 1e-3 * s.f2 / 100
        assert abs(s.df1) < floor1
        assert floor2 < abs(s.df2) < 1e-3 * s.f2
        assert gates[-1]["df1_rel_error"][0] == pytest.approx(s.df1_error / floor1, rel=1e-12, abs=0)
        assert gates[-1]["df2_rel_error"][0] == pytest.approx(s.df2_error / abs(s.df2), rel=1e-12, abs=0)

    def test_error_estimates_are_reported(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=50.0)
        d = slopes_at(b)
        assert d.df1_error >= 0 and d.df2_error >= 0

    def test_matches_a_central_difference_of_the_spectral_route(self):
        # [DERIVED] the independent referee: Richardson-extrapolated central
        # differences in gamma of moments_spectral, which shares no code with
        # the kernel
        b = BathSpec(temperature=1.0, damping=2.0, cutoff=50.0)

        def central(h):
            up, dn = (moments_spectral(OSC, BathSpec(1.0, b.damping + x, 50.0), C) for x in (h, -h))
            return (up.f1 - dn.f1) / (2 * h), (up.f2 - dn.f2) / (2 * h)

        (c1, c2), (h1, h2) = central(1e-3 * b.damping), central(5e-4 * b.damping)
        d = slopes_at(b)
        assert d.df1 == pytest.approx((4 * h1 - c1) / 3, rel=1e-5)
        assert d.df2 == pytest.approx((4 * h2 - c2) / 3, rel=1e-5)


class TestFailureDiagnostics:
    def test_numerical_failure_carries_diagnostics(self):
        err = NumericalFailure("broke", detail=1.25)
        assert "broke" in str(err)
        assert "detail" in str(err)
        assert err.diagnostics["detail"] == 1.25

    def test_an_estimate_at_its_target_passes(self):
        # scalars and arrays alike; the gate is <=, so an estimate equal to
        # its target is accepted
        require_accurate("unused", 1e-8, {"e": 1e-8})
        require_accurate("unused", 1e-8, {"e": np.array([0.0, 1e-8]), "f": np.full(2, -1.0)}, at=np.arange(2.0))

    @pytest.mark.parametrize("estimate", [math.nan, np.float64(math.nan), np.array([0.0, math.nan])], ids=repr)
    def test_nan_fails(self, estimate):
        with pytest.raises(NumericalFailure, match="lost") as info:
            require_accurate("lost", 1.0, {"e": estimate})
        assert math.isnan(info.value.diagnostics["e"])

    def test_the_first_failing_point_is_named_in_python_scalars(self):
        estimates = {"a": np.array([0.0, 2.0, 3.0]), "b": np.array([0.0, 0.5, 5.0])}
        with pytest.raises(NumericalFailure) as info:
            require_accurate("lost", 1.0, estimates, at=np.array([10.0, 20.0, 30.0]), alpha="mass", count=np.int64(7))
        diagnostics = info.value.diagnostics
        assert diagnostics == {"a": 2.0, "b": 0.5, "at": 20.0, "alpha": "mass", "count": 7}
        assert [type(v) for v in diagnostics.values()] == [float, float, float, str, int]
        assert "np." not in str(info.value)

    def test_one_point_and_array_calls_give_equal_failures(self):
        # the array kernel and its one-point calls report the same failure
        # (TestArrayKernel.test_failing_element_raises_as_its_one_point_call relies on it)
        points = np.array([1e-9, 2.0, 1e-9]), np.array([0.1, 0.2, 0.3])
        with pytest.raises(NumericalFailure) as array_call:
            require_accurate("lost", 1e-8, {"e": points[0]}, damping=points[1])
        with pytest.raises(NumericalFailure) as point_call:
            require_accurate("lost", 1e-8, {"e": float(points[0][1])}, damping=float(points[1][1]))
        assert str(array_call.value) == str(point_call.value)
        assert array_call.value.diagnostics == point_call.value.diagnostics

    @pytest.mark.parametrize(
        "rows, message", [([0, 1, 2], "frequencies below the closed form's range"), ([0, 2, 1], "damping beyond")]
    )
    def test_the_root_solve_names_its_first_failing_row(self, rows, message):
        # after a row in range, one row's w^2 wD underflows to 0 and another's
        # damping is out of range: the message and the diagnostics are those
        # of the first failing row
        w2, damping = np.array([1.0, 5e-324, 1.0])[rows], np.array([1.0, 2.0, 1e300])[rows]
        with pytest.raises(NumericalFailure, match=message) as info:
            bath._drude_poles(w2, 0.25, damping)
        assert info.value.diagnostics == {"damping": damping[1], "cutoff": 0.25}
        assert "np." not in str(info.value)
