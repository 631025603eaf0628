"""Unit tests for the Gaussian-state layer."""

import math

import numpy as np
import pytest

from clausius_lab import (
    Constants,
    Moments,
    OscillatorParams,
    entropy,
    mean_energy,
    symplectic_param,
    thermal_moments_decoupled,
)

C = Constants()


class TestValidation:
    def test_constants_reject_nonpositive(self):
        with pytest.raises(ValueError):
            Constants(hbar=0.0)
        with pytest.raises(ValueError):
            Constants(kB=-1.0)

    def test_oscillator_rejects_bad_params(self):
        with pytest.raises(ValueError):
            OscillatorParams(mass=0.0, frequency=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(mass=1.0, frequency=-2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mass", "frequency"])
    def test_oscillator_rejects_nan_and_infinite_params(self, field, value):
        kwargs = {"mass": 1.0, "frequency": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be"):
            OscillatorParams(**kwargs)

    def test_moments_reject_nonpositive_variances(self):
        with pytest.raises(ValueError):
            Moments(f1=-1.0, f2=1.0)
        with pytest.raises(ValueError):
            Moments(f1=1.0, f2=0.0)

    def test_symplectic_param_rejects_sub_heisenberg(self):
        with pytest.raises(ValueError, match="Heisenberg"):
            symplectic_param(Moments(f1=0.1, f2=0.1), C)

    def test_symplectic_param_tolerates_roundoff_at_bound(self):
        # determinant a hair under hbar^2/4 must clamp to the pure state
        m = Moments(f1=0.5, f2=0.5 - 1e-14)
        v = symplectic_param(m, C)
        assert v == 0.5 and type(v) is float


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        assert entropy(0.5) == 0.0

    def test_frozen_value_at_v_equal_one(self):
        # 1.5 ln 1.5 - 0.5 ln 0.5, evaluated independently
        expected = 1.5 * math.log(1.5) + 0.5 * math.log(2.0)
        assert entropy(1.0) == pytest.approx(expected, abs=1e-15)
        assert entropy(1.0) == pytest.approx(0.9547712524422623, abs=1e-12)

    def test_monotone_increasing_in_v(self):
        vs = np.linspace(0.5, 30.0, 200)
        ss = [entropy(v) for v in vs]
        assert all(b > a for a, b in zip(ss, ss[1:]))

    def test_matches_mpmath_from_the_pure_state_to_large_v(self):
        # u = v - 1/2 log-uniform over [1e-20, 1e20], and past 1e300: the
        # difference of (v + 1/2) ln(v + 1/2) and (v - 1/2) ln(v - 1/2) lost
        # 2.6e-2 of S at u = 1e-16 and 7.4e-5 at u = 1e12, and was 0 from
        # u = 1e16 on
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        us = np.exp(rng.uniform(math.log(1e-20), math.log(1e20), 2000)).tolist() + [1e300, 1.7e308]
        with mpmath.workdps(60):
            for u in us:
                v = 0.5 + u
                x = mpmath.mpf(v) - mpmath.mpf(0.5)  # v's own u, once v is rounded
                if x == 0:
                    assert entropy(v) == 0.0
                    continue
                exact = float(mpmath.log1p(x) + x * mpmath.log1p(1 / x))
                assert abs(entropy(v) - exact) <= 3 * math.ulp(exact), v

    def test_high_occupancy_asymptotics(self):
        # S -> ln v + 1 for v >> 1
        v = 1e6
        assert entropy(v) == pytest.approx(math.log(v) + 1.0, rel=1e-9)

    def test_rejects_sub_pure_v(self):
        with pytest.raises(ValueError):
            entropy(0.2)


class TestThermalMoments:
    def test_ground_state_limit(self):
        o = OscillatorParams(mass=2.0, frequency=3.0)
        m = thermal_moments_decoupled(o, 1e-6, C)
        assert m.f1 == pytest.approx(C.hbar / (2 * o.mass * o.frequency), rel=1e-12)
        assert m.f2 == pytest.approx(o.mass * C.hbar * o.frequency / 2, rel=1e-12)
        assert symplectic_param(m, C) == pytest.approx(0.5, abs=1e-9)

    def test_classical_limit(self):
        o = OscillatorParams(mass=1.5, frequency=0.7)
        temperature = 1e4
        m = thermal_moments_decoupled(o, temperature, C)
        kt = C.kB * temperature
        assert m.f1 == pytest.approx(kt / (o.mass * o.frequency**2), rel=1e-6)
        assert m.f2 == pytest.approx(o.mass * kt, rel=1e-6)

    def test_equipartition_of_mean_energy(self):
        o = OscillatorParams(mass=1.0, frequency=1.0)
        m = thermal_moments_decoupled(o, 5.0, C)
        kinetic = m.f2 / (2 * o.mass)
        potential = o.mass * o.frequency**2 * m.f1 / 2
        assert kinetic == pytest.approx(potential, rel=1e-12)
        assert mean_energy(m, o) == pytest.approx(kinetic + potential, rel=1e-12)

    def test_rejects_nonpositive_temperature(self):
        o = OscillatorParams(mass=1.0, frequency=1.0)
        with pytest.raises(ValueError):
            thermal_moments_decoupled(o, 0.0, C)


class TestCovariance:
    def test_covariance_layout(self):
        m = Moments(f1=2.0, f2=3.0, cross=0.25)
        cov = m.covariance()
        assert cov.shape == (2, 2)
        assert cov[0, 0] == 2.0
        assert cov[1, 1] == 3.0
        assert cov[0, 1] == cov[1, 0] == 0.25

    def test_cross_term_enters_symplectic_param(self):
        base = symplectic_param(Moments(f1=2.0, f2=3.0, cross=0.0), C)
        tilted = symplectic_param(Moments(f1=2.0, f2=3.0, cross=1.0), C)
        assert tilted == pytest.approx(math.sqrt(6.0 - 1.0), rel=1e-12)
        assert tilted < base
