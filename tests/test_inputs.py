"""Every public constructor and function refuses a NaN or infinite physical
input with ValueError, before any arithmetic on it can warn or return a
value built from it."""

import math

import numpy as np
import pytest

from clausius_lab import (
    BathSpec,
    Constants,
    DensityMatrix,
    DiscreteBath,
    Ensemble,
    Moments,
    OscillatorParams,
    Povm,
    clausius_check,
    entropy,
    erasure_budget,
    landauer_bound,
    reduced_moments_exact,
    sample_bath,
    thermal_moments_decoupled,
)

OSC = OscillatorParams(mass=1.0, frequency=1.0)
BATH = BathSpec(temperature=1.0, damping=1.0, cutoff=50.0)
DB = DiscreteBath(np.array([1.0, 2.0]), np.array([0.1, 0.1]))
KET0 = DensityMatrix(np.diag([1.0, 0.0]))
BB84 = Ensemble(np.array([0.5, 0.5]), (KET0, DensityMatrix(np.full((2, 2), 0.5))))

# each call with the value x in one argument, and what its message says
CALLS = {
    "Constants.hbar": (lambda x: Constants(hbar=x), "hbar must be positive and finite"),
    "Constants.kB": (lambda x: Constants(kB=x), "kB must be positive and finite"),
    "Moments.f1": (lambda x: Moments(f1=x, f2=1.0), "f1 must be positive and finite"),
    "Moments.f2": (lambda x: Moments(f1=1.0, f2=x), "f2 must be positive and finite"),
    "Moments.cross": (lambda x: Moments(f1=1.0, f2=1.0, cross=x), "cross must be finite"),
    "entropy": (entropy, "at least the pure-state bound 1/2 and finite"),
    "thermal_moments_decoupled": (lambda x: thermal_moments_decoupled(OSC, x), "temperature must be positive and finite"),
    "sample_bath.omega_max": (lambda x: sample_bath(BATH, OSC, 8, x), "omega_max must be positive and finite"),
    "sample_bath.mode_count": (lambda x: sample_bath(BATH, OSC, x, 10.0), "mode_count must be a positive integer"),
    "reduced_moments_exact": (lambda x: reduced_moments_exact(DB, OSC, x), "temperature must be positive and finite"),
    "DiscreteBath.mode_frequencies": (lambda x: DiscreteBath(np.array([x]), np.array([0.1])), "must be finite"),
    "DiscreteBath.couplings": (lambda x: DiscreteBath(np.array([1.0]), np.array([x])), "must be finite"),
    "clausius_check.q": (lambda x: clausius_check(x, 0.0, 1.0), "must be finite"),
    "clausius_check.ds": (lambda x: clausius_check(0.0, x, 1.0), "must be finite"),
    "clausius_check.temperature": (lambda x: clausius_check(0.0, 0.0, x), "temperature must be positive and finite"),
    "landauer_bound.entropy": (lambda x: landauer_bound(x, 1.0), "entropy must be non-negative and finite"),
    "landauer_bound.temperature": (lambda x: landauer_bound(1.0, x), "temperature must be positive and finite"),
    "DensityMatrix": (lambda x: DensityMatrix(np.array([[1.0, 0.0], [0.0, x]])), "must be finite"),
    "Ensemble.probabilities": (lambda x: Ensemble(np.array([0.5, x]), BB84.states), "non-negative and sum to 1"),
    "Povm": (lambda x: Povm((np.diag([1.0, x]), np.diag([0.0, 1.0]))), "must be finite"),
    "erasure_budget": (lambda x: erasure_budget(BB84, x), "temperature must be positive and finite"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(CALLS))
def test_non_finite_input_raises(name, value):
    call, message = CALLS[name]
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(4.0), True, "8"], ids=repr)
def test_sample_bath_refuses_a_mode_count_that_is_not_an_integer(count):
    # 2.5 modes up to 10 would space them by 4 and return [4, 8, 12]
    with pytest.raises(ValueError, match="mode_count must be a positive integer"):
        sample_bath(BATH, OSC, count, 10.0)


@pytest.mark.parametrize("count", [8, np.int64(8)], ids=repr)
def test_sample_bath_takes_python_and_numpy_integers(count):
    assert np.array_equal(sample_bath(BATH, OSC, count, 10.0).mode_frequencies, 1.25 * np.arange(1, 9))
