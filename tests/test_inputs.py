"""Every public constructor and function refuses a NaN or infinite physical
input with ValueError, before any arithmetic on it can warn or return a
value built from it; an accepted input at the edge of the float range ends
in a value or in NumericalFailure, with no numpy warning."""

import math
import warnings

import numpy as np
import pytest

from clausius_lab import (
    BathSpec,
    Constants,
    DensityMatrix,
    DiscreteBath,
    Ensemble,
    Moments,
    NumericalFailure,
    OscillatorParams,
    Povm,
    ProcessPath,
    accessible_info_lower,
    clausius_check,
    composed_process,
    convergence_report,
    coupling_free_energy,
    entropy,
    erasure_budget,
    landauer_bound,
    mass_process,
    moments_matsubara,
    moments_spectral,
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
    "sample_bath.mode_count": (lambda x: sample_bath(BATH, OSC, x, 10.0), "mode_count must be an integer >= 1"),
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


# each count with the value n in it, its name and its minimum
COUNTS = {
    "sample_bath.mode_count": (lambda n: sample_bath(BATH, OSC, n, 10.0), "mode_count", 1),
    "accessible_info_lower.effort": (lambda n: accessible_info_lower(BB84, n), "effort", 2),
    "ProcessPath.grid_points": (lambda n: ProcessPath("mass", 1.0, 2.0, n), "grid_points", 9),
    "convergence_report.rung": (lambda n: convergence_report(OSC, BATH, [n]), "mode_count", 1),
}


@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(9.0), math.nan, True, "8", "below"], ids=repr)
@pytest.mark.parametrize("name", list(COUNTS))
def test_every_count_refuses_what_is_not_an_integer_at_its_minimum(name, value):
    # 2.5 modes up to 10 would space them by 4 and return [4, 8, 12]
    call, field, minimum = COUNTS[name]
    with pytest.raises(ValueError, match=f"{field} must be an integer >= {minimum}, got"):
        call(minimum - 1 if value == "below" else value)


@pytest.mark.parametrize("name", list(COUNTS))
def test_every_count_takes_a_numpy_integer(name):
    COUNTS[name][0](np.int64(9))  # at or above every minimum, and odd


@pytest.mark.parametrize("count", [8, np.int64(8)], ids=repr)
def test_sample_bath_takes_python_and_numpy_integers(count):
    assert np.array_equal(sample_bath(BATH, OSC, count, 10.0).mode_frequencies, 1.25 * np.arange(1, 9))


def test_ensemble_refuses_probabilities_that_are_not_one_dimensional():
    # of the right size, so that the error would surface only in average_state
    with pytest.raises(ValueError, match="1-D"):
        Ensemble(np.array([[0.5, 0.5]]), BB84.states)


@pytest.mark.parametrize(
    "call, what", [(DensityMatrix, "density matrix"), (lambda m: Povm((m,)), "POVM element")], ids=["DensityMatrix", "Povm"]
)
def test_an_empty_operator_is_refused_by_name(call, what):
    with pytest.raises(ValueError, match=f"{what} must be square and non-empty"):
        call(np.zeros((0, 0)))


def _resolve(temperature, damping, cutoff, check=False):
    """The ``clausius-lab resolve`` computation, checked or not."""
    return composed_process(OSC, BathSpec(temperature, damping, cutoff), temperature, check_consistency=check)


# accepted inputs that ended in a traceback or a numpy warning: a damping that
# underflows every shift, a cutoff and a temperature at the bottom of the
# float range, a damping that moves the real root from wD = 10 to ~1e-30, a
# temperature whose nu1^2 overflows, and a checked path from gamma = 1e-16
EDGES = {
    "resolve --damping 5e-324": lambda: _resolve(1.0, 5e-324, 100.0),
    "moments_matsubara at T = wD = 1e-300": lambda: moments_matsubara(OSC, BathSpec(1e-300, 5e-324, 1e-300)),
    "moments_spectral at T = wD = 1e-300": lambda: moments_spectral(OSC, BathSpec(1e-300, 5e-324, 1e-300)),
    "resolve --temperature 1e-30 --damping 1e30 --cutoff 10": lambda: _resolve(1e-30, 1e30, 10.0),
    "resolve --temperature 1e300": lambda: _resolve(1e300, 1.0, 100.0),
    "moments_matsubara at T = 1e300": lambda: moments_matsubara(OSC, BathSpec(1e300, 1.0, 100.0)),
    "checked composed_process from gamma = 1e-16": lambda: _resolve(1e-3, 1e-16, 100.0, check=True),
}


# the flagship frequencies (w, T, gamma, wD) = (1, 0.05, 5, 100) scaled by
# 2^k at M = 1: from k = -400 c0 = w^2 wD underflows to 0, and at k = -350
# the gamma slopes of a checked op leave the float range
TINY_OPS = {
    "moments_matsubara": lambda o, b: moments_matsubara(o, b),
    "coupling_free_energy": lambda o, b: coupling_free_energy(o, b),
    "checked composed_process": lambda o, b: composed_process(o, b, b.temperature),
    "unchecked composed_process": lambda o, b: composed_process(o, b, b.temperature, check_consistency=False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-350, -400, -600, -800, -1000])
@pytest.mark.parametrize("op", list(TINY_OPS))
def test_frequencies_scaled_far_down_end_in_a_value_or_numerical_failure(op, k):
    w, t, g, wd = (math.ldexp(v, k) for v in (1.0, 0.05, 5.0, 100.0))
    o, b = OscillatorParams(mass=1.0, frequency=w), BathSpec(t, g, wd)
    try:
        TINY_OPS[op](o, b)
    except NumericalFailure:
        assert k < -350 or op == "checked composed_process"


# valid inputs whose moments leave float64's range: f1 ~ 1/M overflows at a
# subnormal mass, f2 ~ M kB T at M = 1e308, and at kB T / hbar w = 1e600
# coth(hbar w / 2 kB T) does; each raised ValueError from Moments, most after
# a numpy overflow warning, or ZeroDivisionError
BEYOND_RANGE = {
    "moments_matsubara at M = 1e-310": lambda: moments_matsubara(
        OscillatorParams(1e-310, 1.0), BathSpec(1.0, 0.5, 100.0)
    ),
    "moments_matsubara at M = 1e-310, gamma = 0": lambda: moments_matsubara(
        OscillatorParams(1e-310, 1.0), BathSpec(1.0, 0.0, 100.0)
    ),
    "moments_matsubara at M = 1e308": lambda: moments_matsubara(
        OscillatorParams(1e308, 1.0), BathSpec(1e3, 0.5, 100.0)
    ),
    "moments_matsubara at M = 5e-324, T = 1e20": lambda: moments_matsubara(  # M beta underflows to 0
        OscillatorParams(5e-324, 1.0), BathSpec(1e20, 0.5, 100.0)
    ),
    "moments_spectral at M = 1e308, gamma = 0": lambda: moments_spectral(
        OscillatorParams(1e308, 1.0), BathSpec(1e3, 0.0, 100.0)
    ),
    "thermal_moments_decoupled at M = 1e-320": lambda: thermal_moments_decoupled(OscillatorParams(1e-320, 1.0), 1.0),
    "thermal_moments_decoupled at T = 1e300, w = 1e-300": lambda: thermal_moments_decoupled(
        OscillatorParams(1.0, 1e-300), 1e300
    ),
}
# process ops whose moments at the mass left float64's range, which they
# refused; a state depends on the mass only through gamma, so each returns
# its value at M = 1
AT_ANY_MASS = {
    "unchecked composed_process at M = 1e-310": (1e-310, lambda o: composed_process(
        o, BathSpec(1.0, 0.5, 100.0), 1.0, check_consistency=False
    )),
    "mass_process onto a subnormal mass": (2.3339150426049084e-37, lambda o: mass_process(
        o, BathSpec(0.09, 0.0, 100.0), 0.09, mass_factor=1e-278
    )),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(BEYOND_RANGE))
def test_moments_beyond_the_float_range_are_refused(name):
    with pytest.raises(NumericalFailure, match="moments beyond float64's range") as info:
        BEYOND_RANGE[name]()
    assert "np." not in str(info.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(AT_ANY_MASS))
def test_a_process_op_whose_moments_leave_the_float_range_at_its_mass_books_its_unit_mass_value(name):
    mass, op = AT_ANY_MASS[name]
    assert op(OscillatorParams(mass, 1.0)) == op(OscillatorParams(1.0, 1.0))


@pytest.mark.parametrize("name", list(EDGES))
def test_an_input_at_the_edge_of_the_float_range_ends_in_a_value_or_numerical_failure(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "Drude cutoff .* is below 10x", UserWarning)
        try:
            EDGES[name]()
        except NumericalFailure as failure:
            assert "np." not in str(failure)  # its diagnostics print as Python scalars
