"""Unit tests for entropy/heat process integration."""

import dataclasses
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import clausius_lab.bath as bath
import clausius_lab.process as process
from clausius_lab import (
    BathSpec,
    Constants,
    EntropyChange,
    NumericalFailure,
    OscillatorParams,
    ProcessPath,
    clausius_check,
    composed_process,
    coupling_free_energy,
    coupling_process,
    entropy_change,
    heat,
    landauer_bound,
    mass_process,
    mean_energy,
    moments_matsubara,
    moments_spectral,
)

C = Constants()
OSC = OscillatorParams(mass=1.0, frequency=1.0)


def work_integral_heat(b, mass_factor):
    """[DERIVED] independent referee for the mass step M = 1 -> mass_factor:
    Q = dU - int <dH_S/dM> dM, with <dH_S/dM> = w^2 f1/2 - f2/2M^2 from the
    moments at fixed microscopic coupling, integrated by adaptive quadrature.
    Returns the heat and the quadrature's error estimate."""

    def state(mass):
        osc = OscillatorParams(mass=mass, frequency=1.0)
        bath = BathSpec(temperature=b.temperature, damping=b.damping / mass, cutoff=b.cutoff)
        return moments_matsubara(osc, bath, C), osc

    def work_rate(mass):
        m, _ = state(mass)
        return m.f1 / 2 - m.f2 / (2 * mass**2)

    # at high T the two terms of the integrand nearly cancel (equipartition),
    # so the absolute tolerance scales with T
    work, work_err = quad(
        work_rate, 1.0, mass_factor, epsabs=1e-12 * max(1.0, b.temperature), epsrel=1e-12, limit=200
    )
    du = mean_energy(*state(mass_factor)) - mean_energy(*state(1.0))
    return du - work, work_err


def _log_spread_points(n=20, seed=20261018):
    """n points spread in log T over [1e-3, 1e3], log gamma over [1e-3, 50] and
    log wD over [10, 1000], one per stratum of each, mass factors 0.5/1.5/4."""
    rng = np.random.default_rng(seed)
    cols = []
    for lo, hi in ((1e-3, 1e3), (1e-3, 50.0), (10.0, 1000.0)):
        u = (rng.permutation(n) + rng.random(n)) / n
        cols.append(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    factors = (0.5, 1.5, 4.0)
    return [(float(t), float(g), float(wd), factors[i % 3]) for i, (t, g, wd) in enumerate(zip(*cols))]


class TestProcessPath:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown path parameter 'cutoff'"):
            ProcessPath("cutoff", 0.0, 1.0)

    @pytest.mark.parametrize(
        "start, end", [(0.0, 2.0), (1.0, math.nan), (math.nan, 2.0), (1.0, math.inf), (-math.inf, 2.0)]
    )
    def test_rejects_nonpositive_mass(self, start, end):
        with pytest.raises(ValueError):
            ProcessPath("mass", start, end)

    def test_rejects_even_or_tiny_grids(self):
        # 8 and 7 fall below the minimum first; 10 reaches the parity check
        with pytest.raises(ValueError, match="integer >= 9"):
            ProcessPath("damping", 0.0, 1.0, grid_points=8)
        with pytest.raises(ValueError, match="integer >= 9"):
            ProcessPath("damping", 0.0, 1.0, grid_points=7)
        with pytest.raises(ValueError, match="must be odd, got 10"):
            ProcessPath("damping", 0.0, 1.0, grid_points=10)

    def test_values_span_the_path(self):
        path = ProcessPath("damping", 0.0, 2.0, 9)
        assert path.values[0] == 0.0 and path.values[-1] == 2.0
        assert len(path.values) == 9


class TestEntropyChange:
    def test_endpoint_and_quadrature_agree_on_damping_path(self):
        path = ProcessPath("damping", 0.5, 3.0, 9)
        b = BathSpec(temperature=1.0, damping=3.0, cutoff=50.0)
        result = entropy_change(path, OSC, b, C, check_consistency=True)
        assert result.mismatch < 1e-5 * max(1.0, abs(result.value))

    def test_endpoint_and_quadrature_agree_on_mass_path(self):
        path = ProcessPath("mass", 1.0, 2.0, 9)
        b = BathSpec(temperature=0.2, damping=5.0, cutoff=100.0)
        result = entropy_change(path, OSC, b, C, check_consistency=True)
        assert result.mismatch < 1e-5 * max(1.0, abs(result.value))

    def test_null_path_is_zero(self):
        path = ProcessPath("damping", 1.0, 1.0, 9)
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=50.0)
        result = entropy_change(path, OSC, b, C)
        assert result.value == 0.0

    def test_reports_error_estimate_and_node_count(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        result = entropy_change(ProcessPath("damping", 0.0, 5.0), OSC, b, C)
        assert 0 < result.error_estimate < 1e-5
        assert result.evaluations > 0
        unchecked = entropy_change(ProcessPath("damping", 0.0, 5.0), OSC, b, C, check_consistency=False)
        assert unchecked.error_estimate == 0.0 and unchecked.evaluations == 0

    def test_path_one_ulp_long(self):
        # every tanh-sinh node rounds onto an end: the quadrature is 0, and the
        # endpoints' rounding still bounds the mismatch
        b = BathSpec(temperature=0.5, damping=1.0, cutoff=50.0)
        result = entropy_change(ProcessPath("damping", 1.0, math.nextafter(1.0, 2.0)), OSC, b, C)
        assert result.evaluations == 0
        assert result.mismatch <= result.error_estimate

    def test_an_overflowing_extrapolation_leaves_no_warning(self):
        # the error estimate's extrapolation d1^(ln d1 / ln d2) overflows
        # where d1 >> d2 > 1, and numpy warned (found by a seeded scan). One
        # level-0 node (value a) and one level-1 node (value b) on [-1, 1]
        # give the level sums S0 = 4A, S1 = 2(A + B) and S2 = A + B, with
        # A = a w_a h and B = b w_b h at level 2's step h, so d1 = |S2 - S1|
        # = A + B and d2 = |S2 - S0| = B - 3A
        xc, w = process._ts_level(2)
        h = process._TS_H0 / 4
        d1, d2 = 1e10, 1.5
        big_a = (d1 - d2) / 4
        assert math.log(d1) ** 2 / math.log(d2) > math.log(np.finfo(float).max)
        values = {1 - xc[1]: big_a / (w[1] * h), 1 - xc[9]: (d1 - big_a) / (w[9] * h)}
        calls = []

        def f(x):  # the two nodes of the first call take their values, every other node 0
            calls.append(x)
            if len(calls) > 1:
                return np.zeros_like(x), np.zeros_like(x), 0.0
            assert all((x == node).sum() == 1 for node in values)
            return np.array([values.get(node, 0.0) for node in x.tolist()]), np.zeros_like(x), 0.0

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, error, _, _, status = process._tanh_sinh(-1.0, 1.0, f)
        assert status == -2 and math.isfinite(error)

    @pytest.mark.parametrize(
        "a, b, f, exact",
        [(0.0, 1.0, np.log, -1.0), (0.0, 1.0, lambda x: x**-0.5, 2.0), (1.0, 0.0, np.log, 1.0)],
        ids=["log", "inverse-sqrt", "reversed-log"],
    )
    def test_the_quadrature_integrates_end_singularities_within_its_bound(self, a, b, f, exact):
        # integrable singularities at an end, where the nodes crowd: levels 0
        # to 2, in one call of the integrand, converge within their bound, and
        # a unit integrand error propagates as the rule's integral of 1
        calls = []

        def integrand(x):
            calls.append(x)
            return f(x), np.ones_like(x), process._CONSISTENCY_TOL

        value, error, propagated, evaluations, status = process._tanh_sinh(a, b, integrand)
        assert status == 0 and len(calls) == 1 and evaluations == calls[0].size
        assert abs(value - exact) <= error
        assert propagated == pytest.approx(1.0, rel=1e-12)

    def test_a_check_over_a_wide_log_range_converges(self):
        # the seeded point whose extrapolation overflowed: it refused while
        # S'(v) lost its digits at large v, and converges since
        o = OscillatorParams(mass=510.69075010618815, frequency=6.650421822015448)
        b = BathSpec(temperature=4.939676814265822e-06, damping=8.705118584343034e73, cutoff=4.225002756874213e40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entropy_change(ProcessPath("damping", 0.0, b.damping), o, b, C)
        assert result.value == pytest.approx(58.5989, rel=1e-6)
        assert result.mismatch <= result.error_estimate < 1e-5

    @pytest.mark.parametrize("damping", [1e50, 1e100, 1e195])
    def test_strong_damping_paths_pass_their_checks(self, damping):
        # v grows past 1e16 along these paths, where the difference form of
        # S(v) returned 0 and its log ratio S'(v) kept ~16 - log10 v digits,
        # so each check refused
        b = BathSpec(temperature=1.0, damping=damping, cutoff=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entropy_change(ProcessPath("damping", 0.0, damping), OSC, b, C)
        assert result.mismatch <= result.error_estimate <= 1e-5 * result.value

    def test_nodes_where_v_rounds_onto_one_half_keep_the_estimate_finite(self):
        # near gamma = 0 at low temperature v rounds onto 1/2 at some nodes;
        # below a floor of float64's spacing there, the estimate's log
        # factor would be infinite
        b = BathSpec(temperature=0.01, damping=0.3, cutoff=200.0)
        result = entropy_change(ProcessPath("damping", 0.0, b.damping), OSC, b, C)
        assert result.mismatch <= result.error_estimate < 1e-6

    def test_reversed_mass_path_negates_quadrature(self):
        b = BathSpec(temperature=0.2, damping=5.0, cutoff=100.0)
        up = entropy_change(ProcessPath("mass", 1.0, 2.0), OSC, b, C)
        down = entropy_change(ProcessPath("mass", 2.0, 1.0), OSC, b, C)
        assert down.value == -up.value
        assert down.quadrature == pytest.approx(-up.quadrature, rel=1e-12)

    @pytest.mark.parametrize(
        "fake, status",
        [
            (lambda x: np.full_like(x, np.nan), -3),  # a non-finite integrand
            (lambda x: np.sin(1e4 * x), -2),  # no convergence by the last level
        ],
    )
    def test_quadrature_failure_raises_with_diagnostics(self, monkeypatch, fake, status):
        # a kernel whose every point has f1 = f2 = df2/dgamma = 1, exactly,
        # and df1/dgamma = fake(gamma)
        def kernel(damping, *args, nodes=(), **kwargs):
            ones = np.ones_like(nodes)
            return np.ones(len(damping)), np.ones(len(damping)), [0.0, 0.0], bath._Slopes(
                ones, ones, fake(nodes), ones, *(0 * ones,) * 4
            )

        monkeypatch.setattr(process, "_matsubara_moments", kernel)
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=50.0)
        with pytest.raises(NumericalFailure, match="did not converge") as info:
            entropy_change(ProcessPath("damping", 0.0, 1.0), OSC, b, C)
        diagnostics = info.value.diagnostics
        assert diagnostics["status"] == status
        assert diagnostics["evaluations"] > 0
        assert {"integral", "error_estimate"} <= diagnostics.keys()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        log_t=st.floats(math.log(1e-3), math.log(1e2)),
        log_gamma=st.floats(math.log(1e-2), math.log(50.0)),
        log_cutoff=st.floats(math.log(10.0), math.log(1000.0)),
        mass_factor=st.one_of(st.none(), st.floats(0.5, 4.0)),
    )
    def test_check_agrees_or_raises(self, log_t, log_gamma, log_cutoff, mass_factor):
        # the README contract for the check, on damping paths from 0 (None)
        # and on mass paths: agreement within its gate and within the error
        # estimate, or NumericalFailure
        b = BathSpec(temperature=math.exp(log_t), damping=math.exp(log_gamma), cutoff=math.exp(log_cutoff))
        if mass_factor is None:
            path = ProcessPath("damping", 0.0, b.damping)
        else:
            path = ProcessPath("mass", 1.0, mass_factor)
        try:
            result = entropy_change(path, OSC, b, C)
        except NumericalFailure:
            return
        assert result.mismatch <= 1e-5 * max(1.0, abs(result.value))
        assert result.mismatch <= result.error_estimate


class TestHeat:
    def test_null_path_is_zero(self):
        path = ProcessPath("mass", 1.0, 1.0, 9)
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=50.0)
        q = heat(path, OSC, b, C)
        assert q.value == 0.0 and q.error_estimate == 0.0

    def test_grid_halving_stays_within_error_estimate(self):
        b = BathSpec(temperature=0.2, damping=5.0, cutoff=100.0)
        coarse = heat(ProcessPath("mass", 1.0, 2.0, 9), OSC, b, C)
        fine = heat(ProcessPath("mass", 1.0, 2.0, 17), OSC, b, C)
        assert abs(fine.value - coarse.value) <= coarse.error_estimate

    @pytest.mark.parametrize("temperature, damping, cutoff, mass_factor", _log_spread_points())
    def test_mass_heat_matches_work_integral(self, temperature, damping, cutoff, mass_factor):
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        q = heat(ProcessPath("mass", 1.0, mass_factor), OSC, b, C)
        ref, ref_err = work_integral_heat(b, mass_factor)
        assert ref_err <= q.error_estimate
        assert abs(q.value - ref) <= q.error_estimate + ref_err

    def test_grid_selects_nothing(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        results = {heat(ProcessPath("mass", 1.0, 2.0, n), OSC, b, C) for n in (9, 17, 65)}
        assert len(results) == 1

    def test_mass_heat_positive_at_low_temperature(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        q = heat(ProcessPath("mass", 1.0, 2.0, 9), OSC, b, C)
        assert q.value > 0


class TestClausiusCheck:
    def test_satisfied_case(self):
        report = clausius_check(q=-1.0, ds=0.5, temperature=1.0, c=C)
        assert report.clausius_satisfied and report.slack > 0

    def test_violated_case(self):
        report = clausius_check(q=1.0, ds=-0.5, temperature=1.0, c=C)
        assert not report.clausius_satisfied and report.slack < 0

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            clausius_check(0.0, 0.0, 0.0, C)


class TestLandauer:
    def test_one_bit(self):
        assert landauer_bound(math.log(2), 1.0, C) == pytest.approx(math.log(2), abs=1e-15)

    def test_scales_with_temperature(self):
        assert landauer_bound(1.0, 3.0, C) == pytest.approx(3.0)

    def test_rejects_negative_entropy(self):
        with pytest.raises(ValueError):
            landauer_bound(-0.1, 1.0, C)


    @pytest.mark.parametrize(
        "temperature, damping, cutoff",
        [(t, g, wd) for t in (0.05, 0.2, 1.0, 5.0, 20.0) for g in (0.1, 1.0, 5.0, 10.0) for wd in (50.0, 200.0)],
    )
    def test_damping_heat_is_the_switch_on_heat(self, temperature, damping, cutoff):
        # one convention on both routes: a change of coupling does work dF_MF
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        q = heat(ProcessPath("damping", 0.0, damping), OSC, b, C)
        assert q.value == coupling_process(OSC, b, temperature, C, check_consistency=False).heat


class TestCouplingProcess:
    def test_entropy_up_heat_out_at_low_temperature(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        report = coupling_process(OSC, b, 0.05, C, check_consistency=False)
        assert report.delta_entropy > 0
        assert report.heat < 0
        assert report.clausius_satisfied

    def test_null_at_zero_damping(self):
        b = BathSpec(temperature=1.0, damping=0.0, cutoff=100.0)
        report = coupling_process(OSC, b, 1.0, C, check_consistency=False)
        assert report.delta_entropy == 0.0
        assert report.heat == 0.0


class TestMassProcess:
    def test_apparent_violation_at_low_temperature_strong_coupling(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        report = mass_process(OSC, b, 0.05, C, mass_factor=2.0, check_consistency=False)
        assert report.delta_entropy < 0
        assert report.heat > 0
        assert not report.clausius_satisfied

    def test_null_at_zero_damping(self):
        # decoupled, the mass sweep changes neither entropy nor heat
        b = BathSpec(temperature=1.0, damping=0.0, cutoff=100.0)
        report = mass_process(OSC, b, 1.0, C, mass_factor=2.0, check_consistency=False)
        assert report.delta_entropy == pytest.approx(0.0, abs=1e-12)
        assert report.heat == 0.0

    @pytest.mark.filterwarnings("ignore:Drude cutoff")
    @pytest.mark.parametrize("temperature", [0.01, 1.0])
    def test_mass_step_onto_triple_root(self, temperature):
        # the end point M = 2, gamma = 8 sqrt(3)/9 at wD = 3 sqrt(3) is a
        # triple root of the Drude denominator
        b = BathSpec(temperature=temperature, damping=16 * math.sqrt(3) / 9, cutoff=3 * math.sqrt(3))
        report = mass_process(OSC, b, temperature, C, mass_factor=2.0, check_consistency=False)
        q = heat(ProcessPath("mass", 1.0, 2.0), OSC, b, C)
        ref, ref_err = work_integral_heat(b, 2.0)
        assert report.heat == q.value
        assert abs(q.value - ref) <= q.error_estimate + ref_err

    @pytest.mark.parametrize("mass_factor", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_nonpositive_mass_factor(self, mass_factor):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=100.0)
        with pytest.raises(ValueError, match="mass_factor must be positive and finite"):
            mass_process(OSC, b, 1.0, C, mass_factor=mass_factor)

    def test_out_of_range_damping_raises_before_anything_overflows(self):
        # the end point's gamma / k = 5e300 is beyond the closed form's range
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="damping") as info:
                mass_process(OSC, b, 0.05, C, mass_factor=1e-300)
        assert info.value.diagnostics["damping"] == pytest.approx(5e300)


class TestComposedProcess:
    def test_totals_restore_clausius(self):
        b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
        total = composed_process(OSC, b, 0.05, C, mass_factor=2.0, check_consistency=False)
        assert total.delta_entropy >= -1e-9
        assert total.heat <= 1e-9
        assert total.clausius_satisfied

    def test_totals_are_sums_of_steps(self):
        b = BathSpec(temperature=0.2, damping=1.0, cutoff=50.0)
        step1 = coupling_process(OSC, b, 0.2, C, check_consistency=False)
        step2 = mass_process(OSC, b, 0.2, C, mass_factor=2.0, check_consistency=False)
        total = composed_process(OSC, b, 0.2, C, mass_factor=2.0, check_consistency=False)
        assert total.delta_entropy == pytest.approx(step1.delta_entropy + step2.delta_entropy, abs=1e-12)
        assert total.heat == pytest.approx(step1.heat + step2.heat, abs=1e-12)

    def test_coupling_first_restores_clausius_wherever_the_mass_step_violates_it(self):
        # the paper's claim over a log-wide scan at M = w = 1: no op refuses,
        # the mass step alone books Q > kB T dS at some points, and the
        # composed process satisfies the inequality at every point
        rng = random.Random(38)

        def draw(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        violations = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                t = draw(1e-3, 1e3)
                b, k = BathSpec(t, draw(1e-4, 1e3), draw(10.0, 1e3)), draw(1e-2, 1e2)
                mass_step = mass_process(OSC, b, t, C, k, check_consistency=False)
                total = composed_process(OSC, b, t, C, k, check_consistency=False)
                assert total.clausius_satisfied, (b, k, total)
                violations += mass_step.slack < -process.CLAUSIUS_TOL
        assert violations > 0


@pytest.mark.parametrize("op", [coupling_process, mass_process, composed_process])
def test_temperature_other_than_the_baths_raises(op):
    # the bath carries the temperature; a second, different one is an error
    b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
    with pytest.raises(ValueError, match="temperature"):
        op(OSC, b, 1.0, C, check_consistency=False)
    assert op(OSC, b, 0.05, C, check_consistency=False) == op(OSC, b, b.temperature, C, check_consistency=False)


@pytest.mark.parametrize(
    "op",
    [
        lambda b: composed_process(OSC, b, b.temperature, C),
        lambda b: coupling_process(OSC, b, b.temperature, C),
        lambda b: mass_process(OSC, b, b.temperature, C),
        lambda b: heat(ProcessPath("mass", 1.0, 2.0), OSC, b, C),
        lambda b: entropy_change(ProcessPath("damping", 0.0, b.damping), OSC, b, C),
        lambda b: moments_matsubara(OSC, b, C),
        lambda b: moments_spectral(OSC, b, C),
        lambda b: coupling_free_energy(OSC, b, C),
    ],
    ids=[
        "composed_process",
        "coupling_process",
        "mass_process",
        "heat",
        "entropy_change",
        "moments_matsubara",
        "moments_spectral",
        "coupling_free_energy",
    ],
)
def test_narrow_band_warning_is_one_per_call_and_points_at_the_caller(op):
    # the checked ops evaluate the kernel at many nodes; the warning is the
    # call's, not each node's
    b = BathSpec(temperature=1.0, damping=1.0, cutoff=5.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op(b)
    assert [(str(w.message)[:12], w.filename) for w in caught] == [("Drude cutoff", __file__)]


def test_a_checked_op_takes_the_states_of_an_unchecked_one():
    # near critical damping the coupled point's root pair lies between the
    # two close-pair thresholds: a state that took the slopes' threshold
    # would sum the pair on the circle, and round differently
    b = BathSpec(temperature=0.05, damping=1.98, cutoff=100.0)
    _, x, y, m, _ = bath._drude_poles(np.array([1.0]), b.cutoff, np.array([b.damping]))
    assert bath._CONFLUENT < abs(x - y)[0] / (2 * math.pi * b.temperature + m[0]) < bath._CLOSE_PAIR
    points = np.array([0.0, b.damping, b.damping / 2])
    for check in [(0, 1), (1, 2), (0, 2)]:
        states, _ = process._states(points, OSC, b, C, check)
        assert states == process._states(points, OSC, b, C)[0]
    for op in (composed_process, mass_process, coupling_process):
        assert op(OSC, b, b.temperature, C) == op(OSC, b, b.temperature, C, check_consistency=False)


def _refusing_kernel(monkeypatch, refuse):
    """The process's kernel, patched to raise NumericalFailure(name) after a
    real call whenever refuse(damping, nodes, free_energy) gives a name."""
    kernel = process._matsubara_moments

    def fake(damping, *args, free_energy=False, nodes=()):
        out = kernel(damping, *args, free_energy=free_energy, nodes=nodes)
        name = refuse(np.asarray(damping), np.asarray(nodes), free_energy)
        if name:
            raise NumericalFailure(name)
        return out

    monkeypatch.setattr(process, "_matsubara_moments", fake)


FLAGSHIP = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)


@pytest.mark.parametrize(
    "state_damping, message, at",
    [
        (5e-324, "free-energy closed form lost its accuracy", {"damping": 5e-324}),
        (0.5, "moments beyond float64's range", {"damping": 0.25, "temperature": 1e3}),
    ],
    ids=["state", "node"],
)
def test_a_refusing_state_is_raised_before_a_refusing_node(state_damping, message, at):
    # the states share a kernel call with the checks' first nodes, and are
    # gated first, free energies included: the state's free energy cancels
    # at gamma = 5e-324, and the node's f1 ~ kB T / w^2 leaves float64's
    # range at w = 1e-153; each refusal names its own row
    with pytest.raises(NumericalFailure, match=message) as info:
        bath._matsubara_moments([state_damping], [1.0, 1e-153], 100.0, 1e3, C, free_energy=True, nodes=[0.25])
    assert info.value.diagnostics.items() >= at.items()


def test_a_refusal_costs_no_further_kernel_call(monkeypatch):
    # a check that refuses in the shared call is raised from it, with no
    # replay of the states or of the check
    calls = []

    def refuse(damping, nodes, free):
        calls.append(free)
        return "node" if nodes.size else None

    _refusing_kernel(monkeypatch, refuse)
    with pytest.raises(NumericalFailure, match="node"):
        entropy_change(ProcessPath("damping", 0.0, FLAGSHIP.damping), OSC, FLAGSHIP, C)
    assert calls == [True]


def _kernel_calls(monkeypatch):
    """The process's kernel, patched to record each call's states and nodes, as dampings."""
    calls = []
    kernel = process._matsubara_moments

    def record(damping, *args, free_energy=False, nodes=()):
        calls.append((np.asarray(damping), np.asarray(nodes)))
        return kernel(damping, *args, free_energy=free_energy, nodes=nodes)

    monkeypatch.setattr(process, "_matsubara_moments", record)
    return calls


@pytest.mark.parametrize(
    "op, states, interval, rounds",
    [
        (lambda o, b: coupling_process(o, b, b.temperature, C), [0.0, 5.0], (0.0, 5.0), 2),
        (lambda o, b: mass_process(o, b, b.temperature, C, 2.0), [0.0, 5.0, 2.5], (5.0, 2.5), 1),
        (lambda o, b: composed_process(o, b, b.temperature, C, 2.0), [0.0, 5.0, 2.5], (0.0, 2.5), 1),
    ],
    ids=["coupling_process", "mass_process", "composed_process"],
)
def test_each_op_checks_the_one_entropy_change_it_reports(monkeypatch, op, states, interval, rounds):
    # the coupling step checks 0 -> gamma, the mass step gamma -> gamma/k,
    # and their composition, the switch-on to gamma/k, 0 -> gamma/k: no node
    # lies outside the op's interval (for k = 2 none in (gamma/2, gamma)),
    # and a node's refusal belongs to the op's one check. The first kernel
    # call takes the op's states, each damping once, and the check's levels
    # 0 to 2; at the flagship the switch-on to gamma/2 converges there. The
    # coupling op takes two states, the bare and the coupled one
    calls = _kernel_calls(monkeypatch)
    op(OSC, FLAGSHIP)
    assert len(calls) == rounds
    damping, nodes = calls[0]
    first = []
    process._tanh_sinh(*interval, lambda x: first.append(x) or (np.zeros_like(x), np.zeros_like(x), 0.0))
    assert damping.tolist() == states
    assert nodes.tolist() == first[0].tolist()
    lo, hi = sorted(interval)
    for damping, nodes in calls[1:]:
        assert damping.size == 0 and ((lo < nodes) & (nodes < hi)).all()


def _outcome(op):
    """op()'s result, or the message of the NumericalFailure it raised."""
    try:
        return op()
    except NumericalFailure as e:
        return str(e)


def _bits(outcome):
    """An ``_outcome``'s fields, each float as float.hex, or its refusal's message."""
    if isinstance(outcome, str):
        return outcome
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(outcome))


@pytest.mark.parametrize("damping", [1.0, 1e-3, 0.0])
@pytest.mark.parametrize("mass, factor", [(1e200, 1e200), (1e-200, 1e-200)], ids=["overflow", "underflow"])
def test_an_end_mass_past_float64s_range_books_the_unit_mass_op(mass, factor, damping):
    # a valid mass and mass factor whose product leaves float64's range are
    # no bad input, and no state depends on the mass: the op returns its bits
    # at M = 1, checked or not, coupled or not, and without a numpy warning,
    # for a numpy factor too. At gamma = 1 the underflow's gamma/k = 1e200
    # lies beyond the closed form's range at either mass
    o, b = OscillatorParams(mass, 1.0), BathSpec(1.0, damping, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ops = itertools.product((mass_process, composed_process), (True, False), (factor, np.float64(factor)))
        for op, checked, k in ops:
            at_mass = _outcome(lambda: op(o, b, b.temperature, C, k, checked))
            assert isinstance(at_mass, str) == (damping == 1.0 and factor < 1)
            assert _bits(at_mass) == _bits(_outcome(lambda: op(OSC, b, b.temperature, C, k, checked)))


def _ops_at(o, b, k):
    """Every process op at (o, b), with the mass factor k, as zero-argument functions."""
    mass_path, damping_path = ProcessPath("mass", o.mass, o.mass * k), ProcessPath("damping", 0.0, b.damping)
    ops = [lambda: heat(mass_path, o, b, C), lambda: heat(damping_path, o, b, C)]
    for checked in (True, False):
        ops += [
            lambda ch=checked: coupling_process(o, b, b.temperature, C, ch),
            lambda ch=checked: mass_process(o, b, b.temperature, C, k, ch),
            lambda ch=checked: composed_process(o, b, b.temperature, C, k, ch),
            lambda ch=checked: entropy_change(mass_path, o, b, C, ch),
            lambda ch=checked: entropy_change(damping_path, o, b, C, ch),
        ]
    return ops


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    mass=st.floats(0.5, 2.0),
    j=st.integers(-300, 300),
    log_t=st.floats(math.log(0.05), math.log(20.0)),
    log_gamma=st.floats(math.log(0.1), math.log(10.0)),
    log_cutoff=st.floats(math.log(50.0), math.log(200.0)),
    k=st.floats(0.5, 4.0),
)
def test_every_process_op_books_the_same_bits_at_2_to_the_j_times_the_mass(mass, j, log_t, log_gamma, log_cutoff, k):
    # a state depends on the mass only through gamma, and a mass path's
    # gamma = gamma_ref M_ref / M is the same at 2^j M: every op returns the
    # same bits, or refuses alike
    b = BathSpec(math.exp(log_t), math.exp(log_gamma), math.exp(log_cutoff))
    ops = zip(_ops_at(OscillatorParams(mass, 1.0), b, k), _ops_at(OscillatorParams(math.ldexp(mass, j), 1.0), b, k))
    for op, scaled in ops:
        assert _bits(_outcome(op)) == _bits(_outcome(scaled))


@pytest.mark.parametrize("mass, damping, k", [(3.0, 0.1, 2.0), (3.0, 0.1, 3.0), (1.7, 2.3, 2.0)])
@pytest.mark.parametrize("checked", [True, False])
def test_a_mass_path_books_the_mass_step_of_its_bath(mass, damping, k, checked):
    # the path M -> kM starts at the bath's own damping: gamma_ref M_ref / M
    # formed as M gamma_ref / M rounded there (0.10000000000000002 at M = 3,
    # gamma = 0.1), and the path's dS and Q missed the mass step's
    o, b = OscillatorParams(mass, 1.0), BathSpec(0.05, damping, 100.0)
    path = ProcessPath("mass", mass, k * mass)
    step = mass_process(o, b, b.temperature, C, k, checked)
    assert entropy_change(path, o, b, C, checked).value == step.delta_entropy
    assert heat(path, o, b, C).value == step.heat


@pytest.mark.parametrize("start", [1e-20, 1e-30])
@pytest.mark.parametrize("damping", [1e-300, 0.0])
def test_a_mass_path_far_below_the_oscillators_mass_books_its_own_dampings(start, damping):
    # at M = 1e300 the path's x / M is subnormal at x = 1e-20, where
    # gamma_ref / (x / M) was 1.1e-5 off, and 0 at 1e-30, where it was 0 / 0
    # at gamma_ref = 0: the path books what a path from the oscillator's own
    # mass books at the same dampings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        o, b = OscillatorParams(1e300, 1.0), BathSpec(1.0, damping, 100.0)
        far = heat(ProcessPath("mass", start, 2 * start), o, b, C)
        near = heat(ProcessPath("mass", 1.0, 2.0), OSC, BathSpec(1.0, 1e300 * damping / start, 100.0), C)
    assert far == near


@pytest.mark.parametrize(
    "mass, factor, temperature",
    [
        (1.0, 2.0, 1.0),
        (1e200, 2.0, 1.0),
        (1e-150, 1e100, 1.0),
        (9070.812438327463, 5.871317811099815e-161, 874.1620596799991),
    ],
)
def test_an_uncoupled_mass_path_is_the_gibbs_state_at_any_cutoff(mass, factor, temperature):
    # at gamma = 0 every point of a mass path is decoupled, and a check's
    # damping interval is null: each checked op is its unchecked op, with
    # dS = 0 and Q = 0, and every row of the sweep books no heat, at a cutoff
    # beyond the closed form's range as at wD = 100. At M = 1e200 and at the
    # last point the mass chain rule's df1/dM = -f1/M left float64's range:
    # the first was refused, and at the second numpy warned before the
    # quadrature refused
    o = OscillatorParams(mass=mass, frequency=1.0)
    path = ProcessPath("mass", mass, mass * factor)
    null = process.ThermoReport(0.0, 0.0, True, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cutoff in (100.0, 1e200):
            b = BathSpec(temperature=temperature, damping=0.0, cutoff=cutoff)
            for op in (mass_process, composed_process):
                assert op(o, b, b.temperature, C, factor) == op(o, b, b.temperature, C, factor, False) == null
            assert entropy_change(path, o, b, C) == entropy_change(path, o, b, C, False) == EntropyChange(0.0, 0.0)
            assert [q.value for q in process._sweep(path, o, b, C)[-1]] == [0.0] * path.grid_points


def test_an_overflowing_mass_path_refuses_without_a_warning():
    # gamma = gamma_ref M_ref / M overflows to inf at the path's end, and
    # numpy warned before the kernel refused it
    o, b = OscillatorParams(1.0, 1.0), BathSpec(1.0, 1e10, 100.0)
    path = ProcessPath("mass", 1.0, 1e-300)
    ops = [
        lambda: mass_process(o, b, b.temperature, C, 1e-300),
        lambda: mass_process(o, b, b.temperature, C, 1e-300, check_consistency=False),
        lambda: heat(path, o, b, C),
        lambda: process._sweep(path, o, b, C),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in ops:
            with pytest.raises(NumericalFailure, match="damping beyond the closed form's range") as info:
                op()
            assert info.value.diagnostics["damping"] == math.inf


def test_a_heat_rate_past_float64s_range_is_refused_at_its_row():
    # at M = 2e-229 the mass path's gamma is 3e161, and its rate dgamma/dM =
    # -gamma/M overflows
    path = ProcessPath("mass", 1.0, 2e-229)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="heat rate beyond float64's range") as info:
            process._sweep(path, OSC, BathSpec(1.0, 6e-68, 100.0), C)
    assert info.value.diagnostics == {"row": 8, "alpha": 2e-229}


DAMPED_GRID = [
    BathSpec(t, g, wd) for t in (0.05, 0.2, 1.0, 5.0, 20.0) for g in (0.1, 1.0, 5.0, 10.0) for wd in (50.0, 200.0)
]


@pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
def test_the_mass_step_is_the_damping_step_to_gamma_over_k(k):
    # f1 ~ 1/M and f2 ~ M at fixed gamma, so S, U and the work potential
    # depend on (M, gamma) only through gamma: M -> kM books what gamma ->
    # gamma/k books, bit for bit at these powers of two, and the composed
    # process is the switch-on to gamma/k
    for b in DAMPED_GRID:
        step = mass_process(OSC, b, b.temperature, C, k, check_consistency=False)
        path = ProcessPath("damping", b.damping, b.damping / k)
        assert step.delta_entropy == entropy_change(path, OSC, b, C, check_consistency=False).value
        assert step.heat == heat(path, OSC, b, C).value
        total = composed_process(OSC, b, b.temperature, C, k, check_consistency=False)
        switch_on = coupling_process(OSC, BathSpec(b.temperature, b.damping / k, b.cutoff), b.temperature, C, False)
        assert total.delta_entropy == pytest.approx(switch_on.delta_entropy, rel=1e-15)
        assert total.heat == pytest.approx(switch_on.heat, rel=1e-11)


@pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
def test_the_composed_ops_check_is_the_switch_on_check(k):
    # a checked composed op returns the unchecked op's bits or refuses, and
    # it passes exactly where the checked switch-on 0 -> gamma/k does
    for b in DAMPED_GRID:
        checked = _outcome(lambda: composed_process(OSC, b, b.temperature, C, k))
        switch_on = _outcome(lambda: entropy_change(ProcessPath("damping", 0.0, b.damping / k), OSC, b, C))
        assert isinstance(checked, str) == isinstance(switch_on, str)
        if not isinstance(checked, str):
            assert checked == composed_process(OSC, b, b.temperature, C, k, check_consistency=False)


@pytest.mark.parametrize("mass", [1.5, 3.0])
def test_the_mass_sweeps_heat_rate_is_the_derivative_of_the_heat(mass):
    # [DERIVED] the sweep's trapezoid over one step h from M gives the mean
    # of its rates dQ/dM at M and M + h, against a Richardson-extrapolated
    # central difference of the closed-form heat Q(M) = heat(1 -> M) at
    # M + h/2, which shares no derivative with the sweep
    b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
    h = 1e-7
    path = ProcessPath("mass", mass, mass + 8 * h)
    *_, heats = process._sweep(path, OSC, b, C)
    rate = heats[1].value / (path.values[1] - path.values[0])
    x = (path.values[0] + path.values[1]) / 2

    def central(d):
        up, dn = (heat(ProcessPath("mass", 1.0, x + e), OSC, b, C).value for e in (d, -d))
        return (up - dn) / (2 * d)

    assert rate == pytest.approx((4 * central(5e-4) - central(1e-3)) / 3, rel=1e-6)


def _drude_solves(monkeypatch, op):
    calls = []
    solve = bath._drude_poles
    monkeypatch.setattr(bath, "_drude_poles", lambda *args: calls.append(1) or solve(*args))
    op(BathSpec(temperature=0.05, damping=5.0, cutoff=100.0))
    return len(calls)


class TestOneRootSolvePerKernelCall:
    """Every unchecked op takes all its points' moments and free energies
    from one solve of their Drude cubics."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda b: composed_process(OSC, b, b.temperature, C, check_consistency=False),
            lambda b: mass_process(OSC, b, b.temperature, C, check_consistency=False),
            lambda b: coupling_process(OSC, b, b.temperature, C, check_consistency=False),
            lambda b: heat(ProcessPath("mass", 1.0, 2.0), OSC, b, C),
        ],
        ids=["composed_process", "mass_process", "coupling_process", "heat"],
    )
    def test_one_drude_solve_per_op(self, monkeypatch, op):
        assert _drude_solves(monkeypatch, op) == 1

    @pytest.mark.parametrize(
        "op, solves",
        [
            (lambda b: composed_process(OSC, b, b.temperature, C), 1),
            (lambda b: mass_process(OSC, b, b.temperature, C), 1),
            (lambda b: coupling_process(OSC, b, b.temperature, C), 2),
            (lambda b: entropy_change(ProcessPath("damping", 0.0, b.damping), OSC, b, C), 2),
        ],
        ids=["composed_process", "mass_process", "coupling_process", "entropy_change"],
    )
    def test_checks_solve_only_their_quadrature_levels(self, monkeypatch, op, solves):
        # at the flagship the tanh-sinh over gamma -> gamma/2 and over the
        # switch-on 0 -> gamma/2 converges on levels 0 to 2, and over 0 ->
        # gamma it takes level 3 too; the op's states share the first kernel
        # call with its check's levels 0 to 2, and each later call takes the
        # next level
        assert _drude_solves(monkeypatch, op) == solves
