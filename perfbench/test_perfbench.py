"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import itertools
import math
import signal
import sys
import time

import pytest

import calibrate
import referee
import run
import workloads as w
from tracer import Tracer

import clausius_lab
from clausius_lab import BathSpec, OscillatorParams, moments_matsubara

OSC = OscillatorParams(mass=1.0, frequency=1.0)
GRID = list(itertools.product(w.ACCEPTANCE_TEMPERATURES, w.ACCEPTANCE_DAMPINGS, w.ACCEPTANCE_CUTOFFS))


def test_referee_matches_matsubara_on_acceptance_grid():
    worst = 0.0
    for t, g, wd in GRID:
        m = moments_matsubara(OSC, BathSpec(t, g, wd))
        f1, f2 = referee.moments(1.0, 1.0, t, g, wd)
        worst = max(worst, abs(m.f1 - f1) / f1, abs(m.f2 - f2) / f2)
    assert worst <= w.MATSUBARA_TOL


@pytest.mark.parametrize("point", [(0.05, 5.0, 100.0), (1.0, 1.9596, 50.0), (20.0, 0.1, 200.0)])
def test_referee_float_path_agrees_with_40_digits(point):
    t, g, wd = point
    s1, s2, err = referee._sums_float(1.0, g, wd, 2 * math.pi * t)
    m1, m2 = referee._sums_mp(1.0, g, wd, 2 * math.pi * t)
    assert err <= referee.OWN_TOL
    assert abs(s1 - m1) <= referee.OWN_TOL * m1 and abs(s2 - m2) <= referee.OWN_TOL * m2


def test_perturbed_outputs_are_caught_and_counted():
    golden = w.load_golden()
    op = w.Op("resolve-grid", w.FLAGSHIP, True)
    good = w.run_process(op, check_consistency=False)
    bad = dataclasses.replace(good, delta_entropy=good.delta_entropy * (1 + 1e-6))
    cli_op = w.Op("cli-session", (("resolve", w._cli_argv("resolve", None)),), True)
    text = golden["cli"]["resolve.csv"]
    mass_heat = text.splitlines()[2].split(",")[2]
    tampered = text.replace(mass_heat, f"{float(mass_heat) * 1.01:.12e}")
    ops = [op, op, cli_op, cli_op]
    results = [
        (0.1, out, None, None)
        for out in (good, bad, {"resolve": w.CliResult(0, "", {"resolve.csv": text})},
                    {"resolve": w.CliResult(0, "", {"resolve.csv": tampered})})
    ]
    problems = run.judge(ops, results, golden, w)
    assert [bool(p) for p in problems] == [False, True, False, True]
    assert sum(1 for p in problems if p) / len(ops) == 0.5


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "clausius_lab" or name.startswith("clausius_lab."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
                if isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in val.items():
                        out[(name, attr, key)] = item
    return out


def test_wrappers_install_everywhere_and_restore_originals():
    import clausius_lab.cli as cli
    import clausius_lab.process as process

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert process.moment_derivatives is not before[("clausius_lab.process", "moment_derivatives")]
        assert cli._RUNNERS["resolve"] is not before[("clausius_lab.cli", "_RUNNERS", "resolve")]
        assert clausius_lab.composed_process.__wrapped__ is before[("clausius_lab", "composed_process")]
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_outputs_equal_untraced_and_self_time_nests():
    op = w.Op("resolve-grid", w.FLAGSHIP, True)
    plain = w.run_process(op, check_consistency=False)
    tracer = Tracer(capture=run.MOMENT_FUNCS)
    with tracer:
        traced = w.run_process(op, check_consistency=False)
    assert traced == plain
    stats = tracer.stats()
    assert stats["bath.moments_matsubara"]["calls"] == 90
    for s in stats.values():
        assert 0.0 <= s["self_s"] <= s["time_s"] + 1e-12
    top = stats["process.composed_process"]
    assert top["calls"] == 1 and top["self_s"] < top["time_s"]


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_seed_changes_points_not_op_count(workload):
    a = w.make_ops(workload, 1, 25)
    b = w.make_ops(workload, 2, 25)
    assert len(a) == len(b)
    assert [op.params for op in a] != [op.params for op in b]
    assert a == w.make_ops(workload, 1, 25)
    assert any(op.flagship for op in a)


def test_tail_picks_highest_level_with_ten_beyond():
    assert run.tail(list(range(100))) == (90.0, 89, 10)
    assert run.tail(list(range(19)))[0] == 100.0


def test_parse_importtime_attributes_nested_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.special",
        "import time:        50 |        150 |   scipy.integrate",
        "import time:        20 |         20 |   clausius_lab.errors",
        "import time:        30 |        200 | clausius_lab",
    ])
    roots = run.parse_importtime(text)
    assert [(n, round(c, 6)) for n, c, _ in roots] == [("clausius_lab", 0.0002)]
    assert [n for n, _, _ in roots[0][2]] == ["scipy.integrate", "clausius_lab.errors"]


def test_clock_scales_an_interval_by_the_samples_around_it():
    clock = calibrate.Clock()
    nominal = calibrate.NOMINAL_S
    clock.times = [1.0, 2.0, 3.0, 4.0]
    clock.costs = [nominal, 2 * nominal, 2 * nominal, nominal]
    assert clock.factor(1.9, 3.1, least=2) == pytest.approx(0.5)
    assert clock.factor(2.4, 2.6, least=2) == pytest.approx(0.5)  # no sample inside: the two nearest
    assert clock.factor(0.0, 0.5, least=1) == pytest.approx(1.0)
    assert clock.factor() == pytest.approx(4 / 6)
    assert clock.scale(1.9, 1.2) == pytest.approx(1.2 * clock.factor(1.9, 3.1))


def test_clock_samples_inside_work_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Clock(period_s=0.01) as clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(clock.costs) >= 5 and 0 < clock.stolen < 0.3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_op_latency_leaves_out_stolen_time():
    stolen = iter([0.0, 0.05])
    results = run.run_ops([None], lambda op: time.sleep(0.1), stolen=lambda: next(stolen))
    assert 0.05 - 1e-3 <= results[0][0] < 0.09
