"""Acceptance suite: one test per release criterion.

Each test prints a single summary line (visible with ``pytest -s`` or in the
captured output of a failing test) before asserting, so a red run still
reports the measured numbers.
"""

import itertools
import math
import time

import numpy as np
import pytest

from clausius_lab import (
    BathSpec,
    Constants,
    DensityMatrix,
    Ensemble,
    OscillatorParams,
    Povm,
    ProcessPath,
    accessible_info_lower,
    composed_process,
    default_omega_max,
    entropy,
    entropy_change,
    heat,
    holevo_chi,
    landauer_bound,
    mass_process,
    moments_matsubara,
    moments_spectral,
    mutual_information,
    reduced_moments_exact,
    sample_bath,
    thermal_moments_decoupled,
)
from clausius_lab.cli import main as cli_main

C = Constants()
OSC = OscillatorParams(mass=1.0, frequency=1.0)

TEMPERATURES = (0.05, 0.2, 1.0, 5.0, 20.0)
DAMPINGS = (0.0, 0.1, 1.0, 5.0, 10.0)
CUTOFFS = (50.0, 200.0)
GRID = list(itertools.product(TEMPERATURES, DAMPINGS, CUTOFFS))


def test_criterion_01_uncertainty_invariant():
    t0 = time.time()
    worst = math.inf
    for temperature, damping, cutoff in GRID:
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        m = moments_matsubara(OSC, b, C)
        worst = min(worst, m.f1 * m.f2 - m.cross**2)
    elapsed = time.time() - t0
    ok = worst >= C.hbar**2 / 4 - 1e-12 and elapsed < 10
    print(f"[criterion 1] {'PASS' if ok else 'FAIL'}: min determinant {worst:.6f} "
          f"(bound 0.25), {elapsed:.1f}s")
    assert worst >= C.hbar**2 / 4 - 1e-12
    assert elapsed < 10


def test_criterion_02_route_equivalence():
    t0 = time.time()
    worst = 0.0
    worst_pt = None
    for temperature, damping, cutoff in GRID:
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        m_sum = moments_matsubara(OSC, b, C)
        m_int = moments_spectral(OSC, b, C)
        rel = max(abs(m_sum.f1 - m_int.f1) / m_sum.f1, abs(m_sum.f2 - m_int.f2) / m_sum.f2)
        if rel > worst:
            worst, worst_pt = rel, (temperature, damping, cutoff)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30
    print(f"[criterion 2] {'PASS' if ok else 'FAIL'}: worst relative route gap "
          f"{worst:.2e} at {worst_pt} (tol 1e-6), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30


def test_criterion_03_oracle_certification():
    t0 = time.time()
    failures = []
    worst = 0.0
    for temperature, damping, cutoff in GRID:
        if damping == 0.0:
            continue  # no bath modes to sample
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        ref = moments_matsubara(OSC, b, C)
        db = sample_bath(b, OSC, 2048, default_omega_max(OSC, b))
        m = reduced_moments_exact(db, OSC, temperature, C)
        assert abs(m.cross) <= 1e-10
        rel = max(abs(m.f1 - ref.f1) / ref.f1, abs(m.f2 - ref.f2) / ref.f2)
        worst = max(worst, rel)
        if rel > 0.01:
            failures.append((temperature, damping, cutoff, rel))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    print(f"[criterion 3] {'PASS' if ok else 'FAIL'}: {len(failures)} of 40 grid points "
          f"beyond 1% at N=2048 (worst {worst:.1%}), {elapsed:.0f}s; "
          f"failing points cluster at low temperature / high cutoff where the "
          f"linear mode spacing (omega_max/2048 ~ 2) exceeds the first "
          f"Matsubara frequency (0.31 at T=0.05): {failures}")
    assert elapsed < 300
    assert not failures, (
        f"discrete-bath oracle at the pinned resolution N=2048, "
        f"omega_max=20*max(cutoff, frequency) cannot reach 1% on "
        f"{len(failures)}/40 grid points (worst {worst:.1%}). The eigen-"
        f"decomposition itself is certified to ~1e-10 against the Matsubara "
        f"series of the same finite model (tests/test_oracle.py), and the "
        f"error falls ~1/N (flagship f1: 20.7% at N=2048, 4.8% at N=8192), "
        f"so the gap is pure bath-discretization error at the mandated N, "
        f"not an implementation defect. Failing points: {failures}"
    )


def test_criterion_04_gibbs_limit_recovery():
    t0 = time.time()
    worst = 0.0
    for temperature in TEMPERATURES:
        for cutoff in CUTOFFS:
            b = BathSpec(temperature=temperature, damping=1e-4, cutoff=cutoff)
            ref = thermal_moments_decoupled(OSC, temperature, C)
            for m in (moments_matsubara(OSC, b, C), moments_spectral(OSC, b, C)):
                worst = max(worst, abs(m.f1 - ref.f1) / ref.f1, abs(m.f2 - ref.f2) / ref.f2)
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 5
    print(f"[criterion 4] {'PASS' if ok else 'FAIL'}: worst deviation from decoupled "
          f"coth moments at damping 1e-4 is {worst:.2e} (tol 1e-3), {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 5


def test_criterion_05_apparent_violation():
    t0 = time.time()
    b = BathSpec(temperature=0.05, damping=5.0, cutoff=100.0)
    report = mass_process(OSC, b, 0.05, C, mass_factor=2.0, check_consistency=False)
    elapsed = time.time() - t0
    ok = report.delta_entropy < 0 and report.heat > 0 and not report.clausius_satisfied
    print(f"[criterion 5] {'PASS' if ok else 'FAIL'}: mass-only step at "
          f"T=0.05, damping=5, cutoff=100, factor 2 gives dS={report.delta_entropy:+.4f}, "
          f"Q={report.heat:+.4f}, clausius_satisfied={report.clausius_satisfied}, {elapsed:.1f}s")
    assert report.delta_entropy < 0
    assert report.heat > 0
    assert not report.clausius_satisfied
    assert elapsed < 30


def test_criterion_06_resolution_restores_clausius():
    t0 = time.time()
    worst_ds = math.inf
    worst_q = -math.inf
    worst_slack = math.inf
    count = 0
    for (temperature, damping, cutoff), factor in itertools.product(GRID, (1.5, 2.0, 4.0)):
        b = BathSpec(temperature=temperature, damping=damping, cutoff=cutoff)
        total = composed_process(OSC, b, temperature, C, mass_factor=factor,
                                 check_consistency=False)
        worst_ds = min(worst_ds, total.delta_entropy)
        worst_q = max(worst_q, total.heat)
        worst_slack = min(worst_slack, total.slack)
        count += 1
    elapsed = time.time() - t0
    ok = worst_ds >= -1e-9 and worst_q <= 1e-9 and worst_slack >= -1e-9 and elapsed < 300
    print(f"[criterion 6] {'PASS' if ok else 'FAIL'}: {count} composed processes; "
          f"min dS={worst_ds:+.3e}, max Q={worst_q:+.3e}, min slack={worst_slack:+.3e}, "
          f"{elapsed:.0f}s")
    assert worst_ds >= -1e-9
    assert worst_q <= 1e-9
    assert worst_slack >= -1e-9
    assert elapsed < 300


def test_criterion_07_exact_differential_and_grid_halving():
    paths = [
        (ProcessPath("damping", 0.5, 5.0, 9), BathSpec(1.0, 5.0, 50.0)),
        (ProcessPath("mass", 1.0, 2.0, 9), BathSpec(0.05, 5.0, 100.0)),
        (ProcessPath("mass", 1.0, 4.0, 9), BathSpec(0.2, 1.0, 200.0)),
    ]
    worst_mismatch = 0.0
    worst_ratio = 0.0
    for path, b in paths:
        ds = entropy_change(path, OSC, b, C, check_consistency=True)
        worst_mismatch = max(worst_mismatch, ds.mismatch / max(1.0, abs(ds.value)))
        coarse = heat(path, OSC, b, C)
        fine_path = ProcessPath(path.parameter, path.start_value, path.end_value,
                                2 * path.grid_points - 1)
        fine = heat(fine_path, OSC, b, C)
        if coarse.error_estimate > 0:
            worst_ratio = max(worst_ratio, abs(fine.value - coarse.value) / coarse.error_estimate)
    ok = worst_mismatch <= 1e-5 and worst_ratio <= 1.0
    print(f"[criterion 7] {'PASS' if ok else 'FAIL'}: worst endpoint/quadrature entropy "
          f"mismatch {worst_mismatch:.2e} (tol 1e-5); worst |dQ|/error ratio under grid "
          f"halving {worst_ratio:.2f} (must be <= 1)")
    assert worst_mismatch <= 1e-5
    assert worst_ratio <= 1.0


def test_criterion_08_landauer_values():
    bound = landauer_bound(math.log(2), 1.0, C)
    s_v1 = entropy(1.0)
    # [DERIVED] independent evaluation: 1.5 ln 1.5 - 0.5 ln 0.5
    s_ref = 1.5 * math.log(1.5) + 0.5 * math.log(2.0)
    cost = landauer_bound(s_v1, 1.0, C)
    ok = abs(bound - 0.6931471805599453) <= 1e-12 and abs(cost - s_ref) <= 1e-4
    print(f"[criterion 8] {'PASS' if ok else 'FAIL'}: one-bit bound {bound:.15f}; "
          f"v=1 erasure cost {cost:.6f} vs independent entropy {s_ref:.6f}")
    assert bound == pytest.approx(0.6931471805599453, abs=1e-12)
    assert cost == pytest.approx(s_ref, abs=1e-4)
    assert cost == pytest.approx(0.95477, abs=1e-4)


def test_criterion_09_holevo_suite():
    t0 = time.time()
    rng = np.random.default_rng(20260824)
    exceptions = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(n))
        states = []
        for _ in range(n):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            states.append(DensityMatrix(rho / np.trace(rho).real))
        e = Ensemble(probs, tuple(states))
        mats = [None, None, None]
        for i in range(3):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mats[i] = a @ a.conj().T
        total = sum(mats)
        eigvals, eigvecs = np.linalg.eigh(total)
        inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
        povm = Povm(tuple(inv_sqrt @ m @ inv_sqrt for m in mats))
        if mutual_information(e, povm) > holevo_chi(e) + 1e-10:
            exceptions += 1

    ket0 = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    ketplus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    bb84 = Ensemble(np.array([0.5, 0.5]), (ket0, ketplus))
    # [DERIVED] eigen-oracle for chi: pure states, avg eigenvalues (1 +- 2^-1/2)/2
    p = (1 + 1 / math.sqrt(2)) / 2
    chi_ref = -(p * math.log(p) + (1 - p) * math.log(1 - p))
    chi = holevo_chi(bb84)

    # [DERIVED] dense 1-D polar-angle scan oracle (optimum lies in the x-z plane)
    acc, _ = accessible_info_lower(bb84, effort=24)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    scan_best = 0.0
    for theta in np.linspace(0.0, math.pi, 10001):
        proj = (np.eye(2, dtype=complex) + math.sin(theta) * sx + math.cos(theta) * sz) / 2
        m = Povm((proj, np.eye(2) - proj))
        scan_best = max(scan_best, mutual_information(bb84, m))
    elapsed = time.time() - t0
    ok = (exceptions == 0 and abs(chi - chi_ref) <= 1e-4 and abs(chi - 0.4165) <= 1e-4
          and abs(acc - scan_best) <= 1e-4 and elapsed < 60)
    print(f"[criterion 9] {'PASS' if ok else 'FAIL'}: {exceptions} Holevo exceptions in "
          f"1000 seeded trials; chi={chi:.6f} (oracle {chi_ref:.6f}); accessible lower "
          f"bound {acc:.6f} vs angle-scan {scan_best:.6f}, {elapsed:.0f}s")
    assert exceptions == 0
    assert chi == pytest.approx(chi_ref, abs=1e-4)
    assert chi == pytest.approx(0.4165, abs=1e-4)
    assert acc == pytest.approx(scan_best, abs=1e-4)
    assert elapsed < 60


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "temperature=0.05\ndamping=5.0\ncutoff=100.0\nmass_factor=2.0\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli_main(["resolve", "--config", str(cfg), "--out", str(out_a)])
    rc_b = cli_main(["resolve", "--config", str(cfg), "--out", str(out_b)])
    bytes_a = (out_a / "resolve.csv").read_bytes()
    bytes_b = (out_b / "resolve.csv").read_bytes()
    ok = rc_a == rc_b == 0 and bytes_a == bytes_b
    print(f"[criterion 10] {'PASS' if ok else 'FAIL'}: two resolve runs with one config, "
          f"{len(bytes_a)} bytes each, byte-identical={bytes_a == bytes_b}")
    assert rc_a == 0 and rc_b == 0
    assert bytes_a == bytes_b
