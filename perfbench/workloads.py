"""The four benchmark workloads: seeded op lists, op runners and output checks.

Every workload is a closed loop with one client. An op list depends only on
the workload, the seed and the run length: the seed moves the points, never
the number of ops, so two commits measured with the same arguments do the
same amount of work. Checks run outside the timed region and return a list of
problems; an op with any problem, or one that raised or exited non-zero,
counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import referee

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
OUT = ROOT / ".bench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("resolve-grid", "checked-cold", "oracle-ladder", "cli-session")
SCENARIOS = ("moments", "resolve", "sweep", "holevo", "violation-scan", "oracle")
# Workloads whose ops are timed at nominal host speed by the in-process
# sampler (calibrate.Clock): interpreted Python and numpy work, which slows
# with its kernel. The dense eigensolve of oracle-ladder runs in LAPACK, out
# of the sampler's reach, and scaling made it noisier than its wall time, so
# it reports wall time. cli-session runs subprocesses and is scaled by
# calibrate.SubprocessClock, as set-up is on every workload.
CALIBRATED = ("resolve-grid", "checked-cold")

# (temperature, damping, cutoff, mass factor); every workload includes it
FLAGSHIP = (0.05, 5.0, 100.0, 2.0)
ACCEPTANCE_TEMPERATURES = (0.05, 0.2, 1.0, 5.0, 20.0)
ACCEPTANCE_DAMPINGS = (0.0, 0.1, 1.0, 5.0, 10.0)
ACCEPTANCE_CUTOFFS = (50.0, 200.0)
DAMPED_GRID = [
    (t, g, wd)
    for t in ACCEPTANCE_TEMPERATURES
    for g in ACCEPTANCE_DAMPINGS
    if g > 0
    for wd in ACCEPTANCE_CUTOFFS
]
LADDER = (256, 512, 1024, 2048)
CLI_ORACLE_POINT = (1.0, 1.0, 100.0)  # the oracle scenario's defaults

# Declared accuracy targets of the package, used as check tolerances.
CLAUSIUS_TOL = 1e-9
MATSUBARA_TOL = 1e-8
SPECTRAL_TOL = 1e-7
SPECTRAL_BELOW_T = 0.02  # the library dispatches to the spectral route below this
HEAT_REL_TOL = 1e-3
HEAT_ABS_TOL = 1e-7
# the oracle eigensolve is certified to a 1e-10 residual; its moments are
# compared with the seed-commit recording at this relative tolerance
ORACLE_TOL = 1e-8

# Seconds one op took, when the benchmark was introduced, on a 2-vCPU x86-64
# VM. They turn --seconds into a fixed op count that never depends on speed.
RESOLVE_OP_S = 0.0207
CHECKED_OP_S = 2.5
LADDER_OP_S = 2.2
SESSION_S = 10.9


@dataclass(frozen=True)
class Op:
    """One unit of work. ``params`` is (T, gamma, wD, mass factor) for process
    ops, (T, gamma, wD) for oracle ladders, and a tuple of (scenario, argv)
    pairs for a CLI session."""

    workload: str
    params: tuple
    flagship: bool = False


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([abs(int(seed)), zlib.crc32(workload.encode())])


def _strata(rng, n, ranges):
    """n log-uniform points, one per stratum of each range (a Latin hypercube)."""
    cols = []
    for lo, hi in ranges:
        u = (rng.permutation(n) + rng.random(n)) / n
        cols.append(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return [tuple(float(c[i]) for c in cols) for i in range(n)]


def _cli_argv(scenario: str, rng) -> tuple[str, ...]:
    cfg = str(DATA / "resolve.cfg")
    if scenario == "moments":
        (t, g, wd), = _strata(rng, 1, [(0.05, 20.0), (0.1, 10.0), (50.0, 200.0)])
        return ("moments", "--temperature", repr(t), "--damping", repr(g), "--cutoff", repr(wd))
    return {
        "resolve": ("resolve", "--config", cfg),
        "sweep": ("sweep", "--config", cfg, "--param", "mass", "--start", "1", "--end", "2", "--svg"),
        "holevo": ("holevo", "--ensemble", str(DATA / "bb84.txt")),
        "violation-scan": ("violation-scan",),
        "oracle": ("oracle",),
    }[scenario]


def make_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    rng = _rng(workload, seed)
    if workload == "resolve-grid":
        # every op a distinct point: a point's cost depends on how often the
        # heat quadrature refines, so a few hundred points are needed before
        # the seed stops moving the median
        n = max(2, round(seconds / RESOLVE_OP_S)) - 1
        points = _strata(rng, n, [(0.05, 20.0), (0.1, 10.0), (50.0, 200.0)])
        factors = rng.permutation(np.resize([1.5, 2.0, 4.0], n))
        return [Op(workload, FLAGSHIP, True)] + [
            Op(workload, (t, g, wd, float(k))) for (t, g, wd), k in zip(points, factors)
        ]
    if workload == "checked-cold":
        # a checked op costs 0.8 to 6 s, set by T, and both T and gamma step
        # it: by 2x between T = 0.0415 and 0.042, and by 12% in moment
        # evaluations at some gamma. With a handful of ops, free draws would
        # let the seed, not the code, set the run's work, so each point stays
        # within a sixteenth of its stratum's centre, T and gamma strata are
        # paired in a fixed Latin order (lowest T with highest gamma), and
        # the seed moves the points within their strata and shuffles the op
        # order. At --seconds 20 (seven strata) the T centres nearest the
        # step are 0.0354 and 0.0446.
        n = max(2, round(seconds / CHECKED_OP_S)) - 1
        k = np.arange(n)
        u_t = (k + 0.5 + (rng.random(n) - 0.5) / 16) / n
        u_g = (n - 1 - k + 0.5 + (rng.random(n) - 0.5) / 16) / n
        t = 0.01 * 5.0**u_t
        g = 5.0**u_g
        return [Op(workload, FLAGSHIP, True)] + [
            Op(workload, (float(t[i]), float(g[i]), 100.0, 2.0)) for i in rng.permutation(n)
        ]
    if workload == "oracle-ladder":
        n = max(2, round(seconds / LADDER_OP_S))
        order = rng.permutation(len(DAMPED_GRID))
        return [Op(workload, FLAGSHIP[:3], True)] + [
            Op(workload, DAMPED_GRID[order[i % len(order)]]) for i in range(n - 1)
        ]
    if workload == "cli-session":
        return [
            Op(workload, tuple((str(sc), _cli_argv(str(sc), rng)) for sc in rng.permutation(SCENARIOS)), True)
            for _ in range(max(1, round(seconds / SESSION_S)))
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- runners


def _lib():
    import clausius_lab

    return clausius_lab


def _osc(mass=1.0):
    return _lib().OscillatorParams(mass=mass, frequency=1.0)


def run_process(op: Op, check_consistency: bool):
    lib = _lib()
    t, g, wd, k = op.params
    bath = lib.BathSpec(temperature=t, damping=g, cutoff=wd)
    return lib.composed_process(_osc(), bath, t, mass_factor=k, check_consistency=check_consistency)


def run_ladder(op: Op):
    lib = _lib()
    t, g, wd = op.params
    osc, bath = _osc(), lib.BathSpec(temperature=t, damping=g, cutoff=wd)
    omax = lib.default_omega_max(osc, bath)
    return [
        lib.reduced_moments_exact(lib.sample_bath(bath, osc, n, omax), osc, t) for n in LADDER
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliResult:
    returncode: int
    stderr: str
    files: dict
    seconds: float = field(default=0.0, compare=False)


def _read_outputs(out_dir: Path) -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.iterdir()) if p.is_file()}


def _cli_out_dir(scenario: str, tag: str) -> Path:
    out_dir = OUT / f"cli-{tag}" / scenario
    out_dir.mkdir(parents=True, exist_ok=True)
    for p in out_dir.iterdir():
        p.unlink()
    return out_dir


def run_cli_subprocess(scenario: str, argv: tuple[str, ...]) -> CliResult:
    out_dir = _cli_out_dir(scenario, "subprocess")
    cmd = [sys.executable, "-m", "clausius_lab.cli", *argv, "--out", str(out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=cli_env(), capture_output=True, text=True, timeout=170)
    seconds = time.perf_counter() - t0
    return CliResult(proc.returncode, proc.stderr, _read_outputs(out_dir), seconds)


def run_cli_inprocess(scenario: str, argv: tuple[str, ...]) -> CliResult:
    import clausius_lab.cli as cli

    out_dir = _cli_out_dir(scenario, "inprocess")
    sink_out, sink_err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        code = cli.main([*argv, "--out", str(out_dir)])
    seconds = time.perf_counter() - t0
    return CliResult(code, sink_err.getvalue(), _read_outputs(out_dir), seconds)


def runner(workload: str, in_process_cli: bool = False, between=None):
    """The op runner; in a CLI session ``between()`` runs before each
    scenario, outside the scenario's timing."""
    if workload == "resolve-grid":
        return lambda op: run_process(op, check_consistency=False)
    if workload == "checked-cold":
        return lambda op: run_process(op, check_consistency=True)
    if workload == "oracle-ladder":
        return run_ladder
    run_one = run_cli_inprocess if in_process_cli else run_cli_subprocess

    def session(op):
        out = {}
        for scenario, argv in op.params:
            if between is not None:
                between()
            out[scenario] = run_one(scenario, argv)
        return out

    return session


# ---------------------------------------------------------------- checks


def route_tol(temperature: float) -> float:
    return SPECTRAL_TOL if temperature < SPECTRAL_BELOW_T else MATSUBARA_TOL


def heat_tol(value: float) -> float:
    """Two implementations that each meet the heat target may differ by twice it."""
    return 2 * max(HEAT_REL_TOL * abs(value), HEAT_ABS_TOL)


class Problems(list):
    def close(self, what, got, want, tol):
        if not (abs(got - want) <= tol):
            self.append(f"{what}: got {got!r}, expected {want!r} within {tol:.3g}")

    def rel(self, what, got, want, tol):
        self.close(what, got, want, tol * abs(want) + 1e-300)

    def require(self, ok, message):
        if not ok:
            self.append(message)


def exact_v(mass, temperature, damping, cutoff):
    f1, f2 = referee.moments(mass, 1.0, temperature, damping, cutoff)
    return math.sqrt(f1 * f2), (f1, f2)


def entropy_tol(v, tol):
    """Entropy error implied by a relative moment error tol (d v/v <= tol)."""
    return referee.entropy_slope(v) * v * tol + 1e-12


def mass_step_entropy(t, g, wd, k):
    """Exact dS of the mass step M -> kM at fixed microscopic coupling, with
    the tolerance its two moment evaluations allow."""
    v0, _ = exact_v(1.0, t, g, wd)
    v1, _ = exact_v(k, t, g / k, wd)
    tol = entropy_tol(v0, route_tol(t)) + entropy_tol(v1, route_tol(t))
    return referee.entropy(v1) - referee.entropy(v0), tol


def coupling_step(t, g, wd):
    """Exact (dS, Q, tol_dS, tol_Q) of the isothermal coupling switch-on."""
    v_free = 0.5 / math.tanh(0.5 / t)
    v, (f1, f2) = exact_v(1.0, t, g, wd)
    du = (f2 + f1) / 2 - v_free  # unit mass and frequency: U = (f1 + f2)/2
    df = referee.coupling_free_energy(1.0, t, g, wd)
    tol_q = route_tol(t) * (f1 + f2) / 2 + MATSUBARA_TOL * abs(df) + 1e-12
    return referee.entropy(v) - referee.entropy(v_free), du - df, entropy_tol(v, route_tol(t)), tol_q


def check_composed(op: Op, report) -> Problems:
    t, g, wd, k = op.params
    p = Problems()
    p.require(report.delta_entropy >= -CLAUSIUS_TOL, f"composed dS {report.delta_entropy!r} < 0")
    p.require(report.heat <= CLAUSIUS_TOL, f"composed Q {report.heat!r} > 0")
    p.require(report.slack >= -CLAUSIUS_TOL, f"composed slack {report.slack!r} < 0")
    p.require(report.clausius_satisfied, "composed process flags a Clausius violation")
    ds1, _, tol1, _ = coupling_step(t, g, wd)
    ds2, tol2 = mass_step_entropy(t, g, wd, k)
    p.close("composed dS vs closed form", report.delta_entropy, ds1 + ds2, tol1 + tol2)
    return p


def load_golden() -> dict:
    return json.loads((DATA / "golden.json").read_text(encoding="utf-8"))


def _golden_key(point) -> str:
    return ",".join(repr(float(x)) for x in point)


def check_ladder(op: Op, moments, golden) -> Problems:
    p = Problems()
    recorded = golden["oracle"][_golden_key(op.params)]
    for n, m in zip(LADDER, moments):
        f1_ref, f2_ref = recorded[str(n)]
        p.rel(f"oracle f1 N={n}", m.f1, f1_ref, ORACLE_TOL)
        p.rel(f"oracle f2 N={n}", m.f2, f2_ref, ORACLE_TOL)
        p.require(abs(m.cross) <= 1e-10, f"oracle cross term {m.cross!r} at N={n}")
        p.require(m.f1 * m.f2 >= 0.25 - 1e-12, f"oracle moments below the uncertainty bound at N={n}")
    p.require(len(moments) == len(LADDER), f"ladder returned {len(moments)} rungs")
    return p


def continuum_gap(op: Op, moments) -> float:
    """Relative gap of the N=2048 oracle to the exact continuum moments: the
    documented criterion-3 discretization error, reported and never failed."""
    t, g, wd = op.params
    f1, f2 = referee.moments(1.0, 1.0, t, g, wd)
    return max(abs(moments[-1].f1 - f1) / f1, abs(moments[-1].f2 - f2) / f2)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_moments_csv(p, argv, rows):
    t, g, wd = (float(argv[i]) for i in (2, 4, 6))
    v_ref, (f1, f2) = exact_v(1.0, t, g, wd)
    p.require([r["route"] for r in rows] == ["matsubara", "spectral_integral"], "moments routes")
    for r in rows:
        tol = MATSUBARA_TOL if r["route"] == "matsubara" else SPECTRAL_TOL
        for col, want in (("temperature", t), ("damping", g), ("cutoff", wd)):
            p.rel(f"moments {col}", float(r[col]), want, 1e-11)
        p.rel(f"moments f1 ({r['route']})", float(r["f1"]), f1, tol)
        p.rel(f"moments f2 ({r['route']})", float(r["f2"]), f2, tol)
        p.require(float(r["cross"]) == 0.0, "moments cross term is not zero")
        p.rel(f"moments v ({r['route']})", float(r["v"]), v_ref, tol)
        p.close(f"moments entropy ({r['route']})", float(r["entropy"]),
                referee.entropy(v_ref), entropy_tol(v_ref, tol))


def _check_resolve_csv(p, rows, golden):
    t, g, wd, k = FLAGSHIP
    ref = {r["step"]: r for r in _rows(golden["cli"]["resolve.csv"])}
    p.require([r["step"] for r in rows] == ["coupling", "mass", "total"], "resolve rows")
    ds1, q1, tol_ds1, tol_q1 = coupling_step(t, g, wd)
    ds2, tol_ds2 = mass_step_entropy(t, g, wd, k)
    want_ds = {"coupling": (ds1, tol_ds1), "mass": (ds2, tol_ds2), "total": (ds1 + ds2, tol_ds1 + tol_ds2)}
    for r in rows:
        step = r["step"]
        ds, q = float(r["delta_entropy"]), float(r["heat"])
        p.close(f"resolve {step} dS", ds, *want_ds[step])
        if step == "coupling":
            p.close("resolve coupling Q vs closed form", q, q1, tol_q1)
        else:
            p.close(f"resolve {step} Q", q, float(ref[step]["heat"]), heat_tol(q))
        p.close(f"resolve {step} slack", float(r["clausius_slack"]), t * ds - q, 1e-12 + 1e-12 * abs(q))
        p.require(r["clausius_satisfied"] == ref[step]["clausius_satisfied"], f"resolve {step} flag")
    mass = rows[1] if len(rows) > 1 else None
    if mass is not None:
        p.require(float(mass["delta_entropy"]) < 0 and float(mass["heat"]) > 0,
                  "flagship mass-only step lost its apparent violation (dS < 0, Q > 0)")
    total = rows[-1] if rows else None
    if total is not None:
        p.require(float(total["delta_entropy"]) >= -CLAUSIUS_TOL and float(total["heat"]) <= CLAUSIUS_TOL
                  and float(total["clausius_slack"]) >= -CLAUSIUS_TOL, "resolve totals break criterion 6")


def _check_sweep(p, rows, svg, golden):
    t, g, wd, _ = FLAGSHIP
    ref = _rows(golden["cli"]["sweep.csv"])
    p.require(len(rows) == len(ref) == 9, f"sweep has {len(rows)} rows")
    v_start, _ = exact_v(1.0, t, g, wd)
    for r, r0 in zip(rows, ref):
        m = float(r["alpha"])
        p.rel("sweep alpha", m, float(r0["alpha"]), 1e-14)
        v, (f1, f2) = exact_v(m, t, g / m, wd)
        tol = route_tol(t)
        p.rel(f"sweep f1 at M={m:g}", float(r["f1"]), f1, tol)
        p.rel(f"sweep f2 at M={m:g}", float(r["f2"]), f2, tol)
        p.rel(f"sweep v at M={m:g}", float(r["v"]), v, tol)
        p.close(f"sweep entropy at M={m:g}", float(r["entropy"]), referee.entropy(v), entropy_tol(v, tol))
        ds = float(r["delta_entropy_cum"])
        p.close(f"sweep dS at M={m:g}", ds, referee.entropy(v) - referee.entropy(v_start),
                entropy_tol(v, tol) + entropy_tol(v_start, tol))
        q, err = float(r["heat_cum"]), float(r0["heat_error_est"])
        p.close(f"sweep heat at M={m:g}", q, float(r0["heat_cum"]), 2 * err + 1e-9 * abs(q) + 1e-12)
        p.close(f"sweep slack at M={m:g}", float(r["clausius_slack"]), t * ds - q, 1e-12)
    try:
        lines = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}polyline")
    except ET.ParseError as exc:
        p.append(f"sweep.svg is not well-formed: {exc}")
        return
    p.require(len(lines) == 3 and all(len(pl.get("points", "").split()) == 9 for pl in lines),
              "sweep.svg lacks its three nine-point series")


def _check_violation_scan(p, rows, golden):
    ref = _rows(golden["cli"]["violation-scan.csv"])
    p.require(len(rows) == len(ref) == 50, f"violation-scan has {len(rows)} rows")
    for r, r0 in zip(rows, ref):
        t, g, wd, k = (float(r[c]) for c in ("temperature", "damping", "cutoff", "mass_factor"))
        where = f"violation-scan T={t:g} gamma={g:g} wD={wd:g}"
        p.require((t, g, wd, k) == tuple(float(r0[c]) for c in ("temperature", "damping", "cutoff", "mass_factor")),
                  f"{where}: grid order changed")
        p.require(r["flag"] == r0["flag"], f"{where}: flag {r['flag']!r}, expected {r0['flag']!r}")
        if r["flag"].startswith("ERROR"):
            continue
        ds, q = float(r["delta_entropy_mass"]), float(r["heat_mass"])
        p.close(f"{where} dS", ds, *mass_step_entropy(t, g, wd, k))
        p.close(f"{where} Q", q, float(r0["heat_mass"]), heat_tol(q))
        p.close(f"{where} slack", float(r["clausius_slack"]), t * ds - q, 1e-12 + 1e-12 * abs(q))


def _check_oracle_csv(p, rows, golden):
    recorded = golden["oracle"][_golden_key(CLI_ORACLE_POINT)]
    ref = _rows(golden["cli"]["oracle.csv"])
    p.require([int(r["mode_count"]) for r in rows] == list(LADDER), "oracle ladder rungs")
    for r, r0 in zip(rows, ref):
        n = r["mode_count"]
        f1_ref, f2_ref = recorded[n]
        p.rel(f"oracle csv f1 N={n}", float(r["f1"]), f1_ref, ORACLE_TOL)
        p.rel(f"oracle csv f2 N={n}", float(r["f2"]), f2_ref, ORACLE_TOL)
        for col in ("delta_f1", "delta_f2"):
            p.require((r[col] == "") == (r0[col] == ""), f"oracle csv {col} presence at N={n}")
            if r[col] and r0[col]:
                p.rel(f"oracle csv {col} N={n}", float(r[col]), float(r0[col]), 1e-6)
        p.require(r["converged"] == r0["converged"], f"oracle csv converged flag at N={n}")


def _mutual_information(probs, states, povm):
    table = np.array([[p * max(np.trace(e @ s).real, 0.0) for e in povm] for p, s in zip(probs, states)])
    marg = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True)
    nz = table > 0
    return float(np.sum(table[nz] * np.log(table[nz] / marg[nz])))


def _check_holevo(p, rows):
    vals = {r["quantity"]: r["value"] for r in rows}
    # BB84 pair |0>, |+>: the average state has eigenvalues (1 +- 2^-1/2)/2
    lam = (1 + 1 / math.sqrt(2)) / 2
    chi = -(lam * math.log(lam) + (1 - lam) * math.log(1 - lam))
    # two equiprobable pure states: the Helstrom measurement is optimal
    p_err = (1 - math.sqrt(1 - 0.5)) / 2
    acc = math.log(2) + p_err * math.log(p_err) + (1 - p_err) * math.log(1 - p_err)
    try:
        got_chi, got_acc = float(vals["holevo_chi"]), float(vals["accessible_info_lower"])
        budget = [float(vals[k]) for k in ("q_martin", "q_amy", "q_shared")]
        povm = [
            np.array([[complex(vals[f"povm_{k}_{i}{j}"]) for j in range(2)] for i in range(2)])
            for k in range(2)
        ]
    except (KeyError, ValueError) as exc:
        p.append(f"holevo.csv unreadable: {exc!r}")
        return
    p.close("holevo chi", got_chi, chi, 1e-10)
    p.close("accessible information bound", got_acc, acc, 1e-6)
    p.require(got_acc <= got_chi + 1e-12, "accessible information exceeds chi")
    for name, got, want in zip(("q_martin", "q_amy", "q_shared"), budget, (0.0, chi, chi)):
        p.close(f"erasure budget {name} at T=1", got, want, 1e-10)
    p.close("POVM completeness", float(np.max(np.abs(povm[0] + povm[1] - np.eye(2)))), 0.0, 1e-9)
    states = [np.diag([1.0, 0.0]).astype(complex), np.full((2, 2), 0.5, dtype=complex)]
    p.close("POVM reproduces the bound", _mutual_information([0.5, 0.5], states, povm), got_acc, 1e-9)


def check_session(op: Op, results: dict, golden) -> Problems:
    p = Problems()
    for scenario, argv in op.params:
        check_cli(p, scenario, argv, results[scenario], golden)
    return p


def check_cli(p: Problems, scenario: str, argv, result: CliResult, golden) -> None:
    if result.returncode != 0:
        p.append(f"{scenario} exited {result.returncode}: {result.stderr.strip()[-300:]}")
        return
    name = f"{scenario}.csv"
    if name not in result.files:
        p.append(f"{scenario} wrote no {name}")
        return
    rows = _rows(result.files[name])
    try:
        if scenario == "moments":
            _check_moments_csv(p, argv, rows)
        elif scenario == "resolve":
            _check_resolve_csv(p, rows, golden)
        elif scenario == "sweep":
            _check_sweep(p, rows, result.files.get("sweep.svg", ""), golden)
        elif scenario == "violation-scan":
            _check_violation_scan(p, rows, golden)
        elif scenario == "oracle":
            _check_oracle_csv(p, rows, golden)
        else:
            _check_holevo(p, rows)
    except (KeyError, ValueError) as exc:
        p.append(f"{name} unreadable: {exc!r}")


def check(op: Op, output, golden) -> Problems:
    if op.workload in ("resolve-grid", "checked-cold"):
        return check_composed(op, output)
    if op.workload == "oracle-ladder":
        return check_ladder(op, output, golden)
    return check_session(op, output, golden)
