"""clausius-lab benchmark: one workload per run, checked outputs, one JSON line.

    python3 perfbench/run.py --workload resolve-grid --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation, in seconds
at a nominal host speed (calibrate.py; oracle-ladder ops in wall time);
--trace 1 runs the same op list with span wrappers installed and reports the
per-layer metrics in wall time. Run it from the root of a checkout that holds
src/clausius_lab. A human-readable table goes to stdout; the last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MOMENT_FUNCS = ("bath.moments_matsubara", "bath.moments_spectral")
ORACLE_FUNC = "oracle.reduced_moments_exact"
FUNCTION_STATS = {
    "gaussian": ("symplectic_param", "entropy"),
    "bath": ("moments_matsubara", "moments_spectral", "coupling_free_energy", "moment_derivatives"),
    "process": ("heat", "entropy_change", "coupling_process", "mass_process"),
    "info": ("accessible_info_lower", "mutual_information", "holevo_chi"),
}
CLI_RUNNERS = ("run_moments", "run_resolve", "run_sweep", "run_holevo", "run_violation_scan", "run_oracle")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def tail(latencies):
    """Highest of TAIL_LEVELS with at least 10 samples beyond it (nearest rank).

    Returns (level, value, samples beyond). Below 20 samples no level
    qualifies and the maximum is reported as level 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    for level in TAIL_LEVELS:
        idx = max(0, math.ceil(level / 100 * n) - 1)
        if n - idx - 1 >= 10:
            return level, xs[idx], n - idx - 1
    return 100.0, xs[-1], 0


def timed_setup(module: str, env: dict, reference) -> tuple[float, float]:
    """Median time of a fresh interpreter importing ``module``, at nominal
    speed and in wall time; ``reference`` ticks around each one."""
    argv = [sys.executable, "-c", f"import {module}"]
    samples = []
    for _ in range(SETUP_REPEATS):
        reference.tick()
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    reference.tick()
    wall = statistics.median(samples)
    return wall * reference.factor(), wall


def parse_importtime(text: str):
    """Import tree from ``python -X importtime`` output (children print first)."""
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, field = line.split("|")
        name = field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = (name.strip(), int(cum) * 1e-6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    return pending.get(0, [])


def import_breakdown(module: str, env: dict) -> tuple[float, float]:
    """(total, scipy) seconds of importing ``module``, medians of repeated runs."""
    totals, scipys = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        roots = parse_importtime(proc.stderr)
        totals.append(sum(cum for name, cum, _ in roots if name.split(".")[0] == "clausius_lab"))
        stack, scipy = list(roots), 0.0
        while stack:
            name, cum, children = stack.pop()
            if name.split(".")[0] == "scipy":
                scipy += cum
            else:
                stack.extend(children)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def run_ops(ops, run, tracer=None, stolen=None):
    """Run ops in order; returns per-op (latency, output, error, span, start).
    ``stolen()`` is a running total of time the op did not use, which its
    latency leaves out."""
    results = []
    for op in ops:
        s0 = stolen() if stolen is not None else 0.0
        span = tracer.span("op") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            if span is not None:
                with span:
                    out = run(op)
            else:
                out = run(op)
            err = None
        except Exception as exc:  # an op that raises is a counted failure, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        s1 = stolen() if stolen is not None else 0.0
        results.append((t1 - t0 - (s1 - s0), out, err, span, t0))
    return results


def op_wall(result, cli: bool) -> float:
    """An op's wall time. A CLI session's is the sum of its scenarios'
    subprocess times; the reference runs between them are not part of it."""
    lat, out = result[:2]
    return sum(r.seconds for r in out.values()) if cli and out is not None else lat


def nominal_latency(result, clock, reference, cli: bool) -> float:
    """An op's latency at nominal host speed, or in wall time for a
    workload that has no clock."""
    if cli:
        return op_wall(result, cli) * reference.factor()
    lat, t0 = result[0], result[4]
    return lat if clock is None else clock.scale(t0, lat)


def judge(ops, results, golden, w):
    """Problems per op: the raise message, or what the output checks found."""
    problems = []
    for op, (_, out, err, *_) in zip(ops, results):
        problems.append([err] if err is not None else list(w.check(op, out, golden)))
    return problems


def referee_misses(tracer, results, problems, referee):
    """Check every captured moment against the closed form; a miss fails the op
    whose interval holds the call. Returns the worst relative error."""
    import numpy as np

    calls = list(tracer.captured(MOMENT_FUNCS))
    if not calls:
        return 0.0
    keys = [
        (a["o"].mass, a["o"].frequency, a["b"].temperature, a["b"].damping, a["b"].cutoff, a["c"].hbar, a["c"].kB)
        for _, _, _, a, _ in calls
    ]
    unique = sorted(set(keys))
    f1, f2 = referee.moments_many(*np.array(unique).T)
    exact = dict(zip(unique, zip(f1, f2)))
    starts = [r[3].start for r in results]
    worst = 0.0
    for (name, t0, _, args, m), key in zip(calls, keys):
        r1, r2 = exact[key]
        err = max(abs(m.f1 - r1) / r1, abs(m.f2 - r2) / r2)
        worst = max(worst, err)
        if err > args["rel_tol"]:
            i = max(0, bisect.bisect_right(starts, t0) - 1)
            problems[i].append(f"{name} at {key[:5]} off the closed form by {err:.3g} (target {args['rel_tol']:g})")
    return worst


def gap_max(ops, results, w) -> float:
    """Worst N=2048 continuum gap over the oracle ladders that ran."""
    gaps = [w.continuum_gap(op, r[1]) for op, r in zip(ops, results) if op.workload == "oracle-ladder" and r[1] is not None]
    return max(gaps, default=0.0)


def layer_metrics(tracer, ops, results, workload, w):
    stats = tracer.stats()
    m = {}
    for layer, funcs in FUNCTION_STATS.items():
        for fn in funcs:
            s = stats.get(f"{layer}.{fn}", {"calls": 0, "time_s": 0.0, "self_s": 0.0, "raised": 0})
            m[f"{layer}.{fn}.calls"] = (s["calls"], "count")
            m[f"{layer}.{fn}.time_s"] = (s["time_s"], "s")
            m[f"{layer}.{fn}.self_s"] = (s["self_s"], "s")
            m[f"{layer}.{fn}.raised"] = (s["raised"], "count")
    evals = sum(stats.get(f, {"calls": 0})["calls"] for f in MOMENT_FUNCS)
    m["bath.moment_evals_per_op"] = (evals / len(ops), "1/op")
    if workload == "cli-session":
        start, end = next((t0, t1) for _, _, name, t0, t1, _, _ in tracer.spans if name == "cli.run_resolve")
    else:
        span = results[next(i for i, op in enumerate(ops) if op.flagship)][3]
        start, end = span.start, span.end
    m["bath.moment_evals_flagship"] = (
        sum(1 for _, t0, t1, _, _ in tracer.captured(MOMENT_FUNCS) if start <= t0 and t1 <= end),
        "count",
    )
    rung_time = {n: 0.0 for n in w.LADDER}
    rung_calls = {n: 0 for n in w.LADDER}
    for _, t0, t1, args, _ in tracer.captured((ORACLE_FUNC,)):
        n = args["db"].mode_count
        if n in rung_time:
            rung_time[n] += t1 - t0
            rung_calls[n] += 1
    for n in w.LADDER:
        size = n + 1
        ran = rung_calls[n] > 0
        m[f"oracle.reduced_moments_exact.N{n}.time_s"] = (rung_time[n], "s")
        # computed from N, not measured: one dense (N+1)^2 float64 matrix, and
        # the Golub-Van Loan 9 n^3 count of a symmetric eigensolve with vectors
        m[f"oracle.matrix_bytes.N{n}"] = (8 * size * size if ran else 0, "B")
        m[f"oracle.eigh_flops.N{n}"] = (9 * size**3 if ran else 0, "flop")
    for fn in CLI_RUNNERS:
        m[f"cli.{fn}.time_s"] = (stats.get(f"cli.{fn}", {"time_s": 0.0})["time_s"], "s")
    return m


def print_table(header, metrics, notes):
    print(header)
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:<{width}}  {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    import workloads as w

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (w.SRC / "clausius_lab" / "__init__.py").is_file():
        print(f"run.py: no package source under {w.SRC}; run from a full checkout", file=sys.stderr)
        return 2

    import calibrate
    import referee
    from tracer import Tracer

    env = w.cli_env()
    cli = args.workload == "cli-session"
    module = "clausius_lab.cli" if cli else "clausius_lab"
    ops = w.make_ops(args.workload, args.seed, args.seconds)
    golden = w.load_golden()
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    header = (
        f"clausius-lab benchmark: workload={args.workload} seed={args.seed} ops={len(ops)} "
        f"trace={args.trace} blas_threads={threads} scan_pool_threads={os.environ['CLAUSIUS_LAB_THREADS']} "
        f"python={sys.version.split()[0]}"
    )
    notes: dict[str, str] = {}

    # untimed warm-up op; for cli-session only the session's first scenario
    warm_up = w.Op(args.workload, ops[0].params[:1]) if cli else ops[0]
    if args.trace == 0:
        reference = calibrate.SubprocessClock()
        setup_s, setup_wall = timed_setup(module, env, reference)
        run = w.runner(args.workload, between=reference.tick if cli else None)
        with contextlib.ExitStack() as stack:
            clock = stack.enter_context(calibrate.Clock()) if args.workload in w.CALIBRATED else None
            run(warm_up)
            results = run_ops(ops, run, stolen=clock and (lambda: clock.stolen))
        if cli:
            reference.tick()
        problems = judge(ops, results, golden, w)
        lat = [nominal_latency(r, clock, reference, cli) for r in results]
        wall = [op_wall(r, cli) for r in results]
        level, tail_value, beyond = tail(lat)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / sum(lat), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        }
        notes["setup_s"] = f"median of {SETUP_REPEATS} fresh interpreters importing {module}"
        notes["ops_per_s"] = notes["op_p50_s"] = "wall time" if clock is None and not cli else "at nominal host speed"
        notes["peak_rss_mb"] = "max over CLI subprocesses" if cli else "benchmark process"
        # the tail is a single sample on three workloads, so it is printed, not gated
        extra = {
            "op_tail_s": (tail_value, "s"),
            "wall.setup_s": (setup_wall, "s"),
            "host.subprocess_speed": (reference.factor(), "1"),
        }
        notes["op_tail_s"] = f"p{level:g} of {len(lat)} ops, {beyond} beyond"
        notes["wall.setup_s"] = "unscaled"
        notes["host.subprocess_speed"] = (
            f"nominal over mean reference time, {len(reference.samples)} runs; below 1 is slower"
        )
        if clock is not None or cli:
            extra["wall.ops_per_s"] = (len(ops) / sum(wall), "1/s")
            extra["wall.op_p50_s"] = (statistics.median(wall), "s")
            notes["wall.ops_per_s"] = "unscaled"
        if clock is not None:
            extra["host.speed"] = (clock.factor(), "1")
            notes["host.speed"] = f"nominal over mean kernel time, {len(clock.costs)} samples; below 1 is slower"
        if cli:
            for scenario in w.SCENARIOS:
                xs = [r[1][scenario].seconds * reference.factor() for r in results if r[1] is not None]
                if xs:
                    extra[f"scenario.{scenario}_s"] = (statistics.median(xs), "s")
                    notes[f"scenario.{scenario}_s"] = f"median of {len(xs)} subprocess runs"
        if args.workload == "oracle-ladder":
            extra["oracle.continuum_gap_max"] = (gap_max(ops, results, w), "1")
            notes["oracle.continuum_gap_max"] = "criterion-3 discretization gap at N=2048; reported, not failed"
    else:
        import_total, import_scipy = import_breakdown(module, env)
        run = w.runner(args.workload, in_process_cli=cli)
        run(warm_up)
        n_plain = max(1, len(ops) // 4)
        tracer = Tracer(capture=MOMENT_FUNCS + (ORACLE_FUNC,))
        plain, results = [], []
        with tracer:
            for i, op in enumerate(ops):
                if i < n_plain:  # an untraced twin, interleaved so machine drift cancels
                    tracer.uninstall()
                    plain += run_ops([op], run)
                    tracer.install()
                results += run_ops([op], run, tracer)
        problems = judge(ops, results, golden, w)
        for i, (a, b) in enumerate(zip(plain, results)):
            if a[1] != b[1] or a[2] != b[2]:
                problems[i].append("traced output differs from the untraced run")
        max_err = referee_misses(tracer, results, problems, referee)
        metrics = layer_metrics(tracer, ops, results, args.workload, w)
        metrics["bath.max_rel_err"] = (max_err, "1")
        metrics["oracle.continuum_gap_max"] = (gap_max(ops, results, w), "1")
        metrics["import.total_s"] = (import_total, "s")
        metrics["import.scipy_s"] = (import_scipy, "s")
        overhead = sum(r[0] for r in results[:n_plain]) / sum(r[0] for r in plain)
        metrics["trace.overhead_frac"] = (overhead, "1")
        calls = metrics["info.accessible_info_lower.calls"][0]
        if calls:
            notes["info.mutual_information.calls"] = (
                f"{metrics['info.mutual_information.calls'][0] / calls:g} per search"
            )
        notes["bath.moment_evals_per_op"] = f"base: {len(ops)} ops"
        notes["trace.overhead_frac"] = f"traced / untraced wall time over the first {n_plain} ops"
        notes["bath.max_rel_err"] = "worst captured moment against the closed-form referee"
        tracer.write(w.OUT / f"trace-{args.workload}-seed{args.seed}.json")
        extra = {}

    failed = sum(1 for p in problems if p)
    print_table(header, {**metrics, **extra, "failed_frac": (failed / len(ops), "1")}, notes)
    for i, p in enumerate(problems):
        if p:
            print(f"  FAILED op {i} {ops[i].params}: {'; '.join(p[:3])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _threads = str(nproc())
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CLAUSIUS_LAB_THREADS"):
        os.environ[_var] = _threads
    sys.path.insert(0, str(BENCH_DIR))
    raise SystemExit(main())
