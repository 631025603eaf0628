"""A/B benchmark of this checkout against a base revision, as BENCH_<pr>.json.

    python3 tools/ab_bench.py --pr 8 --base HEAD~1 --change "what changed"

The base revision's committed files are exported with ``git archive`` into
``.bench_build/<sha>/`` (gitignored); the change side is this checkout, as it
stands on disk. For every workload and seed, ``perfbench/run.py --trace 0``
runs once on each side from that side's root, the base first on odd seeds and
the change first on even ones, so drift of the host cancels in the pairs.
Then ``--trace 1`` runs once per side on seed 3 of oracle-ladder and
cli-session, for the per-layer metrics: import time, the oracle's time per
rung and the CLI scenarios' times. Seeds 1-10, every workload and the run
length of BENCHMARK.json are fixed, so both sides always run the same plan.
Last, each side times seven layers in its own fresh interpreters, nine
rounds alternating which side goes first (``LAYERS``): the first checked
``composed_process`` of a fresh interpreter, lazy imports included, and the
interpreter's first oracle rung, N = 256 at the CLI oracle point (T = 1,
gamma = 1, wD = 100), the load of its LAPACK routines included; then,
after a warm-up call, the mean over a block of calls of a checked
``entropy_change`` on the flagship damping path 0 -> 5 (50), of the
checked flagship ``composed_process`` (50), the op of checked-cold, of the
unchecked flagship ``composed_process`` (300), the op of resolve-grid, and
of one oracle rung, ``reduced_moments_exact`` at the CLI
oracle point with N = 512 (20) and N = 2048 (3) modes. The traced runs above
time each rung once per side, which cannot show a rung getting faster; these
can. Each
layer is reported as the best of the rounds, the number a layer cost when
nothing else on the host interfered, with the median and the worst round as
its spread.

The parent is exported rather than checked out in a git worktree: the
benchmark then runs on exactly the committed files, and nothing is left
registered in the repository's metadata if a run is interrupted.

The result mirrors BENCH_5.json: for each workload and each end-to-end metric
of BENCHMARK.json, the [q25, median, q75] of each side, the number of pairs
the change wins (by the metric's own "better" direction), and the ratio of
the medians; the same for each CLI scenario's subprocess time on
cli-session (``scenario.<name>_s``, lower is better, reported and not gated);
and the traced metrics of each side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
SEEDS = range(1, 11)
TRACE_SEED, TRACED = 3, ("oracle-ladder", "cli-session")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str) -> Path:
    """The committed files of ``rev`` under .bench_build/<sha>/, exported once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / sha
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = BUILD / f"{sha}.tar"
        subprocess.run(["git", "archive", "--output", str(archive), sha], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(dest, filter="data")
        archive.unlink()
    return dest


def run_once(command: list, root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run from ``root``: its JSON line, or a failed record."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    result = json.loads(lines[-1])
    # an untraced cli-session run prints each scenario's subprocess time in its
    # table only; they join the metrics as reported, ungated values
    for name, value in re.findall(r"^\s+(scenario\.\S+)\s+(\S+) s\s", proc.stdout, re.M):
        result["metrics"][name] = {"value": float(value), "unit": "s"}
    return result


# in-process layer timings at the flagship point (T = 0.05, gamma = 5, wD =
# 100) and oracle rungs at the CLI oracle point, printed as one JSON line; the
# first checked process and the first rung of a fresh interpreter are timed
# before the warm-up of the others
LAYERS = """
import json, time
from clausius_lab import (BathSpec, OscillatorParams, ProcessPath, composed_process, default_omega_max,
                          entropy_change, reduced_moments_exact, sample_bath)
o, b = OscillatorParams(1.0, 1.0), BathSpec(0.05, 5.0, 100.0)
cli = BathSpec(1.0, 1.0, 100.0)
rung = {n: sample_bath(cli, o, n, default_omega_max(o, cli)) for n in (256, 512, 2048)}

def first_call(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0

first_process = first_call(lambda: composed_process(o, b, 0.05))
first_rung = first_call(lambda: reduced_moments_exact(rung[256], o, cli.temperature))

def per_call(call, repeats):
    call()
    t0 = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - t0) / repeats

print(json.dumps({
    "first_checked_composed_process_s": first_process,
    "first_oracle_rung_N256_s": first_rung,
    "checked_entropy_change_s": per_call(lambda: entropy_change(ProcessPath("damping", 0.0, 5.0), o, b), 50),
    "checked_composed_process_s": per_call(lambda: composed_process(o, b, 0.05), 50),
    "unchecked_composed_process_s": per_call(lambda: composed_process(o, b, 0.05, check_consistency=False), 300),
    "oracle_rung_N512_s": per_call(lambda: reduced_moments_exact(rung[512], o, cli.temperature), 20),
    "oracle_rung_N2048_s": per_call(lambda: reduced_moments_exact(rung[2048], o, cli.temperature), 3),
}))
"""
LAYER_ROUNDS = 9


def layer_timings(roots: dict) -> dict:
    """Per side and LAYERS timing, the best, the median and the worst of
    LAYER_ROUNDS fresh interpreters, the sides alternating which runs first."""
    samples = {side: [] for side in roots}
    for i in range(LAYER_ROUNDS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            env = {**os.environ, "PYTHONPATH": str(roots[side] / "src")}
            out = subprocess.run([sys.executable, "-c", LAYERS], env=env, cwd=roots[side],
                                 check=True, capture_output=True, text=True).stdout
            samples[side].append(json.loads(out.strip().splitlines()[-1]))
    spreads = {}
    for side, runs in samples.items():
        spreads[side] = {}
        for name in runs[0]:
            values = [run[name] for run in runs]
            spreads[side][name] = {"best": min(values), "median": statistics.median(values), "worst": max(values)}
    return spreads


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) == 1:
        return [xs[0]] * 3
    q25, q50, q75 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q25, 6), round(q50, 6), round(q75, 6)]


def summarize(runs: dict, workloads, seeds, gated) -> dict:
    """Per workload and gated metric, and per CLI scenario time: quartiles per
    side, change wins, ratio of medians."""
    out = {}
    for wl in workloads:
        pairs = [(runs[("parent", wl, s, 0)], runs[("change", wl, s, 0)]) for s in seeds]
        entry = {
            "pairs": len(pairs),
            "failed_parent": sum(p["failed"] if p["failed"] is not None else 1 for p, _ in pairs),
            "failed_change": sum(c["failed"] if c["failed"] is not None else 1 for _, c in pairs),
        }
        scenarios = sorted({name for p, _ in pairs for name in p["metrics"] if name.startswith("scenario.")})
        for name, better in [*gated.items(), *((name, "lower") for name in scenarios)]:
            both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                    if name in p["metrics"] and name in c["metrics"]]
            if not both:
                continue
            base, change = [b for b, _ in both], [c for _, c in both]
            wins = sum((c < b) if better == "lower" else (c > b) for b, c in both)
            entry[name] = {
                "parent_q25_median_q75": quartiles(base),
                "change_q25_median_q75": quartiles(change),
                "change_wins": wins,
                "ratio_of_medians": round(statistics.median(change) / statistics.median(base), 4),
            }
        out[wl] = entry
    return out


def host() -> str:
    import numpy
    import scipy

    return (f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1", help="the parent revision (default HEAD~1)")
    parser.add_argument("--change", required=True, help="one line: what the change does")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": export(args.base), "change": ROOT}

    plan = []
    for wl in workloads:
        for seed in SEEDS:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            plan += [(side, wl, seed, 0) for side in sides]
    plan += [(side, wl, TRACE_SEED, 1) for wl in TRACED for side in ("parent", "change")]
    runs = {}
    for i, key in enumerate(plan, 1):
        side, wl, seed, trace = key
        runs[key] = result = run_once(spec["command"], roots[side], wl, seed, seconds, trace)
        print(f"[{i}/{len(plan)}] {side} {wl} seed={seed} trace={trace} "
              f"correct={result['correct']} {result.get('error', '')}", flush=True)

    command = f"{' '.join(spec['command'])} --workload W --seed S --seconds {seconds:g}"
    per_layer = {"command": f"{command.replace('--seed S', f'--seed {TRACE_SEED}')} --trace 1"}
    for wl in TRACED:
        per_layer[wl] = {}
        for side in ("parent", "change"):
            r = runs[(side, wl, TRACE_SEED, 1)]
            per_layer[wl][side] = {
                "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                **{k: v["value"] for k, v in sorted(r["metrics"].items())},
            }
    per_layer["in_process"] = {
        "code": "tools/ab_bench.py LAYERS, best, median and worst of the per-interpreter values over "
                f"{LAYER_ROUNDS} fresh interpreters per side, in seconds per call",
        **layer_timings(roots),
    }
    result = {
        "change": args.change,
        "base": git("rev-parse", args.base),
        "host": host(),
        "end_to_end": {
            "command": f"{command} --trace 0",
            "seeds": list(SEEDS),
            "pairs_per_workload": len(SEEDS),
            "order": "parent first on odd seeds, change first on even seeds",
            "metrics": summarize(runs, workloads, SEEDS, gated),
            "note": "quartiles are [q25, median, q75] over the runs of each side; "
                    "change_wins counts pairs in which the change is better",
        },
        "per_layer": per_layer,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
