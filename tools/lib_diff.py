"""Bit comparison of the library's results between this checkout and a base revision.

    python3 tools/lib_diff.py --base HEAD~1

The library's counterpart of ``tools/cli_diff.py``. The base revision's
committed files are exported by ``ab_bench.export`` into
``.bench_build/<sha>/`` (gitignored); the change side is this checkout, as it
stands on disk. Each side runs this script with ``--side`` in a fresh
interpreter, with that side's ``src`` on PYTHONPATH, over one fixed scan of
474 points (``points``): the acceptance grid (5 T x 5 gamma x 2 wD at the
mass factors 0.5, 2 and 4), seeded log-spread points, seeded wide-range
points, and fixed points at the closed form's edges and at strong coupling.
At every point it calls each op of ``_ops``: the process ops, both moment
routes, the coupling free energy, and the ``sweep`` scenario's rows along
both path kinds. It writes one line per call: every field of the result
as ``float.hex``, or the exception's type, message and diagnostics, then
each distinct warning the call emitted. Every line that differs between
the sides is printed, then a tally of the differing calls by kind (value or refusal
on each side), and of the base side's refusals that became values, by type,
message and diagnostic names, then per side the number of checked ``EntropyChange``
results whose error estimate is below their mismatch, which it should
bound, and last, for each checked op, the kernel calls and kernel points
(rows of ``process._matsubara_moments``' calls, states and quadrature
nodes alike, counted alike whether the kernel takes its nodes as a second
array of dampings or as a boolean mask over its first) that it made over
the whole scan on each side; the exit code
is 1 if any call differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from ab_bench import ROOT, export

# the acceptance grid of tests/test_acceptance.py, at three mass factors
TEMPERATURES = (0.05, 0.2, 1.0, 5.0, 20.0)
DAMPINGS = (0.0, 0.1, 1.0, 5.0, 10.0)
CUTOFFS = (50.0, 200.0)
FACTORS = (0.5, 2.0, 4.0)
FLAGSHIP = (1.0, 0.05, 5.0, 100.0)  # w, T, gamma, wD at M = 1


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def points() -> list[tuple[float, float, float, float, float, float]]:
    """The scan, as (M, w, T, gamma, wD, mass factor)."""
    scan = [(1.0, 1.0, t, g, wd, k) for (t, g, wd), k in itertools.product(
        itertools.product(TEMPERATURES, DAMPINGS, CUTOFFS), FACTORS)]
    rng = random.Random(28)
    for _ in range(240):  # the kernel's log-ranges, with M, w and the factor spread too
        scan.append((
            _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 1e-6, 1e3),
            _log_uniform(rng, 1e-8, 1e3), _log_uniform(rng, 5.0, 1e3), _log_uniform(rng, 1e-3, 1e3),
        ))
    for _ in range(60):  # wide ranges, into the refusals
        scan.append((
            _log_uniform(rng, 1e-100, 1e100), 1.0, _log_uniform(rng, 1e-3, 1e3),
            rng.choice([0.0, _log_uniform(rng, 1e-200, 1e3)]), _log_uniform(rng, 10.0, 1e308),
            _log_uniform(rng, 1e-300, 1e300),
        ))
    w, t, g, wd = FLAGSHIP
    scan += [(1.0, w, t, g, wd, k) for k in (2.0, 1e-300, 1e300)]
    # flagship frequencies scaled far down, where the cubic's coefficients underflow
    scan += [(1.0, *(math.ldexp(v, k) for v in FLAGSHIP), 2.0) for k in (-350, -400, -600, -800, -1000)]
    scan += [
        (1e160, 1.0, 1.0, 1.0, 100.0, 2.0),  # M^2 past float64's range
        (1e150, 1.0, 1.0, 1.0, 100.0, 2.0),
        (1.0, 1e160, 1.0, 1.0, 1e162, 2.0),  # w^2 past float64's range
        (1.0, 1.0, 0.01, 0.3, 200.0, 2.0),  # a damping path whose v rounds onto 1/2
        (1.0, 1.0, 0.05, 1.98, 100.0, 2.0),  # a pair between the close-pair thresholds
        (1.0, 1.0, 0.05, 1.9595831051021968, 50.0, 2.0),  # critical damping
        (1.0, 1.0, 0.01, 1.5396007178390019, 5.196152422706632, 2.0),  # the triple root
        (1.0, 1.0, 1e-30, 1e30, 10.0, 2.0),
        (1.0, 1.0, 1.0, 5e-324, 100.0, 2.0),
        (1.0, 1.0, 1e300, 1.0, 100.0, 2.0),
        (1.0, 1.0, 5.0, 1.0, 1e18, 2.0),
        (1.0, 1.0, 1.0, 0.5, 1e154, 2.0),
        # strong coupling, where the real root ~ w^2/gamma is far below nu1
        (1.0, 1.0, 0.05, 917077450674293.1, 100.0, 2.0),
        (1.0, 1.0, 2787.270389510236, 435239845.9383163, 64090930.086138286, 2.0),
        (1.0, 1.0, 3.340889713911804e19, 5.540687671385791e53, 1.5433104480732924e21, 2.0),
        (1.0, 1e-155, 1.0, 0.5, 100.0, 2.0),  # w^2 subnormal, where 1/w^2 overflows
    ]
    return scan


def _ops(lab):
    """Each op of the scan, by name, as a function of (o, b, mass factor)."""
    process = lab.process
    ops = {}
    for checked in (True, False):
        tag = "checked" if checked else "unchecked"
        ops[f"composed_process/{tag}"] = lambda o, b, k, ch=checked: process.composed_process(
            o, b, b.temperature, mass_factor=k, check_consistency=ch)
        ops[f"mass_process/{tag}"] = lambda o, b, k, ch=checked: process.mass_process(
            o, b, b.temperature, mass_factor=k, check_consistency=ch)
        ops[f"coupling_process/{tag}"] = lambda o, b, k, ch=checked: process.coupling_process(
            o, b, b.temperature, check_consistency=ch)
        ops[f"entropy_change/damping/{tag}"] = lambda o, b, k, ch=checked: process.entropy_change(
            process.ProcessPath("damping", 0.0, b.damping), o, b, check_consistency=ch)
        ops[f"entropy_change/mass/{tag}"] = lambda o, b, k, ch=checked: process.entropy_change(
            process.ProcessPath("mass", o.mass, o.mass * k), o, b, check_consistency=ch)
    ops["heat/damping"] = lambda o, b, k: process.heat(process.ProcessPath("damping", 0.0, b.damping), o, b)
    ops["heat/mass"] = lambda o, b, k: process.heat(process.ProcessPath("mass", o.mass, o.mass * k), o, b)
    ops["moments_matsubara"] = lambda o, b, k: lab.moments_matsubara(o, b)
    ops["moments_spectral"] = lambda o, b, k: lab.moments_spectral(o, b)
    ops["coupling_free_energy"] = lambda o, b, k: lab.coupling_free_energy(o, b)
    # the sweep scenario's rows, at M = w = 1 as the CLI fixes them: the mass
    # path 1 -> k and the damping path 0 -> gamma
    from clausius_lab import cli
    for param in ("mass", "damping"):
        ops[f"run_sweep/{param}"] = lambda o, b, k, p=param: cli.run_sweep(cli.RunConfig(
            "sweep", b.temperature, b.damping, b.cutoff, param=p, start=1.0 if p == "mass" else 0.0,
            end=k if p == "mass" else b.damping), Path("."))[1]
    return ops


def _fmt(x) -> str:
    """x with every float as float.hex, recursively."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return repr(x)
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={_fmt(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({', '.join(fields)})"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in sorted(x.items())) + "}"
    if hasattr(x, "tolist"):  # numpy scalars and arrays
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return f"({x.real.hex()}, {x.imag.hex()})"
    return repr(x)


def scan_side() -> None:
    """Runs the scan in this interpreter, one line per call to stdout, then
    one ``kernel <op> <calls> <points>`` line per checked op."""
    import clausius_lab as lab

    ops = _ops(lab)
    work = dict.fromkeys(ops, (0, 0))  # per op, its kernel calls and points so far
    kernel = lab.process._matsubara_moments

    def counted(*args, **kwargs):  # booked to the op the loop below is calling, ``name``
        # the points are the states plus the nodes: a kernel that takes its
        # nodes as a boolean mask over its first argument holds them there
        nodes = np.asarray(kwargs.get("nodes", ()))
        calls, size = work[name]
        work[name] = calls + 1, size + np.size(args[0]) + (0 if nodes.dtype == bool else nodes.size)
        return kernel(*args, **kwargs)

    lab.process._matsubara_moments = counted
    for i, (mass, w, t, g, wd, k) in enumerate(points()):
        o, b = lab.OscillatorParams(mass, w), lab.BathSpec(t, g, wd)
        for name, op in ops.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = _fmt(op(o, b, k))
                except Exception as e:  # noqa: BLE001 - every exception is part of the output
                    out = f"{type(e).__name__}: {e} {_fmt(getattr(e, 'diagnostics', {}))}"
            shown = dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught)  # each once, in order
            print(f"{i} {name} {out}" + "".join(f" | {s}" for s in shown))
    for name, (calls, size) in work.items():
        if "/checked" in name:
            print(f"kernel {name} {calls} {size}")


_REFUSAL = re.compile(r"(\w+): (.*?)(?: \(\w+=.*\))? \{(.*?)\}(?: \| .*)?$")
_ENTROPY_CHANGE = re.compile(r"EntropyChange\(value=(\S+), quadrature=(\S+), error_estimate=(\S+),")


def _kind(line: str) -> str:
    """"refusal" if the call of a scan line raised, else "value"."""
    return "refusal" if re.match(r"\w+: ", line.split(" ", 2)[2]) else "value"


def _refusal(line: str) -> str:
    """The type, message and diagnostic names of a refusal's scan line."""
    kind, message, diagnostics = _REFUSAL.match(line.split(" ", 2)[2]).groups()
    names = re.findall(r"(\w+): ", diagnostics)
    return f"{kind}: {message} [{', '.join(names)}]"


def _unbounded(lines: list[str]) -> int:
    """The number of ``EntropyChange`` results among scan lines whose error estimate is below their mismatch."""
    found = (_ENTROPY_CHANGE.search(line) for line in lines)
    values = ([float.fromhex(x) for x in m.groups()] for m in found if m)
    return sum(estimate < abs(value - quadrature) for value, quadrature, estimate in values)


def run(root) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """The scan's lines from ``root``'s source, in a fresh interpreter, and
    each checked op's kernel calls and points."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, __file__, "--side"], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    work = {op: (int(calls), int(size)) for _, op, calls, size in (x.split() for x in lines if x.startswith("kernel "))}
    return [x for x in lines if not x.startswith("kernel ")], work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the base revision (default HEAD~1)")
    parser.add_argument("--side", action="store_true", help="run the scan on the importable clausius_lab")
    args = parser.parse_args(argv)
    if args.side:
        scan_side()
        return 0
    (base, base_work), (change, change_work) = run(export(args.base)), run(ROOT)
    if len(base) != len(change):
        print(f"the sides made {len(base)} and {len(change)} calls")
        return 1
    kinds = {f"{b}->{c}": 0 for b in ("value", "refusal") for c in ("value", "refusal")}
    lifted = collections.Counter()  # the base's refusals that became values
    for b, c in zip(base, change):
        if b != c:
            kind = f"{_kind(b)}->{_kind(c)}"
            kinds[kind] += 1
            if kind == "refusal->value":
                lifted[_refusal(b)] += 1
            print(f"base:   {b}\nchange: {c}")
    differing = sum(kinds.values())
    tally = ", ".join(f"{kind} {n}" for kind, n in kinds.items())
    print(f"{differing} of {len(base)} calls at {len(points())} points differ: {tally}")
    for refusal, n in lifted.most_common():
        print(f"  refusal->value {n}: base {refusal}")
    print(f"checks with error_estimate < mismatch: base {_unbounded(base)}, change {_unbounded(change)}")
    print("kernel work over the scan, base -> change:")
    for op, (calls, size) in change_work.items():
        was_calls, was_size = base_work[op]
        print(f"  {op}: {was_calls} -> {calls} calls, {was_size} -> {size} points")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
