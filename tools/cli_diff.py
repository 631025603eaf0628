"""Byte comparison of the CLI's outputs between this checkout and a base revision.

    python3 tools/cli_diff.py --base HEAD~1

The base revision's committed files are exported by ``ab_bench.export`` into
``.bench_build/<sha>/`` (gitignored); the change side is this checkout, as it
stands on disk. Each side runs one fixed list of invocations of
``python -m clausius_lab.cli``, each as a fresh subprocess with that side's
``src`` on PYTHONPATH and its own output directory; data files are read from
this checkout's ``perfbench/data/``. For every invocation the CSV and SVG
files, stdout (the output directory masked), stderr (the side's root masked)
and the exit code are compared. Every difference is printed, and the exit
code is 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, export

DATA = ROOT / "perfbench" / "data"
FLAGSHIP = ("--temperature", "0.05", "--damping", "5", "--cutoff", "100")
INVOCATIONS = (
    ("moments",),
    ("moments", *FLAGSHIP, "--bits"),
    ("resolve",),
    ("resolve", "--config", str(DATA / "resolve.cfg")),
    ("resolve", "--temperature", "0.2", "--damping", "1", "--cutoff", "50", "--mass-factor", "4", "--bits"),
    ("sweep", "--config", str(DATA / "resolve.cfg"), "--param", "mass", "--start", "1", "--end", "2", "--svg"),
    ("sweep", *FLAGSHIP, "--param", "damping", "--start", "0", "--end", "5", "--bits"),
    ("holevo", "--ensemble", str(DATA / "bb84.txt")),
    ("holevo", "--ensemble", str(DATA / "bb84.txt"), "--effort", "6", "--bits", "--temperature", "2"),
    ("violation-scan",),
    ("violation-scan", "--mass-factor", "1000"),
    ("violation-scan", "--mass-factor", "0.001", "--bits"),
    ("violation-scan", "--mass-factor", "1e-300"),
    ("oracle", "--modes", "64,128"),
    ("oracle",),
    # close roots: critical damping at wD = 50, the triple root, a damping sweep
    # whose row 5 sits at critical damping, a checked path that ends there, and
    # a real root far below its gamma = 0 limit
    ("moments", "--temperature", "0.05", "--damping", "1.9595831051021968", "--cutoff", "50", "--bits"),
    ("moments", "--temperature", "0.01", "--damping", "1.5396007178390019", "--cutoff", "5.196152422706632", "--bits"),
    ("sweep", "--temperature", "0.05", "--cutoff", "50", "--param", "damping", "--start", "0",
     "--end", "3.9191662102043936", "--bits"),
    ("resolve", "--temperature", "0.05", "--damping", "1.9595831051021968", "--cutoff", "50", "--bits"),
    ("resolve", "--temperature", "1e-30", "--damping", "1e30", "--cutoff", "10"),
    # configuration errors: exit code 2, a message and no output file
    ("sweep", "--param", "foo"),
    ("moments", "--temperature", "-1"),
    ("sweep", "--param", "mass", "--start", "0", "--end", "1"),
    ("sweep", "--start", "nan"),
    ("sweep", "--param", "mass", "--start", "1", "--end", "inf"),
    ("moments", "--temperature", "nan"),
    ("resolve", "--mass-factor", "inf"),
    ("oracle", "--cutoff", "inf"),
    ("holevo", "--ensemble", str(DATA / "bb84.txt"), "--temperature", "nan"),
    ("oracle", "--modes", "64,64"),
    ("sweep", "--grid", "8"),
    ("holevo", "--ensemble", str(DATA / "bb84.txt"), "--effort", "1"),
    # numerical failures: exit code 1, one message and no output file
    ("resolve", "--damping", "5e-324"),
    ("resolve", "--temperature", "1e300"),
    ("oracle", "--cutoff", "1e150", "--modes", "8,16"),
    ("oracle", "--cutoff", "1e160", "--modes", "8,16"),
    ("oracle", "--cutoff", "1e307", "--modes", "8,16"),
    # stiffnesses of 3.5e301 and 4e202, which the eigensolve scales into
    # LAPACK's range, and a bath with zero coupling
    ("oracle", "--damping", "1e300", "--modes", "8,16"),
    ("oracle", "--cutoff", "1e100", "--modes", "8,16"),
    ("oracle", "--damping", "0", "--modes", "8,16"),
    # wide bands: the free energy's series beside nodes of ~1e17, cutoffs past
    # the closed form's range, and gamma = 0 beyond it, at a point and along
    # a mass sweep; and gamma = 0 along a mass sweep at masses near 1e200
    ("resolve", "--temperature", "5", "--cutoff", "1e18"),
    ("resolve", "--damping", "0.5", "--cutoff", "1e154"),
    ("moments", "--damping", "0", "--cutoff", "1e300"),
    ("sweep", "--damping", "0", "--cutoff", "1e200", "--param", "mass", "--start", "1", "--end", "2"),
    ("sweep", "--damping", "0", "--param", "mass", "--start", "1e200", "--end", "2e200"),
    ("moments", "--damping", "0.5", "--cutoff", "1e152"),
)


def run(root: Path, argv: tuple[str, ...], out: Path) -> dict[str, str]:
    """One invocation from ``root``'s source: its outputs by name."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, "-m", "clausius_lab.cli", *argv, "--out", str(out)]
    proc = subprocess.run(cmd, cwd=out.parent, env=env, capture_output=True, text=True)
    result = {
        "exit code": f"{proc.returncode}\n",
        "stdout": proc.stdout.replace(str(out), "<out>"),
        "stderr": proc.stderr.replace(str(root), "<root>"),
    }
    if out.is_dir():
        result.update((p.name, p.read_text(encoding="utf-8")) for p in sorted(out.iterdir()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the base revision (default HEAD~1)")
    args = parser.parse_args(argv)
    roots = {"base": export(args.base), "change": ROOT}
    differing = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        for i, invocation in enumerate(INVOCATIONS):
            base, change = (run(root, invocation, Path(tmp) / f"{side}-{i}") for side, root in roots.items())
            diffs = [
                difflib.unified_diff(base.get(name, "").splitlines(), change.get(name, "").splitlines(),
                                     f"base/{name}", f"change/{name}", n=0, lineterm="")
                for name in sorted(base.keys() | change.keys())
                if base.get(name) != change.get(name)
            ]
            print(f"{'DIFFERS' if diffs else 'same   '} {' '.join(invocation)}", flush=True)
            for diff in diffs:
                print("\n".join(diff))
            differing += bool(diffs)
    print(f"{differing} of {len(INVOCATIONS)} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
