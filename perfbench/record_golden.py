"""Record the reference values the output checks compare against.

    python3 perfbench/record_golden.py

Writes perfbench/data/golden.json: the discrete-bath oracle moments of every
point an oracle op can visit, at every ladder rung, and the CSVs of the CLI
scenarios whose heat columns and flags have no closed form. Run it only at a
commit whose outputs are trusted; the file in the repository was recorded at
the commit that introduced the benchmark.
"""

from __future__ import annotations

import json

import numpy as np

import workloads as w


def main() -> None:
    golden = {"oracle": {}, "cli": {}}
    for point in [w.FLAGSHIP[:3], w.CLI_ORACLE_POINT, *w.DAMPED_GRID]:
        moments = w.run_ladder(w.Op("oracle-ladder", point))
        golden["oracle"][w._golden_key(point)] = {
            str(n): [m.f1, m.f2] for n, m in zip(w.LADDER, moments)
        }
    rng = np.random.default_rng(0)
    for scenario in ("resolve", "sweep", "violation-scan", "oracle"):
        result = w.run_cli_inprocess(scenario, w._cli_argv(scenario, rng))
        if result.returncode != 0:
            raise SystemExit(f"{scenario} failed: {result.stderr}")
        golden["cli"][f"{scenario}.csv"] = result.files[f"{scenario}.csv"]
    path = w.DATA / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
