"""Cold start: the package loads no scipy module, and of the heavy calls only
the oracle loads one, scipy's LAPACK extension by itself, not the scipy.linalg
package; the spectral route, the checked process and the measurement search
need none. No call loads numpy.random: the oracle's reduction probe is a fixed
vector.

Every case runs in a fresh interpreter, since the test process itself has
imported everything by the time it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clausius_lab

SETUP = """
import json
import sys
def loaded():
    print("loaded:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.random")))
"""
BB84 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bb84.txt"
LAPACK = {"scipy.linalg._flapack"}
POINT = "import numpy as np\nfrom clausius_lab import *\no, b = OscillatorParams(1.0, 1.0), BathSpec(0.05, 5.0, 100.0)"


def loaded_after(*steps, tmp_path):
    """The scipy modules, and numpy.random if it is, loaded after each step,
    in a fresh interpreter."""
    src = str(Path(clausius_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "".join(f"{step}\nloaded()\n" for step in steps)
    out = subprocess.run(
        [sys.executable, "-c", SETUP + code],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return [set(json.loads(line[7:])) for line in out.splitlines() if line.startswith("loaded:")]


def test_cli_import_unchecked_op_and_resolve_load_none(tmp_path):
    steps = [
        "import clausius_lab",
        "import clausius_lab.cli",
        POINT,
        "moments_matsubara(o, b)",
        "coupling_free_energy(o, b)",
        "composed_process(o, b, 0.05, check_consistency=False)",
        "assert clausius_lab.cli.main(['resolve', '--out', 'out']) == 0",
    ]
    assert loaded_after(*steps, tmp_path=tmp_path) == [set()] * len(steps)
    assert (tmp_path / "out" / "resolve.csv").is_file()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["moments"], set()),
        (["sweep", "--param", "mass", "--start", "1", "--end", "2"], set()),
        (["violation-scan"], set()),
        (["holevo", "--ensemble", str(BB84)], set()),
        (["oracle", "--modes", "8,16"], LAPACK),
    ],
    ids=["moments", "sweep", "violation-scan", "holevo", "oracle"],
)
def test_cli_scenario_loads_what_it_needs(argv, loaded, tmp_path):
    step = f"import clausius_lab.cli\nassert clausius_lab.cli.main({argv + ['--out', 'out']!r}) == 0"
    assert loaded_after(step, tmp_path=tmp_path) == [loaded]
    assert (tmp_path / "out" / f"{argv[0]}.csv").is_file()


@pytest.mark.parametrize(
    "call, loaded",
    [
        ("moments_spectral(o, b)", set()),
        ("composed_process(o, b, 0.05)", set()),
        (
            "accessible_info_lower(Ensemble(np.array([0.5, 0.5]), (DensityMatrix(np.diag([1.0, 0.0])),"
            " DensityMatrix(np.full((2, 2), 0.5)))), effort=4)",
            set(),
        ),
        ("reduced_moments_exact(sample_bath(b, o, 16, 2000.0), o, 0.05)", LAPACK),
    ],
)
def test_each_call_loads_the_module_it_needs(call, loaded, tmp_path):
    assert loaded_after(POINT, call, tmp_path=tmp_path) == [set(), loaded]


def test_scipy_linalg_imported_after_the_oracle_reuses_its_lapack_extension(tmp_path):
    steps = [
        POINT,
        "reduced_moments_exact(sample_bath(b, o, 16, 2000.0), o, 0.05)\noracle_lapack = sys.modules['scipy.linalg._flapack']",
        "import scipy.linalg\nassert scipy.linalg.lapack._flapack is oracle_lapack\n"
        "assert np.array_equal(scipy.linalg.eigh(np.diag([2.0, 1.0]), eigvals_only=True), [1.0, 2.0])",
    ]
    assert "scipy.linalg" in loaded_after(*steps, tmp_path=tmp_path)[-1]
