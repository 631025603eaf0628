"""Cold start: the package loads no scipy module, and of the heavy calls only
the oracle loads one, scipy.linalg; the spectral route, the checked process
and the measurement search need none.

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
    print("loaded:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
BB84 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "bb84.txt"
POINT = "import numpy as np\nfrom clausius_lab import *\no, b = OscillatorParams(1.0, 1.0), BathSpec(0.05, 5.0, 100.0)"


def loaded_after(*steps, tmp_path):
    """The scipy modules loaded after each step, in a fresh interpreter."""
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
    "argv",
    [
        ["moments"],
        ["sweep", "--param", "mass", "--start", "1", "--end", "2"],
        ["violation-scan"],
        ["holevo", "--ensemble", str(BB84)],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_scenario_loads_no_scipy(argv, tmp_path):
    step = f"import clausius_lab.cli\nassert clausius_lab.cli.main({argv + ['--out', 'out']!r}) == 0"
    assert loaded_after(step, tmp_path=tmp_path) == [set()]
    assert (tmp_path / "out" / f"{argv[0]}.csv").is_file()


@pytest.mark.parametrize(
    "call, needed, absent",
    [
        ("moments_spectral(o, b)", None, ()),
        ("composed_process(o, b, 0.05)", None, ()),
        (
            "accessible_info_lower(Ensemble(np.array([0.5, 0.5]), (DensityMatrix(np.diag([1.0, 0.0])),"
            " DensityMatrix(np.full((2, 2), 0.5)))), effort=4)",
            None,
            (),
        ),
        (
            "reduced_moments_exact(sample_bath(b, o, 16, 2000.0), o, 0.05)",
            "scipy.linalg",
            ("scipy.integrate", "scipy.optimize"),
        ),
    ],
)
def test_each_call_loads_the_module_it_needs(call, needed, absent, tmp_path):
    before, after = loaded_after(POINT, call, tmp_path=tmp_path)
    assert before == set()
    if needed is None:
        assert after == set()
    else:
        assert needed in after
        assert not after & set(absent)
