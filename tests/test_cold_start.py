"""Cold start: each scipy submodule loads only when a call needs it.

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

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")
SETUP = """
import json
import sys
import numpy as np
from clausius_lab import *
o, b = OscillatorParams(1.0, 1.0), BathSpec(0.05, 5.0, 100.0)
def loaded():
    print("loaded:", json.dumps([m for m in {heavy!r} if m in sys.modules]))
"""


def loaded_after(*steps, tmp_path):
    """The heavy submodules loaded after each step, in a fresh interpreter."""
    src = str(Path(clausius_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "".join(f"{step}\nloaded()\n" for step in steps)
    out = subprocess.run(
        [sys.executable, "-c", SETUP.format(heavy=HEAVY) + code],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return [set(json.loads(line[7:])) for line in out.splitlines() if line.startswith("loaded:")]


def test_cli_import_unchecked_op_and_resolve_load_none(tmp_path):
    steps = [
        "import clausius_lab.cli",
        "composed_process(o, b, 0.05, check_consistency=False)",
        "clausius_lab.cli.main(['resolve', '--out', 'out'])",
    ]
    assert loaded_after(*steps, tmp_path=tmp_path) == [set(), set(), set()]
    assert (tmp_path / "out" / "resolve.csv").is_file()


@pytest.mark.parametrize(
    "call, needed, absent",
    [
        ("moments_spectral(o, b)", "scipy.integrate", ()),
        ("composed_process(o, b, 0.05)", "scipy.integrate", ()),
        (
            "accessible_info_lower(Ensemble(np.array([1.0]), (DensityMatrix(np.eye(2) / 2),)), effort=4)",
            "scipy.optimize",
            ("scipy.integrate",),
        ),
        (
            "reduced_moments_exact(sample_bath(b, o, 16, 2000.0), o, 0.05)",
            "scipy.linalg",
            ("scipy.integrate", "scipy.optimize"),
        ),
    ],
)
def test_each_call_loads_the_module_it_needs(call, needed, absent, tmp_path):
    before, after = loaded_after("", call, tmp_path=tmp_path)
    assert before == set()
    assert needed in after
    assert not after & set(absent)
