"""The README's library example and its table of the closed form's range,
checked against the package."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from clausius_lab import bath

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_the_library_example_prints_what_its_comments_show():
    # each comment under a print shows its numbers to 4 digits, truncated
    # (the composed heat prints -0.365967...), and its verdict
    code = re.search(r"^## Library example\n\n```python\n(.*?)^```$", README, re.M | re.S).group(1)
    shown = [line[2:].split("<-")[0].split() for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(shown) == 2
    for (*numbers, verdict), (*want, want_verdict) in zip(printed, shown):
        assert verdict == want_verdict
        assert [float(x) for x in numbers] == pytest.approx([float(x) for x in want], abs=1e-4)


def test_the_range_table_states_the_closed_forms_bounds():
    rows = re.findall(r"^\| [^|]+ \| `([^`]+)` \| `(_MAX_\w+)` \|$", README, re.M)
    assert len(rows) == 3
    assert {name: bound for bound, name in rows} == {
        name: f"{getattr(bath, name):g}" for name in ("_MAX_C1", "_MAX_NU1", "_MAX_CUTOFF")
    }
