"""Lint: every name a library module, test or tool imports is used in it.

No linter ships with the toolchain, so this test stands in for one.
"""

import ast
from pathlib import Path

import pytest

import clausius_lab

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in Path(clausius_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")
MODULES += sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("tools/*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
