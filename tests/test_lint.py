"""Lint: every name a library module, test or tool imports is used in it,
and every private module-level name of the package is referenced.

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



SOURCES = sorted(Path(clausius_lab.__file__).parent.glob("*.py"))


def _bindings(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_every_private_module_name_is_referenced():
    # a module-level _name that nothing reads outside the statements binding
    # it is dead code, whether it is a function, a class or a constant
    defined, referenced = {}, set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            bound = _bindings(stmt)
            private = (n for n in bound if n.startswith("_") and not n.startswith("__"))
            defined.update((n, f"{path.name}:{stmt.lineno}") for n in private)
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name not in bound:
                    referenced.add(name)
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if name not in referenced)
    assert not unused, f"private names defined but never referenced in the package: {unused}"


# every accuracy target is gated by errors.require_accurate; NumericalFailure
# is raised directly, or through errors.refuse at an array's first failing
# row, only there and at the refusals that compare no estimate with a target:
# the closed form's damping, cutoff and temperature ranges, the tanh-sinh
# status, the oracle's nonzero dsytrd and dstemr status (no fallback solve)
# and negative eigenvalue, and the float64 range of the moments (the Gibbs
# state's and the closed form's), of a mass step's end mass, of the sweep's
# heat rate and of the oracle: omega_max, the couplings, the stiffness and
# the reduced moments
DIRECT_REFUSALS = {
    ("errors.py", "refuse"): 1,
    ("errors.py", "require_accurate"): 1,
    ("gaussian.py", "thermal_moments_decoupled"): 1,
    ("bath.py", "_drude_poles"): 1,
    ("bath.py", "_matsubara_moments"): 3,
    ("process.py", "_checked_entropy_change"): 1,
    ("process.py", "_steps"): 1,
    ("process.py", "_sweep"): 1,
    ("oracle.py", "default_omega_max"): 1,
    ("oracle.py", "sample_bath"): 1,
    ("oracle.py", "_normal_modes"): 3,
    ("oracle.py", "reduced_moments_exact"): 2,
}


def test_numerical_failure_is_raised_directly_only_where_no_estimate_is_compared():
    found = {}

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        target, name = None, None
        if isinstance(node, ast.Raise) and node.exc is not None:
            target, name = (node.exc.func if isinstance(node.exc, ast.Call) else node.exc), "NumericalFailure"
        elif isinstance(node, ast.Call):  # errors.refuse raises NumericalFailure
            target, name = node.func, "refuse"
        if target is not None and name in (getattr(target, "id", None), getattr(target, "attr", None)):
            key = (path.name, function)
            found[key] = found.get(key, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert found == DIRECT_REFUSALS
