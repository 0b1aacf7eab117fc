"""The labelled models sit below the group layer: `intervals` builds on `totients`, never the reverse.

`totients` holds both kinds of labelled model and their one label check,
so it must not import `intervals`; `intervals.GroupInterval` subclasses
`totients.IndexedInterval`.  The checks read the source with `ast`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orelat"


def imported_modules(path: Path) -> set:
    """The package modules a file imports, by their name within the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                found.add(module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif module.startswith("orelat."):
                found.add(module.split(".")[1])
            elif module == "orelat":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("orelat."))
    return found


def defining_modules(name: str) -> list:
    """The package modules that define `name` at module level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            if name in names:
                found.append(path.stem)
    return found


def test_the_scan_sees_the_imports():
    assert {"intervals", "totients", "lattice"} <= imported_modules(PACKAGE / "certifier.py")
    assert "totients" in imported_modules(PACKAGE / "intervals.py")


def test_totients_does_not_import_intervals():
    assert "intervals" not in imported_modules(PACKAGE / "totients.py")


def test_the_labelled_models_are_defined_only_in_totients():
    for name in ("IndexedInterval", "integer_labels", "BooleanInterval"):
        assert defining_modules(name) == ["totients"], name
