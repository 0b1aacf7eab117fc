"""The layers and data formats of the package, each owned by one module.

The labelled models sit below the group layer: `totients` holds both kinds
of labelled model and their one label check, so it must not import
`intervals`; `intervals.GroupInterval` subclasses
`totients.IndexedInterval`.  The certifier sits below the catalog scans, so
it imports neither `catalog` nor `reproduce`.  Each data format has one
reader: only `lattice` reads a `FiniteLattice`'s masks, and only
`intervals` reads an `_Ambient`'s multiplication table.  The checks read
the source with `ast`.
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


def attribute_readers(names: set) -> dict:
    """The package modules that read an attribute in `names`, mapped to the attributes each reads.

    `operator.mul` and the like, attributes of an imported module, are not
    counted.
    """
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and not (isinstance(node.value, ast.Name) and node.value.id == "operator")):
                found.setdefault(path.stem, set()).add(node.attr)
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


def test_the_certifier_imports_neither_the_catalog_nor_the_suites():
    assert not {"catalog", "reproduce"} & imported_modules(PACKAGE / "certifier.py")


LATTICE_MASKS = {"_up", "_down", "_lower", "_upper", "_ranks", "_graded"}


def test_the_scan_sees_the_attribute_reads():
    assert attribute_readers(LATTICE_MASKS)["lattice"] == LATTICE_MASKS
    assert attribute_readers({"mul", "table"})["intervals"] == {"mul", "table"}


def test_only_lattice_reads_the_lattice_masks():
    assert set(attribute_readers(LATTICE_MASKS)) == {"lattice"}


def test_only_intervals_reads_the_multiplication_table():
    assert set(attribute_readers({"mul", "table"})) == {"intervals"}
