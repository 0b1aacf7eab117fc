"""Every public function, class and method of the package has a reader outside the tests.

A definition is public when its name has no leading underscore: the
module-level functions and classes of `src/orelat`, and the methods of
those classes.  A read is a load of the bare name, an attribute of that
name or an import of it, anywhere in `src/orelat` or `perfbench/` outside
the definition's own body.  The check goes by name, so a definition that
shares its name with one that is read passes too; it can miss an unused
name, never flag a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orelat"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions() -> list:
    """(qualified name, file stem, first line, last line) of every public function, class and method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((f"{path.stem}.{node.name}", path.stem, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{m.name}", path.stem, m.lineno, m.end_lineno)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return found


def reads() -> dict:
    """Each name read in the reader files, mapped to the (file stem, line) of every read."""
    out: dict = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    out.setdefault(alias.name, []).append((path.stem, node.lineno))
                continue
            else:
                continue
            out.setdefault(name, []).append((path.stem, node.lineno))
    return out


def unread() -> set:
    read = reads()
    return {
        qualified for qualified, stem, first, last in public_definitions()
        if not any(
            not (where == stem and first <= line <= last)
            for where, line in read.get(qualified.rsplit(".", 1)[1], ())
        )
    }


def test_the_scan_sees_the_package():
    names = {qualified for qualified, *_ in public_definitions()}
    assert {"totients.BooleanInterval", "totients.BooleanInterval.sub", "certifier.certify"} <= names
    assert "totients._signed_sum" not in names


def test_no_public_definition_is_read_only_by_the_tests():
    assert unread() == set()
