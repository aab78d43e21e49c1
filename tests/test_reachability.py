"""Every top-level function, class and assigned name (constants and
private globals) in the package, and every method and property of its
classes, has a reader.

A definition counts as reached when its name is read as a Name, appears
as an Attribute or as a ``from ... import`` alias anywhere in the package
modules (``__init__.py`` excluded: re-exporting is not using) or in the
benchmark harness under ``perfbench/``.  Matching is by bare name, so a
name shared by two definitions (methods of two classes, say) counts as
reached for both as soon as either is used.  An assignment to a name
does not read it.  Dunder names are exempt: the language reads them.
Tests do not count: code that only tests reach should move into the
tests or go.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "evimatch"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _referenced_names():
    names = set()
    for path in _modules() + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _definitions():
    """(qualified name, name) of each top-level definition and assigned
    non-dunder name, then of each non-dunder method or property of a
    top-level class."""
    tops, members = [], []
    for path in _modules():
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                tops += [(f"{path.stem}.{t.id}", t.id)
                         for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                         and not t.id.startswith("__")]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            tops.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                members += [(f"{path.stem}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("__")]
    return tops, members


def _unreached(defs):
    referenced = _referenced_names()
    return [qual for qual, name in defs if name not in referenced]


def test_every_top_level_definition_is_referenced():
    unreached = _unreached(_definitions()[0])
    assert not unreached, "no reader outside the tests: " + ", ".join(unreached)


def test_every_method_and_property_is_referenced():
    unreached = _unreached(_definitions()[1])
    assert not unreached, "no caller outside the tests: " + ", ".join(unreached)
