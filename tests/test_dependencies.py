"""The runtime dependency is numpy: every package module imports only the
standard library, numpy and the package itself."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "evimatch"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "evimatch"}


def test_imports_are_stdlib_numpy_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:  # relative imports stay inside the package
                continue
            foreign += [f"{path.name}:{node.lineno}: {root}"
                        for root in roots if root not in ALLOWED]
    assert not foreign, "imports outside stdlib and numpy: " + ", ".join(foreign)
