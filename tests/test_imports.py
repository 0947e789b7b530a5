"""Every module-level import in the package is read by its module."""

import ast
import pathlib

import pytest

import coinfield

MODULES = sorted(p for p in pathlib.Path(coinfield.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports that the module never reads,
    leaving out those named in __all__ and `from __future__ import
    annotations`."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\nfrom os import path, sep as SEP\n"
              "__all__ = ['sep']\nfrom os import sep\nprint(path)\n")
    assert _unused_imports(source) == ["SEP (line 3)", "math (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert _unused_imports(path.read_text()) == []
