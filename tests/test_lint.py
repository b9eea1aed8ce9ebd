"""Static checks on the package source."""

import ast
from pathlib import Path

import emseg

SOURCES = sorted(p for p in Path(emseg.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    assert SOURCES
    unused = {p.name: found for p in SOURCES if (found := _unused_imports(p))}
    assert unused == {}
