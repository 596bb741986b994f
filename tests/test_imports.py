"""No module of the package imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule, so that deleting code
also deletes the imports only it needed. ``__init__.py`` is exempt: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import icmetrics

MODULES = sorted(path for path in Path(icmetrics.__file__).parent.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in ``source`` that no other
    expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads('0'))\n") == [
        "line 1: os", "line 3: dumps",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
