"""No module of the package imports a name it never uses, and no private
module-level name of the package goes unused.

Stdlib stand-ins for a linter's unused-import and dead-code rules, so that
deleting code also deletes the imports and private helpers only it needed.
``__init__.py`` is exempt from the import rule: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

import icmetrics

PACKAGE = sorted(Path(icmetrics.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def _private_names(statement: ast.stmt) -> list[str]:
    """The private (single-underscore, non-dunder) names a module-level
    statement defines: a function, a class or an assigned constant."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name in ``sources``
    (module name -> source) that no module reads.

    A read is a loaded name in the defining module, an import of the name
    from that module, or an attribute of that name on any object. A read
    inside the name's own definition (recursion) does not count.
    """
    defined: list[tuple[str, str]] = []
    read: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = _private_names(statement)
            defined += [(module, name) for name in own]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((node.module, alias.name) for alias in node.names)
    return [f"{module}.{name}" for module, name in defined
            if (module, name) not in read and name not in attributes]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads('0'))\n") == [
        "line 1: os", "line 3: dumps",
    ]


def test_orphaned_private_names_are_found():
    sources = {
        "a": "_LIMIT = 3\n_unused = 1\n\n"
             "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n\n"
             "def _helper():\n    return 0\n\n"
             "class _Cache:\n    pass\n",
        "b": "from .a import _helper\nfrom . import a\n\ndef run():\n    return _helper(), a._Cache\n",
    }
    assert orphaned_private_names(sources) == ["a._unused", "a._walk"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_of_the_package_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert orphaned_private_names(sources) == []
