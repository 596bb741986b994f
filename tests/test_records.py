"""The record rule and the import cost it protects.

The records of the package are ``typing.NamedTuple``s, and no class is a
dataclass except the two that callers rebuild with ``dataclasses.replace``.
A frozen dataclass costs several times a named tuple to create at import
and to build, and every analyze run pays for both. A record stores what its
builder gives it: no class converts its fields in ``__post_init__`` or
``__new__``. The synthetic-corpus generator is loaded only by the ``synth``
command.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import icmetrics

PACKAGE = sorted(Path(icmetrics.__file__).parent.glob("*.py"))
DATACLASSES = {"ProjectManifest", "ReleaseSnapshot"}


def dataclass_names(source: str) -> set[str]:
    """The classes in ``source`` decorated with ``dataclass`` or ``dataclass(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "dataclass":
                    names.add(node.name)
    return names


def test_dataclass_names_are_found():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n\n"
              "@dataclass\nclass A:\n    pass\n\n"
              "@dataclass(frozen=True)\nclass B:\n    pass\n\n"
              "@dataclasses.dataclass(frozen=True)\nclass C:\n    pass\n\n"
              "class D:\n    pass\n")
    assert dataclass_names(source) == {"A", "B", "C"}


def test_only_the_replaced_types_are_dataclasses():
    found = set().union(*(dataclass_names(path.read_text(encoding="utf-8")) for path in PACKAGE))
    assert found == DATACLASSES


def converting_constructors(source: str) -> set[str]:
    """``Class.method`` for each ``__post_init__`` or ``__new__`` a class in ``source`` defines."""
    return {f"{node.name}.{item.name}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and item.name in ("__post_init__", "__new__")}


def test_converting_constructors_are_found():
    source = ("class A:\n    def __post_init__(self):\n        pass\n\n"
              "class B(tuple):\n    def __new__(cls, items):\n        return super().__new__(cls, items)\n\n"
              "class C:\n    def __init__(self):\n        pass\n\n"
              "    class D:\n        def __new__(cls):\n            pass\n\n"
              "def __new__():\n    pass\n")
    assert converting_constructors(source) == {"A.__post_init__", "B.__new__", "D.__new__"}


def test_no_record_converts_its_fields():
    found = set().union(*(converting_constructors(path.read_text(encoding="utf-8")) for path in PACKAGE))
    assert found == set()


def test_importing_the_cli_does_not_load_synth():
    src = str(Path(icmetrics.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, icmetrics.cli; print('icmetrics.synth' in sys.modules, 'icmetrics.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "True"]


def test_synth_ecosystem_is_still_a_package_name():
    from icmetrics import synth_ecosystem
    from icmetrics.synth import synth_ecosystem as defined

    assert synth_ecosystem is defined
