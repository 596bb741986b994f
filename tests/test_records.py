"""The record rule and the import cost it protects.

The records of the package are ``typing.NamedTuple``s, and no class is a
dataclass except the two that callers rebuild with ``dataclasses.replace``.
A frozen dataclass costs several times a named tuple to create at import
and to build, and every analyze run pays for both. A record stores what its
builder gives it: no class converts its fields in ``__post_init__`` or
``__new__``. The synthetic-corpus generator is loaded only by the ``synth``
command, and the POM decoder (with ``xml.etree``) only by the first
``pom.xml`` release a load reads.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

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


def run_python(code: str) -> subprocess.CompletedProcess:
    """A child Python's run of ``code`` against the package under test, its output captured."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                          check=True)


ANALYZE_PATH = ["icmetrics", "icmetrics.cli", "icmetrics.ingest", "icmetrics.metrics", "icmetrics.model",
                "icmetrics.pipeline", "icmetrics.report", "icmetrics.stats"]


def test_importing_the_cli_does_not_load_synth():
    code = "import sys, icmetrics.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'icmetrics'))"
    loaded = run_python(code).stdout.split()
    assert "icmetrics.synth" not in loaded
    assert loaded == ANALYZE_PATH


DECODER_LOADED = "print(*(name in sys.modules for name in ('icmetrics.pom', 'xml.etree.ElementTree')))"
SNAPSHOT_JSON = ('{"project":{"group":"g","artifact":"a"},"version":"1.0","timestamp":1,'
                 '"manifests":[{"group":"g","artifact":"a","version":"1.0"}]}')
POM_XML = "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version></project>"


def test_importing_the_cli_does_not_load_the_pom_decoder():
    assert run_python(f"import sys, icmetrics.cli; {DECODER_LOADED}").stdout.split() == ["False", "False"]


@pytest.mark.parametrize("name, text, loaded", [("snapshot.json", SNAPSHOT_JSON, "False"),
                                                ("pom.xml", POM_XML, "True")], ids=["json", "pom"])
def test_only_a_pom_release_loads_the_pom_decoder(tmp_path, name, text, loaded):
    release = tmp_path / "corpus" / "g:a" / "1.0"
    release.mkdir(parents=True)
    (release / name).write_text(text, encoding="utf-8")
    (tmp_path / "releases.csv").write_text("project,version,timestamp,bugs_fixed\ng:a,1.0,1,0\n")
    argv = ["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"),
            "--out", str(tmp_path / "out")]
    result = run_python(f"import sys; from icmetrics.cli import main; print(main({argv!r})); {DECODER_LOADED}")
    assert result.stdout.split() == ["0", loaded, loaded]
    assert "warning" not in result.stderr  # the release parsed and joined its history row


def test_parse_pom_is_still_a_package_name():
    from icmetrics import parse_pom
    from icmetrics.pom import parse_pom as defined

    assert parse_pom is defined


def test_synth_ecosystem_is_still_a_package_name():
    from icmetrics import synth_ecosystem
    from icmetrics.synth import synth_ecosystem as defined

    assert synth_ecosystem is defined
