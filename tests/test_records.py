"""The record rule and the import cost it protects.

Every class of the package is a ``typing.NamedTuple``, an exception or
``SharedValues``, except two: ``records.ReleaseSnapshot`` and
``records.ProjectManifest`` stay dataclasses because ``perfbench/corpora.py``
rebuilds them with ``dataclasses.replace`` (it also reads the
``ApiSurface.methods`` and ``UsageRecord.referenced_coordinates`` wrappers,
which keeps those two records). A frozen dataclass costs several times a
named tuple to create at import and to build, and importing ``dataclasses``
costs every process that does it; so ``records`` is loaded on first use. A
record stores what its builder gives it: no class converts its fields in
``__post_init__`` or ``__new__``. The synthetic-corpus generator is loaded
only by the ``synth`` command, the POM decoder (with ``xml.etree``) only by
the first ``pom.xml`` release a load reads, and the record tier (with
``dataclasses``) only by the first release a load refuses; a load of clean
``snapshot.json`` releases loads neither, and one of clean ``pom.xml``
releases only the POM decoder.
"""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

import icmetrics
from icmetrics.model import SharedValues

PACKAGE = sorted(Path(icmetrics.__file__).parent.glob("*.py"))
DATACLASSES = {"records.ProjectManifest", "records.ReleaseSnapshot"}


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
    found = {f"{path.stem}.{name}" for path in PACKAGE for name in dataclass_names(path.read_text(encoding="utf-8"))}
    assert found == DATACLASSES


def defined_classes():
    """Each class a ``class`` statement of the package defines, by
    ``module.name``; None for one that is not a name of its module (a class
    nested in a function or another class)."""
    for path in PACKAGE:
        module = importlib.import_module("icmetrics" if path.stem == "__init__" else f"icmetrics.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                yield f"{path.stem}.{node.name}", getattr(module, node.name, None)


def is_allowed_class(name, cls):
    """A named tuple, an exception, ``SharedValues`` or a pinned dataclass."""
    return isinstance(cls, type) and (
        (issubclass(cls, tuple) and hasattr(cls, "_fields"))
        or issubclass(cls, Exception)
        or cls is SharedValues
        or (dataclasses.is_dataclass(cls) and name in DATACLASSES))


def test_every_class_is_a_record_an_exception_or_pinned():
    classes = list(defined_classes())
    names = {name for name, _ in classes}
    assert {"ingest.Corpus", "model.ReleaseFacts", "ingest.SnapshotFormatError", "pom.PomError",
            "model.SharedValues"} | DATACLASSES <= names
    assert sorted(name for name, cls in classes if not is_allowed_class(name, cls)) == []


def test_a_plain_or_nested_class_is_not_allowed():
    class Plain:
        pass

    assert not is_allowed_class("Plain", Plain)
    assert not is_allowed_class("Nested", None)
    assert not is_allowed_class("model.Other", dataclasses.dataclass(type("Other", (), {})))


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


# Every module an analyze run imports; the record tier (icmetrics.records)
# is not one of them.
ANALYZE_PATH = ["icmetrics", "icmetrics.cli", "icmetrics.ingest", "icmetrics.metrics", "icmetrics.model",
                "icmetrics.pipeline", "icmetrics.report", "icmetrics.stats"]


def test_importing_the_cli_does_not_load_synth():
    code = "import sys, icmetrics.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'icmetrics'))"
    loaded = run_python(code).stdout.split()
    assert "icmetrics.synth" not in loaded
    assert loaded == ANALYZE_PATH


DECODER_LOADED = ("print(*(name in sys.modules for name in"
                  " ('icmetrics.pom', 'xml.etree.ElementTree', 'icmetrics.records', 'dataclasses')))")
SNAPSHOT_JSON = ('{"project":{"group":"g","artifact":"a"},"version":"1.0","timestamp":1,'
                 '"manifests":[{"group":"g","artifact":"a","version":"1.0"}]}')
POM_XML = "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version></project>"


def test_importing_the_cli_does_not_load_the_pom_decoder():
    assert run_python(f"import sys, icmetrics.cli; {DECODER_LOADED}").stdout.split() == ["False"] * 4


# Lists itself as a submodule, so the snapshot rules refuse the release.
SELF_LISTED_POM_XML = POM_XML.replace("</project>", "<modules><module>a</module></modules></project>")


@pytest.mark.parametrize("releases, loaded", [
    ({"1.0": ("snapshot.json", SNAPSHOT_JSON)}, ["False"] * 4),
    ({"1.0": ("pom.xml", POM_XML)}, ["True", "True", "False", "False"]),
    ({"1.0": ("pom.xml", POM_XML), "2.0": ("pom.xml", SELF_LISTED_POM_XML)}, ["True"] * 4),
], ids=["json", "pom", "refused-pom"])
def test_only_a_pom_release_loads_the_pom_decoder(tmp_path, releases, loaded):
    # A pom.xml release loads the POM decoder; only a release the snapshot
    # rules refuse builds records, and so loads the record tier.
    for version, (name, text) in releases.items():
        release = tmp_path / "corpus" / "g:a" / version
        release.mkdir(parents=True)
        (release / name).write_text(text, encoding="utf-8")
    (tmp_path / "releases.csv").write_text("project,version,timestamp,bugs_fixed\ng:a,1.0,1,0\n")
    argv = ["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"),
            "--out", str(tmp_path / "out")]
    result = run_python(f"import sys; from icmetrics.cli import main; print(main({argv!r})); {DECODER_LOADED}")
    assert result.stdout.split() == ["0"] + loaded
    # Release 1.0 parsed and joined its history row; only 2.0 fails.
    assert [line for line in result.stderr.splitlines() if "warning" in line] == [
        "warning: failed release g:a/2.0: snapshot violates invariants: manifests[0].submodule_coordinates:"
        " manifest lists itself as a submodule"][:len(releases) - 1]


def test_importing_the_pom_decoder_does_not_load_the_record_tier():
    result = run_python("import sys, icmetrics.pom; print(*(name in sys.modules for name in"
                        " ('xml.etree.ElementTree', 'icmetrics.records', 'dataclasses')))")
    assert result.stdout.split() == ["True", "False", "False"]


def test_parse_pom_is_still_a_package_name():
    from icmetrics import parse_pom
    from icmetrics.pom import parse_pom as defined

    assert parse_pom is defined


def test_synth_ecosystem_is_still_a_package_name():
    from icmetrics import synth_ecosystem
    from icmetrics.synth import synth_ecosystem as defined

    assert synth_ecosystem is defined
