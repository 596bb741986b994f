import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmetrics.model import ProjectCoordinate
from icmetrics.pom import (
    IncompleteCoordinatesError,
    PomEncodingError,
    PomError,
    PomSyntaxError,
    UnresolvedPropertyError,
    _interpolate,
)
from icmetrics.records import parse_pom

MINIMAL = """<?xml version="1.0"?>
<project>
  <groupId>g</groupId>
  <artifactId>a</artifactId>
  <version>1.0</version>
</project>
"""

MULTI_DEPENDENCY = """<project>
  <groupId>g</groupId>
  <artifactId>a</artifactId>
  <version>1.0</version>
  <dependencies>
    <dependency>
      <groupId>o1</groupId>
      <artifactId>d1</artifactId>
      <version>2.0</version>
      <scope>test</scope>
    </dependency>
    <dependency>
      <groupId>o2</groupId>
      <artifactId>d2</artifactId>
    </dependency>
  </dependencies>
</project>
"""

INTERPOLATED = """<project>
  <groupId>g</groupId>
  <artifactId>a</artifactId>
  <version>1.0</version>
  <properties>
    <dep.v>2.1</dep.v>
  </properties>
  <dependencies>
    <dependency>
      <groupId>o1</groupId>
      <artifactId>d1</artifactId>
      <version>${dep.v}</version>
    </dependency>
  </dependencies>
</project>
"""

PARENT_FALLBACK = """<project>
  <parent>
    <groupId>parent.group</groupId>
    <artifactId>parent-pom</artifactId>
    <version>7</version>
  </parent>
  <artifactId>child</artifactId>
</project>
"""

NAMESPACED = """<project xmlns="http://maven.apache.org/POM/4.0.0"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <modelVersion>4.0.0</modelVersion>
  <groupId>g</groupId>
  <artifactId>a</artifactId>
  <version>1.0</version>
  <dependencies>
    <dependency>
      <groupId>o</groupId>
      <artifactId>d</artifactId>
    </dependency>
  </dependencies>
</project>
"""

WITH_MODULES = """<project>
  <groupId>g</groupId>
  <artifactId>a</artifactId>
  <version>1.0</version>
  <modules>
    <module>core</module>
    <module>cli</module>
  </modules>
</project>
"""

DEPENDENCY_MANAGEMENT = """<project>
  <groupId>g</groupId>
  <artifactId>a</artifactId>
  <version>1.0</version>
  <dependencyManagement>
    <dependencies>
      <dependency>
        <groupId>managed</groupId>
        <artifactId>only</artifactId>
        <version>9</version>
      </dependency>
    </dependencies>
  </dependencyManagement>
</project>
"""


def test_minimal_pom():
    manifest = parse_pom(MINIMAL)
    assert manifest.coordinate == ProjectCoordinate("g", "a")
    assert manifest.version_text == "1.0"
    assert manifest.declared_dependencies == ()
    assert manifest.submodule_coordinates == frozenset()


def test_dependencies_in_document_order():
    manifest = parse_pom(MULTI_DEPENDENCY)
    deps = manifest.declared_dependencies
    assert [d.target for d in deps] == [ProjectCoordinate("o1", "d1"), ProjectCoordinate("o2", "d2")]
    assert deps[0].version_text == "2.0"
    assert deps[0].scope == "test"
    assert deps[1].version_text is None
    assert deps[1].scope is None


def test_property_interpolation():
    manifest = parse_pom(INTERPOLATED)
    assert manifest.declared_dependencies[0].version_text == "2.1"


def test_builtin_project_properties():
    pom = INTERPOLATED.replace("${dep.v}", "${project.version}")
    manifest = parse_pom(pom)
    assert manifest.declared_dependencies[0].version_text == "1.0"


def test_nested_property_resolution():
    pom = """<project>
      <groupId>g</groupId><artifactId>a</artifactId><version>1.0</version>
      <properties>
        <outer>${inner}</outer>
        <inner>5.5</inner>
      </properties>
      <dependencies>
        <dependency><groupId>o</groupId><artifactId>d</artifactId><version>${outer}</version></dependency>
      </dependencies>
    </project>"""
    assert parse_pom(pom).declared_dependencies[0].version_text == "5.5"


def _pom_with_version(version: str, properties: dict[str, str]) -> str:
    defined = "".join(f"<{key}>{value}</{key}>" for key, value in properties.items())
    return f"""<project>
      <groupId>g</groupId><artifactId>a</artifactId><version>{version}</version>
      <properties>{defined}</properties>
    </project>"""


def _chain(depth: int) -> dict[str, str]:
    """c0 -> c1 -> ... -> c{depth-1} -> "end": ${c0} is nested ``depth`` deep."""
    return {f"c{i}": f"${{c{i + 1}}}" for i in range(depth - 1)} | {f"c{depth - 1}": "end"}


@pytest.mark.parametrize("version, properties, expected", [
    ("".join(f"${{p{i}}}." for i in range(10))[:-1], {f"p{i}": str(i) for i in range(10)}, "0.1.2.3.4.5.6.7.8.9"),
    ("".join(f"${{p{i}}}." for i in range(11))[:-1], {f"p{i}": str(i) for i in range(11)}, "0.1.2.3.4.5.6.7.8.9.10"),
    ("${c0}", _chain(10), "end"),
], ids=["10-references", "11-references", "10-deep"])
def test_references_resolve_at_any_count_nested_up_to_10_deep(version, properties, expected):
    assert parse_pom(_pom_with_version(version, properties)).version_text == expected


@pytest.mark.parametrize("version, properties, keys", [
    ("${c0}", _chain(11), {f"c{i}" for i in range(11)}),
    ("${a}", {"a": "${a}"}, {"a"}),
    ("${a}", {"a": "${b}", "b": "${a}"}, {"a", "b"}),
], ids=["11-deep", "self-cycle", "two-cycle"])
def test_deeper_or_cyclic_references_fail_naming_a_key(version, properties, keys):
    with pytest.raises(UnresolvedPropertyError) as excinfo:
        parse_pom(_pom_with_version(version, properties))
    assert excinfo.value.key in keys


_REFERENCE = re.compile(r"\$\{([^}]+)\}")


class _Unresolved(Exception):
    pass


def _expand(text: str, properties: dict[str, str], depth: int = 0) -> str:
    """The reference rule, stated recursively: each ${key} becomes its value,
    itself expanded, and a key undefined or reached 11 deep fails."""
    def one(match: re.Match[str]) -> str:
        key = match.group(1)
        if key not in properties or depth == 10:
            raise _Unresolved(key)
        return _expand(properties[key], properties, depth + 1)
    return _REFERENCE.sub(one, text)


@st.composite
def _property_tables(draw):
    """A table k0..k{n-1}, n in 0..12, whose values mostly continue the chain
    to the next key and sometimes refer to any key, k{n} (undefined) included,
    so that tables nest 0 to 12 deep and may hold cycles; plus a text that
    mostly starts the chain."""
    n = draw(st.integers(0, 12))
    literal = st.text("ab.-$", max_size=2)
    ref = st.integers(0, n).map(lambda j: f"${{k{j}}}")
    sometimes = st.integers(0, 15).map(lambda k: k == 0)

    def value(i: int) -> str:
        link = f"${{k{i + 1}}}" if i + 1 < n and not draw(sometimes) else ""
        extra = draw(ref) if draw(sometimes) else ""
        return draw(literal) + link + extra + draw(literal)

    table = {f"k{i}": value(i) for i in range(n)}
    start = draw(ref) if draw(sometimes) else "${k0}"
    return table, draw(literal) + start + draw(st.lists(ref, max_size=1).map("".join)) + draw(literal)


@settings(max_examples=300, deadline=None)
@given(_property_tables())
def test_interpolation_is_the_recursive_expansion(case):
    properties, text = case
    try:
        expected = _expand(text, properties)
    except _Unresolved:
        with pytest.raises(UnresolvedPropertyError) as excinfo:
            _interpolate(text, properties)
        assert f"${{{excinfo.value.key}}}" in text + "".join(properties.values())
    else:
        assert _interpolate(text, properties) == expected


def test_parent_supplies_group_and_version():
    manifest = parse_pom(PARENT_FALLBACK)
    assert manifest.coordinate == ProjectCoordinate("parent.group", "child")
    assert manifest.version_text == "7"


def test_namespaced_pom():
    manifest = parse_pom(NAMESPACED)
    assert manifest.coordinate == ProjectCoordinate("g", "a")
    assert manifest.declared_dependencies[0].target == ProjectCoordinate("o", "d")


def test_modules_resolve_against_own_group():
    manifest = parse_pom(WITH_MODULES)
    assert manifest.submodule_coordinates == frozenset(
        {ProjectCoordinate("g", "core"), ProjectCoordinate("g", "cli")}
    )


def test_dependency_management_is_ignored():
    assert parse_pom(DEPENDENCY_MANAGEMENT).declared_dependencies == ()


def test_malformed_xml_reports_position():
    with pytest.raises(PomSyntaxError) as excinfo:
        parse_pom("<project>\n  <groupId>g</groupId>\n")
    assert excinfo.value.line >= 1
    assert "line" in str(excinfo.value)


def test_missing_artifact_without_parent():
    with pytest.raises(IncompleteCoordinatesError) as excinfo:
        parse_pom("<project><groupId>g</groupId><version>1</version></project>")
    assert "artifactId" in str(excinfo.value)


def test_unresolved_property_names_the_key():
    pom = MINIMAL.replace("<version>1.0</version>", "<version>${mystery.key}</version>")
    with pytest.raises(UnresolvedPropertyError) as excinfo:
        parse_pom(pom)
    assert excinfo.value.key == "mystery.key"


def test_cyclic_property_fails_instead_of_hanging():
    pom = """<project>
      <groupId>g</groupId><artifactId>a</artifactId><version>${a}</version>
      <properties><a>${b}</a><b>${a}</b></properties>
    </project>"""
    with pytest.raises(UnresolvedPropertyError):
        parse_pom(pom)


def test_every_failure_is_a_classified_pom_error():
    bad_inputs = [
        "not xml at all",
        "<project></project>",
        MINIMAL.replace("1.0", "${nope}"),
    ]
    for text in bad_inputs:
        with pytest.raises(PomError):
            parse_pom(text)


def test_bytes_are_decoded_as_the_declaration_says():
    pom = MINIMAL.replace('<?xml version="1.0"?>', '<?xml version="1.0" encoding="ISO-8859-1"?>')
    pom = pom.replace("<artifactId>a</artifactId>", "<artifactId>caf\xe9</artifactId>")
    assert parse_pom(pom.encode("latin-1")).coordinate == ProjectCoordinate("g", "caf\xe9")
    assert parse_pom(MINIMAL.encode()) == parse_pom(MINIMAL)


@pytest.mark.parametrize("encoding", ["no-such-codec", "shift_jis", "rot13"])
def test_undecodable_declared_encoding_is_a_pom_error(encoding):
    with pytest.raises(PomEncodingError, match="unsupported XML encoding"):
        parse_pom(MINIMAL.replace('version="1.0"?>', f'version="1.0" encoding="{encoding}"?>').encode())
