import pytest

from icmetrics.model import ProjectCoordinate
from icmetrics.pom import (
    IncompleteCoordinatesError,
    PomEncodingError,
    PomError,
    PomSyntaxError,
    UnresolvedPropertyError,
    parse_pom,
)

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
