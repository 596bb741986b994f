"""Maven POM subset parser.

Only the manifest surface needed for graph construction is read: the
project coordinate (with ``<parent>`` fallback), the project-level
``<dependencies>`` block, ``<modules>``, and ``<properties>`` for
``${...}`` interpolation. ``<dependencyManagement>`` and inherited parent
dependencies are deliberately out of scope: resolving them faithfully
requires a full build, while declared direct dependencies are a stable
observable of the file alone.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from .model import DependencyDecl, ProjectCoordinate, ProjectManifest, SharedValues

_PROPERTY_RE = re.compile(r"\$\{([^}]+)\}")
_MAX_NESTING_DEPTH = 10


class PomError(ValueError):
    """Base class for all POM parsing failures."""


class PomSyntaxError(PomError):
    """Malformed XML; carries the 1-based line and column of the fault."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PomEncodingError(PomError):
    """The XML declaration names an encoding the parser cannot decode."""


class IncompleteCoordinatesError(PomError):
    """groupId/artifactId/version missing and not supplied by a parent."""


class UnresolvedPropertyError(PomError):
    """A ${...} reference has no definition."""

    def __init__(self, key: str):
        super().__init__(f"unresolved property: {key!r}")
        self.key = key


def _local(tag: str) -> str:
    # ElementTree keeps the namespace as a {uri} prefix on every tag.
    return tag.rpartition("}")[2]


def _children(element: ET.Element | None) -> dict[str, ET.Element]:
    """Map each local child name to the first child of that name."""
    if element is None:
        return {}
    # Reversed, so that the first child of a name is the one kept; _local
    # inlined, as this runs for every child of every element read.
    return {node.tag.rpartition("}")[2]: node for node in reversed(element)}


def _field(node: ET.Element | None, properties: dict[str, str], fallback: ET.Element | None = None) -> str | None:
    """A field's text, stripped and interpolated; ``fallback``'s when
    ``node`` is absent or blank, and None when both are."""
    if node is None or not node.text or not (text := node.text.strip()):
        return None if fallback is None else _field(fallback, properties)
    return _interpolate(text, properties)


def _interpolate(text: str, properties: dict[str, str]) -> str:
    """Resolve every ``${key}`` in ``text``: each round replaces them all, and
    a reference left after ``_MAX_NESTING_DEPTH`` rounds (deeper nesting or a
    cycle) fails, as does an undefined key; the error names a key."""
    if "${" not in text:
        return text

    def lookup(match: re.Match[str]) -> str:
        key = match.group(1)
        if key not in properties:
            raise UnresolvedPropertyError(key)
        return properties[key]

    depth = 0
    while match := _PROPERTY_RE.search(text):
        if depth == _MAX_NESTING_DEPTH:
            raise UnresolvedPropertyError(match.group(1))
        text = _PROPERTY_RE.sub(lookup, text)
        depth += 1
    return text


def parse_pom(xml: bytes | str, _shared: SharedValues | None = None) -> ProjectManifest:
    """Parse one pom.xml document into a ProjectManifest.

    Pass the file's bytes, so that the parser decodes them as the XML
    declaration says (UTF-8 when there is none); ``str`` input is parsed
    as already decoded text. ``_shared`` is for ``ingest.load_corpus``: its
    coordinates and dependency declarations are shared by the whole load.

    Raises PomSyntaxError, PomEncodingError, IncompleteCoordinatesError or
    UnresolvedPropertyError; never returns a partial manifest.
    """
    shared = SharedValues() if _shared is None else _shared
    try:
        root = ET.fromstring(xml)
    except ET.ParseError as exc:
        line, column = exc.position
        raise PomSyntaxError(f"malformed XML: {exc.msg.split(':')[0]}", line, column) from exc
    except (LookupError, ValueError) as exc:
        # expat asks Python for codecs it lacks; unknown and multi-byte ones fail here.
        raise PomEncodingError(f"unsupported XML encoding: {exc}") from exc

    top = _children(root)
    parent = _children(top.get("parent"))

    properties: dict[str, str] = {}
    props_node = top.get("properties")
    if props_node is not None:
        for node in props_node:
            if node.text is not None:
                properties[_local(node.tag)] = node.text.strip()

    group = _field(top.get("groupId"), properties, parent.get("groupId"))
    artifact = _field(top.get("artifactId"), properties, parent.get("artifactId"))
    version = _field(top.get("version"), properties, parent.get("version"))
    if group is None or artifact is None or version is None:
        missing = [
            name
            for name, value in (("groupId", group), ("artifactId", artifact), ("version", version))
            if value is None
        ]
        raise IncompleteCoordinatesError(
            f"incomplete coordinates: missing {', '.join(missing)} (own or parent)"
        )

    properties.setdefault("project.groupId", group)
    properties.setdefault("project.artifactId", artifact)
    properties.setdefault("project.version", version)

    dependencies: list[DependencyDecl] = []
    deps_node = top.get("dependencies")
    if deps_node is not None:
        for index, node in enumerate(n for n in deps_node if _local(n.tag) == "dependency"):
            fields = _children(node)
            dep_group = _field(fields.get("groupId"), properties)
            dep_artifact = _field(fields.get("artifactId"), properties)
            if dep_group is None or dep_artifact is None:
                raise IncompleteCoordinatesError(
                    f"incomplete coordinates: dependency #{index} lacks groupId or artifactId"
                )
            dependencies.append(shared.dependency(dep_group, dep_artifact, _field(fields.get("version"), properties),
                                                  _field(fields.get("scope"), properties)))

    submodules: set[ProjectCoordinate] = set()
    modules_node = top.get("modules")
    if modules_node is not None:
        for node in modules_node:
            if _local(node.tag) == "module" and (module := _field(node, properties)) is not None:
                submodules.add(shared.coordinate(group, module))

    return ProjectManifest(
        coordinate=shared.coordinate(group, artifact),
        version_text=version,
        declared_dependencies=tuple(dependencies),
        submodule_coordinates=frozenset(submodules),
    )
