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
_MAX_INTERPOLATION_ROUNDS = 10


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


def _text(children: dict[str, ET.Element], name: str) -> str | None:
    node = children.get(name)
    if node is None or node.text is None:
        return None
    text = node.text.strip()
    return text or None


def _interpolate(text: str, properties: dict[str, str]) -> str:
    if "${" not in text:
        return text
    for _ in range(_MAX_INTERPOLATION_ROUNDS):
        match = _PROPERTY_RE.search(text)
        if match is None:
            return text
        key = match.group(1)
        if key not in properties:
            raise UnresolvedPropertyError(key)
        text = text[: match.start()] + properties[key] + text[match.end() :]
    # Still unresolved after the round cap: either deeply nested or cyclic.
    match = _PROPERTY_RE.search(text)
    raise UnresolvedPropertyError(match.group(1) if match else text)


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

    group = _text(top, "groupId") or _text(parent, "groupId")
    artifact = _text(top, "artifactId") or _text(parent, "artifactId")
    version = _text(top, "version") or _text(parent, "version")
    if not group or not artifact or not version:
        missing = [
            name
            for name, value in (("groupId", group), ("artifactId", artifact), ("version", version))
            if not value
        ]
        raise IncompleteCoordinatesError(
            f"incomplete coordinates: missing {', '.join(missing)} (own or parent)"
        )

    group = _interpolate(group, properties)
    artifact = _interpolate(artifact, properties)
    version = _interpolate(version, properties)

    properties.setdefault("project.groupId", group)
    properties.setdefault("project.artifactId", artifact)
    properties.setdefault("project.version", version)

    dependencies: list[DependencyDecl] = []
    deps_node = top.get("dependencies")
    if deps_node is not None:
        for index, node in enumerate(n for n in deps_node if _local(n.tag) == "dependency"):
            fields = _children(node)
            dep_group = _text(fields, "groupId")
            dep_artifact = _text(fields, "artifactId")
            if not dep_group or not dep_artifact:
                raise IncompleteCoordinatesError(
                    f"incomplete coordinates: dependency #{index} lacks groupId or artifactId"
                )
            dep_version = _text(fields, "version")
            dep_scope = _text(fields, "scope")
            dependencies.append(shared.dependency(
                _interpolate(dep_group, properties),
                _interpolate(dep_artifact, properties),
                None if dep_version is None else _interpolate(dep_version, properties),
                None if dep_scope is None else _interpolate(dep_scope, properties),
            ))

    submodules: set[ProjectCoordinate] = set()
    modules_node = top.get("modules")
    if modules_node is not None:
        for node in modules_node:
            if _local(node.tag) == "module" and node.text and node.text.strip():
                submodules.add(shared.coordinate(group, _interpolate(node.text.strip(), properties)))

    return ProjectManifest(
        coordinate=shared.coordinate(group, artifact),
        version_text=version,
        declared_dependencies=tuple(dependencies),
        submodule_coordinates=frozenset(submodules),
    )
