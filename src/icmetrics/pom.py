"""Maven POM subset reader.

Only the manifest surface needed for graph construction is read: the
project coordinate (with ``<parent>`` fallback), the project-level
``<dependencies>`` block, ``<modules>``, and ``<properties>`` for
``${...}`` interpolation. ``<dependencyManagement>`` and inherited parent
dependencies are deliberately out of scope: resolving them faithfully
requires a full build, while declared direct dependencies are a stable
observable of the file alone.

This module is the XML reader alone: ``read_pom`` returns those values as
strings and tuples, which a corpus load judges straight to a release's
facts. ``records.parse_pom`` wraps them in a ``ProjectManifest``.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

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
    # Reversed, so that the first child of a name is the one kept.
    return {_local(node.tag): node for node in reversed(element)}


def _field(node: ET.Element | None, properties: dict[str, str], fallback: ET.Element | None = None) -> str | None:
    """A field's text, stripped and interpolated; ``fallback``'s when
    ``node`` is absent or blank, and None when both are."""
    if node is None or not node.text or not (text := node.text.strip()):
        return None if fallback is None else _field(fallback, properties)
    return text if "${" not in text else _interpolate(text, properties)


def _interpolate(text: str, properties: dict[str, str]) -> str:
    """Resolve every ``${key}`` in ``text``: each round replaces them all, and
    a reference left after ``_MAX_NESTING_DEPTH`` rounds (deeper nesting or a
    cycle) fails, as does an undefined key; the error names a key."""

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


def read_pom(xml: bytes | str) -> tuple[str, str, str, list[tuple], list[str]]:
    """Read one pom.xml document: its group, artifact and version, each
    declared dependency's (group, artifact, version, scope), and the names
    of its modules, in document order. Every value is stripped and
    interpolated; a dependency's version and scope are None when absent.

    Pass the file's bytes, so that the parser decodes them as the XML
    declaration says (UTF-8 when there is none); ``str`` input is parsed
    as already decoded text.

    Raises PomSyntaxError, PomEncodingError, IncompleteCoordinatesError or
    UnresolvedPropertyError; never returns partial values.
    """
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

    dependencies: list[tuple[str, str, str | None, str | None]] = []
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
            dependencies.append((dep_group, dep_artifact, _field(fields.get("version"), properties),
                                 _field(fields.get("scope"), properties)))

    modules: list[str] = []
    modules_node = top.get("modules")
    if modules_node is not None:
        for node in modules_node:
            if _local(node.tag) == "module" and (module := _field(node, properties)) is not None:
                modules.append(module)

    return group, artifact, version, dependencies, modules
