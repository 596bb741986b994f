"""Shared domain types: immutable containers plus one invariant checker.

Construction never raises; ``validate_snapshot`` reports rule violations as
plain strings so corpus loading can keep going and record failures instead
of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True, order=True)
class ProjectCoordinate:
    """Version-blind identity of a project: (group, artifact)."""

    group: str
    artifact: str

    def key(self) -> str:
        return f"{self.group}:{self.artifact}"

    @classmethod
    def from_key(cls, key: str) -> "ProjectCoordinate":
        group, sep, artifact = key.partition(":")
        if not sep:
            raise ValueError(f"project key must look like group:artifact, got {key!r}")
        return cls(group, artifact)


@dataclass(frozen=True)
class DependencyDecl:
    """One declared dependency. version_text is kept verbatim, never parsed."""

    target: ProjectCoordinate
    version_text: str | None = None
    scope: str | None = None


@dataclass(frozen=True)
class ProjectManifest:
    """One build manifest (e.g. a single pom.xml) of a project module."""

    coordinate: ProjectCoordinate
    version_text: str
    declared_dependencies: tuple[DependencyDecl, ...] = ()
    submodule_coordinates: frozenset[ProjectCoordinate] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "declared_dependencies", tuple(self.declared_dependencies))
        object.__setattr__(self, "submodule_coordinates", frozenset(self.submodule_coordinates))


@dataclass(frozen=True)
class ApiSurface:
    """Public methods keyed by identity, each mapped to its first-step callees.

    Callee identities may name methods that are not keys themselves
    (private or external callees).
    """

    methods: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        normalized = {name: frozenset(callees) for name, callees in self.methods.items()}
        object.__setattr__(self, "methods", normalized)


@dataclass(frozen=True)
class UsageRecord:
    """Coordinates whose symbols the project actually references."""

    referenced_coordinates: frozenset[ProjectCoordinate]

    def __post_init__(self) -> None:
        object.__setattr__(self, "referenced_coordinates", frozenset(self.referenced_coordinates))


@dataclass(frozen=True)
class ReleaseSnapshot:
    """One project at one release."""

    coordinate: ProjectCoordinate
    version_label: str
    timestamp: int
    manifests: tuple[ProjectManifest, ...]
    api_surface: ApiSurface | None = None
    usage: UsageRecord | None = None
    loc: int | None = None
    bugs_fixed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "manifests", tuple(self.manifests))


@dataclass(frozen=True)
class MetricVector:
    """The six interaction-complexity values plus LOC for one release.

    rfc/lcom1/loc are None when their input was not available for the
    snapshot; None is distinct from 0.
    """

    wmc: int
    dit: int
    noc: int
    cbo: int
    rfc: int | None = None
    lcom1: int | None = None
    loc: int | None = None


def _check_coordinate(coordinate: ProjectCoordinate, path: str, out: list[str]) -> None:
    for name in ("group", "artifact"):
        value = getattr(coordinate, name)
        if not isinstance(value, str) or not value:
            out.append(f"{path}.{name}: must be a non-empty string")
        elif value.split() != [value]:  # str.split and str.isspace agree on whitespace
            out.append(f"{path}.{name}: must not contain whitespace")


def validate_snapshot(snapshot: ReleaseSnapshot) -> list[str]:
    """Check every type invariant of a snapshot; return violations as data.

    An empty list means the snapshot is well formed. The result is a pure
    function of the snapshot (deterministic ordering).
    """
    violations: list[str] = []
    _check_coordinate(snapshot.coordinate, "coordinate", violations)

    if not isinstance(snapshot.timestamp, int):
        violations.append("timestamp: must be an integer (UTC seconds)")
    if not isinstance(snapshot.bugs_fixed, int) or snapshot.bugs_fixed < 0:
        violations.append("bugs_fixed: must be a non-negative integer")
    if snapshot.loc is not None and (not isinstance(snapshot.loc, int) or snapshot.loc < 0):
        violations.append("loc: must be a non-negative integer when present")

    if not snapshot.manifests:
        violations.append("manifests: must contain at least one manifest")

    # Coordinates a manifest is allowed to carry: the project itself plus
    # the union of every manifest's declared submodules (nested modules are
    # covered because their declaring manifest is in the same list).
    allowed = {snapshot.coordinate}
    for manifest in snapshot.manifests:
        allowed.update(manifest.submodule_coordinates)

    for i, manifest in enumerate(snapshot.manifests):
        path = f"manifests[{i}]"
        _check_coordinate(manifest.coordinate, f"{path}.coordinate", violations)
        if manifest.coordinate in manifest.submodule_coordinates:
            violations.append(f"{path}.submodule_coordinates: manifest lists itself as a submodule")
        if manifest.coordinate not in allowed:
            violations.append(
                f"{path}.coordinate: {manifest.coordinate.key()} is neither the project"
                " coordinate nor a declared submodule"
            )
        for sub in sorted(manifest.submodule_coordinates):
            _check_coordinate(sub, f"{path}.submodule[{sub.key()}]", violations)
        for j, dep in enumerate(manifest.declared_dependencies):
            _check_coordinate(dep.target, f"{path}.dependencies[{j}].target", violations)

    if snapshot.usage is not None:
        for ref in sorted(snapshot.usage.referenced_coordinates):
            _check_coordinate(ref, f"usage[{ref.key()}]", violations)

    return violations
