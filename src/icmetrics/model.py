"""Shared domain types: immutable containers plus one invariant checker.

Every record is a ``typing.NamedTuple``: several times cheaper than a
frozen dataclass both to create at import and to build, which every run
pays for. ``ReleaseSnapshot`` and ``ProjectManifest`` stay frozen
dataclasses, since callers rebuild them with ``dataclasses.replace``.

A record stores the objects it is given and converts none: its annotations
are the contract, so a builder passes a tuple or a frozenset where one is
annotated. Construction never raises; ``validate_snapshot`` is the one
statement of the snapshot rules and reports violations as plain strings, so
corpus loading can keep going and record failures instead of aborting.
``SharedValues`` lets the decoders of one corpus load hand out one object
per distinct value. ``ReleaseFacts`` is what a corpus load keeps of a
release.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, NamedTuple


class ProjectCoordinate(NamedTuple):
    """Version-blind identity of a project: (group, artifact).

    A named tuple, so equality, hashing and order are those of the field
    tuple and run in C.
    """

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


class DependencyDecl(NamedTuple):
    """One declared dependency. version_text is kept verbatim, never parsed."""

    target: ProjectCoordinate
    version_text: str | None = None
    scope: str | None = None


class SharedValues:
    """One object per distinct coordinate, dependency declaration and
    effective target set.

    Decoders given the same instance return the same object for equal
    values, so a corpus load holds each value once however many manifests
    repeat it; a load keeps its target sets through ``targets``. The tables
    only grow; they live as long as the instance. Nothing is checked here:
    a decoded release is checked with ``validate_snapshot``.
    """

    __slots__ = ("coordinates", "dependencies", "targets")

    def __init__(self) -> None:
        self.coordinates: dict[tuple[str, str], ProjectCoordinate] = {}
        self.dependencies: dict[tuple[str, str, str | None, str | None], DependencyDecl] = {}
        self.targets: dict[frozenset[ProjectCoordinate], frozenset[ProjectCoordinate]] = {}

    def coordinate(self, group: str, artifact: str) -> ProjectCoordinate:
        coordinate = self.coordinates.get((group, artifact))
        if coordinate is None:
            coordinate = self.coordinates[group, artifact] = ProjectCoordinate(group, artifact)
        return coordinate

    def dependency(self, group: str, artifact: str, version_text: str | None,
                   scope: str | None) -> DependencyDecl:
        key = (group, artifact, version_text, scope)
        dependency = self.dependencies.get(key)
        if dependency is None:
            dependency = self.dependencies[key] = DependencyDecl(self.coordinate(group, artifact),
                                                                 version_text, scope)
        return dependency


@dataclass(frozen=True)
class ProjectManifest:
    """One build manifest (e.g. a single pom.xml) of a project module."""

    coordinate: ProjectCoordinate
    version_text: str
    declared_dependencies: tuple[DependencyDecl, ...] = ()
    submodule_coordinates: frozenset[ProjectCoordinate] = frozenset()


class ApiSurface(NamedTuple):
    """Public methods keyed by identity, each mapped to its first-step callees.

    Callee identities may name methods that are not keys themselves
    (private or external callees).
    """

    methods: Mapping[str, frozenset[str]]


class UsageRecord(NamedTuple):
    """Coordinates whose symbols the project actually references."""

    referenced_coordinates: frozenset[ProjectCoordinate]


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


class ReleaseFacts(NamedTuple):
    """What the metric sweep reads of one parsed release.

    ``targets`` are the release's out-edges (``ingest.effective_targets``);
    ``rfc`` and ``lcom1`` are its class-local metrics, None when the release
    has no API surface or usage record.
    """

    version_label: str
    timestamp: int
    bugs_fixed: int
    loc: int | None
    targets: frozenset[ProjectCoordinate]
    rfc: int | None
    lcom1: int | None


class MetricVector(NamedTuple):
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


_TARGET = attrgetter("target")


def _coordinate_violations(coordinate: ProjectCoordinate) -> tuple[str, ...]:
    """The coordinate rule: group and artifact are non-empty strings without
    whitespace (str.split and str.isspace agree on whitespace).

    Returns one ``.field: message`` per broken field, or () when
    ``coordinate`` keeps the rule; so ``any(map(...))`` is the success test,
    and a caller formats its path prefix only for a message it gets.
    """
    group, artifact = coordinate.group, coordinate.artifact
    if (isinstance(group, str) and group.split() == [group]
            and isinstance(artifact, str) and artifact.split() == [artifact]):
        return ()
    return tuple(f".{name}: must not contain whitespace" if isinstance(value, str) and value
                 else f".{name}: must be a non-empty string"
                 for name, value in (("group", group), ("artifact", artifact))
                 if not (isinstance(value, str) and value.split() == [value]))


def validate_snapshot(snapshot: ReleaseSnapshot) -> list[str]:
    """Check every type invariant of a snapshot; return violations as data.

    An empty list means the snapshot is well formed. The result is a pure
    function of the snapshot (deterministic ordering). ``load_corpus`` runs
    it once on every release it decodes, from JSON or from POMs.
    """
    violations: list[str] = []
    project = snapshot.coordinate
    for problem in _coordinate_violations(project):
        violations.append(f"coordinate{problem}")

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
    # covered because their declaring manifest is in the same list). Built
    # only for a manifest that is not the project's own coordinate object.
    allowed: set[ProjectCoordinate] | None = None

    # A path is formatted, and a set sorted, only when a value fails the
    # coordinate rule.
    for i, manifest in enumerate(snapshot.manifests):
        coordinate, submodules = manifest.coordinate, manifest.submodule_coordinates
        for problem in _coordinate_violations(coordinate):
            violations.append(f"manifests[{i}].coordinate{problem}")
        if submodules and coordinate in submodules:
            violations.append(f"manifests[{i}].submodule_coordinates: manifest lists itself as a submodule")
        if coordinate is not project:
            if allowed is None:
                allowed = {project}.union(*(m.submodule_coordinates for m in snapshot.manifests))
            if coordinate not in allowed:
                violations.append(
                    f"manifests[{i}].coordinate: {coordinate.key()} is neither the project"
                    " coordinate nor a declared submodule"
                )
        if any(map(_coordinate_violations, submodules)):
            for sub in sorted(submodules):
                for problem in _coordinate_violations(sub):
                    violations.append(f"manifests[{i}].submodule[{sub.key()}]{problem}")
        dependencies = manifest.declared_dependencies
        if any(map(_coordinate_violations, map(_TARGET, dependencies))):
            for j, dep in enumerate(dependencies):
                for problem in _coordinate_violations(dep.target):
                    violations.append(f"manifests[{i}].dependencies[{j}].target{problem}")

    if snapshot.usage is not None and any(map(_coordinate_violations, snapshot.usage.referenced_coordinates)):
        for ref in sorted(snapshot.usage.referenced_coordinates):
            for problem in _coordinate_violations(ref):
                violations.append(f"usage[{ref.key()}]{problem}")

    return violations
