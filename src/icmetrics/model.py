"""Shared domain types: immutable named tuples, ``SharedValues`` and the
coordinate rule.

Every record here is a ``typing.NamedTuple``: several times cheaper than a
frozen dataclass both to create at import and to build, which every run
pays for. A record stores the objects it is given and converts none: its
annotations are the contract, so a builder passes a tuple or a frozenset
where one is annotated. ``SharedValues`` lets the decoders of one corpus
load hand out one object per distinct coordinate and target set, and judge
each distinct coordinate once by the coordinate rule. ``ReleaseFacts`` is
what a corpus load keeps of a release. The snapshot record tree, and the
snapshot rules that judge it, live in ``records``.
"""

from __future__ import annotations

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
        """The coordinate of a ``group:artifact`` key, split at its first colon;
        ValueError unless it keeps the coordinate rule (a key without a colon
        has an empty artifact)."""
        group, _, artifact = key.partition(":")
        if _coordinate_violations(coordinate := cls(group, artifact)):
            raise ValueError(f"project key must be group:artifact, both non-empty and without whitespace,"
                             f" got {key!r}")
        return coordinate


class DependencyDecl(NamedTuple):
    """One declared dependency. version_text is kept verbatim, never parsed."""

    target: ProjectCoordinate
    version_text: str | None = None
    scope: str | None = None


class SharedValues:
    """One object per distinct coordinate and effective target set.

    Decoders given the same instance return the same coordinate object for
    equal values, so a corpus load holds each coordinate once however many
    manifests repeat it; a load keeps its target sets through ``targets``.
    ``judged`` holds the coordinate rule's verdict on each distinct
    (group, artifact) pair a decoder has asked about. The tables only grow;
    they live as long as the instance.
    """

    __slots__ = ("coordinates", "judged", "targets")

    def __init__(self) -> None:
        self.coordinates: dict[tuple[str, str], ProjectCoordinate] = {}
        self.judged: dict[tuple[object, object], ProjectCoordinate | None] = {}
        self.targets: dict[frozenset[ProjectCoordinate], frozenset[ProjectCoordinate]] = {}

    def coordinate(self, group: str, artifact: str) -> ProjectCoordinate:
        coordinate = self.coordinates.get((group, artifact))
        if coordinate is None:
            coordinate = self.coordinates[group, artifact] = ProjectCoordinate(group, artifact)
        return coordinate

    def kept_coordinate(self, group: object, artifact: object) -> ProjectCoordinate | None:
        """The shared coordinate (group, artifact) if it keeps the coordinate
        rule, else None. The rule runs once per distinct pair: a string
        never equals a value of another type, so a pair of anything but
        two strings can share no verdict with a pair of strings."""
        key = (group, artifact)
        try:
            return self.judged[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable part, which no rule keeps
            return None
        kept = self.judged[key] = (None if _coordinate_violations(ProjectCoordinate(group, artifact))
                                   else self.coordinate(group, artifact))
        return kept


class ApiSurface(NamedTuple):
    """Public methods keyed by identity, each mapped to its first-step callees.

    Callee identities may name methods that are not keys themselves
    (private or external callees).
    """

    methods: Mapping[str, frozenset[str]]


class UsageRecord(NamedTuple):
    """Coordinates whose symbols the project actually references."""

    referenced_coordinates: frozenset[ProjectCoordinate]


class ReleaseFacts(NamedTuple):
    """What the metric sweep reads of one parsed release.

    ``targets`` are the release's out-edges (``records.effective_targets``);
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


def _coordinate_violations(coordinate: ProjectCoordinate) -> tuple[str, ...]:
    """The coordinate rule: group and artifact are non-empty strings without
    whitespace (str.split and str.isspace agree on whitespace).

    Returns one ``.field: message`` per broken field, or () when
    ``coordinate`` keeps the rule, so a caller formats its path prefix only
    for a message it gets.
    """
    group, artifact = coordinate.group, coordinate.artifact
    if (isinstance(group, str) and group.split() == [group]
            and isinstance(artifact, str) and artifact.split() == [artifact]):
        return ()
    return tuple(f".{name}: must not contain whitespace" if isinstance(value, str) and value
                 else f".{name}: must be a non-empty string"
                 for name, value in (("group", group), ("artifact", artifact))
                 if not (isinstance(value, str) and value.split() == [value]))
