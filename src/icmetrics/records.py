"""The snapshot record tier: a release as a tree of records, and every
function that builds, checks or reads one.

``ReleaseSnapshot`` and ``ProjectManifest`` are frozen dataclasses, so that
``dataclasses.replace`` rebuilds them (``perfbench/corpora.py`` does). Here
are the snapshot rules (``validate_snapshot``), the record-path decoders
(``parse_snapshot_json``, ``parse_pom``), ``encode_snapshot``, the facts of
a record tree (``release_facts``) and the wording of every release a load
refuses (``judge_refused``). A load decodes each clean release of either
format straight to its ``ReleaseFacts``, so this module, and with it
``dataclasses``, is imported on first use: by the first refused release, by
``synth``, or through the two names ``ingest`` serves from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from .ingest import (_FLOAT_OVERFLOW, _FLOAT_RULE, DEFAULT_SCOPE_FILTER, ReleaseHistoryRow, SnapshotFormatError,
                     _api_surface_from_json, _coordinate, _decode_json, _invalid, _usage_from_json, _where)
from .metrics import ic_lcom1, ic_rfc
from .model import (ApiSurface, DependencyDecl, ProjectCoordinate, ReleaseFacts, SharedValues, UsageRecord,
                    _coordinate_violations)


@dataclass(frozen=True)
class ProjectManifest:
    """One build manifest (e.g. a single pom.xml) of a project module."""

    coordinate: ProjectCoordinate
    version_text: str
    declared_dependencies: tuple[DependencyDecl, ...] = ()
    submodule_coordinates: frozenset[ProjectCoordinate] = frozenset()


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


def validate_snapshot(snapshot: ReleaseSnapshot) -> list[str]:
    """Check every type invariant of a snapshot; return violations as data.

    An empty list means the snapshot is well formed. The result is a pure
    function of the snapshot (deterministic ordering). ``load_corpus`` runs
    it once on every release, of either format, that its fast decoders
    refuse, to word the refusal; they accept only a release this finds
    clean.
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

    # A path is formatted only when a value fails the coordinate rule.
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
        for sub in sorted(submodules):
            for problem in _coordinate_violations(sub):
                violations.append(f"manifests[{i}].submodule[{sub.key()}]{problem}")
        for j, dep in enumerate(manifest.declared_dependencies):
            for problem in _coordinate_violations(dep.target):
                violations.append(f"manifests[{i}].dependencies[{j}].target{problem}")

    if snapshot.usage is not None:
        for ref in sorted(snapshot.usage.referenced_coordinates):
            for problem in _coordinate_violations(ref):
                violations.append(f"usage[{ref.key()}]{problem}")

    return violations


def _check(snapshot: ReleaseSnapshot) -> None:
    """Raise SnapshotFormatError naming every snapshot rule ``snapshot`` breaks."""
    violations = validate_snapshot(snapshot)
    if violations:
        raise SnapshotFormatError("snapshot violates invariants: " + "; ".join(violations))


def _count(value: Any, path: str, rule: str) -> int:
    """``value`` if it is a non-negative integer that a float can hold;
    otherwise SnapshotFormatError at ``path``, naming ``rule`` for a wrong
    type or sign and the float bound for a count too large."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
        _invalid(path, rule)
    if value >= _FLOAT_OVERFLOW:
        _invalid(path, _FLOAT_RULE)
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _invalid(path, "must be an array")
    return value


def _dependency(value: Any, shared: SharedValues, path: str, index: int) -> DependencyDecl:
    """The dependency a JSON object declares; SnapshotFormatError at ``path[index]``
    naming the first wrong part (target, version, scope) when it declares none."""
    if isinstance(value, dict):
        group, artifact = value.get("group"), value.get("artifact")
        version, scope = value.get("version"), value.get("scope")
        if (isinstance(group, str) and group and isinstance(artifact, str) and artifact
                and (version is None or isinstance(version, str))
                and (scope is None or isinstance(scope, str))):
            return DependencyDecl(shared.coordinate(group, artifact), version, scope)
    _coordinate(value, shared, path, index)  # raises unless value is an object naming a target
    where = _where(path, index)
    if not (version is None or isinstance(version, str)):
        _invalid(f"{where}.version", "must be a string or null")
    _invalid(f"{where}.scope", "must be a string or null")


def _manifest_from_json(item: Any, shared: SharedValues, path: str, index: int) -> ProjectManifest:
    """The manifest a JSON object declares. Its parts are checked with paths
    relative to the manifest; a failure's path gets ``path[index]`` in front
    here."""
    try:
        coordinate = _coordinate(item, shared, "")
        if not isinstance(item.get("version"), str):
            _invalid(".version", "must be a string")
        deps = tuple(_dependency(dep, shared, ".dependencies", j)
                     for j, dep in enumerate(_array(item.get("dependencies", []), ".dependencies")))
        submodules = frozenset(_coordinate(sub, shared, ".submodules", k)
                               for k, sub in enumerate(_array(item.get("submodules", []), ".submodules")))
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"{_where(path, index)}{exc}") from None
    return ProjectManifest(coordinate, item["version"], deps, submodules)


def parse_snapshot_json(text: str) -> ReleaseSnapshot:
    """Decode one snapshot.json document; the result always validates clean."""
    snapshot, surface, _ = _snapshot_from_json(_decode_json(text, "."), SharedValues())
    _check(snapshot)
    if surface is None:
        return snapshot
    return replace(snapshot, api_surface=ApiSurface({name: frozenset(callees) for name, callees in surface.items()}))


def _snapshot_from_json(raw: Any, shared: SharedValues, row: ReleaseHistoryRow | None = None,
                        ) -> tuple[ReleaseSnapshot, dict[str, list[str]] | None, int | None]:
    """The record path: decode one snapshot.json value into records, sharing
    equal values through ``shared``: the snapshot without its API surface,
    the checked surface and its RFC. A history ``row`` replaces the
    document's bug count. The snapshot rules are left to the caller."""
    if not isinstance(raw, dict):
        _invalid(".", "document root must be an object")

    coordinate = _coordinate(raw.get("project"), shared, ".project")
    if not (isinstance(raw.get("version"), str) and raw["version"]):
        _invalid(".version", "must be a non-empty string")
    if not (isinstance(raw.get("timestamp"), int) and not isinstance(raw.get("timestamp"), bool)):
        _invalid(".timestamp", "must be an integer")

    manifests_raw = raw.get("manifests")
    if not (isinstance(manifests_raw, list) and manifests_raw):
        _invalid(".manifests", "must be a non-empty array")
    manifests = tuple(_manifest_from_json(item, shared, ".manifests", i) for i, item in enumerate(manifests_raw))

    surface, rfc = _api_surface_from_json(raw.get("api_surface"), ".api_surface")
    referenced = _usage_from_json(raw.get("usage"), ".usage", shared)

    loc = raw.get("loc")
    if loc is not None:
        _count(loc, ".loc", "must be a non-negative integer or null")
    bugs = _count(raw.get("bugs_fixed", 0), ".bugs_fixed", "must be a non-negative integer")

    snapshot = ReleaseSnapshot(
        coordinate=coordinate,
        version_label=raw["version"],
        timestamp=raw["timestamp"],
        manifests=manifests,
        usage=None if referenced is None else UsageRecord(referenced),
        loc=loc,
        bugs_fixed=bugs if row is None else row.bugs_fixed,
    )
    return snapshot, surface, rfc


def encode_snapshot(snapshot: ReleaseSnapshot) -> str:
    """Inverse of parse_snapshot_json (round-trips field-by-field). The
    compact separators fix the bytes that synth corpora and
    ``perfbench/digests.json`` pin."""
    doc: dict[str, Any] = {
        "project": {"group": snapshot.coordinate.group, "artifact": snapshot.coordinate.artifact},
        "version": snapshot.version_label,
        "timestamp": snapshot.timestamp,
        "manifests": [
            {
                "group": m.coordinate.group,
                "artifact": m.coordinate.artifact,
                "version": m.version_text,
                "dependencies": [
                    {
                        "group": d.target.group,
                        "artifact": d.target.artifact,
                        "version": d.version_text,
                        "scope": d.scope,
                    }
                    for d in m.declared_dependencies
                ],
                "submodules": [
                    {"group": s.group, "artifact": s.artifact}
                    for s in sorted(m.submodule_coordinates)
                ],
            }
            for m in snapshot.manifests
        ],
        "api_surface": (
            None
            if snapshot.api_surface is None
            else {method: sorted(callees) for method, callees in sorted(snapshot.api_surface.methods.items())}
        ),
        "usage": (
            None
            if snapshot.usage is None
            else [
                {"group": c.group, "artifact": c.artifact}
                for c in sorted(snapshot.usage.referenced_coordinates)
            ]
        ),
        "loc": snapshot.loc,
    }
    if snapshot.bugs_fixed:
        doc["bugs_fixed"] = snapshot.bugs_fixed
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def build_manifest(values: tuple, shared: SharedValues) -> ProjectManifest:
    """The ProjectManifest of ``read_pom``'s values, its coordinates taken from ``shared``."""
    group, artifact, version, dependencies, modules = values
    return ProjectManifest(
        coordinate=shared.coordinate(group, artifact),
        version_text=version,
        declared_dependencies=tuple(DependencyDecl(shared.coordinate(dep_group, dep_artifact), dep_version, scope)
                                    for dep_group, dep_artifact, dep_version, scope in dependencies),
        submodule_coordinates=frozenset(shared.coordinate(group, module) for module in modules),
    )


def parse_pom(xml: bytes | str, _shared: SharedValues | None = None) -> ProjectManifest:
    """Parse one pom.xml document into a ProjectManifest: ``read_pom``'s
    values as a record, raising as ``read_pom`` does. ``_shared`` is for
    callers that share coordinates across documents, as one corpus load does.
    """
    from .pom import read_pom  # so that a refused snapshot.json release never loads the XML decoder

    return build_manifest(read_pom(xml), SharedValues() if _shared is None else _shared)


def _pom_snapshot(raw: tuple, version_label: str, row: ReleaseHistoryRow | None,
                  shared: SharedValues) -> tuple[ReleaseSnapshot, int | None]:
    """The record path: a decoded pom.xml release's snapshot, without its API
    surface, built through ``shared``, and its RFC. The history ``row`` gives
    the timestamp and bug count (0 without one); the rules are left to the caller."""
    poms, rfc, referenced, loc = raw
    manifests = tuple(build_manifest(values, shared) for values in poms)
    return ReleaseSnapshot(
        coordinate=manifests[0].coordinate,
        version_label=version_label,
        timestamp=0 if row is None else row.timestamp,
        manifests=manifests,
        usage=None if referenced is None else UsageRecord(referenced),
        loc=loc,
        bugs_fixed=0 if row is None else row.bugs_fixed,
    ), rfc


def effective_targets(snapshot: ReleaseSnapshot,
                      scope_filter: frozenset[str] | set[str] = DEFAULT_SCOPE_FILTER,
                      ) -> frozenset[ProjectCoordinate]:
    """The out-edges a snapshot contributes: targets of dependencies whose
    scope is not filtered, minus the project's own module and submodule
    coordinates."""
    own_modules = {snapshot.coordinate}
    for manifest in snapshot.manifests:
        own_modules.add(manifest.coordinate)
        own_modules.update(manifest.submodule_coordinates)
    return frozenset(
        dep.target
        for manifest in snapshot.manifests
        for dep in manifest.declared_dependencies
        if dep.scope not in scope_filter and dep.target not in own_modules
    )


def _facts(snapshot: ReleaseSnapshot, rfc: int | None, scope_filter: frozenset[str] | set[str],
           target_sets: dict[frozenset[ProjectCoordinate], frozenset[ProjectCoordinate]]) -> ReleaseFacts:
    """The facts of a checked snapshot whose RFC is given; equal target sets
    are shared through ``target_sets``."""
    targets = effective_targets(snapshot, scope_filter)
    targets = target_sets.setdefault(targets, targets)
    return ReleaseFacts(snapshot.version_label, snapshot.timestamp, snapshot.bugs_fixed, snapshot.loc,
                        targets, rfc, None if snapshot.usage is None else ic_lcom1(targets, snapshot.usage))


def release_facts(snapshot: ReleaseSnapshot,
                  scope_filter: frozenset[str] | set[str] = DEFAULT_SCOPE_FILTER) -> ReleaseFacts:
    """What ``load_corpus`` keeps of a release, derived from its snapshot."""
    return _facts(snapshot, None if snapshot.api_surface is None else ic_rfc(snapshot.api_surface),
                  scope_filter, {})


def judge_refused(raw: Any, pom: bool, coordinate: ProjectCoordinate, version_label: str,
                  row: ReleaseHistoryRow | None, scope_filter: frozenset[str] | set[str],
                  shared: SharedValues) -> ReleaseFacts:
    """The record path of ``load_corpus``: judge a decoded release that its
    fast decoder refused, a snapshot.json value or, when ``pom``, the values
    of a pom.xml release. Its records are built through ``shared`` and
    checked against the schema as they decode, then the snapshot rules, then
    the project directory (``coordinate``) and the release directory
    (``version_label``); a SnapshotFormatError words the first that fails.
    A release that passes all three yields its facts."""
    if pom:
        snapshot, rfc = _pom_snapshot(raw, version_label, row, shared)
    else:
        snapshot, _, rfc = _snapshot_from_json(raw, shared, row)
    _check(snapshot)
    if snapshot.coordinate != coordinate:
        raise SnapshotFormatError(f"manifest coordinate {snapshot.coordinate.key()} does not match"
                                  f" project directory {coordinate.key()}")
    if snapshot.version_label != version_label:
        raise SnapshotFormatError(f"snapshot version {snapshot.version_label} does not match"
                                  f" release directory {version_label}")
    return _facts(snapshot, rfc, scope_filter, shared.targets)
