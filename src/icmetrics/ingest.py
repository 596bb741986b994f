"""On-disk input handling: snapshot JSON, release history CSV, corpus trees, LOC.

Corpus layout::

    <root>/
      <group>:<artifact>/          one directory per project (name is the
                                   history join key)
        <version_label>/           one directory per release
          snapshot.json            -- or --
          pom.xml [**/pom.xml]     root manifest plus nested module manifests
          api_surface.json         optional (pom releases)
          usage.json               optional
          src/                     optional source tree for LOC counting

A release directory that yields no valid snapshot is recorded as a failed
release (it still counts toward the parse-ratio selection criterion) and
never aborts the load.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .model import (
    ApiSurface,
    DependencyDecl,
    ProjectCoordinate,
    ProjectManifest,
    ReleaseSnapshot,
    UsageRecord,
    validate_snapshot,
)
from .pom import PomError, parse_pom

DEFAULT_LOC_EXTENSIONS = frozenset({".java"})

HISTORY_COLUMNS = ("project", "version", "timestamp", "bugs_fixed")


class SnapshotFormatError(ValueError):
    """snapshot.json violates the schema; message names the JSON path."""


class HistoryFormatError(ValueError):
    """releases.csv violates its contract."""


class CorpusError(ValueError):
    """The corpus root itself is unusable."""


@dataclass(frozen=True)
class ReleaseHistoryRow:
    project_key: str
    version_label: str
    timestamp: int
    bugs_fixed: int


@dataclass(frozen=True)
class FailedRelease:
    version_label: str
    reason: str


@dataclass
class Corpus:
    """Everything load_corpus learned about a corpus tree."""

    snapshots: dict[ProjectCoordinate, list[ReleaseSnapshot]] = field(default_factory=dict)
    failed: dict[ProjectCoordinate, list[FailedRelease]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# snapshot.json


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SnapshotFormatError(f"{path}: {message}")


def _coordinate_from_json(value: Any, path: str) -> ProjectCoordinate:
    _expect(isinstance(value, dict), path, "must be an object")
    for key in ("group", "artifact"):
        _expect(isinstance(value.get(key), str) and value[key], f"{path}.{key}", "must be a non-empty string")
    return ProjectCoordinate(value["group"], value["artifact"])


def _optional_str(value: Any, path: str) -> str | None:
    if value is None:
        return None
    _expect(isinstance(value, str), path, "must be a string or null")
    return value


def parse_snapshot_json(text: str) -> ReleaseSnapshot:
    """Decode one snapshot.json document; the result always validates clean."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f".: invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), ".", "document root must be an object")

    coordinate = _coordinate_from_json(raw.get("project"), ".project")
    _expect(isinstance(raw.get("version"), str) and raw["version"], ".version", "must be a non-empty string")
    _expect(isinstance(raw.get("timestamp"), int) and not isinstance(raw.get("timestamp"), bool),
            ".timestamp", "must be an integer")

    manifests_raw = raw.get("manifests")
    _expect(isinstance(manifests_raw, list) and manifests_raw, ".manifests", "must be a non-empty array")
    manifests = []
    for i, item in enumerate(manifests_raw):
        path = f".manifests[{i}]"
        _expect(isinstance(item, dict), path, "must be an object")
        m_coord = _coordinate_from_json(item, path)
        _expect(isinstance(item.get("version"), str), f"{path}.version", "must be a string")
        deps = []
        for j, dep in enumerate(item.get("dependencies", [])):
            dep_path = f"{path}.dependencies[{j}]"
            _expect(isinstance(dep, dict), dep_path, "must be an object")
            deps.append(
                DependencyDecl(
                    target=_coordinate_from_json(dep, dep_path),
                    version_text=_optional_str(dep.get("version"), f"{dep_path}.version"),
                    scope=_optional_str(dep.get("scope"), f"{dep_path}.scope"),
                )
            )
        submodules = frozenset(
            _coordinate_from_json(sub, f"{path}.submodules[{k}]")
            for k, sub in enumerate(item.get("submodules", []))
        )
        manifests.append(
            ProjectManifest(
                coordinate=m_coord,
                version_text=item["version"],
                declared_dependencies=tuple(deps),
                submodule_coordinates=submodules,
            )
        )

    api_surface = None
    if raw.get("api_surface") is not None:
        surface_raw = raw["api_surface"]
        _expect(isinstance(surface_raw, dict), ".api_surface", "must be an object or null")
        methods = {}
        for method, callees in surface_raw.items():
            _expect(isinstance(callees, list) and all(isinstance(c, str) for c in callees),
                    f".api_surface[{method!r}]", "must be an array of strings")
            methods[method] = frozenset(callees)
        api_surface = ApiSurface(methods)

    usage = None
    if raw.get("usage") is not None:
        usage_raw = raw["usage"]
        _expect(isinstance(usage_raw, list), ".usage", "must be an array or null")
        usage = UsageRecord(
            frozenset(_coordinate_from_json(item, f".usage[{i}]") for i, item in enumerate(usage_raw))
        )

    loc = raw.get("loc")
    if loc is not None:
        _expect(isinstance(loc, int) and not isinstance(loc, bool) and loc >= 0,
                ".loc", "must be a non-negative integer or null")

    bugs = raw.get("bugs_fixed", 0)
    _expect(isinstance(bugs, int) and not isinstance(bugs, bool) and bugs >= 0,
            ".bugs_fixed", "must be a non-negative integer")

    snapshot = ReleaseSnapshot(
        coordinate=coordinate,
        version_label=raw["version"],
        timestamp=raw["timestamp"],
        manifests=tuple(manifests),
        api_surface=api_surface,
        usage=usage,
        loc=loc,
        bugs_fixed=bugs,
    )
    violations = validate_snapshot(snapshot)
    if violations:
        raise SnapshotFormatError("snapshot violates invariants: " + "; ".join(violations))
    return snapshot


def encode_snapshot(snapshot: ReleaseSnapshot) -> str:
    """Inverse of parse_snapshot_json (round-trips field-by-field)."""
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# releases.csv


def load_release_history(csv_text: str) -> list[ReleaseHistoryRow]:
    """Parse the release/bug history table.

    Header must be exactly ``project,version,timestamp,bugs_fixed``;
    (project, version) pairs must be unique.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise HistoryFormatError("history file is empty (missing header)") from None
    if tuple(h.strip() for h in header) != HISTORY_COLUMNS:
        raise HistoryFormatError(
            f"header must be {','.join(HISTORY_COLUMNS)}, got {','.join(header)}"
        )

    rows: list[ReleaseHistoryRow] = []
    seen: set[tuple[str, str]] = set()
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(HISTORY_COLUMNS):
            raise HistoryFormatError(f"line {lineno}: expected {len(HISTORY_COLUMNS)} columns, got {len(record)}")
        project_key, version, timestamp_text, bugs_text = (f.strip() for f in record)
        try:
            timestamp = int(timestamp_text)
        except ValueError:
            raise HistoryFormatError(f"line {lineno}: timestamp must be an integer, got {timestamp_text!r}") from None
        try:
            bugs = int(bugs_text)
        except ValueError:
            raise HistoryFormatError(f"line {lineno}: bugs_fixed must be an integer, got {bugs_text!r}") from None
        if bugs < 0:
            raise HistoryFormatError(f"line {lineno}: bugs_fixed must be non-negative, got {bugs}")
        key = (project_key, version)
        if key in seen:
            raise HistoryFormatError(f"line {lineno}: duplicate (project, version) pair {key}")
        seen.add(key)
        rows.append(ReleaseHistoryRow(project_key, version, timestamp, bugs))
    return rows


# --------------------------------------------------------------------------
# LOC


def count_loc(src_root: Path, extensions: frozenset[str] | set[str] = DEFAULT_LOC_EXTENSIONS,
              warnings: list[str] | None = None) -> int:
    """Count lines over all files whose name ends with a configured suffix.

    A line is a maximal text segment terminated by a newline or end of
    file; a trailing segment without a newline counts when non-empty.
    Unreadable files count as 0 lines and append a warning.
    """
    total = 0
    for path in sorted(src_root.rglob("*")):
        if not path.is_file() or not any(path.name.endswith(ext) for ext in extensions):
            continue
        try:
            data = path.read_bytes()
        except OSError as exc:
            if warnings is not None:
                warnings.append(f"unreadable file counted as 0 lines: {path} ({exc})")
            continue
        total += data.count(b"\n")
        if data and not data.endswith(b"\n"):
            total += 1
    return total


# --------------------------------------------------------------------------
# corpus trees


def _load_pom_release(release_dir: Path, loc_extensions: frozenset[str],
                      warnings: list[str]) -> ReleaseSnapshot:
    """Assemble a snapshot from pom.xml files plus optional sidecar files."""
    pom_paths = sorted(release_dir.rglob("pom.xml"), key=lambda p: (len(p.parts), str(p)))
    manifests = tuple(parse_pom(p.read_text(encoding="utf-8")) for p in pom_paths)

    api_surface = None
    surface_path = release_dir / "api_surface.json"
    if surface_path.is_file():
        raw = json.loads(surface_path.read_text(encoding="utf-8"))
        api_surface = ApiSurface({m: frozenset(c) for m, c in raw.items()})

    usage = None
    usage_path = release_dir / "usage.json"
    if usage_path.is_file():
        raw = json.loads(usage_path.read_text(encoding="utf-8"))
        usage = UsageRecord(frozenset(ProjectCoordinate(i["group"], i["artifact"]) for i in raw))

    loc = None
    src_dir = release_dir / "src"
    if src_dir.is_dir():
        loc = count_loc(src_dir, loc_extensions, warnings)

    root_manifest = manifests[0]
    return ReleaseSnapshot(
        coordinate=root_manifest.coordinate,
        version_label=release_dir.name,
        timestamp=0,  # filled from the history join
        manifests=manifests,
        api_surface=api_surface,
        usage=usage,
        loc=loc,
    )


def load_corpus(root: Path, history: list[ReleaseHistoryRow] | None,
                loc_extensions: frozenset[str] | set[str] = DEFAULT_LOC_EXTENSIONS) -> Corpus:
    """Walk a corpus tree into per-project, time-ordered snapshot lists.

    ``history`` joins bug counts (and, for pom releases, timestamps) by
    (project key, version label). Pass None to skip the join silently;
    an empty list warns on every unmatched release.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root is not a readable directory: {root}")

    history_index: dict[tuple[str, str], ReleaseHistoryRow] = {}
    for row in history or ():
        history_index[(row.project_key, row.version_label)] = row

    corpus = Corpus()
    loc_extensions = frozenset(loc_extensions)
    matched_history_keys: set[tuple[str, str]] = set()

    for project_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if ":" not in project_dir.name:
            corpus.warnings.append(
                f"skipping directory {project_dir.name!r}: name is not a group:artifact key"
            )
            continue
        coordinate = ProjectCoordinate.from_key(project_dir.name)
        parsed = corpus.snapshots.setdefault(coordinate, [])
        failed = corpus.failed.setdefault(coordinate, [])

        for release_dir in sorted(p for p in project_dir.iterdir() if p.is_dir()):
            version_label = release_dir.name
            snapshot_path = release_dir / "snapshot.json"
            from_json = snapshot_path.is_file()
            try:
                if from_json:
                    snapshot = parse_snapshot_json(snapshot_path.read_text(encoding="utf-8"))
                elif any(release_dir.rglob("pom.xml")):
                    snapshot = _load_pom_release(release_dir, loc_extensions, corpus.warnings)
                else:
                    failed.append(FailedRelease(version_label, "no snapshot.json or pom.xml"))
                    corpus.warnings.append(
                        f"failed release {project_dir.name}/{version_label}: no snapshot.json or pom.xml"
                    )
                    continue
            except (PomError, SnapshotFormatError, json.JSONDecodeError, OSError) as exc:
                failed.append(FailedRelease(version_label, str(exc)))
                corpus.warnings.append(f"failed release {project_dir.name}/{version_label}: {exc}")
                continue

            if snapshot.coordinate != coordinate:
                reason = (
                    f"manifest coordinate {snapshot.coordinate.key()} does not match"
                    f" project directory {project_dir.name}"
                )
                failed.append(FailedRelease(version_label, reason))
                corpus.warnings.append(f"failed release {project_dir.name}/{version_label}: {reason}")
                continue

            # parse_snapshot_json has already validated a snapshot.json release.
            violations = [] if from_json else validate_snapshot(snapshot)
            if violations:
                reason = "invariant violations: " + "; ".join(violations)
                failed.append(FailedRelease(version_label, reason))
                corpus.warnings.append(f"failed release {project_dir.name}/{version_label}: {reason}")
                continue

            row = history_index.get((project_dir.name, version_label))
            if row is not None:
                matched_history_keys.add((project_dir.name, version_label))
                timestamp = snapshot.timestamp if from_json else row.timestamp
                snapshot = ReleaseSnapshot(
                    coordinate=snapshot.coordinate,
                    version_label=snapshot.version_label,
                    timestamp=timestamp,
                    manifests=snapshot.manifests,
                    api_surface=snapshot.api_surface,
                    usage=snapshot.usage,
                    loc=snapshot.loc,
                    bugs_fixed=row.bugs_fixed,
                )
            elif history is not None:
                corpus.warnings.append(
                    f"no history row for {project_dir.name}/{version_label};"
                    f" bugs_fixed defaults to {snapshot.bugs_fixed}"
                )
            parsed.append(snapshot)

        parsed.sort(key=lambda s: (s.timestamp, s.version_label))

    for row in history or ():
        if (row.project_key, row.version_label) not in matched_history_keys:
            corpus.warnings.append(
                f"orphan history row: {row.project_key},{row.version_label},"
                f"{row.timestamp},{row.bugs_fixed} matches no release directory"
            )

    return corpus
