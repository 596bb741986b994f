"""The snapshot record tier: a release as a tree of records.

``ReleaseSnapshot`` and ``ProjectManifest`` are frozen dataclasses, so that
``dataclasses.replace`` rebuilds them (``perfbench/corpora.py`` does). This
module, and with it ``dataclasses``, is imported on first use: by
``parse_snapshot_json``, by the first ``pom.xml`` release a load reads, by
``synth``, or by a name ``model``, ``ingest`` or the package serves. A load
of ``snapshot.json`` releases decodes each one straight to its
``ReleaseFacts`` and loads it only for a release it refuses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ApiSurface, DependencyDecl, ProjectCoordinate, UsageRecord


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
