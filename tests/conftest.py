"""Shared fixture builders for the test suite."""

from __future__ import annotations

import errno
import os
from pathlib import Path

import icmetrics
from icmetrics.ingest import DEFAULT_SCOPE_FILTER, HISTORY_COLUMNS, Corpus, FailedRelease
from icmetrics.model import (
    ApiSurface,
    DependencyDecl,
    MetricVector,
    ProjectCoordinate,
    UsageRecord,
)
from icmetrics.pipeline import build_series
from icmetrics.records import ProjectManifest, ReleaseSnapshot, encode_snapshot, release_facts

FIXTURE_GROUP = "org.fixture"


def child_env() -> dict[str, str]:
    """The environment for a child Python process that imports the package under test."""
    src = str(Path(icmetrics.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def deny_listing(monkeypatch, *paths) -> None:
    """Make ``os.scandir`` of each of ``paths`` raise the PermissionError a
    directory without read permission gives; root can list any directory,
    so a chmod would not do."""
    denied = {os.fspath(path) for path in paths}
    scandir = os.scandir

    def denying(path="."):
        if os.fspath(path) in denied:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", denying)


def coord(name: str, group: str = FIXTURE_GROUP) -> ProjectCoordinate:
    return ProjectCoordinate(group, name)


def _as_decl(dep) -> DependencyDecl:
    if isinstance(dep, DependencyDecl):
        return dep
    if isinstance(dep, ProjectCoordinate):
        return DependencyDecl(target=dep)
    return DependencyDecl(target=coord(dep))


def make_manifest(name: str, deps=(), version: str = "1.0.0", submodules=(),
                  group: str = FIXTURE_GROUP) -> ProjectManifest:
    return ProjectManifest(
        coordinate=coord(name, group),
        version_text=version,
        declared_dependencies=tuple(_as_decl(d) for d in deps),
        submodule_coordinates=frozenset(coord(s, group) if isinstance(s, str) else s for s in submodules),
    )


def make_snapshot(name: str, deps=(), version: str = "1.0.0", timestamp: int = 0,
                  bugs: int = 0, api_surface: ApiSurface | None = None,
                  usage: UsageRecord | None = None, loc: int | None = None,
                  manifests=None, group: str = FIXTURE_GROUP) -> ReleaseSnapshot:
    if manifests is None:
        manifests = (make_manifest(name, deps, version, group=group),)
    return ReleaseSnapshot(
        coordinate=coord(name, group),
        version_label=version,
        timestamp=timestamp,
        manifests=tuple(manifests),
        api_surface=api_surface,
        usage=usage,
        loc=loc,
        bugs_fixed=bugs,
    )


def graph_snapshots(edge_map: dict[str, list[str]]) -> list[ReleaseSnapshot]:
    """One snapshot per key, depending on the named targets (all corpus members)."""
    return [make_snapshot(name, deps) for name, deps in edge_map.items()]


def random_edge_map(rng, max_nodes=12, max_density=0.5, acyclic=False) -> dict[str, list[str]]:
    """A graph on n0..n{k-1}, k uniform in 1..max_nodes, with each possible
    edge drawn at one density uniform in [0, max_density); ``acyclic`` keeps
    only edges from a node to later ones."""
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    density = rng.uniform(0.0, max_density)
    return {u: [v for v in (names[i + 1:] if acyclic else names[:i] + names[i + 1:]) if rng.random() < density]
            for i, u in enumerate(names)}


def sweep_vectors(snapshots, scope_filter=DEFAULT_SCOPE_FILTER) -> dict[ProjectCoordinate, MetricVector]:
    """Each project's vector from build_series, for one snapshot per project.

    Each snapshot is its project's whole history, so every release is
    measured against all the others, whatever the timestamps.
    """
    corpus = Corpus({snapshot.coordinate: [release_facts(snapshot, scope_filter)] for snapshot in snapshots},
                    {}, [])
    assert len(corpus.facts) == len(snapshots), "one snapshot per project"
    series = build_series(corpus)
    return {coordinate: project.releases[0].vector for coordinate, project in series.items()}


def snapshot_lists(projects: dict[str, list[ReleaseSnapshot]]) -> dict[ProjectCoordinate, list[ReleaseSnapshot]]:
    """Each project's snapshots in the order load_corpus keeps releases."""
    return {coord(name): sorted(snapshots, key=lambda s: (s.timestamp, s.version_label))
            for name, snapshots in projects.items()}


def make_corpus(projects: dict[str, list[ReleaseSnapshot]],
                failed: dict[str, int] | None = None,
                scope_filter=DEFAULT_SCOPE_FILTER) -> Corpus:
    """In-memory corpus holding the facts load_corpus keeps of each snapshot;
    `failed` counts unparsable releases per project name."""
    corpus = Corpus({}, {}, [])
    for coordinate, snapshots in snapshot_lists(projects).items():
        corpus.facts[coordinate] = [release_facts(snapshot, scope_filter) for snapshot in snapshots]
        corpus.failed.setdefault(coordinate, [])
    for name, count in (failed or {}).items():
        corpus.facts.setdefault(coord(name), [])
        corpus.failed[coord(name)] = [FailedRelease(f"broken-{i}", "no snapshot.json or pom.xml") for i in range(count)]
    return corpus


def write_release(corpus_root: Path, snapshot: ReleaseSnapshot) -> Path:
    release_dir = corpus_root / snapshot.coordinate.key() / snapshot.version_label
    release_dir.mkdir(parents=True)
    (release_dir / "snapshot.json").write_text(encode_snapshot(snapshot), encoding="utf-8")
    return release_dir


def write_failed_release(corpus_root: Path, project_key: str, version: str) -> Path:
    release_dir = corpus_root / project_key / version
    release_dir.mkdir(parents=True)
    return release_dir


def write_history(path: Path, rows: list[tuple[str, str, int, int]]) -> Path:
    lines = [",".join(HISTORY_COLUMNS)]
    lines += [f"{key},{version},{timestamp},{bugs}" for key, version, timestamp, bugs in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_messy_corpus(corpus_root: Path) -> list[tuple[str, str, int, int]]:
    """A corpus with a failed release of each format, a directory whose name
    is not a project key, a release without a history row, and orphan
    history rows (one of the skipped directory); returns its history rows.

    Directory order is g:pom, m-stray, org.fixture:proj; the orphans are
    listed in another order.
    """
    rows: list[tuple[str, str, int, int]] = [("org.gone:x", "1.0", 10, 0)]
    for i in range(12):
        version = f"{i:02d}.0"
        write_release(corpus_root, make_snapshot("proj", deps=[f"dep{i % 3}"], version=version,
                                                 timestamp=1000 + 100 * i, loc=50 + i))
        if version != "05.0":
            rows.append(("org.fixture:proj", version, 1000 + 100 * i, i % 4 + 1))
    (write_failed_release(corpus_root, "org.fixture:proj", "broken") / "snapshot.json").write_text("{}")
    rows += [("org.fixture:proj", "broken", 2300, 2), ("m-stray", "1.0", 100, 1), ("g:pom", "1.0", 500, 3)]

    pom_dir = write_failed_release(corpus_root, "g:pom", "1.0")
    (pom_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>pom</artifactId><version>1.0</version></project>")
    (pom_dir / "src").mkdir()
    (pom_dir / "src" / "A.java").write_text("a\nb\n")
    (pom_dir / "src" / "B.java").write_text("c\n")
    (write_failed_release(corpus_root, "g:pom", "2.0") / "pom.xml").write_text(
        "<project><groupId>g</groupId><version>2.0</version></project>")
    write_failed_release(corpus_root, "m-stray", "1.0")
    rows.append(("org.fixture:proj", "99.0", 9900, 4))
    return rows
