"""Workload corpora and the generator-side model the oracle checks against.

Every corpus starts as ``icmetrics synth`` output. ``stagger`` and
``to_pom`` rewrite it in place through the public ``parse_snapshot_json``
and ``encode_snapshot``. The ``Release`` records returned here describe
what was written, computed without the program's graph code, so the oracle
compares the program against the inputs and not against itself.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

from icmetrics.ingest import encode_snapshot, parse_snapshot_json
from icmetrics.model import DependencyDecl, ProjectCoordinate

# analyze's default --exclude-scopes; every benchmark run uses the default.
EXCLUDED_SCOPES = frozenset({"test", "provided"})

HISTORY_HEADER = "project,version,timestamp,bugs_fixed"

_DAY = 86_400
_POM_MODULES = ("api", "core", "impl")


@dataclass(frozen=True)
class Release:
    """One release as the benchmark wrote it."""

    project: str                  # group:artifact
    version: str
    timestamp: int
    bugs: int
    targets: frozenset[str]       # dependency edges after scope and own-module filtering
    rfc: int | None
    usage: frozenset[str] | None
    loc: int | None


def _key(group: str, artifact: str) -> str:
    return f"{group}:{artifact}"


def _rfc(surface: dict[str, list[str]] | None) -> int | None:
    if surface is None:
        return None
    identities = set(surface)
    for callees in surface.values():
        identities.update(callees)
    return len(identities)


def read_history(path: Path) -> dict[tuple[str, str], tuple[int, int]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or ",".join(rows[0]) != HISTORY_HEADER:
        raise ValueError(f"unexpected history header in {path}")
    return {(p, v): (int(t), int(b)) for p, v, t, b in rows[1:] if p}


def _write_history(path: Path, history: dict[tuple[str, str], tuple[int, int]]) -> None:
    lines = [HISTORY_HEADER]
    lines += [f"{p},{v},{t},{b}" for (p, v), (t, b) in sorted(history.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def release_dirs(corpus_dir: Path) -> list[Path]:
    return sorted(d for project in sorted(corpus_dir.iterdir()) for d in project.iterdir())


def _first_timestamps(history: dict[tuple[str, str], tuple[int, int]]) -> dict[str, int]:
    firsts: dict[str, int] = {}
    for (project, _), (timestamp, _) in history.items():
        firsts[project] = min(timestamp, firsts.get(project, timestamp))
    return firsts


def read_json_corpus(base: Path) -> list[Release]:
    """Model of a snapshot.json corpus, read with the json module alone."""
    history = read_history(base / "releases.csv")
    releases = []
    for release_dir in release_dirs(base / "corpus"):
        doc = json.loads((release_dir / "snapshot.json").read_text(encoding="utf-8"))
        project = _key(doc["project"]["group"], doc["project"]["artifact"])
        own = {project}
        deps = []
        for manifest in doc["manifests"]:
            own.add(_key(manifest["group"], manifest["artifact"]))
            own.update(_key(s["group"], s["artifact"]) for s in manifest.get("submodules", []))
            deps.extend(manifest.get("dependencies", []))
        targets = frozenset(
            _key(d["group"], d["artifact"]) for d in deps if d.get("scope") not in EXCLUDED_SCOPES
        ) - own
        usage = doc.get("usage")
        releases.append(Release(
            project=project,
            version=doc["version"],
            timestamp=doc["timestamp"],
            bugs=history[(project, doc["version"])][1],
            targets=targets,
            rfc=_rfc(doc.get("api_surface")),
            usage=None if usage is None else frozenset(_key(u["group"], u["artifact"]) for u in usage),
            loc=doc.get("loc"),
        ))
    return releases


def stagger(base: Path, seed: int) -> None:
    """Give each project a seeded timestamp offset under one day, and add a
    few seeded back-edges so that dependency cycles appear.

    Synth releases are one day apart, so the offsets keep each project's
    order while interleaving projects: almost every release becomes its own
    ecosystem state.
    """
    rng = random.Random(f"staggered:{seed}")
    corpus_dir = base / "corpus"
    projects = sorted(p.name for p in corpus_dir.iterdir())
    offsets = {p: rng.randrange(1, _DAY) for p in projects}
    n_releases = len(list((corpus_dir / projects[0]).iterdir()))
    # Synth project i depends on every j < min(i, 1 + t // 5), so an edge
    # from one of the first three projects back to a later one closes a
    # cycle once t is past the middle of the history.
    back_edges = []
    for _ in range(3):
        source = rng.randrange(0, min(3, len(projects) - 1))
        back_edges.append((projects[source], projects[rng.randrange(source + 1, len(projects))],
                           rng.randrange(n_releases // 2, n_releases)))

    history = read_history(base / "releases.csv")
    firsts = _first_timestamps(history)
    for release_dir in release_dirs(corpus_dir):
        path = release_dir / "snapshot.json"
        snapshot = parse_snapshot_json(path.read_text(encoding="utf-8"))
        project = snapshot.coordinate.key()
        step = (snapshot.timestamp - firsts[project]) // _DAY
        extra = tuple(
            DependencyDecl(ProjectCoordinate.from_key(target), "1.0", None)
            for source, target, start in back_edges
            if source == project and step >= start
        )
        root = snapshot.manifests[0]
        root = dataclasses.replace(root, declared_dependencies=root.declared_dependencies + extra)
        snapshot = dataclasses.replace(
            snapshot,
            timestamp=snapshot.timestamp + offsets[project],
            manifests=(root,) + snapshot.manifests[1:],
        )
        path.write_text(encode_snapshot(snapshot), encoding="utf-8")
        bugs = history[(project, snapshot.version_label)][1]
        history[(project, snapshot.version_label)] = (snapshot.timestamp, bugs)
    _write_history(base / "releases.csv", history)


def _dependency_xml(group: str, artifact: str, version: str | None, scope: str | None) -> str:
    parts = [f"<groupId>{escape(group)}</groupId>", f"<artifactId>{escape(artifact)}</artifactId>"]
    if version is not None:
        parts.append(f"<version>{escape(version)}</version>")
    if scope is not None:
        parts.append(f"<scope>{escape(scope)}</scope>")
    return "      <dependency>" + "".join(parts) + "</dependency>\n"


def _pom_xml(head: str, dependencies: list[str]) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<project xmlns="http://maven.apache.org/POM/4.0.0">\n'
        "  <modelVersion>4.0.0</modelVersion>\n"
        f"{head}"
        "  <dependencies>\n" + "".join(dependencies) + "  </dependencies>\n"
        "</project>\n"
    )


def _java_lines(count: int) -> list[str]:
    return [f"    int field{k} = {k};" for k in range(count)]


def to_pom(base: Path, seed: int) -> list[Release]:
    """Rewrite every release as a root pom.xml plus three module POMs, the
    api_surface.json/usage.json sidecars and a src/ tree; timestamps then
    come from releases.csv alone.

    The POMs use ${...} properties, <parent> fallback, sibling-module,
    test- and provided-scoped dependencies, all of which the graph must
    drop. The src/ tree holds two .java files, one without a final
    newline, and a .txt file that LOC counting must skip.
    """
    rng = random.Random(f"pom-loc:{seed}")
    history = read_history(base / "releases.csv")
    firsts = _first_timestamps(history)
    releases = []
    for release_dir in release_dirs(base / "corpus"):
        path = release_dir / "snapshot.json"
        snapshot = parse_snapshot_json(path.read_text(encoding="utf-8"))
        path.unlink()
        group, artifact = snapshot.coordinate.group, snapshot.coordinate.artifact
        project, version = snapshot.coordinate.key(), snapshot.version_label
        modules = [f"{artifact}-{name}" for name in _POM_MODULES]

        # Spread the synth dependencies over the four manifests (placed[0]
        # is the root POM, placed[1:] the modules); some land in two of them,
        # which the graph must count once.
        placed: list[list[str]] = [[], [], [], []]
        for dep in snapshot.manifests[0].declared_dependencies:
            scope = "compile" if rng.random() < 0.3 else None
            homes = {rng.randrange(4)}
            if rng.random() < 0.2:
                homes.add(rng.randrange(4))
            for home in sorted(homes):
                dep_version = "${dep.version}" if home == 0 else dep.version_text
                placed[home].append(_dependency_xml(dep.target.group, dep.target.artifact, dep_version, scope))
        placed[2].append(_dependency_xml("${project.groupId}", modules[0], "${project.version}", None))
        placed[2].append(_dependency_xml("junit", "junit", "4.13", "test"))
        placed[3].append(_dependency_xml(group, modules[1], None, None))
        placed[3].append(_dependency_xml("javax.servlet", "servlet-api", "2.5", "provided"))

        use_property = rng.random() < 0.5
        root_head = (
            f"  <groupId>{'${lib.group}' if use_property else escape(group)}</groupId>\n"
            f"  <artifactId>{escape(artifact)}</artifactId>\n"
            f"  <version>{escape(version)}</version>\n"
            "  <packaging>pom</packaging>\n"
            f"  <properties><lib.group>{escape(group)}</lib.group><dep.version>1.0</dep.version></properties>\n"
            "  <modules>"
            f"<module>{escape(modules[0])}</module>"
            f"<module>{escape(modules[1])}</module>"
            "<module>${project.artifactId}-" + _POM_MODULES[2] + "</module>"
            "</modules>\n"
        )
        (release_dir / "pom.xml").write_text(_pom_xml(root_head, placed[0]), encoding="utf-8")
        for module, deps in zip(modules, placed[1:]):
            head = (
                "  <parent>"
                f"<groupId>{escape(group)}</groupId><artifactId>{escape(artifact)}</artifactId>"
                f"<version>{escape(version)}</version></parent>\n"
                f"  <artifactId>{escape(module)}</artifactId>\n"
            )
            (release_dir / module).mkdir()
            (release_dir / module / "pom.xml").write_text(_pom_xml(head, deps), encoding="utf-8")

        surface = {m: sorted(c) for m, c in sorted(snapshot.api_surface.methods.items())}
        (release_dir / "api_surface.json").write_text(json.dumps(surface), encoding="utf-8")
        used = sorted(snapshot.usage.referenced_coordinates)
        (release_dir / "usage.json").write_text(
            json.dumps([{"group": c.group, "artifact": c.artifact} for c in used]), encoding="utf-8")

        timestamp, bugs = history[(project, version)]
        step = (timestamp - firsts[project]) // _DAY
        source = release_dir / "src" / "main" / "java" / artifact
        source.mkdir(parents=True)
        api_lines, impl_lines = 3 + step + rng.randrange(8), 3 + step + rng.randrange(8)
        (source / "Api.java").write_text("\n".join(_java_lines(api_lines)) + "\n", encoding="utf-8")
        (source / "Impl.java").write_text("\n".join(_java_lines(impl_lines)), encoding="utf-8")
        (release_dir / "src" / "NOTES.txt").write_text("\n".join(_java_lines(5 + step)) + "\n", encoding="utf-8")
        loc = api_lines + impl_lines

        own = {project, *(_key(group, m) for m in modules)}
        releases.append(Release(
            project=project,
            version=version,
            timestamp=timestamp,
            bugs=bugs,
            targets=frozenset(d.target.key() for d in snapshot.manifests[0].declared_dependencies) - own,
            rfc=_rfc(surface),
            usage=frozenset(c.key() for c in used),
            loc=loc,
        ))
    return releases
