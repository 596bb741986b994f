"""Diachronic study orchestration.

Selects projects, computes one metric vector per parsed release against a
release-time ecosystem graph, and correlates each project's metric series
(and the pooled point cloud) with its bug-fix series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from .graph import DEFAULT_SCOPE_FILTER, effective_targets, strongly_connected_components
from .ingest import Corpus
from .metrics import METRIC_ORDER, ic_lcom1, ic_rfc, vector_value
from .model import MetricVector, ProjectCoordinate, ReleaseSnapshot
from .stats import CorrelationResult, activity_ratio, correlate, median

MIN_RELEASES = 10
MIN_PARSE_RATIO = 0.80

REJECT_MIN_VERSIONS = "min-versions"
REJECT_PARSE_RATIO = "parse-ratio"
REJECT_ZERO_BUGS = "zero-bugs"


@dataclass(frozen=True)
class ReleasePoint:
    version_label: str
    timestamp: int
    bugs_fixed: int
    vector: MetricVector


@dataclass(frozen=True)
class ProjectSeries:
    coordinate: ProjectCoordinate
    releases: tuple[ReleasePoint, ...]
    failed_release_count: int = 0


@dataclass(frozen=True)
class ProjectSummary:
    coordinate: ProjectCoordinate
    n_releases: int
    n_bugs_total: int
    activity: float
    correlations: tuple[CorrelationResult, ...]
    medians: dict[str, float] = field(default_factory=dict)


def select_projects(corpus: Corpus) -> tuple[set[ProjectCoordinate], dict[ProjectCoordinate, str]]:
    """Apply the three study criteria; rejects name the first failing one.

    Criteria, in order: at least MIN_RELEASES releases overall, at least
    MIN_PARSE_RATIO of them parsed, and a non-zero total bug count.
    """
    selected: set[ProjectCoordinate] = set()
    rejected: dict[ProjectCoordinate, str] = {}
    for coordinate in sorted(set(corpus.snapshots) | set(corpus.failed)):
        parsed = corpus.snapshots.get(coordinate, [])
        failed = corpus.failed.get(coordinate, [])
        total = len(parsed) + len(failed)
        if total < MIN_RELEASES:
            rejected[coordinate] = REJECT_MIN_VERSIONS
        elif len(parsed) / total < MIN_PARSE_RATIO:
            rejected[coordinate] = REJECT_PARSE_RATIO
        elif sum(snapshot.bugs_fixed for snapshot in parsed) <= 0:
            rejected[coordinate] = REJECT_ZERO_BUGS
        else:
            selected.add(coordinate)
    return selected, rejected


def build_series(corpus: Corpus,
                 scope_filter: frozenset[str] | set[str] = DEFAULT_SCOPE_FILTER,
                 errors: list[str] | None = None) -> dict[ProjectCoordinate, ProjectSeries]:
    """One ProjectSeries per corpus project, in canonical order.

    Each release is measured against the ecosystem at its timestamp: every
    other project's latest snapshot at or before it (its earliest when none
    precede), with the release itself as its own project's entry. One sweep
    over all snapshots in timestamp order keeps that state in a persistent
    adjacency over dense node ids, and computes only the released project's
    vector.

    A release whose vector cannot be computed is left out of its series,
    and "<key>/<version>: <reason>" is appended to `errors`, in
    (coordinate, list) order.
    """
    scope_filter = frozenset(scope_filter)
    ids: dict[ProjectCoordinate, int] = {}
    out: list[tuple[int, ...]] = []  # current out-set per node id; stubs stay empty
    noc: list[int] = []  # corpus projects whose current out-set holds the node

    def node_id(coordinate: ProjectCoordinate) -> int:
        if coordinate not in ids:
            ids[coordinate] = len(out)
            out.append(())
            noc.append(0)
        return ids[coordinate]

    def apply(node: int, targets: tuple[int, ...]) -> None:
        for target in out[node]:
            noc[target] -= 1
        out[node] = targets
        for target in targets:
            noc[target] += 1

    # Each snapshot's out-set is computed once; a project's initial state is
    # its earliest snapshot.
    outcomes: dict[ProjectCoordinate, list[ReleasePoint | str | None]] = {}
    events = []
    for coordinate in sorted(corpus.snapshots):
        snapshots = corpus.snapshots[coordinate]
        outcomes[coordinate] = [None] * len(snapshots)
        node = node_id(coordinate)
        for index, snapshot in enumerate(snapshots):
            try:
                targets = effective_targets(snapshot, scope_filter)
            except Exception as exc:  # recorded, never fatal for the run
                outcomes[coordinate][index] = f"{coordinate.key()}/{snapshot.version_label}: {exc}"
                continue
            target_ids = tuple(map(node_id, targets))
            if index == 0:
                apply(node, target_ids)
            events.append((snapshot.timestamp, coordinate, index, snapshot, targets, target_ids))
    events.sort(key=itemgetter(0))  # stable: ties keep (coordinate, list) order

    # At each timestamp every snapshot is applied first, so the last of a
    # project's ties wins, as bisect_right on the timestamps would choose.
    for _, group in groupby(events, key=itemgetter(0)):
        group = list(group)
        for _, coordinate, _, _, _, target_ids in group:
            apply(ids[coordinate], target_ids)
        for _, coordinate, index, snapshot, targets, target_ids in group:
            try:
                vector = _release_vector(snapshot, ids[coordinate], targets, target_ids, out, noc)
            except Exception as exc:  # recorded, never fatal for the run
                outcomes[coordinate][index] = f"{coordinate.key()}/{snapshot.version_label}: {exc}"
                continue
            outcomes[coordinate][index] = ReleasePoint(
                version_label=snapshot.version_label,
                timestamp=snapshot.timestamp,
                bugs_fixed=snapshot.bugs_fixed,
                vector=vector,
            )

    series = {}
    for coordinate, results in outcomes.items():
        points = []
        for outcome in results:
            if isinstance(outcome, ReleasePoint):
                points.append(outcome)
            elif errors is not None:
                errors.append(outcome)
        series[coordinate] = ProjectSeries(
            coordinate=coordinate,
            releases=tuple(sorted(points, key=lambda p: (p.timestamp, p.version_label))),
            failed_release_count=len(corpus.failed.get(coordinate, [])),
        )
    return series


def _release_vector(snapshot: ReleaseSnapshot, node: int, targets: frozenset[ProjectCoordinate],
                    target_ids: tuple[int, ...], out: list[tuple[int, ...]], noc: list[int]) -> MetricVector:
    """The release's vector, with its own out-set standing in for its
    project's current one in `out`.

    CBO and DIT come from one Tarjan pass over what the release reaches:
    its component is the last one emitted, and each component's longest
    chain (as a sum of component sizes) folds in emit order over the
    components it points into, which were all emitted before it.
    """
    current = out[node]
    out[node] = target_ids
    try:
        components = strongly_connected_components((node,), out.__getitem__)
        chain: dict[int, int] = {}
        for component in components:
            members = set(component)
            tail = max((chain[t] for m in component for t in out[m] if t not in members), default=0)
            for member in component:
                chain[member] = len(component) + tail
    finally:
        out[node] = current
    return MetricVector(
        wmc=len(targets),
        dit=chain[node] - 1,
        noc=noc[node],
        cbo=len(components[-1]) - 1,
        rfc=None if snapshot.api_surface is None else ic_rfc(snapshot.api_surface),
        lcom1=None if snapshot.usage is None else ic_lcom1(targets, snapshot.usage),
        loc=snapshot.loc,
    )


def correlate_project(series: ProjectSeries) -> list[CorrelationResult]:
    """Per-metric correlation against the project's own bug series.

    A metric missing from any release of the series is skipped entirely.
    """
    if len(series.releases) < 2:
        raise ValueError(
            f"series for {series.coordinate.key()} has {len(series.releases)} releases; need at least 2"
        )
    points = sorted(series.releases, key=lambda p: (p.timestamp, p.version_label))
    bugs = [float(p.bugs_fixed) for p in points]
    results = []
    for name in METRIC_ORDER:
        values = [vector_value(p.vector, name) for p in points]
        if any(v is None for v in values):
            continue
        results.append(correlate(name, [float(v) for v in values], bugs))
    return results


def correlate_pooled(all_series: list[ProjectSeries] | tuple[ProjectSeries, ...]) -> list[CorrelationResult]:
    """One pooled correlation per metric over every project's releases.

    Releases where the metric is absent are skipped point-by-point; a
    metric with no usable points at all is omitted from the result.
    """
    ordered = sorted(all_series, key=lambda s: s.coordinate)
    results = []
    for name in METRIC_ORDER:
        xs: list[float] = []
        ys: list[float] = []
        for series in ordered:
            for point in series.releases:
                value = vector_value(point.vector, name)
                if value is None:
                    continue
                xs.append(float(value))
                ys.append(float(point.bugs_fixed))
        if not xs:
            continue
        results.append(correlate(name, xs, ys))
    return results


def summarize_project(series: ProjectSeries) -> ProjectSummary:
    """Summary row for a selected project: activity plus per-metric medians."""
    n_releases = len(series.releases)
    n_bugs = sum(p.bugs_fixed for p in series.releases)
    medians: dict[str, float] = {}
    for name in METRIC_ORDER:
        values = [float(v) for p in series.releases if (v := vector_value(p.vector, name)) is not None]
        if values:
            medians[name] = median(values)
    return ProjectSummary(
        coordinate=series.coordinate,
        n_releases=n_releases,
        n_bugs_total=n_bugs,
        activity=activity_ratio(n_releases, n_bugs),
        correlations=tuple(correlate_project(series)),
        medians=medians,
    )


def classify_activity(summaries: list[ProjectSummary] | tuple[ProjectSummary, ...],
                      threshold: float) -> tuple[tuple[ProjectSummary, ...], tuple[ProjectSummary, ...]]:
    """Partition summaries by activity: below threshold first, rest second.

    The low-activity set is where metric/bug correlations carry meaning.
    """
    if threshold <= 0:
        raise ValueError(f"activity threshold must be positive, got {threshold}")
    ordered = sorted(summaries, key=lambda s: s.coordinate)
    low = tuple(s for s in ordered if s.activity < threshold)
    rest = tuple(s for s in ordered if s.activity >= threshold)
    return low, rest
