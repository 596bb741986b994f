"""Diachronic study orchestration.

Selects projects, computes one metric vector per parsed release against a
release-time ecosystem graph, and correlates each project's metric series
(and the pooled point cloud) with its bug-fix series.

The graph's nodes are project coordinates, and its edges each project's
current ``ReleaseFacts.targets``; ``build_series`` keeps it over time and
runs ``strongly_connected_components`` on a memo miss.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, TypeVar

from .ingest import Corpus
from .metrics import METRIC_FIELDS, METRIC_ORDER
from .model import MetricVector, ProjectCoordinate
from .stats import CorrelationResult, activity_ratio, correlate, median

MIN_RELEASES = 10
MIN_PARSE_RATIO = 0.80

REJECT_MIN_VERSIONS = "min-versions"
REJECT_PARSE_RATIO = "parse-ratio"
REJECT_ZERO_BUGS = "zero-bugs"


class ReleasePoint(NamedTuple):
    version_label: str
    timestamp: int
    bugs_fixed: int
    vector: MetricVector


class ProjectSeries(NamedTuple):
    """One project's measured releases, in list order: (timestamp, version)."""

    coordinate: ProjectCoordinate
    releases: tuple[ReleasePoint, ...]


class ProjectSummary(NamedTuple):
    coordinate: ProjectCoordinate
    n_releases: int
    n_bugs_total: int
    activity: float
    correlations: tuple[CorrelationResult, ...]
    medians: dict[str, float]


def select_projects(corpus: Corpus) -> tuple[set[ProjectCoordinate], dict[ProjectCoordinate, str]]:
    """Apply the three study criteria; rejects name the first failing one.

    Criteria, in order: at least MIN_RELEASES releases overall, at least
    MIN_PARSE_RATIO of them parsed, and a non-zero total bug count.
    """
    selected: set[ProjectCoordinate] = set()
    rejected: dict[ProjectCoordinate, str] = {}
    for coordinate in sorted(set(corpus.facts) | set(corpus.failed)):
        parsed = corpus.facts.get(coordinate, [])
        failed = corpus.failed.get(coordinate, [])
        total = len(parsed) + len(failed)
        if total < MIN_RELEASES:
            rejected[coordinate] = REJECT_MIN_VERSIONS
        elif len(parsed) / total < MIN_PARSE_RATIO:
            rejected[coordinate] = REJECT_PARSE_RATIO
        elif sum(release.bugs_fixed for release in parsed) <= 0:
            rejected[coordinate] = REJECT_ZERO_BUGS
        else:
            selected.add(coordinate)
    return selected, rejected


Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(roots: Iterable[Node],
                                  successors: Callable[[Node], Iterable[Node]]) -> list[list[Node]]:
    """Iterative Tarjan over every node reachable from `roots`; corpus chains
    can exceed the recursion limit.

    Components come out in reverse topological order: each one after every
    component it reaches.
    """
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    components: list[list[Node]] = []
    counter = 0

    for root in roots:
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            descended = False
            for succ in pending:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    descended = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if descended:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def build_series(corpus: Corpus) -> dict[ProjectCoordinate, ProjectSeries]:
    """One ProjectSeries per corpus project, by coordinate, each holding
    the project's measured releases in list order.

    Each release is measured against the ecosystem at its timestamp: every
    other project's latest release at or before it (its earliest when none
    precede), with the release itself as its own project's entry. Of a
    project's releases that share a timestamp (ties), the latest is the
    last in list order. One sweep over all releases in timestamp order
    keeps that state in a persistent adjacency over dense node ids, and
    computes only the released project's graph metrics; RFC, LCOM1 and LOC
    are the release's own facts.

    The sweep memoizes each node's chain (DIT + 1, as a sum of component
    sizes) and component size. A node's values depend only on what it
    reaches, so a changed out-set drops the memo of the node and of every
    cached node that reaches it, and nothing else. Measuring a release is
    a memo lookup; a miss runs Tarjan from the node over uncached nodes
    only. NOC is the size of the node's reverse adjacency.

    Every release is measured: the facts that ``load_corpus`` keeps cannot
    make the sweep fail, so it catches nothing, and a malformed fact in a
    hand-built corpus raises.
    """
    ids: dict[ProjectCoordinate, int] = {}
    # Current out-set per node id, sorted so that equal sets compare equal;
    # stubs stay empty.
    out: list[tuple[int, ...]] = []
    preds: list[set[int]] = []  # corpus projects whose current out-set holds the node
    chain: list[int] = []  # memo: DIT + 1; 0 when not cached
    size: list[int] = []  # memo: component size, valid where chain is cached

    def node_id(coordinate: ProjectCoordinate) -> int:
        node = ids.get(coordinate)
        if node is None:
            node = ids[coordinate] = len(out)
            out.append(())
            preds.append(set())
            chain.append(0)
            size.append(0)
        return node

    def apply(node: int, targets: tuple[int, ...]) -> None:
        if targets == out[node]:
            return
        for target in out[node]:
            preds[target].remove(node)
        for target in targets:
            preds[target].add(node)
        out[node] = targets
        # Cached nodes are closed under successors, so no cached node
        # reaches an uncached one and the walk stops there.
        stack = [node]
        while stack:
            member = stack.pop()
            if chain[member]:
                chain[member] = 0
                stack.extend(preds[member])

    def uncached(node: int) -> list[int]:
        return [target for target in out[node] if not chain[target]]

    def measure(node: int) -> tuple[int, int]:
        """(DIT, CBO) of the node in the current state. Tarjan emits each
        component after those it points into, so its chain folds over set
        values (cached or just emitted); its own members still read 0."""
        if not chain[node]:
            for component in strongly_connected_components((node,), uncached):
                value = len(component) + max((chain[t] for m in component for t in out[m]), default=0)
                for member in component:
                    chain[member] = value
                    size[member] = len(component)
        return chain[node] - 1, size[node] - 1

    # Each distinct target set is mapped to node ids once; a project's
    # initial state is its earliest release.
    points: dict[ProjectCoordinate, list[ReleasePoint]] = {}
    target_ids_of: dict[frozenset[ProjectCoordinate], tuple[int, ...]] = {}
    events = []
    for coordinate in sorted(corpus.facts):
        points[coordinate] = []
        node = node_id(coordinate)
        for index, release in enumerate(corpus.facts[coordinate]):
            targets = release.targets
            target_ids = target_ids_of.get(targets)
            if target_ids is None:
                target_ids = target_ids_of[targets] = tuple(sorted(map(node_id, targets)))
            if index == 0:
                apply(node, target_ids)
            events.append((release.timestamp, coordinate, node, release, target_ids))
    events.sort(key=itemgetter(0))  # stable: each project's releases stay in list order

    # A timestamp's events are all applied first, leaving each project at its
    # last tie. Measuring a tie re-applies it and leaves it: the project's
    # next tie re-applies its own, and its last tie is what the first pass set.
    for _, group in groupby(events, key=itemgetter(0)):
        group = list(group)
        for _, _, node, _, target_ids in group:
            apply(node, target_ids)
        for _, coordinate, node, release, target_ids in group:
            apply(node, target_ids)
            dit, cbo = measure(node)
            # Positional arguments, in field order: half the cost of keywords.
            vector = MetricVector(len(target_ids), dit, len(preds[node]), cbo,
                                  release.rfc, release.lcom1, release.loc)
            points[coordinate].append(ReleasePoint(release.version_label, release.timestamp,
                                                   release.bugs_fixed, vector))
    return {coordinate: ProjectSeries(coordinate, tuple(releases)) for coordinate, releases in points.items()}


def _columns(points: tuple[ReleasePoint, ...] | list[ReleasePoint],
             ) -> tuple[tuple[int, ...], dict[str, tuple[int | None, ...]]]:
    """The bug counts of ``points`` and each metric's values, by report
    name, each in the order of ``points``: one transposition."""
    if not points:
        return (), dict.fromkeys(METRIC_FIELDS, ())
    _, _, bugs, vectors = zip(*points)
    return bugs, dict(zip(METRIC_FIELDS, zip(*vectors)))


def _correlations(series: ProjectSeries, bugs: tuple[int, ...],
                  columns: dict[str, tuple[int | None, ...]]) -> list[CorrelationResult]:
    """correlate_project over the series' columns (``_columns``)."""
    if len(bugs) < 2:
        raise ValueError(f"series for {series.coordinate.key()} has {len(bugs)} releases; need at least 2")
    ys = [float(b) for b in bugs]
    return [correlate(name, [float(v) for v in values], ys)
            for name in METRIC_ORDER if None not in (values := columns[name])]


def correlate_project(series: ProjectSeries) -> list[CorrelationResult]:
    """Per-metric correlation against the project's own bug series.

    A metric missing from any release of the series is skipped entirely.
    Release order does not matter: pearson_r sums with math.fsum.
    """
    return _correlations(series, *_columns(series.releases))


def correlate_pooled(all_series: list[ProjectSeries] | tuple[ProjectSeries, ...]) -> list[CorrelationResult]:
    """One pooled correlation per metric over every project's releases.

    Releases where the metric is absent are skipped point-by-point; a
    metric with no usable points at all is omitted from the result. As in
    correlate_project, the order of series and releases does not matter.
    """
    bugs, columns = _columns([point for series in all_series for point in series.releases])
    all_ys = [float(b) for b in bugs]
    results = []
    for name in METRIC_ORDER:
        values = columns[name]
        if None in values:
            xs = [float(v) for v in values if v is not None]
            ys = [y for v, y in zip(values, all_ys) if v is not None]
        else:  # a complete column, the usual case, skips the filtering pass
            xs, ys = [float(v) for v in values], all_ys
        if xs:
            results.append(correlate(name, xs, ys))
    return results


def summarize_project(series: ProjectSeries) -> ProjectSummary:
    """Summary row for a selected project: activity plus per-metric medians."""
    n_releases = len(series.releases)
    bugs, columns = _columns(series.releases)
    n_bugs = sum(bugs)
    medians: dict[str, float] = {}
    for name in METRIC_ORDER:
        values = [float(v) for v in columns[name] if v is not None]
        if values:
            medians[name] = median(values)
    return ProjectSummary(
        coordinate=series.coordinate,
        n_releases=n_releases,
        n_bugs_total=n_bugs,
        activity=activity_ratio(n_releases, n_bugs),
        correlations=tuple(_correlations(series, bugs, columns)),
        medians=medians,
    )


def classify_activity(summaries: list[ProjectSummary] | tuple[ProjectSummary, ...],
                      threshold: float) -> tuple[tuple[ProjectSummary, ...], tuple[ProjectSummary, ...]]:
    """Partition summaries by activity, in input order: below threshold first, rest second.

    The low-activity set is where metric/bug correlations carry meaning.
    """
    if threshold <= 0:
        raise ValueError(f"activity threshold must be positive, got {threshold}")
    low = tuple(s for s in summaries if s.activity < threshold)
    rest = tuple(s for s in summaries if s.activity >= threshold)
    return low, rest
