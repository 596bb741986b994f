"""Correctness oracle for one ``icmetrics analyze`` output directory.

Expected values come from the generator's ``Release`` records alone:
WMC/NOC/CBO/DIT by brute-force reachability (bitset transitive closure)
over each release's ecosystem state, without ``icmetrics.graph``;
RFC/LCOM1/LOC/bugs straight from what was written; correlations from
``statistics.correlation``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
from pathlib import Path

from corpora import Release

METRIC_ORDER = ("IC-NOC", "IC-DIT", "IC-LCOM1", "IC-WMC", "IC-RFC", "IC-CBO", "LOC")
# Column order of series_*.csv values and of the summaries.csv medians.
_COLUMN_ORDER = ("IC-WMC", "IC-DIT", "IC-NOC", "IC-CBO", "IC-RFC", "IC-LCOM1", "LOC")

# analyze's project-selection rule, restated.
_MIN_RELEASES = 10


class _State:
    """One ecosystem state: the chosen release of every corpus project."""

    def __init__(self, chosen: dict[str, Release]):
        self.members = chosen
        nodes = sorted(set(chosen).union(*(r.targets for r in chosen.values())))
        self.index = {node: i for i, node in enumerate(nodes)}
        self.successors = [
            [self.index[t] for t in chosen[node].targets] if node in chosen else [] for node in nodes
        ]
        # reach[i]: bitset of the nodes reachable from i by one or more edges.
        reach = [sum(1 << j for j in set(succ)) for succ in self.successors]
        changed = True
        while changed:
            changed = False
            for i, succ in enumerate(self.successors):
                grown = reach[i]
                for j in succ:
                    grown |= reach[j]
                if grown != reach[i]:
                    reach[i] = grown
                    changed = True
        self.reach = reach
        self._depth: dict[int, int] = {}

    def _component(self, i: int) -> int:
        bits = 1 << i
        rest = self.reach[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if self.reach[j] >> i & 1:
                bits |= low
            rest ^= low
        return bits

    def _chain(self, component: int) -> int:
        """Largest sum of component sizes along a path starting at `component`."""
        if component not in self._depth:
            successors = set()
            rest = component
            while rest:
                low = rest & -rest
                for j in self.successors[low.bit_length() - 1]:
                    if not component >> j & 1:
                        successors.add(self._component(j))
                rest ^= low
            tail = max((self._chain(s) for s in successors), default=0)
            self._depth[component] = component.bit_count() + tail
        return self._depth[component]

    def values(self, project: str) -> tuple[int, int, int, int]:
        """(wmc, dit, noc, cbo) of `project` in this state."""
        i = self.index[project]
        component = self._component(i)
        wmc = len(self.members[project].targets)
        noc = sum(1 for r in self.members.values() if project in r.targets)
        return wmc, self._chain(component) - 1, noc, component.bit_count() - 1


class Expected:
    """Every report value analyze should write for one generated corpus."""

    def __init__(self, releases: list[Release]):
        by_project: dict[str, list[Release]] = {}
        for release in releases:
            by_project.setdefault(release.project, []).append(release)
        for series in by_project.values():
            series.sort(key=lambda r: (r.timestamp, r.version))
        self.releases = len(releases)
        self.selected = sorted(
            p for p, series in by_project.items()
            if len(series) >= _MIN_RELEASES and sum(r.bugs for r in series) > 0
        )
        stamps = {p: [r.timestamp for r in series] for p, series in by_project.items()}
        states: dict[tuple[str, ...], _State] = {}
        # rows[project] = [(release, {metric: value})], in report order.
        self.rows: dict[str, list[tuple[Release, dict[str, int | None]]]] = {}
        for project in self.selected:
            rows = []
            for release in by_project[project]:
                chosen = {}
                for other, series in by_project.items():
                    if other == project:
                        chosen[other] = release
                    else:
                        at = bisect.bisect_right(stamps[other], release.timestamp)
                        chosen[other] = series[at - 1] if at else series[0]
                key = tuple(chosen[p].version for p in sorted(chosen))
                if key not in states:
                    states[key] = _State(chosen)
                wmc, dit, noc, cbo = states[key].values(project)
                rows.append((release, {
                    "IC-WMC": wmc, "IC-DIT": dit, "IC-NOC": noc, "IC-CBO": cbo,
                    "IC-RFC": release.rfc,
                    "IC-LCOM1": None if release.usage is None else len(release.targets - release.usage),
                    "LOC": release.loc,
                }))
            self.rows[project] = rows
        self.states = len(states)

    def series_text(self, project: str) -> str:
        lines = ["version,timestamp,bugs_fixed,wmc,dit,noc,cbo,rfc,lcom1,loc"]
        for release, values in self.rows[project]:
            cells = [release.version, str(release.timestamp), str(release.bugs)]
            cells += ["" if values[m] is None else str(values[m]) for m in _COLUMN_ORDER]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def series_filename(project: str) -> str:
    group, _, artifact = project.partition(":")
    return f"series_{group}_{artifact}.csv"


def report_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _r_matches(cell: str, xs: list[float], ys: list[float]) -> bool:
    """The report's 4-significant-digit r against statistics.correlation."""
    try:
        reference = statistics.correlation(xs, ys)
    except statistics.StatisticsError:  # constant input: the report writes nan
        return cell == "nan"
    if len(xs) < 3:
        return cell == "nan"
    try:
        value = float(cell)
    except ValueError:
        return False
    if reference == 0.0:
        return value == 0.0
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(abs(reference))) - 3)
    return abs(value - reference) <= half_ulp * (1 + 1e-9) + 1e-15


def _read_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"{path.name}: bad header or missing final newline")
    return [line.split(",") for line in lines[1:-1]]


def check(expected: Expected, out_dir: Path) -> list[str]:
    """Mismatches between `out_dir` and the expected report; empty when correct."""
    problems: list[str] = []
    wanted = {"combined.csv", "per_project.csv", "summaries.csv"}
    wanted |= {series_filename(p) for p in expected.selected}
    present = {p.name for p in out_dir.iterdir()}
    if present != wanted:
        return [f"output files differ: missing {sorted(wanted - present)[:3]}, extra {sorted(present - wanted)[:3]}"]

    for project in expected.selected:
        text = (out_dir / series_filename(project)).read_text(encoding="utf-8")
        want = expected.series_text(project)
        if text != want:
            got_lines, want_lines = text.split("\n"), want.split("\n")
            line = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                        min(len(got_lines), len(want_lines)))
            problems.append(f"{series_filename(project)} line {line + 1}: "
                            f"got {got_lines[line] if line < len(got_lines) else None!r}, "
                            f"want {want_lines[line] if line < len(want_lines) else None!r}")

    try:
        combined = _read_rows(out_dir / "combined.csv", "metric,correlation,p_value,n")
        per_project = _read_rows(out_dir / "per_project.csv", "project,metric,correlation,p_value,n")
        summaries = _read_rows(
            out_dir / "summaries.csv",
            "project,n_releases,n_bugs,activity,median_wmc,median_dit,median_noc,"
            "median_cbo,median_rfc,median_lcom1,median_loc")
    except ValueError as exc:
        return problems + [str(exc)]

    pooled = [(v, r.bugs) for p in expected.selected for r, v in expected.rows[p]]
    want_metrics = [m for m in METRIC_ORDER if any(v[m] is not None for v, _ in pooled)]
    if [row[0] for row in combined] != want_metrics:
        problems.append(f"combined.csv metrics {[row[0] for row in combined]}, want {want_metrics}")
    else:
        for metric, r_cell, _, n_cell in combined:
            points = [(float(v[metric]), float(bugs)) for v, bugs in pooled if v[metric] is not None]
            if n_cell != str(len(points)) or not _r_matches(r_cell, *map(list, zip(*points))):
                problems.append(f"combined.csv {metric}: r={r_cell} n={n_cell} disagrees with statistics.correlation")

    want_rows = []
    for project in expected.selected:
        bugs = [float(r.bugs) for r, _ in expected.rows[project]]
        for metric in METRIC_ORDER:
            values = [v[metric] for _, v in expected.rows[project]]
            if all(x is not None for x in values):
                want_rows.append((project, metric, [float(x) for x in values], bugs))
    if [(row[0], row[1]) for row in per_project] != [(p, m) for p, m, _, _ in want_rows]:
        problems.append("per_project.csv rows are not one per (selected project, metric)")
    else:
        for row, (project, metric, xs, ys) in zip(per_project, want_rows):
            if row[4] != str(len(xs)) or not _r_matches(row[2], xs, ys):
                problems.append(f"per_project.csv {project} {metric}: r={row[2]} n={row[4]}")

    if [row[0] for row in summaries] != expected.selected:
        problems.append("summaries.csv projects differ from the selected set")
    else:
        for row in summaries:
            rows = expected.rows[row[0]]
            bugs = sum(r.bugs for r, _ in rows)
            medians = []
            for metric in _COLUMN_ORDER:
                values = [v[metric] for _, v in rows if v[metric] is not None]
                medians.append(float(statistics.median(values)) if values else None)
            got = [None if cell == "" else float(cell) for cell in row[4:]]
            if (row[1], row[2]) != (str(len(rows)), str(bugs)) or float(row[3]) != len(rows) / bugs or got != medians:
                problems.append(f"summaries.csv {row[0]}: {','.join(row[1:])}")
    return problems
