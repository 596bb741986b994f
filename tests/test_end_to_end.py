"""Whole analyze runs checked by the benchmark's independent oracle, and
the facts a corpus load keeps checked against the snapshot decoders.

``perfbench/corpora.py`` writes the three benchmark corpus shapes from
``synth`` output and describes each release without the program's graph
code (a fourth shape, ``ties``, is rewritten here from synth output);
``perfbench/oracle.py`` recomputes every report value from that
description (bitset reachability, ``statistics.correlation``). Both are
imported from ``perfbench/`` itself, which pytest puts on the path, and
``tests/test_graph.py``, criterion 1 and the sweep property in
``tests/test_pipeline.py`` read the same bitset closure, so the suite
holds one copy of the graph oracle.
The oracle compares r and n; the p-values are checked here against
``tests/test_stats.py``'s 50-digit incomplete beta, ``oracle_p``.
"""

import csv
import dataclasses
import json
import math
import re
import shutil
import statistics
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmetrics.cli import main
from icmetrics.ingest import (
    DEFAULT_SCOPE_FILTER,
    count_loc,
    load_corpus,
    load_release_history,
)
from icmetrics.model import ApiSurface, ProjectCoordinate, UsageRecord
from icmetrics.records import ReleaseSnapshot, encode_snapshot, parse_pom, parse_snapshot_json, release_facts
from icmetrics.report import format_p
from icmetrics.stats import p_two_tailed
from icmetrics.synth import synth_ecosystem

import corpora
import oracle
from test_stats import oracle_p

# shape -> (projects, releases): small corpora whose projects still pass selection.
SHAPES = {"aligned": (8, 12), "staggered": (8, 12), "pom-loc": (5, 12), "ties": (8, 12)}
_DAY = 86_400


def _tie_releases(base: Path) -> None:
    """Move each even release t >= 2 of every synth project to the timestamp
    of release t - 1, in snapshot.json and releases.csv alike.

    Synth releases are one day apart, and release t is labelled 0.t.0. So
    each project gets ties within itself, and 0.10.0 ties with 0.9.0 and
    sorts before it by label.
    """
    def moved(version: str, timestamp: int) -> int:
        step = int(version.split(".")[1])
        return timestamp - _DAY if step >= 2 and step % 2 == 0 else timestamp

    for release_dir in corpora.release_dirs(base / "corpus"):
        path = release_dir / "snapshot.json"
        snapshot = parse_snapshot_json(path.read_text(encoding="utf-8"))
        snapshot = dataclasses.replace(snapshot, timestamp=moved(snapshot.version_label, snapshot.timestamp))
        path.write_text(encode_snapshot(snapshot), encoding="utf-8")
    history = base / "releases.csv"
    header, *rows = history.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows):
        project, version, timestamp, bugs = row.split(",")
        rows[i] = f"{project},{version},{moved(version, int(timestamp))},{bugs}"
    history.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _write_corpus(base: Path, shape: str, seed: int, size: tuple[int, int] | None = None) -> list:
    projects, releases = size or SHAPES[shape]
    synth_ecosystem(base, seed, projects, releases, coupling=1.0, noise=1.0)
    if shape == "pom-loc":
        return corpora.to_pom(base, seed)
    if shape == "staggered":
        corpora.stagger(base, seed)
    if shape == "ties":
        _tie_releases(base)
    return corpora.read_json_corpus(base)


_P_CELL = re.compile(r"^\d\.\d\de-?\d+$")


def _reference_p(xs: list[float], ys: list[float], n: int) -> float:
    """Two-tailed p of the Pearson r of ``xs`` and ``ys`` from Student's t
    with n - 2 degrees of freedom; 1.0 where r is undefined or n < 3."""
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError:  # constant input
        return 1.0
    return oracle_p(r, n)


def _p_cell_close(cell: str, reference: float) -> bool:
    """Whether a p cell is written as d.dde[-]x and is off its reference p by
    at most half a unit of its third significant digit, or by one float
    spacing where the reference is subnormal and that spacing is wider."""
    if reference == 0.0:
        return cell == "0.00e0"
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(reference)) - 2)
    tolerance = max(half_unit * (1 + 1e-9), math.ulp(reference))
    return bool(_P_CELL.match(cell)) and abs(float(cell) - reference) <= tolerance


def _p_problems(expected, out: Path) -> list[str]:
    """Every p_value cell of combined.csv and per_project.csv that
    ``_p_cell_close`` rejects."""
    def series(rows, metric):
        pairs = [(float(values[metric]), float(release.bugs)) for release, values in rows if values[metric] is not None]
        return [list(column) for column in zip(*pairs)]

    pooled = [row for project in expected.selected for row in expected.rows[project]]
    points = {("combined.csv", metric): series(pooled, metric) for metric in oracle.METRIC_ORDER}
    points.update({(project, metric): series(expected.rows[project], metric)
                   for project in expected.selected for metric in oracle.METRIC_ORDER})
    def records(name):
        with open(out / name, newline="", encoding="utf-8") as table:
            return list(csv.reader(table))[1:]

    cells = [("combined.csv", *record) for record in records("combined.csv")] + records("per_project.csv")
    problems = []
    for where, metric, _, cell, n in cells:
        reference = _reference_p(*points[where, metric], int(n))
        if not _p_cell_close(cell, reference):
            problems.append(f"{where} {metric}: p={cell}, reference {reference:.6g}")
    return problems


def test_a_subnormal_p_cell_may_be_one_float_spacing_off():
    # At r = 0.9999998563316451, n = 100 the 50-digit p is 2.3248e-322, whose
    # nearest float prints 2.32e-322. Subnormal floats there are 4.9e-324
    # apart, wider than a unit of the third digit, so the float next to the
    # reference on either side is the closest a kernel's p can miss it by.
    r, n = 0.9999998563316451, 100
    reference = oracle_p(r, n)
    assert format_p(p_two_tailed(r, n)) == format_p(reference) == "2.32e-322"
    assert [_p_cell_close(cell, reference) for cell in ("2.27e-322", "2.32e-322", "2.37e-322", "2.42e-322")] \
        == [True, True, True, False]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_analyze_report_matches_the_oracle(tmp_path, shape, seed):
    releases = _write_corpus(tmp_path / "base", shape, seed)
    expected = oracle.Expected(releases)
    assert expected.selected, "the corpus must select at least one project"
    out = tmp_path / "out"
    code = main(["analyze", "--corpus", str(tmp_path / "base" / "corpus"),
                 "--history", str(tmp_path / "base" / "releases.csv"), "--out", str(out)])
    assert code == 0
    assert oracle.check(expected, out) == []
    assert _p_problems(expected, out) == []


def _vary(base: Path, releases: list, kept: list[int], silent: int) -> list:
    """Keep the first ``kept[i]`` releases of the i-th project, in (timestamp,
    version) order, deleting the rest with their history rows, and set every
    bug count of the ``silent``-th project to zero; return the releases left."""
    by_project: dict[str, list] = {}
    for release in sorted(releases, key=lambda r: (r.timestamp, r.version)):
        by_project.setdefault(release.project, []).append(release)
    history = corpora.read_history(base / "releases.csv")
    varied = []
    for i, (project, series) in enumerate(sorted(by_project.items())):
        for release in series[kept[i]:]:
            shutil.rmtree(base / "corpus" / project / release.version)
            del history[project, release.version]
        for release in series[:kept[i]]:
            if i == silent:
                release = dataclasses.replace(release, bugs=0)
                history[project, release.version] = (release.timestamp, 0)
            varied.append(release)
    rows = [f"{p},{v},{t},{b}" for (p, v), (t, b) in history.items()]
    (base / "releases.csv").write_text("\n".join([corpora.HISTORY_HEADER, *rows]) + "\n", encoding="utf-8")
    return varied


PROPERTY_PROJECTS = 4


@settings(max_examples=24, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), seed=st.integers(0, 2 ** 16),
       kept=st.lists(st.sampled_from([9, 10, 11]), min_size=PROPERTY_PROJECTS, max_size=PROPERTY_PROJECTS),
       silent=st.integers(0, PROPERTY_PROJECTS - 1))
def test_varied_corpora_match_the_oracle(shape, seed, kept, silent):
    # Project sizes straddle the 10-release selection threshold, and one
    # project has no bugs at all.
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        releases = _vary(base, _write_corpus(base, shape, seed, (PROPERTY_PROJECTS, 11)), kept, silent)
        expected = oracle.Expected(releases)
        out = Path(tmp) / "out"
        code = main(["analyze", "--corpus", str(base / "corpus"), "--history", str(base / "releases.csv"),
                     "--out", str(out)])
        assert code == 0
        assert oracle.check(expected, out) == []
        assert _p_problems(expected, out) == []


def _pom_snapshot(release_dir: Path, timestamp: int, bugs: int) -> ReleaseSnapshot:
    """A pom release as parse_pom and the sidecar formats describe it."""
    poms = sorted(release_dir.rglob("pom.xml"), key=lambda path: (len(path.parts), str(path)))
    manifests = tuple(parse_pom(path.read_bytes()) for path in poms)
    surface = json.loads((release_dir / "api_surface.json").read_text(encoding="utf-8"))
    usage = json.loads((release_dir / "usage.json").read_text(encoding="utf-8"))
    return ReleaseSnapshot(
        coordinate=manifests[0].coordinate,
        version_label=release_dir.name,
        timestamp=timestamp,
        manifests=manifests,
        api_surface=ApiSurface({method: frozenset(callees) for method, callees in surface.items()}),
        usage=UsageRecord(frozenset(ProjectCoordinate(item["group"], item["artifact"]) for item in usage)),
        loc=count_loc(release_dir / "src"),
        bugs_fixed=bugs,
    )


@pytest.mark.parametrize("scope_filter", [DEFAULT_SCOPE_FILTER, frozenset()], ids=["default-scopes", "no-scopes"])
@pytest.mark.parametrize("shape", ["aligned", "pom-loc"])
def test_loaded_facts_equal_the_snapshot_route(tmp_path, shape, scope_filter):
    _write_corpus(tmp_path, shape, 0)
    history = load_release_history((tmp_path / "releases.csv").read_text(encoding="utf-8"))
    rows = {(row.project_key, row.version_label): row for row in history}
    expected = {}
    for release_dir in corpora.release_dirs(tmp_path / "corpus"):
        row = rows[(release_dir.parent.name, release_dir.name)]
        if shape == "pom-loc":
            snapshot = _pom_snapshot(release_dir, row.timestamp, row.bugs_fixed)
        else:
            snapshot = parse_snapshot_json((release_dir / "snapshot.json").read_text(encoding="utf-8"))
            snapshot = dataclasses.replace(snapshot, bugs_fixed=row.bugs_fixed)
        expected.setdefault(snapshot.coordinate, []).append(release_facts(snapshot, scope_filter))
    for releases in expected.values():
        releases.sort(key=lambda facts: (facts.timestamp, facts.version_label))

    corpus = load_corpus(tmp_path / "corpus", history, scope_filter=scope_filter)
    assert corpus.warnings == []
    assert corpus.facts == expected
    assert any(facts.rfc and facts.lcom1 is not None for releases in expected.values() for facts in releases)
