"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from conftest import (
    coord,
    graph_snapshots,
    make_snapshot,
    sweep_vectors,
    write_failed_release,
    write_history,
    write_release,
)
from test_graph import assert_matches_oracles, random_edge_map
from test_stats import oracle_p, oracle_pearson

from icmetrics.cli import main
from icmetrics.ingest import load_corpus
from icmetrics.model import ProjectCoordinate
from icmetrics.pipeline import select_projects
from icmetrics.pom import (
    IncompleteCoordinatesError,
    PomSyntaxError,
    UnresolvedPropertyError,
    parse_pom,
)
from icmetrics.stats import p_two_tailed, pearson_r


class _criterion:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "FAIL" if exc_type else "PASS"
        print(f"[acceptance] {self.name}: {verdict}")
        return False


def _combined_row(report_dir: Path, metric: str) -> tuple[float, float, int]:
    for line in (report_dir / "combined.csv").read_text().splitlines()[1:]:
        name, r_text, p_text, n_text = line.split(",")
        if name == metric:
            return float(r_text), float(p_text), int(n_text)
    raise AssertionError(f"no {metric} row in combined.csv")


def test_criterion_1_graph_oracle_equivalence():
    with _criterion("1 graph-oracle-equivalence"):
        start = time.monotonic()
        rng = random.Random(1)
        for _ in range(1000):
            assert_matches_oracles(random_edge_map(rng, max_nodes=12, max_density=0.5))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"graph oracle sweep took {elapsed:.1f}s"


def test_criterion_2_statistics_oracle():
    with _criterion("2 statistics-oracle"):
        assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)
        assert p_two_tailed(0.5, 20) == pytest.approx(0.0248, abs=5e-4)

        rng = random.Random(2)
        for _ in range(1000):
            n = rng.randint(3, 200)
            scale = rng.choice([1.0, 17.0, 1e4])
            xs = [rng.gauss(0.0, 1.0) * scale for _ in range(n)]
            ys = [rng.gauss(0.0, 1.0) + 0.2 * x for x in xs] if rng.random() < 0.5 else [
                rng.gauss(0.0, 1.0) for _ in range(n)
            ]
            r = pearson_r(xs, ys)
            assert r == pytest.approx(oracle_pearson(xs, ys), abs=1e-10)
            assert p_two_tailed(r, n) == pytest.approx(oracle_p(r, n), abs=1e-8)


def test_criterion_3_nan_convention(tmp_path):
    with _criterion("3 nan-convention"):
        # Constant bug series: every metric row must read exactly nan,1.00e0.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rows = []
        for i in range(12):
            write_release(corpus, make_snapshot(
                "steady", deps=[f"d{j}" for j in range(i % 3 + 1)],
                version=f"{i:02d}.0", timestamp=1000 + i, loc=10 * i + 5,
            ))
            rows.append(("org.fixture:steady", f"{i:02d}.0", 1000 + i, 4))
        history = write_history(tmp_path / "releases.csv", rows)

        out = tmp_path / "report"
        assert main(["analyze", "--corpus", str(corpus), "--history", str(history),
                     "--out", str(out)]) == 0
        for table in ("combined.csv", "per_project.csv"):
            data_lines = (out / table).read_text().splitlines()[1:]
            assert data_lines, f"{table} has no data rows"
            for line in data_lines:
                assert ",nan,1.00e0," in line, f"{table} row violates the convention: {line}"

        # Constant metric series against varying bugs: that metric is nan,
        # while a varying metric correlates normally.
        corpus2 = tmp_path / "corpus2"
        corpus2.mkdir()
        rows2 = []
        for i in range(12):
            write_release(corpus2, make_snapshot(
                "drift", deps=[f"d{j}" for j in range(i % 3 + 1)],
                version=f"{i:02d}.0", timestamp=2000 + i, loc=77,
            ))
            rows2.append(("org.fixture:drift", f"{i:02d}.0", 2000 + i, i + 1))
        history2 = write_history(tmp_path / "releases2.csv", rows2)
        out2 = tmp_path / "report2"
        assert main(["analyze", "--corpus", str(corpus2), "--history", str(history2),
                     "--out", str(out2)]) == 0
        loc_r, loc_p, _ = _combined_row(out2, "LOC")
        assert math.isnan(loc_r) and loc_p == 1.0
        wmc_r, _, _ = _combined_row(out2, "IC-WMC")
        assert not math.isnan(wmc_r)


def test_criterion_4_forced_zero_cases():
    with _criterion("4 forced-zero-cases"):
        vector = sweep_vectors([make_snapshot("launcher")])[coord("launcher")]
        assert vector.wmc == 0 and vector.dit == 0

        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 10)
            names = [f"n{i}" for i in range(n)]
            density = rng.uniform(0.0, 0.5)
            dag = {
                names[i]: [names[j] for j in range(i + 1, n) if rng.random() < density]
                for i in range(n)
            }
            for vector in sweep_vectors(graph_snapshots(dag)).values():
                assert vector.cbo == 0


def test_criterion_5_planted_signal_recovery():
    with _criterion("5 planted-signal-recovery"):
        start = time.monotonic()

        work = Path(tempfile.mkdtemp())
        try:
            assert main(["synth", "--out", str(work), "--projects", "10", "--releases", "20",
                         "--coupling", "2", "--noise", "0.1"]) == 0
            assert main(["analyze", "--corpus", str(work / "corpus"),
                         "--history", str(work / "releases.csv"),
                         "--out", str(work / "report")]) == 0
            r, p, n = _combined_row(work / "report", "IC-RFC")
            assert r > 0.9, f"planted coupling not recovered: r={r}"
            assert p < 1e-6, f"planted coupling not significant: p={p}"
            assert n == 200
        finally:
            shutil.rmtree(work)

        null_passes = 0
        for seed in range(100):
            work = Path(tempfile.mkdtemp())
            try:
                assert main(["synth", "--out", str(work), "--seed", str(seed),
                             "--projects", "10", "--releases", "20",
                             "--coupling", "0", "--noise", "0.1"]) == 0
                assert main(["analyze", "--corpus", str(work / "corpus"),
                             "--history", str(work / "releases.csv"),
                             "--out", str(work / "report"), "--workers", "1"]) == 0
                _, p, _ = _combined_row(work / "report", "IC-RFC")
                null_passes += p > 0.05
            finally:
                shutil.rmtree(work)
        assert null_passes >= 85, f"null coupling rejected too often: {null_passes}/100"

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"experiment took {elapsed:.1f}s"


def test_criterion_6_selection_criteria(tmp_path):
    with _criterion("6 selection-criteria"):
        corpus_root = tmp_path / "corpus"
        corpus_root.mkdir()
        rows = []

        def add_project(name, parsed, failed, bugs_per_release):
            key = f"org.fixture:{name}"
            for i in range(parsed):
                write_release(corpus_root, make_snapshot(
                    name, version=f"{i:02d}.0", timestamp=1000 + i))
                rows.append((key, f"{i:02d}.0", 1000 + i, bugs_per_release))
            for i in range(failed):
                write_failed_release(corpus_root, key, f"broken-{i}")

        add_project("nine", parsed=9, failed=0, bugs_per_release=5)
        add_project("good", parsed=11, failed=1, bugs_per_release=4)   # 11/12 parsed, 44 bugs
        add_project("ratio", parsed=7, failed=3, bugs_per_release=5)   # 7/10 parsed
        add_project("quiet", parsed=12, failed=0, bugs_per_release=0)  # zero bugs

        history = write_history(tmp_path / "releases.csv", rows)
        from icmetrics.ingest import load_release_history

        corpus = load_corpus(corpus_root, load_release_history(history.read_text()))
        selected, rejected = select_projects(corpus)

        assert selected == {coord("good")}
        assert rejected[coord("nine")] == "min-versions"
        assert rejected[coord("ratio")] == "parse-ratio"
        assert rejected[coord("quiet")] == "zero-bugs"


def test_criterion_7_determinism(tmp_path):
    with _criterion("7 determinism"):
        assert main(["synth", "--out", str(tmp_path), "--seed", "1",
                     "--projects", "6", "--releases", "12"]) == 0

        def analyze(out_name, workers):
            assert main(["analyze", "--corpus", str(tmp_path / "corpus"),
                         "--history", str(tmp_path / "releases.csv"),
                         "--out", str(tmp_path / out_name), "--workers", str(workers)]) == 0
            return {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / out_name).iterdir())
            }

        serial = analyze("serial", 1)
        serial_again = analyze("serial-again", 1)
        parallel = analyze("parallel", 8)
        assert serial == serial_again
        assert serial == parallel
        assert set(serial) >= {"combined.csv", "per_project.csv", "summaries.csv"}


def test_criterion_8_pom_ingestion():
    with _criterion("8 pom-ingestion"):
        manifest = parse_pom(
            "<project><groupId>g</groupId><artifactId>a</artifactId>"
            "<version>1.0</version></project>"
        )
        assert manifest.coordinate == ProjectCoordinate("g", "a")
        assert manifest.version_text == "1.0"
        assert manifest.declared_dependencies == ()

        manifest = parse_pom(
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version>"
            "<dependencies>"
            "<dependency><groupId>o1</groupId><artifactId>d1</artifactId></dependency>"
            "<dependency><groupId>o2</groupId><artifactId>d2</artifactId></dependency>"
            "</dependencies></project>"
        )
        assert [d.target for d in manifest.declared_dependencies] == [
            ProjectCoordinate("o1", "d1"), ProjectCoordinate("o2", "d2"),
        ]

        manifest = parse_pom(
            "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version>"
            "<properties><dep.v>2.1</dep.v></properties>"
            "<dependencies><dependency><groupId>o</groupId><artifactId>d</artifactId>"
            "<version>${dep.v}</version></dependency></dependencies></project>"
        )
        assert manifest.declared_dependencies[0].version_text == "2.1"

        manifest = parse_pom(
            "<project><parent><groupId>pg</groupId><artifactId>pp</artifactId>"
            "<version>3</version></parent><artifactId>child</artifactId></project>"
        )
        assert manifest.coordinate == ProjectCoordinate("pg", "child")
        assert manifest.version_text == "3"

        with pytest.raises(PomSyntaxError) as excinfo:
            parse_pom("<project><groupId>g</groupId>")
        assert excinfo.value.line >= 1

        with pytest.raises(IncompleteCoordinatesError):
            parse_pom("<project><groupId>g</groupId><version>1</version></project>")

        with pytest.raises(UnresolvedPropertyError) as unresolved:
            parse_pom(
                "<project><groupId>g</groupId><artifactId>a</artifactId>"
                "<version>${missing}</version></project>"
            )
        assert unresolved.value.key == "missing"
