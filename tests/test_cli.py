import json

import pytest

from conftest import make_snapshot, write_failed_release, write_history, write_release

from icmetrics.cli import main
from icmetrics.report import format_correlation, format_p
from icmetrics.stats import p_two_tailed, pearson_r


def _write_fixture_corpus(tmp_path, releases=12, failed=0, bugs=None):
    """One project, `releases` parsed releases with drifting wmc."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bugs = bugs or [((i * 5) % 7) + 1 for i in range(releases)]
    wmc = [(i % 4) + 1 for i in range(releases)]
    rows = []
    for i in range(releases):
        snapshot = make_snapshot(
            "proj",
            deps=[f"dep{j}" for j in range(wmc[i])],
            version=f"{i:02d}.0",
            timestamp=1000 + 100 * i,
            loc=50 + 10 * i,
        )
        write_release(corpus, snapshot)
        rows.append(("org.fixture:proj", f"{i:02d}.0", 1000 + 100 * i, bugs[i]))
    for i in range(failed):
        write_failed_release(corpus, "org.fixture:proj", f"broken-{i}")
    history = write_history(tmp_path / "releases.csv", rows)
    return corpus, history, wmc, bugs


def test_missing_corpus_is_a_fatal_error(tmp_path, capsys):
    history = write_history(tmp_path / "releases.csv", [])
    rc = main(["analyze", "--corpus", str(tmp_path / "nope"), "--history", str(history),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[0].startswith("error:")


def test_missing_history_is_a_fatal_error(tmp_path, capsys):
    (tmp_path / "corpus").mkdir()
    rc = main(["analyze", "--corpus", str(tmp_path / "corpus"),
               "--history", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--corpus", str(tmp_path), "--frobnicate"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["dance"])
    assert excinfo.value.code == 2


def test_empty_corpus_succeeds_with_header_only_reports(tmp_path, capsys):
    (tmp_path / "corpus").mkdir()
    history = write_history(tmp_path / "releases.csv", [])
    rc = main(["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(history),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "combined.csv").read_text() == "metric,correlation,p_value,n\n"
    assert (tmp_path / "out" / "per_project.csv").read_text().count("\n") == 1


def test_analyze_fixture_corpus_matches_stats_module(tmp_path):
    corpus, history, wmc, bugs = _write_fixture_corpus(tmp_path)
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history),
               "--out", str(tmp_path / "out"), "--workers", "1"])
    assert rc == 0

    expected_r = pearson_r([float(v) for v in wmc], [float(b) for b in bugs])
    expected_p = p_two_tailed(expected_r, len(wmc))
    wanted = f"org.fixture:proj,IC-WMC,{format_correlation(expected_r)},{format_p(expected_p)},{len(wmc)}"
    per_project = (tmp_path / "out" / "per_project.csv").read_text().splitlines()
    assert wanted in per_project

    combined = (tmp_path / "out" / "combined.csv").read_text().splitlines()
    assert f"IC-WMC,{format_correlation(expected_r)},{format_p(expected_p)},{len(wmc)}" in combined

    series_path = tmp_path / "out" / "series_org.fixture_proj.csv"
    lines = series_path.read_text().splitlines()
    assert len(lines) == 1 + len(wmc)
    assert lines[1].split(",")[3] == str(wmc[0])


def test_unparsable_release_warns_and_proceeds(tmp_path, capsys):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path, failed=1)
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "broken-0" in err
    assert (tmp_path / "out" / "summaries.csv").read_text().count("\n") == 2


def test_rejected_projects_are_reported(tmp_path, capsys):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path, releases=4)
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "rejected org.fixture:proj (min-versions)" in capsys.readouterr().err
    assert (tmp_path / "out" / "combined.csv").read_text().count("\n") == 1


def test_human_flag_prints_tables(tmp_path, capsys):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history),
               "--out", str(tmp_path / "out"), "--human"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Metric" in out and "Project" in out


def test_metrics_dump_for_zero_dependency_project(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_release(corpus, make_snapshot("solo", version="1.0", timestamp=10))
    rc = main(["metrics", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["wmc"], record["dit"], record["noc"], record["cbo"]) == (0, 0, 0, 0)
    assert record["rfc"] is None


def test_metrics_rerun_is_byte_identical(tmp_path):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    for name in ("one", "two"):
        rc = main(["metrics", "--corpus", str(corpus), "--history", str(history),
                   "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "one" / "metrics.jsonl").read_bytes() == (tmp_path / "two" / "metrics.jsonl").read_bytes()


def test_synth_requires_out(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["synth"])
    assert excinfo.value.code == 2


def test_synth_invalid_sizes_exit_one(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--projects", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_synth_analyze_round_trip_has_no_warnings(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--seed", "3", "--projects", "3", "--releases", "11"])
    assert rc == 0
    rc = main(["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning:" not in err
    combined = (tmp_path / "report" / "combined.csv").read_text()
    assert combined.splitlines()[0] == "metric,correlation,p_value,n"
    assert len(combined.splitlines()) == 8  # all seven metrics present


def test_huge_finite_bug_counts_analyze_without_a_traceback(tmp_path, capsys):
    # Bug counts near 1e302: squaring their deviations overflows a float.
    rc = main(["synth", "--out", str(tmp_path), "--coupling", "1e300", "--projects", "2", "--releases", "11"])
    assert rc == 0
    rc = main(["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"),
               "--out", str(tmp_path / "report")])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    combined = (tmp_path / "report" / "combined.csv").read_text()
    assert len(combined.splitlines()) == 8


@pytest.mark.parametrize("command", ["analyze", "metrics"])
def test_bug_count_a_float_cannot_hold_is_a_fatal_history_error(tmp_path, capsys, command):
    bugs = [3] * 12
    bugs[2] = 2**1100
    corpus, history, _, _ = _write_fixture_corpus(tmp_path, bugs=bugs)
    rc = main([command, "--corpus", str(corpus), "--history", str(history), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: line 4: bugs_fixed must convert to a float (below about 1.8e308), got a 332-digit number\n"
    )
    assert not (tmp_path / "out").exists()


def test_exclude_scopes_flag_changes_the_graph(tmp_path):
    from icmetrics.model import DependencyDecl
    from conftest import coord

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    deps = (DependencyDecl(target=coord("t"), scope="test"),)
    write_release(corpus, make_snapshot("p", deps=deps, version="1.0", timestamp=10))

    main(["metrics", "--corpus", str(corpus), "--out", str(tmp_path / "default")])
    main(["metrics", "--corpus", str(corpus), "--out", str(tmp_path / "keep"), "--exclude-scopes", ""])

    default = json.loads((tmp_path / "default" / "metrics.jsonl").read_text())
    kept = json.loads((tmp_path / "keep" / "metrics.jsonl").read_text())
    assert default["wmc"] == 0
    assert kept["wmc"] == 1


def test_series_filename_clash_fails_before_writing(tmp_path, capsys):
    # a_b:c and a:b_c both map to series_a_b_c.csv.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rows = []
    for group, name in (("a_b", "c"), ("a", "b_c")):
        for i in range(10):
            write_release(corpus, make_snapshot(name, group=group, version=f"{i}.0", timestamp=100 * i))
            rows.append((f"{group}:{name}", f"{i}.0", 100 * i, i % 3 + 1))
    history = write_history(tmp_path / "releases.csv", rows)
    out = tmp_path / "out"
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: series file name clash: a:b_c and a_b:c both map to series_a_b_c.csv" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
def test_activity_threshold_must_be_finite_and_positive(tmp_path, capsys, threshold):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--corpus", str(corpus), "--history", str(history), "--out", str(out),
              "--activity-threshold", threshold])
    assert excinfo.value.code == 2
    assert "argument --activity-threshold: must be a finite number greater than 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--coupling", "inf"], ["--coupling", "nan"],
                                   ["--noise", "inf"], ["--noise", "nan"]])
def test_synth_non_finite_input_fails_before_writing(tmp_path, capsys, flags):
    rc = main(["synth", "--out", str(tmp_path / "out"), "--projects", "2", "--releases", "3", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flags[0][2:]} must be finite, got {flags[1]}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--coupling", "1e308"], ["--coupling=-1e308"], ["--noise", "1e308"]])
def test_synth_overflowing_input_fails_before_writing(tmp_path, capsys, flags):
    rc = main(["synth", "--out", str(tmp_path / "out"), "--projects", "2", "--releases", "3", *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("overflow the bug counts\n")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
