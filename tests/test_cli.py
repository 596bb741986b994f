import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (child_env, deny_listing, make_snapshot, write_failed_release, write_history,
                      write_messy_corpus, write_release)

from icmetrics import cli, ingest
from icmetrics.cli import main
from icmetrics.report import (
    COMBINED_HEADER,
    PER_PROJECT_HEADER,
    SERIES_HEADER,
    SUMMARIES_HEADER,
    format_correlation,
    format_p,
)
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


def test_labels_that_need_quoting_read_back_from_every_table(tmp_path):
    # A project key holding "," and a version label holding "," and '"'.
    corpus = tmp_path / "corpus"
    labels = [f"{i:02d}.0" for i in range(11)] + ['1,"0']
    rows = [("project", "version", "timestamp", "bugs_fixed")]
    for i, label in enumerate(labels):
        write_release(corpus, make_snapshot("p", deps=[f"d{j}" for j in range(i % 3 + 1)], version=label,
                                            timestamp=1000 + i, group="org.x,y"))
        rows.append(("org.x,y:p", label, 1000 + i, i % 4 + 1))
    with open(tmp_path / "releases.csv", "w", newline="", encoding="utf-8") as history:
        csv.writer(history, lineterminator="\n").writerows(rows)
    out = tmp_path / "out"
    assert main(["analyze", "--corpus", str(corpus), "--history", str(tmp_path / "releases.csv"),
                 "--out", str(out)]) == 0

    def table(name, header):
        with open(out / name, newline="", encoding="utf-8") as f:
            records = list(csv.reader(f))
        assert records[0] == header.split(",")
        assert all(len(record) == len(records[0]) for record in records), name
        return records[1:]

    table("combined.csv", COMBINED_HEADER)
    assert {record[0] for record in table("per_project.csv", PER_PROJECT_HEADER)} == {"org.x,y:p"}
    assert [record[0] for record in table("summaries.csv", SUMMARIES_HEADER)] == ["org.x,y:p"]
    assert [record[0] for record in table("series_org.x,y_p.csv", SERIES_HEADER)] == labels


@pytest.mark.parametrize("command", ["analyze", "metrics"])
@pytest.mark.parametrize("workers, problem", [
    pytest.param("0", "must be an integer of at least 1, got '0'", id="0"),
    pytest.param("-1", "must be an integer of at least 1, got '-1'", id="-1"),
    pytest.param("abc", "invalid int value: 'abc'", id="abc"),
])
def test_workers_below_one_exits_two(tmp_path, capsys, command, workers, problem):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--corpus", str(corpus), "--history", str(history), "--out", str(out),
              "--workers", workers])
    assert excinfo.value.code == 2
    assert f"argument --workers: {problem}" in capsys.readouterr().err
    assert not out.exists()


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


def test_snapshot_version_other_than_its_directory_is_a_failed_release(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--seed", "0", "--projects", "3", "--releases", "12"]) == 0
    snapshot_path = tmp_path / "corpus" / "synth.example:lib00" / "0.5.0" / "snapshot.json"
    snapshot_path.write_text(json.dumps({**json.loads(snapshot_path.read_text()), "version": "0.4.0"}))
    capsys.readouterr()
    rc = main(["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert ("warning: failed release synth.example:lib00/0.5.0: snapshot version 0.4.0 does not match"
            " release directory 0.5.0") in capsys.readouterr().err.splitlines()
    with open(tmp_path / "out" / "series_synth.example_lib00.csv", newline="") as series:
        labels = [row[0] for row in csv.reader(series)][1:]
    assert labels == [f"0.{t}.0" for t in range(12) if t != 5]


def test_messy_corpus_stderr_is_pinned(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    history = write_history(tmp_path / "releases.csv", write_messy_corpus(corpus))
    real_read = ingest._read

    def flaky(path):
        if Path(path).name == "B.java":
            raise OSError("simulated i/o failure")
        return real_read(path)

    monkeypatch.setattr(ingest, "_read", flaky)
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: unreadable file counted as 0 lines: {corpus.resolve()}/g:pom/1.0/src/B.java (simulated i/o failure)",
        "warning: failed release g:pom/2.0: incomplete coordinates: missing artifactId (own or parent)",
        "warning: skipping directory 'm-stray': name is not a group:artifact key",
        "warning: no history row for org.fixture:proj/05.0; bugs_fixed defaults to 0",
        "warning: failed release org.fixture:proj/broken: .project: must be an object",
        "warning: orphan history row: org.gone:x,1.0,10,0 matches no release directory",
        "warning: orphan history row: m-stray,1.0,100,1 matches no release directory",
        "warning: orphan history row: org.fixture:proj,99.0,9900,4 matches no release directory",
        "info: rejected g:pom (min-versions)",
    ]


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


def test_history_cell_holding_a_carriage_return_joins_its_release(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    write_release(corpus, make_snapshot("p", version="1\r0", timestamp=10, bugs=7))
    with open(tmp_path / "releases.csv", "w", newline="", encoding="utf-8") as history:
        csv.writer(history).writerows([("project", "version", "timestamp", "bugs_fixed"),
                                       ("org.fixture:p", "1\r0", 10, 3)])
    rc = main(["metrics", "--corpus", str(corpus), "--history", str(tmp_path / "releases.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ""  # neither "no history row" nor "orphan history row"
    assert json.loads((tmp_path / "out" / "metrics.jsonl").read_text())["version"] == "1\r0"


def test_process_exit_keeps_every_output(tmp_path, capsys):
    # The real entry point (run(), which freezes the heap before exiting)
    # writes what an in-process main() writes.
    assert main(["synth", "--out", str(tmp_path), "--projects", "3", "--releases", "11"]) == 0
    args = ["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"), "--human"]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "in_process")]) == 0
    expected = capsys.readouterr()
    # Block-buffered stdout, as in a plain run, so output still buffered at exit would be lost.
    env = {name: value for name, value in child_env().items() if name != "PYTHONUNBUFFERED"}
    child = subprocess.run([sys.executable, "-m", "icmetrics.cli", *args, "--out", str(tmp_path / "process")],
                           env=env, capture_output=True)
    assert child.returncode == 0
    assert (child.stdout, child.stderr) == (expected.out.encode(), expected.err.encode())

    def reports(name):
        return {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}

    written = reports("process")
    assert "combined.csv" in written and written == reports("in_process")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", ["closed-pipe", "dev-full"])
def test_a_closed_or_full_stdout_is_one_error_line(tmp_path, capsys, stdout, unbuffered):
    if stdout == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    assert main(["synth", "--out", str(tmp_path), "--projects", "2", "--releases", "12"]) == 0
    args = ["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"), "--human"]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "in_process")]) == 0
    expected_err = capsys.readouterr().err
    # Block-buffered stdout, as in a plain run, makes the flush at exit fail
    # too; unbuffered, the first write fails.
    env = {name: value for name, value in child_env().items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if stdout == "closed-pipe":
        read_end, target = os.pipe()
        os.close(read_end)
    else:
        target = os.open("/dev/full", os.O_WRONLY)
    try:
        child = subprocess.run([sys.executable, "-m", "icmetrics.cli", *args, "--out", str(tmp_path / "process")],
                               env=env, stdout=target, stderr=subprocess.PIPE)
    finally:
        os.close(target)
    reason = "[Errno 32] Broken pipe" if stdout == "closed-pipe" else "[Errno 28] No space left on device"
    assert child.returncode == 1
    assert child.stderr.decode() == f"{expected_err}error: {reason}\n"  # no traceback, no "Exception ignored"
    written = _contents(tmp_path / "process")
    assert len(written) == 5 and written == _contents(tmp_path / "in_process")


def _tree(root):
    return {path.relative_to(root): path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("present", ["corpus", "releases.csv"])
def test_a_second_synth_into_one_out_fails_and_changes_nothing(tmp_path, capsys, present):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--projects", "4", "--releases", "12", "--seed", "1"]) == 0
    if present == "releases.csv":
        shutil.rmtree(out / "corpus")
    first = _tree(out)
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--projects", "2", "--releases", "12", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {out / present} already exists; synth never overwrites a corpus\n"
    assert _tree(out) == first


def test_a_project_directory_that_cannot_be_listed_is_skipped(tmp_path, capsys, monkeypatch):
    assert main(["synth", "--out", str(tmp_path), "--projects", "3", "--releases", "12"]) == 0
    args = ["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv")]
    project = tmp_path / "corpus" / "synth.example:lib01"
    deny_listing(monkeypatch, project)
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "denied")]) == 0
    denied_err = capsys.readouterr().err.splitlines()
    monkeypatch.undo()
    shutil.rmtree(project)
    assert main([*args, "--out", str(tmp_path / "removed")]) == 0
    removed_err = capsys.readouterr().err.splitlines()

    denied_err.remove(f"warning: skipping directory 'synth.example:lib01': [Errno 13] Permission denied: '{project}'")
    assert denied_err == removed_err
    assert sum(line.startswith("warning: orphan history row: synth.example:lib01,") for line in removed_err) == 12
    assert _contents(tmp_path / "denied") == _contents(tmp_path / "removed")


@pytest.mark.parametrize("case", ["not-utf-8", "oversized-cell"])
def test_unreadable_history_is_a_fatal_history_error(tmp_path, capsys, case):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    data = history.read_bytes()
    if case == "not-utf-8":
        data = data.replace(b"org.fixture:proj,02.0,", b"org.fixture:proj,02\xff0,")
        position = data.index(b"\xff")
        reason = (f"{history.resolve()}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff"
                  f" in position {position}: invalid start byte")
    else:
        # One more character than the csv module's default field limit.
        data = data.replace(b"org.fixture:proj,00.0,", b'org.fixture:proj,"' + b"x" * 131073 + b'",')
        reason = "line 2: field larger than field limit (131072)"
    history.write_bytes(data)
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["loc", "bugs_fixed"])
def test_snapshot_count_a_float_cannot_hold_is_a_failed_release(tmp_path, capsys, field):
    assert main(["synth", "--out", str(tmp_path), "--projects", "3", "--releases", "11"]) == 0
    release = tmp_path / "corpus" / "synth.example:lib00" / "0.3.0"
    doc = json.loads((release / "snapshot.json").read_text())
    doc[field] = 2**1100
    (release / "snapshot.json").write_text(json.dumps(doc))
    history = tmp_path / "releases.csv"
    # The document's own bug count is used only where no history row matches.
    history.write_text("".join(line for line in history.read_text().splitlines(keepends=True)
                               if not line.startswith("synth.example:lib00,0.3.0,")))
    capsys.readouterr()
    rc = main(["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(history),
               "--out", str(tmp_path / "report")])
    assert rc == 0
    err = capsys.readouterr().err
    assert (f"warning: failed release synth.example:lib00/0.3.0: .{field}:"
            " must convert to a float (below about 1.8e308)\n") in err
    assert "Traceback" not in err
    series = (tmp_path / "report" / "series_synth.example_lib00.csv").read_text()
    versions = [line.split(",")[0] for line in series.splitlines()[1:]]
    assert len(versions) == 10 and "0.3.0" not in versions


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


def _contents(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("command, first_file", [("analyze", "combined.csv"), ("metrics", "metrics.jsonl")])
def test_a_second_run_into_one_out_fails_and_writes_nothing(tmp_path, capsys, command, first_file):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--corpus", str(corpus), "--history", str(history), "--out", str(out)]
    assert main(argv) == 0
    written = _contents(out)
    capsys.readouterr()
    # A different report for the same directory is refused too.
    assert main([*argv, "--exclude-scopes", ""]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {out / first_file} already exists; {command} never overwrites a report file")
    assert _contents(out) == written


def test_a_series_file_already_in_out_is_not_overwritten(tmp_path, capsys):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "series_org.fixture_proj.csv").write_text("kept\n")
    rc = main(["analyze", "--corpus", str(corpus), "--history", str(history), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {out / 'series_org.fixture_proj.csv'} already exists; analyze never overwrites a report file")
    assert _contents(out) == {"series_org.fixture_proj.csv": b"kept\n"}


def test_a_failed_write_leaves_out_as_it_was(tmp_path, capsys):
    # lib01 renamed to a 238-character artifact: its series file name is
    # longer than a file system allows, and it is written after four others.
    assert main(["synth", "--out", str(tmp_path), "--seed", "0", "--projects", "2", "--releases", "12"]) == 0
    long_name = "x" * 238
    for path in [tmp_path / "releases.csv", *tmp_path.glob("corpus/*lib01/*/snapshot.json")]:
        path.write_text(path.read_text(encoding="utf-8").replace("lib01", long_name), encoding="utf-8")
    [project] = tmp_path.glob("corpus/*lib01")
    project.rename(project.with_name(project.name.replace("lib01", long_name)))
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    argv = ["analyze", "--corpus", str(tmp_path / "corpus"), "--history", str(tmp_path / "releases.csv"),
            "--out", str(out)]
    for _ in range(2):  # the second run meets the same error, not a leftover report file
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: [Errno 36] File name too long: ")
        assert _contents(out) == {"notes.txt": b"mine\n"}


@pytest.mark.parametrize("command", ["analyze", "metrics"])
def test_an_interrupted_write_leaves_out_as_it_was(tmp_path, monkeypatch, command):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    argv = [command, "--corpus", str(corpus), "--history", str(history), "--out", str(out)]

    class Interrupted:
        """A handle that writes half its text, then meets a Ctrl-C; not for combined.csv."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            if Path(self.handle.name).name == "combined.csv":
                return self.handle.write(text)
            self.handle.write(text[:len(text) // 2])
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Interrupted(open(*args, **kwargs)), raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert _contents(out) == {"notes.txt": b"mine\n"}
    monkeypatch.undo()
    assert main(argv) == 0  # nothing left behind refuses the next run


def _pom_project_with_a_non_utf8_release(tmp_path):
    """g:a/1.0 ... 1.11, each one root pom.xml with one dependency, and
    history rows for all but 1.5, whose directory is then renamed to the
    bytes ``1.\\xff``."""
    rows = []
    for i in range(12):
        release = tmp_path / "corpus" / "g:a" / f"1.{i}"
        release.mkdir(parents=True)
        (release / "pom.xml").write_text(
            f"<project><groupId>g</groupId><artifactId>a</artifactId><version>1.{i}</version>"
            "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId></dependency>"
            "</dependencies></project>")
        if i != 5:
            rows.append(("g:a", f"1.{i}", 100 * i, i % 3 + 1))
    release = os.fsencode(tmp_path / "corpus" / "g:a" / "1.5")
    os.rename(release, release[:-1] + b"\xff")
    return tmp_path / "corpus", write_history(tmp_path / "releases.csv", rows), "g:a/1.\\xff"


def _json_project_with_a_non_utf8_release(tmp_path):
    """A two-project synth corpus whose release lib01/0.11.0 is renamed to
    the bytes ``0.11.\\xff``, with the snapshot's version the matching lone
    surrogate, as the JSON escape ``\\udcff``."""
    assert main(["synth", "--out", str(tmp_path), "--seed", "0", "--projects", "2", "--releases", "12"]) == 0
    [release] = tmp_path.glob("corpus/*lib01/0.11.0")
    doc = json.loads((release / "snapshot.json").read_text(encoding="utf-8"))
    doc["version"] = "0.11.\udcff"
    (release / "snapshot.json").write_text(json.dumps(doc), encoding="ascii")
    os.rename(os.fsencode(release), os.fsencode(release)[:-1] + b"\xff")
    return tmp_path / "corpus", tmp_path / "releases.csv", f"{release.parent.name}/0.11.\\xff"


@pytest.mark.parametrize("layout", [_pom_project_with_a_non_utf8_release, _json_project_with_a_non_utf8_release])
@pytest.mark.parametrize("command", ["analyze", "metrics"])
def test_a_release_directory_name_that_is_not_utf8_is_a_failed_release(tmp_path, capsys, command, layout):
    corpus, history, release = layout(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), "--history", str(history), "--out", str(out)]) == 0
    assert f"warning: failed release {release}: release directory name is not valid UTF-8\n" in capsys.readouterr().err
    project = release.partition("/")[0]
    reports = {path.name: path.read_bytes().decode("utf-8") for path in out.iterdir()}
    if command == "metrics":
        measured = [json.loads(line) for line in reports["metrics.jsonl"].splitlines()]
        assert len([row for row in measured if row["project"] == project]) == 11
    else:
        # 11 of 12 releases parsed: the project stays selected.
        series = reports[f"series_{project.replace(':', '_')}.csv"]
        assert len(series.splitlines()) == 1 + 11
        assert all(report.endswith("\n") for report in reports.values())


@pytest.mark.parametrize("command", ["analyze", "metrics"])
def test_other_files_in_out_are_allowed(tmp_path, command):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    assert main([command, "--corpus", str(corpus), "--history", str(history), "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text() == "mine\n"
    assert len(list(out.iterdir())) > 1


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


def test_activity_threshold_must_be_a_number(tmp_path, capsys):
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--corpus", str(corpus), "--history", str(history), "--out", str(out),
              "--activity-threshold", "abc"])
    assert excinfo.value.code == 2
    assert "argument --activity-threshold: invalid float value: 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_activity_threshold_sets_the_low_activity_partition(tmp_path, capsys):
    # The fixture project has 12 releases and 48 bugs: activity 0.25.
    corpus, history, _, _ = _write_fixture_corpus(tmp_path)

    def low_activity_lines(out, *flags):
        assert main(["analyze", "--corpus", str(corpus), "--history", str(history),
                     "--out", str(tmp_path / out), *flags]) == 0
        return [line for line in capsys.readouterr().err.splitlines() if "low-activity" in line]

    assert low_activity_lines("default") == []
    assert low_activity_lines("half", "--activity-threshold", "0.5") == [
        "info: low-activity projects (activity < 0.5): org.fixture:proj"]


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


# sha256 of every output of `synth --seed 0` (default size) run through
# `analyze --human` and `metrics`. A change to any report byte has to
# change these on purpose.
REPORT_DIGESTS = {
    "combined.csv": "a64377aac559f65f25ac083b2a8e33768afb262a341343054745ffe58596b3c7",
    "per_project.csv": "379dc5364f0acad13e8604fe9d82dfb849ef062bb117866e1cee5ce07a92b085",
    "series_synth.example_lib00.csv": "1e8da1a425e39e439bed65042b3f18d8f07d519a8b1d0cb06c795aeecc697831",
    "series_synth.example_lib01.csv": "adfd52ca329d58ee94bb83ccf22a0f7fbd1b096c9f1a1990e9eddcf45f885467",
    "series_synth.example_lib02.csv": "392d4ef97eb6e596bcc9474e05e689fd52459f42c3b4345aa0fad7624a87dd73",
    "series_synth.example_lib03.csv": "fdf436bbe6ed4e89a900d7129dc8745db54fb8bea2579af4a3fbe55a0c9c0b57",
    "series_synth.example_lib04.csv": "a08148476ba8ad1ca309877879d8814c569d7445f3098e17382f77fd500bf84f",
    "series_synth.example_lib05.csv": "fa911ba56f9d59cba40d502f5edeb4fa61e87a4a9e37782c81b297b668c1bbb9",
    "series_synth.example_lib06.csv": "6312fa1b52dd56d7f0c8afe7b5939daa99dfe0ae2e60c4d80c62fb99abaf0823",
    "series_synth.example_lib07.csv": "3a43def528f2571881feaeafbea72e0bd6c8b895a9bfc02139dc0e07c026ea4d",
    "series_synth.example_lib08.csv": "e6ac477e45bdceda58ecbd0b86e588b8c03602653ef94df8e88483d36e12eb2d",
    "series_synth.example_lib09.csv": "c730ed032ff991506060fbde259acf0b2f4e55932eae5c5f855dd4ae3b11d29f",
    "summaries.csv": "e518980db47e228e2b88a6909a446f68e9a1778de3482df901707752b8b2070e",
    "metrics.jsonl": "42f831327da0614a70dc0a170cf0da1eb2f58b975635a6a74d6991120ee8f696",
    "stdout": "ca224f77047b7604f5632d6c5611d2cc155093ac3867eed42bee65fddfef2470",
}


def test_report_bytes_match_recorded_digests(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "synth"), "--seed", "0"]) == 0
    corpus = ["--corpus", str(tmp_path / "synth" / "corpus"), "--history", str(tmp_path / "synth" / "releases.csv")]
    capsys.readouterr()
    assert main(["analyze", *corpus, "--out", str(tmp_path / "report"), "--human"]) == 0
    stdout = capsys.readouterr().out
    assert main(["metrics", *corpus, "--out", str(tmp_path / "metrics")]) == 0
    files = {path.name: path.read_bytes() for path in (tmp_path / "report").iterdir()}
    files["metrics.jsonl"] = (tmp_path / "metrics" / "metrics.jsonl").read_bytes()
    files["stdout"] = stdout.encode()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == REPORT_DIGESTS
