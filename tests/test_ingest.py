import itertools
import json
import os
import shutil
import string
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (coord, deny_listing, make_manifest, make_snapshot, write_failed_release, write_messy_corpus,
                      write_release)

from icmetrics import ingest, records
from icmetrics.ingest import (
    DEFAULT_LOC_EXTENSIONS,
    DEFAULT_SCOPE_FILTER,
    FailedRelease,
    HistoryFormatError,
    ReleaseHistoryRow,
    SnapshotFormatError,
    count_loc,
    load_corpus,
    load_release_history,
)
from icmetrics.model import (
    ApiSurface,
    DependencyDecl,
    ProjectCoordinate,
    ReleaseFacts,
    SharedValues,
    UsageRecord,
)
from icmetrics.records import (
    ProjectManifest,
    ReleaseSnapshot,
    encode_snapshot,
    parse_pom,
    parse_snapshot_json,
    validate_snapshot,
)

# --------------------------------------------------------------------------
# snapshot.json

MINIMAL_SNAPSHOT = """{
  "project": {"group": "g", "artifact": "a"},
  "version": "1.0",
  "timestamp": 100,
  "manifests": [{"group": "g", "artifact": "a", "version": "1.0",
                 "dependencies": [], "submodules": []}],
  "api_surface": null,
  "usage": null,
  "loc": null
}"""


def test_minimal_snapshot_has_absent_optionals():
    snapshot = parse_snapshot_json(MINIMAL_SNAPSHOT)
    assert snapshot.coordinate == ProjectCoordinate("g", "a")
    assert snapshot.api_surface is None
    assert snapshot.usage is None
    assert snapshot.loc is None
    assert snapshot.bugs_fixed == 0


def test_api_surface_with_two_methods():
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc["api_surface"] = {"M.f()V": ["M.g()V", "X.h()V"], "M.g()V": []}
    snapshot = parse_snapshot_json(json.dumps(doc))
    assert set(snapshot.api_surface.methods) == {"M.f()V", "M.g()V"}
    assert snapshot.api_surface.methods["M.f()V"] == frozenset({"M.g()V", "X.h()V"})


def test_negative_bugs_fixed_is_a_schema_error_at_path():
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc["bugs_fixed"] = -2
    with pytest.raises(SnapshotFormatError, match=r"\.bugs_fixed"):
        parse_snapshot_json(json.dumps(doc))


def test_missing_manifests_is_a_schema_error_at_path():
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc["manifests"] = []
    with pytest.raises(SnapshotFormatError, match=r"\.manifests"):
        parse_snapshot_json(json.dumps(doc))


def test_invariant_violation_is_reported():
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc["manifests"].append(
        {"group": "g", "artifact": "other", "version": "1.0", "dependencies": [], "submodules": []}
    )
    with pytest.raises(SnapshotFormatError, match="invariants"):
        parse_snapshot_json(json.dumps(doc))


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SnapshotFormatError):
        parse_snapshot_json("{not json")


_identifier = st.text(alphabet=string.ascii_lowercase + string.digits + "._-", min_size=1, max_size=8)
_coordinates = st.builds(ProjectCoordinate, _identifier, _identifier)
_method_ids = st.text(min_size=1, max_size=24)
_decls = st.builds(
    DependencyDecl,
    target=_coordinates,
    version_text=st.none() | st.text(min_size=1, max_size=8),
    scope=st.none() | st.sampled_from(["compile", "test", "provided", "runtime"]),
)


@st.composite
def _snapshots(draw):
    project = draw(_coordinates)
    submodules = [c for c in draw(st.lists(_coordinates, max_size=2, unique=True)) if c != project]
    root = ProjectManifest(
        coordinate=project,
        version_text=draw(st.text(min_size=1, max_size=8)),
        declared_dependencies=tuple(draw(st.lists(_decls, max_size=3))),
        submodule_coordinates=frozenset(submodules),
    )
    manifests = [root] + [
        ProjectManifest(sub, "1", tuple(draw(st.lists(_decls, max_size=2)))) for sub in submodules
    ]
    surface = draw(
        st.none()
        | st.builds(ApiSurface, st.dictionaries(_method_ids, st.frozensets(_method_ids, max_size=3), max_size=3))
    )
    usage = draw(st.none() | st.builds(UsageRecord, st.frozensets(_coordinates, max_size=3)))
    return ReleaseSnapshot(
        coordinate=project,
        version_label=draw(st.text(alphabet=string.ascii_lowercase + string.digits + ".", min_size=1, max_size=8)),
        timestamp=draw(st.integers(0, 2**40)),
        manifests=tuple(manifests),
        api_surface=surface,
        usage=usage,
        loc=draw(st.none() | st.integers(0, 10**6)),
        bugs_fixed=draw(st.integers(0, 10**4)),
    )


@settings(max_examples=200, deadline=None)
@given(_snapshots())
def test_snapshot_round_trip(snapshot):
    assert parse_snapshot_json(encode_snapshot(snapshot)) == snapshot


# --------------------------------------------------------------------------
# releases.csv


def test_header_only_history_is_empty():
    assert load_release_history("project,version,timestamp,bugs_fixed\n") == []


def test_two_rows_parse_in_order():
    rows = load_release_history(
        "project,version,timestamp,bugs_fixed\n"
        "g:a,1.0,100,3\n"
        "g:a,2.0,200,0\n"
    )
    assert rows == [
        ReleaseHistoryRow("g:a", "1.0", 100, 3),
        ReleaseHistoryRow("g:a", "2.0", 200, 0),
    ]


def test_a_leading_byte_order_mark_is_skipped():
    # As spreadsheet tools save UTF-8 CSV; only one mark is skipped.
    header = "project,version,timestamp,bugs_fixed\n"
    rows = load_release_history(f"\ufeff{header}g:a,1.0,100,3\n")
    assert rows == [ReleaseHistoryRow("g:a", "1.0", 100, 3)]
    with pytest.raises(HistoryFormatError, match="^header must be"):
        load_release_history(f"\ufeff\ufeff{header}")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_history_cells_keep_quoted_line_ends_whatever_ends_a_record(end):
    text = end.join(["project,version,timestamp,bugs_fixed", 'g:a,"1\r0",100,3', 'g:a,"2\r\n0",200,0', ""])
    assert load_release_history(text) == [
        ReleaseHistoryRow("g:a", "1\r0", 100, 3),
        ReleaseHistoryRow("g:a", "2\r\n0", 200, 0),
    ]


def test_duplicate_key_is_an_error():
    text = "project,version,timestamp,bugs_fixed\ng:a,1.0,100,3\ng:a,1.0,200,4\n"
    with pytest.raises(HistoryFormatError, match="duplicate"):
        load_release_history(text)


def test_non_integer_bugs_is_an_error():
    with pytest.raises(HistoryFormatError, match="bugs_fixed"):
        load_release_history("project,version,timestamp,bugs_fixed\ng:a,1.0,100,many\n")


def test_negative_bugs_is_an_error():
    with pytest.raises(HistoryFormatError, match="non-negative"):
        load_release_history("project,version,timestamp,bugs_fixed\ng:a,1.0,100,-1\n")


def test_bugs_a_float_cannot_hold_is_an_error():
    header = "project,version,timestamp,bugs_fixed\n"
    [row] = load_release_history(f"{header}g:a,1.0,100,{int(sys.float_info.max)}\n")
    assert row.bugs_fixed == int(sys.float_info.max)
    with pytest.raises(HistoryFormatError, match=r"^line 3: bugs_fixed must convert to a float"):
        load_release_history(f"{header}g:a,1.0,100,1\ng:a,2.0,200,{2**1024}\n")


def test_bug_count_of_more_digits_than_int_reads_gets_the_float_bound_message():
    header = "project,version,timestamp,bugs_fixed\n"
    with pytest.raises(HistoryFormatError) as excinfo:
        load_release_history(f"{header}g:a,1.0,100,{'9' * 5000}\n")
    assert str(excinfo.value) == (
        "line 2: bugs_fixed must convert to a float (below about 1.8e308), got a 5000-digit number")
    # Leading zeros count toward int()'s digit limit, not toward the value.
    [row] = load_release_history(f"{header}g:a,1.0,100,{'0' * 5000}7\n")
    assert row.bugs_fixed == 7


def test_too_long_negative_bug_count_is_quoted_by_its_digit_count():
    header = "project,version,timestamp,bugs_fixed\n"

    def reason(bugs_text):
        with pytest.raises(HistoryFormatError) as excinfo:
            load_release_history(f"{header}g:a,1.0,100,1\ng:a,2.0,200,{bugs_text}\n")
        return str(excinfo.value)

    assert reason("-" + "9" * 5000) == "line 3: bugs_fixed must be non-negative, got a 5000-digit negative number"
    assert reason("-" + "9" * 400) == "line 3: bugs_fixed must be non-negative, got a 400-digit negative number"
    assert reason(str(-10 ** 309)) == "line 3: bugs_fixed must be non-negative, got a 310-digit negative number"
    # Up to the float bound's 309 digits, a negative count is quoted whole.
    assert reason(str(1 - 10 ** 309)) == f"line 3: bugs_fixed must be non-negative, got {1 - 10 ** 309}"
    assert reason("-5") == "line 3: bugs_fixed must be non-negative, got -5"
    # The digit count leaves out the sign.
    assert reason("+" + "9" * 5000) == (
        "line 3: bugs_fixed must convert to a float (below about 1.8e308), got a 5000-digit number")
    assert reason("+" + "9" * 400) == (
        "line 3: bugs_fixed must convert to a float (below about 1.8e308), got a 400-digit number")


def test_largest_count_a_float_holds_is_accepted_everywhere():
    largest = 2**1024 - 2**970 - 1
    snapshot = parse_snapshot_json(_snapshot_with(loc=largest, bugs_fixed=largest).decode())
    assert snapshot.loc == snapshot.bugs_fixed == largest
    header = "project,version,timestamp,bugs_fixed\n"
    [row] = load_release_history(f"{header}g:a,1.0,100,{largest}\n")
    assert row.bugs_fixed == largest
    with pytest.raises(HistoryFormatError, match=r"^line 2: bugs_fixed must convert to a float"):
        load_release_history(f"{header}g:a,1.0,100,{largest + 1}\n")


def test_missing_column_is_an_error():
    with pytest.raises(HistoryFormatError, match="header"):
        load_release_history("project,version,bugs_fixed\ng:a,1.0,3\n")


HISTORY_ERRORS = {
    "empty file": ("", "history file is empty (missing header)"),
    # A blank line is skipped but still counted.
    "blank line": ("project,version,timestamp,bugs_fixed\n\ng:a,1,x,1\n",
                   "line 3: timestamp must be an integer, got 'x'"),
    "short row": ("project,version,timestamp,bugs_fixed\ng:a,1,100\n", "line 2: expected 4 columns, got 3"),
    # A quoted cell spanning two lines: the error names the physical line.
    "after a two-line cell": ('project,version,timestamp,bugs_fixed\ng:a,"x\ny",1,1\ng:b,2,x,1\n',
                              "line 4: timestamp must be an integer, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(HISTORY_ERRORS))
def test_malformed_history_is_refused_with_its_reason(case):
    text, reason = HISTORY_ERRORS[case]
    with pytest.raises(HistoryFormatError) as excinfo:
        load_release_history(text)
    assert str(excinfo.value) == reason


# --------------------------------------------------------------------------
# count_loc


def test_count_loc_empty_directory(tmp_path):
    assert count_loc(tmp_path, {".java"}) == 0


def test_count_loc_counts_newline_terminated_lines(tmp_path):
    (tmp_path / "A.java").write_text("a\nb\nc\n")
    assert count_loc(tmp_path, {".java"}) == 3


def test_count_loc_counts_trailing_unterminated_segment(tmp_path):
    (tmp_path / "A.java").write_text("a\nb")
    assert count_loc(tmp_path, {".java"}) == 2


def test_count_loc_filters_by_extension(tmp_path):
    (tmp_path / "A.java").write_text("x\ny\n")
    (tmp_path / "README.md").write_text("\n".join(str(i) for i in range(50)) + "\n")
    assert count_loc(tmp_path, {".java"}) == 2


def test_count_loc_recurses(tmp_path):
    nested = tmp_path / "x" / "y"
    nested.mkdir(parents=True)
    (nested / "B.java").write_text("1\n")
    assert count_loc(tmp_path, {".java"}) == 1


def test_count_loc_unreadable_file_warns_and_counts_zero(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("a\nb\n")
    (tmp_path / "B.java").write_text("c\n")

    real_read = ingest._read

    def flaky(path):
        if Path(path).name == "B.java":
            raise OSError("simulated i/o failure")
        return real_read(path)

    monkeypatch.setattr(ingest, "_read", flaky)
    warnings: list[str] = []
    assert count_loc(tmp_path, {".java"}, warnings) == 2
    assert len(warnings) == 1 and "B.java" in warnings[0]


def test_read_returns_what_a_file_grew_by_since_fstat(tmp_path, monkeypatch):
    path = tmp_path / "grown.java"
    content = b"line\n" * ingest._READ_CHUNK
    path.write_bytes(content)
    # fstat reports one byte, as if the file grew after it was taken.
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=1))
    assert ingest._read(str(path)) == content


def test_count_loc_skips_a_directory_it_cannot_list_with_a_warning(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("a\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "B.java").write_text("b\n")
    for denied, loc in ((tmp_path / "sub", 1), (tmp_path, 0)):  # src_root itself last
        deny_listing(monkeypatch, denied)
        warnings: list[str] = []
        assert count_loc(tmp_path, {".java"}, warnings) == loc
        assert warnings == [f"unreadable directory skipped: {denied} ([Errno 13] Permission denied: '{denied}')"]


def test_count_loc_additive_over_disjoint_extensions(tmp_path):
    (tmp_path / "A.java").write_text("a\nb\n")
    (tmp_path / "B.kt").write_text("c\n")
    (tmp_path / "C.scala").write_text("d\ne\nf\n")
    both = count_loc(tmp_path, {".java", ".kt"})
    assert both == count_loc(tmp_path, {".java"}) + count_loc(tmp_path, {".kt"})
    assert count_loc(tmp_path, {".java", ".kt", ".scala"}) == both + 3


# --------------------------------------------------------------------------
# load_corpus


def test_empty_root_is_an_empty_corpus(tmp_path):
    corpus = load_corpus(tmp_path, [])
    assert corpus.facts == {}
    assert corpus.failed == {}


def test_failed_release_is_recorded_not_fatal(tmp_path):
    key = "org.fixture:p"
    for i, version in enumerate(["1.0", "2.0"]):
        write_release(tmp_path, make_snapshot("p", version=version, timestamp=100 * (i + 1)))
    write_failed_release(tmp_path, key, "3.0")

    corpus = load_corpus(tmp_path, [])
    assert [s.version_label for s in corpus.facts[coord("p")]] == ["1.0", "2.0"]
    failures = corpus.failed[coord("p")]
    assert len(failures) == 1 and failures[0].version_label == "3.0"
    assert any("3.0" in w for w in corpus.warnings)


def test_bugs_joined_from_history(tmp_path):
    write_release(tmp_path, make_snapshot("p", version="1.0", timestamp=100))
    history = load_release_history("project,version,timestamp,bugs_fixed\norg.fixture:p,1.0,100,7\n")
    corpus = load_corpus(tmp_path, history)
    assert corpus.facts[coord("p")][0].bugs_fixed == 7
    assert corpus.warnings == []


def test_missing_history_row_defaults_to_zero_with_warning(tmp_path):
    write_release(tmp_path, make_snapshot("p", version="1.0", timestamp=100))
    corpus = load_corpus(tmp_path, [])
    assert corpus.facts[coord("p")][0].bugs_fixed == 0
    assert any("no history row" in w for w in corpus.warnings)


def test_orphan_history_row_warns(tmp_path):
    # Orphans warn in history order, not key order; the matched row is silent.
    # Walking org.fixture:p must not consume its row for the absent 9.9.
    write_release(tmp_path, make_snapshot("p", version="1.0", timestamp=100))
    history = [
        ReleaseHistoryRow("org.fixture:p", "9.9", 900, 5),
        ReleaseHistoryRow("org.fixture:p", "1.0", 100, 1),
        ReleaseHistoryRow("a:a", "0.1", 10, 0),
    ]
    corpus = load_corpus(tmp_path, history)
    assert corpus.warnings == [
        "orphan history row: org.fixture:p,9.9,900,5 matches no release directory",
        "orphan history row: a:a,0.1,10,0 matches no release directory",
    ]


def test_history_row_of_a_skipped_directory_is_an_orphan(tmp_path):
    # A name is a project key when it splits at its first colon into a
    # coordinate that keeps the coordinate rule.
    for index, key in enumerate(["stray", ":lib03", "a b:c", "a:"]):
        root = tmp_path / str(index)
        write_release(root, make_snapshot("lib03", version="1.0", timestamp=100))
        os.rename(root / "org.fixture:lib03", root / key)
        corpus = load_corpus(root, [ReleaseHistoryRow(key, "1.0", 100, 1)])
        assert (corpus.facts, corpus.failed) == ({}, {})
        assert corpus.warnings == [
            f"skipping directory {key!r}: name is not a group:artifact key",
            f"orphan history row: {key},1.0,100,1 matches no release directory",
        ]


def test_a_project_directory_name_that_is_not_utf8_is_skipped(tmp_path):
    write_release(tmp_path, make_snapshot("p", version="1.0", timestamp=100))
    os.rename(os.fsencode(tmp_path / "org.fixture:p"), os.fsencode(tmp_path) + b"/org.fixture:\xff")
    corpus = load_corpus(tmp_path, [ReleaseHistoryRow("org.fixture:p", "1.0", 100, 1)])
    assert (corpus.facts, corpus.failed) == ({}, {})
    assert corpus.warnings == [
        "skipping directory 'org.fixture:\\xff': name is not valid UTF-8",
        "orphan history row: org.fixture:p,1.0,100,1 matches no release directory",
    ]


def test_a_release_directory_name_that_is_not_utf8_is_a_failed_release(tmp_path):
    write_release(tmp_path, make_snapshot("p", version="1.0", timestamp=100))
    project = os.fsencode(tmp_path / "org.fixture:p")
    os.rename(project + b"/1.0", project + b"/1.\xff")
    corpus = load_corpus(tmp_path, None)
    assert corpus.failed == {coord("p"): [FailedRelease("1.\\xff", "release directory name is not valid UTF-8")]}
    assert corpus.warnings == ["failed release org.fixture:p/1.\\xff: release directory name is not valid UTF-8"]


def test_failed_release_with_a_history_row_is_not_an_orphan(tmp_path):
    release_dir = write_failed_release(tmp_path, "org.fixture:p", "1.0")
    (release_dir / "snapshot.json").write_text("{bad")
    corpus = load_corpus(tmp_path, [ReleaseHistoryRow("org.fixture:p", "1.0", 100, 1)])
    [failure] = corpus.failed[coord("p")]
    assert corpus.warnings == [f"failed release org.fixture:p/1.0: {failure.reason}"]


def test_releases_sorted_by_timestamp_then_version(tmp_path):
    # Created out of order on purpose; label "b" breaks the timestamp tie.
    write_release(tmp_path, make_snapshot("p", version="b", timestamp=100))
    write_release(tmp_path, make_snapshot("p", version="a", timestamp=100))
    write_release(tmp_path, make_snapshot("p", version="z", timestamp=50))
    corpus = load_corpus(tmp_path, [])
    assert [s.version_label for s in corpus.facts[coord("p")]] == ["z", "a", "b"]


def test_coordinate_mismatch_is_a_failed_release(tmp_path):
    release_dir = tmp_path / "org.fixture:p" / "1.0"
    release_dir.mkdir(parents=True)
    (release_dir / "snapshot.json").write_text(encode_snapshot(make_snapshot("other")))
    corpus = load_corpus(tmp_path, [])
    assert corpus.facts[coord("p")] == []
    assert len(corpus.failed[coord("p")]) == 1


def test_malformed_snapshot_is_a_failed_release(tmp_path):
    release_dir = tmp_path / "org.fixture:p" / "1.0"
    release_dir.mkdir(parents=True)
    (release_dir / "snapshot.json").write_text("{broken")
    corpus = load_corpus(tmp_path, [])
    assert len(corpus.failed[coord("p")]) == 1


def test_snapshot_json_invariant_violation_fails_with_parse_reason(tmp_path):
    # Schema-valid JSON whose extra manifest is neither the project nor a
    # declared submodule: parse_snapshot_json's own validation names it.
    snapshot = make_snapshot("p", version="1.0", manifests=[make_manifest("p"), make_manifest("stray")])
    write_release(tmp_path, snapshot)
    corpus = load_corpus(tmp_path, [])
    assert corpus.facts[coord("p")] == []
    reason = ("snapshot violates invariants: manifests[1].coordinate: org.fixture:stray"
              " is neither the project coordinate nor a declared submodule")
    assert corpus.failed[coord("p")] == [FailedRelease("1.0", reason)]
    assert corpus.warnings == [f"failed release org.fixture:p/1.0: {reason}"]


def test_pom_invariant_violation_is_a_failed_release(tmp_path):
    release_dir = tmp_path / "g:a" / "1.0"
    module_dir = release_dir / "core"
    module_dir.mkdir(parents=True)
    (release_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version></project>"
    )
    (module_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>core</artifactId><version>1.0</version></project>"
    )
    corpus = load_corpus(tmp_path, [ReleaseHistoryRow("g:a", "1.0", 100, 1)])
    assert corpus.facts[ProjectCoordinate("g", "a")] == []
    reason = ("snapshot violates invariants: manifests[1].coordinate: g:core"
              " is neither the project coordinate nor a declared submodule")
    assert corpus.failed[ProjectCoordinate("g", "a")] == [FailedRelease("1.0", reason)]


def test_pom_release_is_checked_before_its_project_directory(tmp_path):
    # Declares g:a under g:b and holds a stray module POM: the snapshot rule
    # is reported, as for a snapshot.json release, not the directory mismatch.
    release_dir = tmp_path / "g:b" / "1.0"
    (release_dir / "core").mkdir(parents=True)
    (release_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version></project>"
    )
    (release_dir / "core" / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>core</artifactId><version>1.0</version></project>"
    )
    corpus = load_corpus(tmp_path, None)
    reason = ("snapshot violates invariants: manifests[1].coordinate: g:core"
              " is neither the project coordinate nor a declared submodule")
    assert corpus.failed[ProjectCoordinate("g", "b")] == [FailedRelease("1.0", reason)]


def _pom(version, artifact):
    return (f"<project><groupId>g</groupId><artifactId>a</artifactId><version>{version}</version>"
            f"<dependencies><dependency><groupId>x</groupId><artifactId>{artifact}</artifactId>"
            "</dependency></dependencies></project>")


def test_every_release_that_breaks_a_rule_fails_with_the_full_check(tmp_path):
    # Each bad value repeats in two releases, which must both fail.
    bad_dependency = DependencyDecl(ProjectCoordinate("org.dep", "l ib"))
    bad_usage = UsageRecord(frozenset({ProjectCoordinate("u", "a b")}))
    for version in ("1.0", "2.0"):
        write_release(tmp_path, make_snapshot("p", [bad_dependency], version=version, usage=bad_usage))
        write_release(tmp_path, make_snapshot("q", version=version, manifests=[make_manifest("q", submodules=["q"])]))
        (tmp_path / "g:a" / version).mkdir(parents=True)
        (tmp_path / "g:a" / version / "pom.xml").write_text(_pom(version, "y z"))
    write_release(tmp_path, make_snapshot("p", [DependencyDecl(ProjectCoordinate("org.dep", "lib"))], version="3.0"))
    write_release(tmp_path, make_snapshot("p", version="4.0"))
    for version in ("3.0", "4.0"):
        (tmp_path / "g:a" / version).mkdir(parents=True)
        (tmp_path / "g:a" / version / "pom.xml").write_text(_pom(version, "y"))
    # Hand-made history rows the snapshot rules refuse.
    history = [ReleaseHistoryRow("org.fixture:p", "4.0", 100, -1), ReleaseHistoryRow("g:a", "3.0", 100, -1),
               ReleaseHistoryRow("g:a", "4.0", "100", 1)]

    corpus = load_corpus(tmp_path, history)
    dependency = "manifests[0].dependencies[0].target.artifact: must not contain whitespace"
    assert corpus.failed == {
        coord("p"): [
            FailedRelease(version, f"snapshot violates invariants: {dependency}; usage[u:a b].artifact: must not"
                                   " contain whitespace") for version in ("1.0", "2.0")
        ] + [FailedRelease("4.0", "snapshot violates invariants: bugs_fixed: must be a non-negative integer")],
        coord("q"): [
            FailedRelease(version, "snapshot violates invariants: manifests[0].submodule_coordinates:"
                                   " manifest lists itself as a submodule") for version in ("1.0", "2.0")
        ],
        ProjectCoordinate("g", "a"): [
            FailedRelease("1.0", f"snapshot violates invariants: {dependency}"),
            FailedRelease("2.0", f"snapshot violates invariants: {dependency}"),
            FailedRelease("3.0", "snapshot violates invariants: bugs_fixed: must be a non-negative integer"),
            FailedRelease("4.0", "snapshot violates invariants: timestamp: must be an integer (UTC seconds)"),
        ],
    }
    assert [release.version_label for release in corpus.facts[coord("p")]] == ["3.0"]


def test_every_decoded_release_is_checked_once(tmp_path, monkeypatch):
    accepted, checked = [], []

    def recording(decoder):
        def fast(raw, coordinate, version_label, *rest):
            release = decoder(raw, coordinate, version_label, *rest)
            if release is not None:
                accepted.append((coordinate, version_label))
            return release

        return fast

    def counted(snapshot):
        checked.append((snapshot.coordinate, snapshot.version_label))
        return validate_snapshot(snapshot)

    monkeypatch.setattr(ingest, "_json_facts", recording(ingest._json_facts))
    monkeypatch.setattr(ingest, "_pom_facts", recording(ingest._pom_facts))
    monkeypatch.setattr(records, "validate_snapshot", counted)
    # Decoded and clean: two snapshot.json and two pom releases.
    for version in ("1.0", "2.0"):
        write_release(tmp_path, make_snapshot("p", version=version))
        (tmp_path / "g:a" / version).mkdir(parents=True)
        (tmp_path / "g:a" / version / "pom.xml").write_text(_pom(version, "y"))
    # Decoded, then refused by the snapshot rules: one of each kind.
    write_release(tmp_path, make_snapshot("p", version="3.0", manifests=[make_manifest("p", submodules=["p"])]))
    (tmp_path / "g:a" / "3.0").mkdir()
    (tmp_path / "g:a" / "3.0" / "pom.xml").write_text(_pom("3.0", "y z"))
    # Never decoded: bad JSON, bad XML, no manifest at all.
    (tmp_path / "org.fixture:p" / "4.0").mkdir()
    (tmp_path / "org.fixture:p" / "4.0" / "snapshot.json").write_text("{")
    (tmp_path / "g:a" / "4.0").mkdir()
    (tmp_path / "g:a" / "4.0" / "pom.xml").write_text("<project>")
    (tmp_path / "g:a" / "5.0").mkdir()

    corpus = load_corpus(tmp_path, None)
    assert [len(releases) for releases in corpus.facts.values()] == [2, 2]
    assert [len(failures) for failures in corpus.failed.values()] == [3, 2]
    # A clean release of either format is judged by its fast decoder alone,
    # and never reaches the snapshot rules; a refused one reaches them once.
    assert sorted(accepted) == [(project, version) for project in (ProjectCoordinate("g", "a"), coord("p"))
                                for version in ("1.0", "2.0")]
    assert sorted(checked) == [(ProjectCoordinate("g", "a"), "3.0"), (coord("p"), "3.0")]


def test_pom_release_with_sidecar_files(tmp_path):
    release_dir = tmp_path / "g:a" / "1.0"
    module_dir = release_dir / "core"
    module_dir.mkdir(parents=True)
    (release_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version>"
        "<modules><module>core</module></modules></project>"
    )
    (module_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>core</artifactId><version>1.0</version>"
        "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
        "</dependency></dependencies></project>"
    )
    (release_dir / "api_surface.json").write_text('{"A.f()V": ["A.g()V"]}')
    (release_dir / "usage.json").write_text('[{"group": "x", "artifact": "y"}]')
    src = release_dir / "src"
    src.mkdir()
    (src / "A.java").write_text("a\nb\n")

    history = [ReleaseHistoryRow("g:a", "1.0", 1234, 9)]
    corpus = load_corpus(tmp_path, history)
    assert corpus.failed[ProjectCoordinate("g", "a")] == []
    [release] = corpus.facts[ProjectCoordinate("g", "a")]
    assert release.version_label == "1.0"
    assert release.timestamp == 1234
    assert release.bugs_fixed == 9
    assert release.loc == 2
    # The module manifest's dependency is an edge of the release.
    assert release.targets == frozenset({ProjectCoordinate("x", "y")})
    assert release.rfc == 2
    assert release.lcom1 == 0


def test_directory_named_pom_xml_is_not_a_manifest(tmp_path):
    release_dir = tmp_path / "g:a" / "1.0"
    (release_dir / "sub" / "pom.xml").mkdir(parents=True)
    (release_dir / "pom.xml").write_text(
        "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version></project>"
    )
    corpus = load_corpus(tmp_path, None)
    assert corpus.failed[ProjectCoordinate("g", "a")] == []
    [release] = corpus.facts[ProjectCoordinate("g", "a")]
    assert release.targets == frozenset()


def test_release_with_only_a_pom_xml_directory_fails(tmp_path):
    (tmp_path / "g:a" / "1.0" / "pom.xml").mkdir(parents=True)
    corpus = load_corpus(tmp_path, None)
    assert corpus.facts[ProjectCoordinate("g", "a")] == []
    assert corpus.failed[ProjectCoordinate("g", "a")] == [FailedRelease("1.0", "no snapshot.json or pom.xml")]


def test_non_key_directory_is_skipped_with_warning(tmp_path):
    (tmp_path / "stray").mkdir()
    corpus = load_corpus(tmp_path, [])
    assert corpus.facts == {}
    assert any("stray" in w for w in corpus.warnings)


def test_load_is_the_concatenation_of_per_project_loads(tmp_path):
    root = tmp_path / "corpus"
    history = [ReleaseHistoryRow(*row) for row in write_messy_corpus(root)]
    rows_of: dict[str, dict[str, ReleaseHistoryRow]] = {}
    for row in history:
        rows_of.setdefault(row.project_key, {})[row.version_label] = row
    shared = SharedValues()
    pom, proj = ((coordinate, *ingest._load_project(project_dir, coordinate, rows_of.get(project_dir.name, {}),
                                                    tuple(DEFAULT_LOC_EXTENSIONS), DEFAULT_SCOPE_FILTER, shared))
                 for project_dir in ingest._subdirs(root) if project_dir.name != "m-stray"
                 for coordinate in [ProjectCoordinate.from_key(project_dir.name)])

    assert (pom[0], proj[0]) == (ProjectCoordinate("g", "pom"), coord("proj"))
    assert [len(part[1]) for part in (pom, proj)] == [1, 12]
    assert [failure.version_label for part in (pom, proj) for failure in part[2]] == ["2.0", "broken"]
    assert "no history row for org.fixture:proj/05.0; bugs_fixed defaults to 0" in proj[3]
    assert (pom[4], proj[4]) == ({}, {"99.0": rows_of["org.fixture:proj"]["99.0"]})

    corpus = load_corpus(root, history)
    assert corpus.facts == {pom[0]: pom[1], proj[0]: proj[1]}
    assert corpus.failed == {pom[0]: pom[2], proj[0]: proj[2]}
    orphans = [
        "orphan history row: org.gone:x,1.0,10,0 matches no release directory",
        "orphan history row: m-stray,1.0,100,1 matches no release directory",
        "orphan history row: org.fixture:proj,99.0,9900,4 matches no release directory",
    ]
    assert corpus.warnings == pom[3] + ["skipping directory 'm-stray': name is not a group:artifact key"] + proj[3] + orphans

    # Each project's part is what a root holding only that project loads.
    for part in (pom, proj):
        alone = tmp_path / part[0].key()
        shutil.copytree(root / part[0].key(), alone / part[0].key())
        single = load_corpus(alone, history)
        assert (single.facts, single.failed) == ({part[0]: part[1]}, {part[0]: part[2]})
        assert [w for w in single.warnings if not w.startswith("orphan history row: ")] == part[3]


def test_corpus_root_must_exist(tmp_path):
    from icmetrics.ingest import CorpusError

    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing", [])


# --------------------------------------------------------------------------
# never-crash ingest

ROOT_POM = (
    "<project><groupId>g</groupId><artifactId>a</artifactId><version>1.0</version>"
    "<modules><module>core</module></modules></project>"
)
CORE_POM = (
    "<project><groupId>g</groupId><artifactId>core</artifactId><version>1.0</version>"
    "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
    "</dependency></dependencies></project>"
)


def _write_release_files(corpus_root, files):
    """Write release g:a/1.0; ``files`` maps relative paths to bytes."""
    release_dir = corpus_root / "g:a" / "1.0"
    for relative, data in files.items():
        path = release_dir / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return release_dir


def _snapshot_doc(**manifest_fields):
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc["manifests"][0].update(manifest_fields)
    return json.dumps(doc).encode()


def _snapshot_with(**fields):
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc.update(fields)
    return json.dumps(doc).encode()


_MANIFEST = json.loads(MINIMAL_SNAPSHOT)["manifests"][0]
_DEPENDENCY = {"group": "x", "artifact": "y", "version": "1", "scope": "compile"}
_POM_FILES = {"pom.xml": ROOT_POM.encode(), "core/pom.xml": CORE_POM.encode()}

# The third method is the first bad one: a callee list that is not a list
# of strings, with a hashable or an unhashable wrong item.
_BAD_CALLEES = {"an int callee": ["p.C()V", 3], "a list callee": ["p.C()V", ["p.D()V"]],
                "a string": "p.C()V", "null": None}


@pytest.mark.parametrize("callees", list(_BAD_CALLEES.values()), ids=list(_BAD_CALLEES))
def test_surface_fails_at_its_first_bad_method(tmp_path, callees):
    surface = {"p.A()V": ["p.B()V"], "p.B()V": [], "p.C()V": callees, "p.D()V": [1]}
    doc = json.loads(MINIMAL_SNAPSHOT)
    doc["api_surface"] = surface
    with pytest.raises(SnapshotFormatError) as excinfo:
        parse_snapshot_json(json.dumps(doc))
    assert str(excinfo.value) == ".api_surface['p.C()V']: must be an array of strings"

    _write_release_files(tmp_path / "json", {"snapshot.json": json.dumps(doc).encode()})
    _write_release_files(tmp_path / "pom", {**_POM_FILES, "api_surface.json": json.dumps(surface).encode()})
    for root, reason in (("json", str(excinfo.value)), ("pom", "api_surface.json['p.C()V']: must be an array of strings")):
        corpus = load_corpus(tmp_path / root, None)
        assert corpus.failed[ProjectCoordinate("g", "a")] == [FailedRelease("1.0", reason)]


CRASH_CASES = {
    "usage.json is an object": (
        {**_POM_FILES, "usage.json": b'{"group": "x", "artifact": "y"}'},
        "usage.json: must be an array or null",
    ),
    "usage.json item lacks artifact": (
        {**_POM_FILES, "usage.json": b'[{"group": "x"}]'},
        "usage.json[0].artifact: must be a non-empty string",
    ),
    "api_surface.json is a list": (
        {**_POM_FILES, "api_surface.json": b'[["A.g()V"]]'},
        "api_surface.json: must be an object or null",
    ),
    "api_surface.json callees are an int": (
        {**_POM_FILES, "api_surface.json": b'{"A.f()V": 3}'},
        "api_surface.json['A.f()V']: must be an array of strings",
    ),
    "dependencies is null": (
        {"snapshot.json": _snapshot_doc(dependencies=None)},
        ".manifests[0].dependencies: must be an array",
    ),
    "dependencies is an int": (
        {"snapshot.json": _snapshot_doc(dependencies=7)},
        ".manifests[0].dependencies: must be an array",
    ),
    "submodules is null": (
        {"snapshot.json": _snapshot_doc(submodules=None)},
        ".manifests[0].submodules: must be an array",
    ),
    "submodules is an int": (
        {"snapshot.json": _snapshot_doc(submodules=7)},
        ".manifests[0].submodules: must be an array",
    ),
    "snapshot.json is not UTF-8": (
        {"snapshot.json": MINIMAL_SNAPSHOT.replace('"1.0"', '"1.\xe9"', 1).encode("latin-1")},
        ".: invalid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position",
    ),
    "snapshot.json nests too deep to decode": (
        {"snapshot.json": b"[" * 100_000},
        ".: invalid JSON: maximum recursion depth exceeded",
    ),
    "snapshot.json is not JSON": (
        {"snapshot.json": b"{"},
        ".: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "api_surface.json is not JSON": (
        {**_POM_FILES, "api_surface.json": b"{"},
        "api_surface.json: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "usage.json is not JSON": (
        {**_POM_FILES, "usage.json": b"{"},
        "usage.json: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "usage.json nests too deep to decode": (
        {**_POM_FILES, "usage.json": b"[" * 100_000},
        "usage.json: invalid JSON: maximum recursion depth exceeded",
    ),
    "usage.json item is not an object": (
        {**_POM_FILES, "usage.json": b'[{"group": "x", "artifact": "y"}, 7]'},
        "usage.json[1]: must be an object",
    ),
    "project is a string": (
        {"snapshot.json": _snapshot_with(project="g:a")},
        ".project: must be an object",
    ),
    "project group is empty": (
        {"snapshot.json": _snapshot_with(project={"group": "", "artifact": "a"})},
        ".project.group: must be a non-empty string",
    ),
    "project artifact is an int": (
        {"snapshot.json": _snapshot_with(project={"group": "g", "artifact": 3})},
        ".project.artifact: must be a non-empty string",
    ),
    "manifest is a list": (
        {"snapshot.json": _snapshot_with(manifests=[_MANIFEST, ["g", "b"]])},
        ".manifests[1]: must be an object",
    ),
    "manifest lacks group": (
        {"snapshot.json": _snapshot_with(manifests=[_MANIFEST, {"artifact": "b", "version": "1"}])},
        ".manifests[1].group: must be a non-empty string",
    ),
    "manifest artifact is empty": (
        {"snapshot.json": _snapshot_with(manifests=[_MANIFEST, {"group": "g", "artifact": "", "version": "1"}])},
        ".manifests[1].artifact: must be a non-empty string",
    ),
    "dependency is a string": (
        {"snapshot.json": _snapshot_doc(dependencies=[_DEPENDENCY, "x:y"])},
        ".manifests[0].dependencies[1]: must be an object",
    ),
    "dependency group is an int": (
        {"snapshot.json": _snapshot_doc(dependencies=[_DEPENDENCY, {**_DEPENDENCY, "group": 1}])},
        ".manifests[0].dependencies[1].group: must be a non-empty string",
    ),
    "dependency artifact is null": (
        {"snapshot.json": _snapshot_doc(dependencies=[_DEPENDENCY, {**_DEPENDENCY, "artifact": None}])},
        ".manifests[0].dependencies[1].artifact: must be a non-empty string",
    ),
    "dependency version is a float": (
        {"snapshot.json": _snapshot_doc(dependencies=[_DEPENDENCY, {**_DEPENDENCY, "version": 1.5}])},
        ".manifests[0].dependencies[1].version: must be a string or null",
    ),
    "dependency scope is a list": (
        {"snapshot.json": _snapshot_doc(dependencies=[_DEPENDENCY, {**_DEPENDENCY, "scope": ["test"]}])},
        ".manifests[0].dependencies[1].scope: must be a string or null",
    ),
    "dependency version and scope are both wrong": (
        {"snapshot.json": _snapshot_doc(dependencies=[{**_DEPENDENCY, "version": 1, "scope": 2}])},
        ".manifests[0].dependencies[0].version: must be a string or null",
    ),
    "dependency group and version are both wrong": (
        {"snapshot.json": _snapshot_doc(dependencies=[{**_DEPENDENCY, "group": "", "version": 1}])},
        ".manifests[0].dependencies[0].group: must be a non-empty string",
    ),
    "submodule lacks artifact": (
        {"snapshot.json": _snapshot_doc(submodules=[{"group": "g", "artifact": "s"}, {"group": "g"}])},
        ".manifests[0].submodules[1].artifact: must be a non-empty string",
    ),
    "usage item lacks group": (
        {"snapshot.json": _snapshot_with(usage=[{"group": "x", "artifact": "y"}, {"artifact": "z"}])},
        ".usage[1].group: must be a non-empty string",
    ),
    "usage item is an int": (
        {"snapshot.json": _snapshot_with(usage=[7])},
        ".usage[0]: must be an object",
    ),
    "loc is too large for a float": (
        {"snapshot.json": _snapshot_with(loc=2**1024 - 2**970)},
        ".loc: must convert to a float (below about 1.8e308)",
    ),
    "loc has more digits than int() reads": (
        {"snapshot.json": MINIMAL_SNAPSHOT.replace('"loc": null', '"loc": ' + "9" * 5000).encode()},
        ".: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "usage.json holds more digits than int() reads": (
        {**_POM_FILES, "usage.json": b"[" + b"9" * 5000 + b"]"},
        "usage.json: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "bugs_fixed is too large for a float": (
        {"snapshot.json": _snapshot_with(bugs_fixed=2**1100)},
        ".bugs_fixed: must convert to a float (below about 1.8e308)",
    ),
    "manifest version is an int": (
        {"snapshot.json": _snapshot_doc(version=1)},
        ".manifests[0].version: must be a string",
    ),
    "version is empty": (
        {"snapshot.json": _snapshot_with(version="")},
        ".version: must be a non-empty string",
    ),
    "timestamp is a string": (
        {"snapshot.json": _snapshot_with(timestamp="1")},
        ".timestamp: must be an integer",
    ),
    "timestamp is a boolean": (
        {"snapshot.json": _snapshot_with(timestamp=True)},
        ".timestamp: must be an integer",
    ),
    "pom dependency lacks artifactId": (
        {**_POM_FILES, "core/pom.xml": CORE_POM.replace("<artifactId>y</artifactId>", "").encode()},
        "incomplete coordinates: dependency #0 lacks groupId or artifactId",
    ),
}


@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_malformed_release_file_is_a_failed_release(tmp_path, case):
    files, reason = CRASH_CASES[case]
    _write_release_files(tmp_path, files)
    corpus = load_corpus(tmp_path, None)
    assert corpus.facts[ProjectCoordinate("g", "a")] == []
    [failure] = corpus.failed[ProjectCoordinate("g", "a")]
    assert failure.version_label == "1.0"
    # A decoder's own message, after "invalid JSON: " or "invalid UTF-8: ",
    # is worded by the interpreter and is checked only as far as given.
    if "invalid JSON: " in reason or "invalid UTF-8: " in reason:
        assert failure.reason.startswith(reason)
    else:
        assert failure.reason == reason
    assert corpus.warnings == [f"failed release g:a/1.0: {failure.reason}"]


def test_pom_in_declared_latin1_parses(tmp_path):
    pom = CORE_POM.replace("<artifactId>y</artifactId>", "<artifactId>caf\xe9</artifactId>")
    _write_release_files(tmp_path, {
        "pom.xml": ROOT_POM.encode(),
        "core/pom.xml": ('<?xml version="1.0" encoding="ISO-8859-1"?>\n' + pom).encode("latin-1"),
    })
    corpus = load_corpus(tmp_path, None)
    assert corpus.failed[ProjectCoordinate("g", "a")] == []
    [release] = corpus.facts[ProjectCoordinate("g", "a")]
    assert release.targets == frozenset({ProjectCoordinate("x", "caf\xe9")})


_CLEAN_POM_FILES = {
    "pom.xml": "<project><groupId>g</groupId><artifactId>a</artifactId><version>1</version>"
               "<modules><module>core</module></modules></project>",
    "core/pom.xml": "<project><parent><groupId>g</groupId><artifactId>a</artifactId><version>1</version></parent>"
                    "<artifactId>core</artifactId><dependencies><dependency><groupId>x</groupId>"
                    "<artifactId>y</artifactId></dependency></dependencies></project>",
}
# One fault of each kind a pom.xml release can have, in the order in which
# they name its failure, each as the files it writes over _CLEAN_POM_FILES
# and its reason alone: a manifest that does not decode, a sidecar that
# breaks its schema, a manifest no manifest declares (a snapshot rule), and
# a root that names another project than its directory, which its module
# declares, so that no snapshot rule breaks.
_POM_FAULTS = {
    "decoder": ({"bad/pom.xml": "<project><groupId>g</groupId><artifactId>${missing}</artifactId>"
                                "<version>1</version></project>"},
                "unresolved property: 'missing'"),
    "sidecar": ({"api_surface.json": "[]"}, "api_surface.json: must be an object or null"),
    "rule": ({"zz/pom.xml": "<project><groupId>g</groupId><artifactId>zz</artifactId><version>1</version></project>"},
             "snapshot violates invariants: manifests[2].coordinate: g:zz is neither the project coordinate"
             " nor a declared submodule"),
    "directory": ({"pom.xml": _CLEAN_POM_FILES["pom.xml"].replace(">a<", ">b<"),
                   "core/pom.xml": _CLEAN_POM_FILES["core/pom.xml"].replace(
                       "<dependencies>", "<modules><module>b</module></modules><dependencies>")},
                  "manifest coordinate g:b does not match project directory g:a"),
}
_FAULT_SETS = [faults for size in range(1, len(_POM_FAULTS) + 1)
               for faults in itertools.combinations(_POM_FAULTS, size)]


@pytest.mark.parametrize("faults", _FAULT_SETS, ids=["+".join(faults) for faults in _FAULT_SETS])
def test_a_pom_release_with_several_faults_fails_with_the_first(tmp_path, faults):
    # A decoder error beats a sidecar schema error, which beats a snapshot
    # rule, which beats the project directory: one reason per release.
    files = dict(_CLEAN_POM_FILES)
    for fault in faults:
        files.update(_POM_FAULTS[fault][0])
    _write_release_files(tmp_path, {name: text.encode() for name, text in files.items()})
    corpus = load_corpus(tmp_path, None)
    reason = _POM_FAULTS[faults[0]][1]
    assert corpus.facts[ProjectCoordinate("g", "a")] == []
    assert corpus.failed[ProjectCoordinate("g", "a")] == [FailedRelease("1.0", reason)]
    assert corpus.warnings == [f"failed release g:a/1.0: {reason}"]


# The fuzz corpus: g:a/1.0 from POMs with sidecars and src/, g:a/2.0 and
# g:b/1.0 from snapshot.json.
_FUZZ_FILES = {
    ("g:a", "1.0", "pom.xml"): ROOT_POM.encode(),
    ("g:a", "1.0", "core/pom.xml"): CORE_POM.encode(),
    ("g:a", "1.0", "api_surface.json"): b'{"A.f()V": ["A.g()V"], "A.g()V": []}',
    ("g:a", "1.0", "usage.json"): b'[{"group": "x", "artifact": "y"}]',
    ("g:a", "1.0", "src/A.java"): b"a\nb",
    ("g:a", "2.0", "snapshot.json"): MINIMAL_SNAPSHOT.replace('"1.0"', '"2.0"').encode(),
    ("g:b", "1.0", "snapshot.json"): MINIMAL_SNAPSHOT.replace('"artifact": "a"', '"artifact": "b"').encode(),
}
_HISTORY = [ReleaseHistoryRow(project, version, 100, 1)
            for project, version in sorted({(p, v) for p, v, _ in _FUZZ_FILES})]

_json_shapes = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["group", "artifact", "version", "timestamp", "manifests", "dependencies",
                         "submodules", "api_surface", "usage", "loc", "project", "A.f()V"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=12,
)


def _outcomes(corpus):
    """(project key, version) -> the parsed release's facts or the FailedRelease."""
    outcomes = {}
    for coordinate, snapshots in corpus.facts.items():
        outcomes.update(((coordinate.key(), s.version_label), s) for s in snapshots)
    for coordinate, failures in corpus.failed.items():
        for failure in failures:
            assert (coordinate.key(), failure.version_label) not in outcomes
            outcomes[(coordinate.key(), failure.version_label)] = failure
    return outcomes


@settings(max_examples=150, deadline=None)
@given(
    target=st.sampled_from(sorted(_FUZZ_FILES)),
    data=st.binary(max_size=300) | _json_shapes.map(lambda value: json.dumps(value).encode()),
)
def test_any_bytes_in_one_file_never_abort_the_load(target, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for (project, version, relative), content in _FUZZ_FILES.items():
            path = root / project / version / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
        before = _outcomes(load_corpus(root, _HISTORY))
        assert all(isinstance(outcome, ReleaseFacts) for outcome in before.values())

        (root / target[0] / target[1] / target[2]).write_bytes(data)
        after = _outcomes(load_corpus(root, _HISTORY))

    assert after.keys() == before.keys()
    changed = (target[0], target[1])
    assert {key: after[key] for key in after if key != changed} == {
        key: before[key] for key in before if key != changed
    }


# --------------------------------------------------------------------------
# the release walk


def _rglob_manifest_paths(release_dir):
    return sorted(release_dir.rglob("pom.xml"), key=lambda p: (len(p.parts), str(p)))


def _rglob_loc(src_root, extensions):
    total = 0
    for path in sorted(src_root.rglob("*")):
        if path.is_file() and any(path.name.endswith(ext) for ext in extensions):
            data = path.read_bytes()
            total += data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)
    return total


def test_release_walk_follows_the_rglob_rules(tmp_path, monkeypatch):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "Other.java").write_text("x\ny\nz\n")
    release_dir = _write_release_files(tmp_path / "corpus", {
        "pom.xml": ROOT_POM.replace("<module>core</module>", "<module>core</module><module>gen</module>").encode(),
        "core/pom.xml": CORE_POM.encode(),
        "src/pom.xml": CORE_POM.replace("core", "gen").encode(),
        "src/main/A.java": b"a\nb\n",
        "src/main/B.java": b"c",
        "src/main/notes.txt": b"not\ncounted\n",
    })
    (release_dir / "linked").symlink_to(release_dir / "core", target_is_directory=True)
    (release_dir / "src" / "alias").symlink_to(release_dir / "src" / "main", target_is_directory=True)
    (release_dir / "src" / "Link.java").symlink_to(outside / "Other.java")
    (release_dir / "src" / "Loop.java").symlink_to(release_dir / "src" / "Loop.java")
    # A symlinked src/ itself is entered, as rglob enters the directory it starts from.
    linked_release = release_dir.parent / "2.0"
    linked_release.mkdir()
    (linked_release / "pom.xml").write_text(ROOT_POM)
    (linked_release / "src").symlink_to(release_dir / "src", target_is_directory=True)

    expected_manifests = [p.relative_to(release_dir).as_posix() for p in _rglob_manifest_paths(release_dir)]
    assert expected_manifests == ["pom.xml", "core/pom.xml", "src/pom.xml"]
    assert _rglob_loc(release_dir / "src", {".java"}) == 6
    assert count_loc(release_dir / "src", {".java"}) == 6

    assert _rglob_loc(linked_release / "src", {".java"}) == 6

    real_read = ingest._read
    manifests_read = []

    def recording(path):
        if path.endswith("pom.xml"):
            manifests_read.append(Path(path).relative_to(tmp_path / "corpus" / "g:a").as_posix())
        return real_read(path)

    monkeypatch.setattr(ingest, "_read", recording)
    corpus = load_corpus(tmp_path / "corpus", None)
    assert corpus.failed[ProjectCoordinate("g", "a")] == []
    assert manifests_read == [f"1.0/{path}" for path in expected_manifests] + ["2.0/pom.xml"]
    release, linked = corpus.facts[ProjectCoordinate("g", "a")]
    assert release.loc == 6
    assert linked.loc == 6


def test_a_release_tree_deeper_than_the_recursion_limit_loads(tmp_path):
    # 1,100 levels, past the default recursion limit of 1,000. os.makedirs
    # and shutil.rmtree recurse, so the chain is made and removed a level at a time.
    release_dir = _write_release_files(tmp_path / "corpus", {"pom.xml": ROOT_POM.encode()})
    chain = [os.path.join(release_dir, "src")]
    os.mkdir(chain[0])
    for _ in range(1100):
        chain.append(os.path.join(chain[-1], "a"))
        os.mkdir(chain[-1])
    deepest = os.path.join(chain[-1], "Deep.java")
    try:
        with open(deepest, "w") as handle:
            handle.write("one\ntwo\nthree")
        corpus = load_corpus(tmp_path / "corpus", None)
        assert corpus.failed[ProjectCoordinate("g", "a")] == []
        [release] = corpus.facts[ProjectCoordinate("g", "a")]
        assert release.loc == 3
        assert count_loc(chain[0]) == 3
    finally:
        os.remove(deepest)
        for directory in reversed(chain):
            os.rmdir(directory)


@pytest.mark.parametrize("denied, loc, targets", [
    ("core", 3, frozenset()),  # core/pom.xml, and with it the dependency x:y, is not found
    ("src/main", 1, frozenset({ProjectCoordinate("x", "y")})),
    ("src", 0, frozenset({ProjectCoordinate("x", "y")})),
])
def test_a_directory_below_a_release_that_cannot_be_listed_is_skipped_with_a_warning(tmp_path, monkeypatch,
                                                                                      denied, loc, targets):
    release_dir = _write_release_files(tmp_path / "corpus", {
        "pom.xml": ROOT_POM.encode(),
        "core/pom.xml": CORE_POM.encode(),
        "src/main/A.java": b"a\nb\n",
        "src/B.java": b"c\n",
    })
    deny_listing(monkeypatch, release_dir / denied)
    corpus = load_corpus(tmp_path / "corpus", None)
    assert corpus.failed[ProjectCoordinate("g", "a")] == []
    [release] = corpus.facts[ProjectCoordinate("g", "a")]
    assert (release.loc, release.targets) == (loc, targets)
    path = release_dir / denied
    assert corpus.warnings == [f"unreadable directory skipped: {path} ([Errno 13] Permission denied: '{path}')"]


def test_a_release_directory_that_cannot_be_listed_is_a_failed_release(tmp_path, monkeypatch):
    release_dir = _write_release_files(tmp_path / "corpus", {"pom.xml": ROOT_POM.encode()})
    deny_listing(monkeypatch, release_dir)
    corpus = load_corpus(tmp_path / "corpus", None)
    reason = f"[Errno 13] Permission denied: '{release_dir}'"
    assert corpus.facts[ProjectCoordinate("g", "a")] == []
    assert corpus.failed[ProjectCoordinate("g", "a")] == [FailedRelease("1.0", reason)]
    assert corpus.warnings == [f"failed release g:a/1.0: {reason}"]


def test_a_project_directory_that_cannot_be_listed_is_skipped_and_its_rows_are_orphans(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    history = [ReleaseHistoryRow(*row) for row in write_messy_corpus(root)]
    deny_listing(monkeypatch, root / "org.fixture:proj")
    corpus = load_corpus(root, history)
    assert list(corpus.facts) == [ProjectCoordinate("g", "pom")]
    reason = f"[Errno 13] Permission denied: '{root / 'org.fixture:proj'}'"
    assert f"skipping directory 'org.fixture:proj': {reason}" in corpus.warnings
    orphans = [warning for warning in corpus.warnings if warning.startswith("orphan history row: org.fixture:proj,")]
    assert len(orphans) == len([row for row in history if row.project_key == "org.fixture:proj"])


# --------------------------------------------------------------------------
# equal values decoded once per load

_SHARED_SURFACE = {"org.fixture.P.run()V": ["org.fixture.P.step()V"], "org.fixture.P.step()V": []}


def _release_with_shared_values(corpus_root, version, timestamp):
    deps = [DependencyDecl(ProjectCoordinate("org.dep", "lib"), "1.0")]
    surface = ApiSurface({m: frozenset(c) for m, c in _SHARED_SURFACE.items()})
    write_release(corpus_root, make_snapshot("p", deps, version=version, timestamp=timestamp, api_surface=surface))


def _surface_entry(snapshot, method):
    """The (key, callees) objects a snapshot's API surface holds for ``method``."""
    return next((key, callees) for key, callees in snapshot.api_surface.methods.items() if key == method)


def _dependency(snapshot):
    return snapshot.manifests[0].declared_dependencies[0].target


def test_one_load_shares_equal_values_across_releases(tmp_path):
    _release_with_shared_values(tmp_path, "1.0", 100)
    _release_with_shared_values(tmp_path, "2.0", 200)
    # A pom release's manifests go through the same tables.
    release_dir = tmp_path / "org.fixture:p" / "3.0"
    release_dir.mkdir()
    (release_dir / "pom.xml").write_text(
        "<project><groupId>org.fixture</groupId><artifactId>p</artifactId><version>3.0</version>"
        "<dependencies><dependency><groupId>org.dep</groupId><artifactId>lib</artifactId></dependency>"
        "<dependency><groupId>org.dep</groupId><artifactId>other</artifactId></dependency>"
        "</dependencies></project>"
    )
    (release_dir / "api_surface.json").write_text(json.dumps(_SHARED_SURFACE))

    corpus = load_corpus(tmp_path, None)
    assert corpus.failed[coord("p")] == []
    by_version = {release.version_label: release for release in corpus.facts[coord("p")]}
    first, second, from_pom = by_version["1.0"], by_version["2.0"], by_version["3.0"]
    assert [release.rfc for release in (first, second, from_pom)] == [2, 2, 2]
    [lib] = first.targets
    assert lib == ProjectCoordinate("org.dep", "lib")
    # Equal target sets are one object.
    assert second.targets is first.targets
    # parse_pom goes through the load's coordinate table too.
    assert from_pom.targets == {lib, ProjectCoordinate("org.dep", "other")}
    assert next(target for target in from_pom.targets if target == lib) is lib


def test_separate_loads_share_no_decoded_object(tmp_path):
    _release_with_shared_values(tmp_path, "1.0", 100)
    [one] = load_corpus(tmp_path, None).facts[coord("p")]
    [two] = load_corpus(tmp_path, None).facts[coord("p")]
    assert one == two
    assert two.targets is not one.targets
    [lib], [lib_again] = one.targets, two.targets
    assert lib_again is not lib
    text = (tmp_path / "org.fixture:p" / "1.0" / "snapshot.json").read_text()
    three, four = parse_snapshot_json(text), parse_snapshot_json(text)
    assert three == four
    key, callees = _surface_entry(three, "org.fixture.P.run()V")
    other_key, other_callees = _surface_entry(four, "org.fixture.P.run()V")
    assert other_key is not key
    assert other_callees is not callees
    assert _dependency(four) is not _dependency(three)
    assert four.coordinate is not three.coordinate


def _write_pom_release(corpus_root, version):
    release_dir = corpus_root / "g:a" / version
    (release_dir / "core").mkdir(parents=True)
    (release_dir / "pom.xml").write_text(
        f"<project><groupId>g</groupId><artifactId>a</artifactId><version>{version}</version>"
        "<modules><module>core</module></modules>"
        "<dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId><version>2</version>"
        "</dependency></dependencies></project>"
    )
    (release_dir / "core" / "pom.xml").write_text(
        f"<project><parent><groupId>g</groupId><artifactId>a</artifactId><version>{version}</version></parent>"
        "<artifactId>core</artifactId><dependencies><dependency><groupId>x</groupId><artifactId>y</artifactId>"
        "<version>2</version></dependency></dependencies></project>"
    )


def _pom_values(release_dir, shared):
    """Every coordinate object of a release's two manifests, decoded through
    ``shared``: the two manifests', the root's submodule and the two
    dependency targets."""
    root, core = (parse_pom((release_dir / path).read_bytes(), shared) for path in ("pom.xml", "core/pom.xml"))
    [submodule] = root.submodule_coordinates
    return [root.coordinate, submodule, core.coordinate, root.declared_dependencies[0].target,
            core.declared_dependencies[0].target]


def test_pom_releases_share_coordinates_within_one_load_only(tmp_path):
    _write_pom_release(tmp_path, "1.0")
    _write_pom_release(tmp_path, "2.0")
    first, second = load_corpus(tmp_path, None).facts[ProjectCoordinate("g", "a")]
    [again, _] = load_corpus(tmp_path, None).facts[ProjectCoordinate("g", "a")]
    assert first.targets == again.targets == {ProjectCoordinate("x", "y")}
    assert second.targets is first.targets
    assert again.targets is not first.targets
    # One load decodes every pom.xml through one table.
    shared = SharedValues()
    values = _pom_values(tmp_path / "g:a" / "1.0", shared)
    later = _pom_values(tmp_path / "g:a" / "2.0", shared)
    other_load = _pom_values(tmp_path / "g:a" / "1.0", SharedValues())
    assert values == later == other_load
    # Within one load, equal coordinates are one object, across manifests and releases.
    assert values[1] is values[2]
    assert values[3] is values[4]
    for value, repeated in zip(values, later):
        assert repeated is value
    for value, unshared in zip(values, other_load):
        assert unshared is not value


_FIRST_SURFACE = {"p.A.f()V": ["p.A.g()V"], "p.A.g()V": []}
# Later releases repeat p.A.f()V with its callee list changed.
_CHANGED_CALLEES = {
    "not a list": "p.A.g()V",
    "a list holding an int": ["p.A.g()V", 1],
    "an extra callee": ["p.A.g()V", "p.A.h()V"],
}


def _write_surface_release(corpus_root, version, surface, as_pom):
    release_dir = corpus_root / "org.fixture:p" / version
    release_dir.mkdir(parents=True)
    if as_pom:
        (release_dir / "pom.xml").write_text(
            f"<project><groupId>org.fixture</groupId><artifactId>p</artifactId><version>{version}</version></project>")
        (release_dir / "api_surface.json").write_text(json.dumps(surface))
        return None
    doc = json.loads(encode_snapshot(make_snapshot("p", version=version, timestamp=100 * int(version[0]))))
    doc["api_surface"] = surface
    text = json.dumps(doc)
    (release_dir / "snapshot.json").write_text(text)
    return text


@pytest.mark.parametrize("as_pom", [False, True], ids=["snapshot.json", "api_surface.json"])
@pytest.mark.parametrize("callees", list(_CHANGED_CALLEES.values()), ids=list(_CHANGED_CALLEES))
def test_repeated_method_with_changed_callees_decodes_as_alone(tmp_path, callees, as_pom):
    changed = {**_FIRST_SURFACE, "p.A.f()V": callees}
    _write_surface_release(tmp_path / "both", "1.0", _FIRST_SURFACE, as_pom)
    _write_surface_release(tmp_path / "both", "2.0", changed, as_pom)
    text = _write_surface_release(tmp_path / "alone", "2.0", changed, as_pom)
    both = load_corpus(tmp_path / "both", None)
    alone = load_corpus(tmp_path / "alone", None)

    project = coord("p")
    assert both.failed[project] == alone.failed[project]
    assert both.facts[project][1:] == alone.facts[project]
    if callees == _CHANGED_CALLEES["an extra callee"]:
        assert both.failed[project] == []
        assert both.facts[project][1].rfc == 3
    elif as_pom:
        reason = "api_surface.json['p.A.f()V']: must be an array of strings"
        assert both.failed[project] == [FailedRelease("2.0", reason)]
    else:
        with pytest.raises(SnapshotFormatError) as excinfo:
            parse_snapshot_json(text)
        assert both.failed[project] == [FailedRelease("2.0", str(excinfo.value))]


# Small pools, so that releases repeat method identities, callee sets and
# coordinates, and a table keyed on less than the whole value would mix
# two of them up.
_POOL_METHODS = ["p.A.f()V", "p.A.g()V", "q.B.h()V", "q.B.k()V"]
_POOL_COORDINATES = [ProjectCoordinate(group, artifact) for group in ("g1", "g2") for artifact in ("x", "y")]
_pool_coordinates = st.sampled_from(_POOL_COORDINATES)
_pool_methods = st.sampled_from(_POOL_METHODS)


@st.composite
def _pooled_release(draw, project, version):
    deps = draw(st.lists(st.builds(DependencyDecl, _pool_coordinates, st.none() | st.sampled_from(["1.0", "2.0"]),
                                   st.none() | st.sampled_from(["compile", "test"])), max_size=3))
    submodules = draw(st.frozensets(_pool_coordinates, max_size=2)) - {project}
    surface = draw(st.none() | st.builds(
        ApiSurface, st.dictionaries(_pool_methods, st.frozensets(_pool_methods, max_size=3), max_size=4)))
    return ReleaseSnapshot(
        coordinate=project,
        version_label=version,
        timestamp=draw(st.integers(0, 3)),
        manifests=(ProjectManifest(project, version, tuple(deps), submodules),),
        api_surface=surface,
        usage=draw(st.none() | st.builds(UsageRecord, st.frozensets(_pool_coordinates, max_size=3))),
        loc=draw(st.none() | st.integers(0, 50)),
    )


@st.composite
def _pooled_corpora(draw):
    projects = draw(st.lists(_pool_coordinates, min_size=1, max_size=2, unique=True))
    return [draw(_pooled_release(project, version))
            for project in projects for version in ("1", "2", "3")[:draw(st.integers(1, 3))]]


# Callee lists a release may give a method identity in place of the one
# encode_snapshot writes, so that a later release repeats an identity with
# a changed list: invalid ones, and valid ones that differ from the sorted
# lists of the pools (another order, a duplicate, a callee of no pool).
_changed_callees = st.sampled_from([
    None, "p.A.f()V", {"p.A.f()V": []}, [1], ["p.A.f()V", 2], ["p.A.f()V", None],
    ["q.B.k()V", "p.A.f()V"], ["p.A.f()V", "p.A.f()V"], ["x.Y.z()V"],
])


# Ways a release may break a rule, each one edit of its JSON value:
# whitespace in a coordinate, a manifest that lists itself as a submodule,
# a manifest that may be neither the project nor a declared submodule, and
# a wrong JSON value at each field. A path that indexes an array that is
# absent, null or empty first gets one clean element there.
_CLEAN_ELEMENTS = {"dependencies": {"group": "g2", "artifact": "y", "version": None, "scope": None},
                   "submodules": {"group": "g2", "artifact": "x"}, "usage": {"group": "g1", "artifact": "y"}}
_COORDINATE_FIELDS = [("project", "artifact"), ("manifests", 0, "group"),
                      ("manifests", 0, "dependencies", 0, "artifact"), ("manifests", 0, "submodules", 0, "group"),
                      ("usage", 0, "artifact")]
_TYPED_FIELDS = [
    (), ("project",), ("project", "group"), ("version",), ("timestamp",), ("manifests",), ("manifests", 0),
    ("manifests", 0, "artifact"), ("manifests", 0, "version"), ("manifests", 0, "dependencies"),
    ("manifests", 0, "dependencies", 0), ("manifests", 0, "dependencies", 0, "group"),
    ("manifests", 0, "dependencies", 0, "version"), ("manifests", 0, "dependencies", 0, "scope"),
    ("manifests", 0, "submodules"), ("manifests", 0, "submodules", 0), ("manifests", 0, "submodules", 0, "artifact"),
    ("api_surface",), ("usage",), ("usage", 0), ("usage", 0, "group"), ("loc",), ("bugs_fixed",),
]
_wrong_values = st.sampled_from([None, True, False, 0, 3, -1, 1.5, 2 ** 1024, "", "x", [], [1], ["x"], {},
                                 {"group": "g1", "artifact": "x"}])
_spaced_names = st.builds(lambda name, space, where: {"before": space + name, "inside": name[0] + space + name[1:],
                                                      "after": name + space, "alone": space}[where],
                          st.sampled_from(["g1", "x"]), st.sampled_from([" ", "\t", "\n", "\u00a0", "\u3000"]),
                          st.sampled_from(["before", "inside", "after", "alone"]))
_BREAK_SITES = ([("put", path, _spaced_names) for path in _COORDINATE_FIELDS]
                + [("put", path, _wrong_values) for path in _TYPED_FIELDS]
                + [("self", None, st.none()), ("manifest", True, _pool_coordinates),
                   ("manifest", False, _pool_coordinates)])


@st.composite
def _breaks(draw):
    """One break: a site and the value it puts there."""
    kind, where, values = draw(st.sampled_from(_BREAK_SITES))
    return kind, where, draw(values)


def _with_every_break(test):
    """``test`` with explicit examples on a fixed corpus: one per break
    site, each on the second of three releases, a few values that only
    break a rule at their field, and a negative history bug count. Drawn
    sites are spread too unevenly to reach every rule in every run."""
    project, other, submodule, used = _POOL_COORDINATES[:4]
    releases = [ReleaseSnapshot(
        coordinate=project, version_label=version, timestamp=1, loc=5,
        manifests=(ProjectManifest(project, version, (DependencyDecl(other, "1.0", "compile"),),
                                   frozenset({submodule})),),
        api_surface=ApiSurface({"p.A.f()V": frozenset({"p.A.g()V"})}),
        usage=UsageRecord(frozenset({used}))) for version in ("1", "2", "3")]
    breaks = ([("put", path, "x y") for path in _COORDINATE_FIELDS]
              + [("put", path, True) for path in _TYPED_FIELDS]
              + [("put", ("loc",), -1), ("put", ("loc",), 2 ** 1024), ("put", ("bugs_fixed",), -1),
                 ("put", ("bugs_fixed",), 2 ** 1024), ("put", ("manifests",), [])]
              + [("self", None, None), ("manifest", True, other), ("manifest", False, other)])
    for brk in breaks:
        test = example(releases, [0] * 6, [{}] * 6, [None, brk] + [None] * 4)(test)
    return example(releases, [0, -1, 0, 0, 0, 0], [{}] * 6, [None] * 6)(test)


def _put(doc, path, value):
    """``doc`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    node = doc
    for key, index in zip(path, path[1:]):
        if isinstance(index, int) and not node.get(key):
            node[key] = [dict(_CLEAN_ELEMENTS[key])]
        node = node[key]
    node[path[-1]] = value
    return doc


def _broken(doc, kind, where, value):
    """``doc`` after one drawn break."""
    if kind == "put":
        return _put(doc, where, value)
    manifest = doc["manifests"][0]
    if kind == "self":
        manifest["submodules"].append({"group": manifest["group"], "artifact": manifest["artifact"]})
    elif where:  # another coordinate for the first manifest
        manifest.update(group=value.group, artifact=value.artifact)
    else:  # a second manifest
        doc["manifests"].append({"group": value.group, "artifact": value.artifact, "version": "1"})
    return doc


@settings(max_examples=100, deadline=None)
@given(_pooled_corpora(), st.lists(st.integers(-2, 9), min_size=6, max_size=6),
       st.lists(st.dictionaries(_pool_methods, _changed_callees, max_size=2), min_size=6, max_size=6),
       st.lists(st.none() | _breaks(), min_size=6, max_size=6))
@_with_every_break
def test_shared_load_equals_per_file_decode(releases, bugs, changes, breaks):
    # The load, whose fast decoder accepts what it can, must equal the record
    # path on every release, each decoded in a load of its own: on facts, on
    # failures (exact reason) and on warnings.
    history = [ReleaseHistoryRow(s.coordinate.key(), s.version_label, s.timestamp, b)
               for s, b in zip(releases, bugs)]
    expected: dict[ProjectCoordinate, list[ReleaseFacts]] = {}
    failed: dict[ProjectCoordinate, list[FailedRelease]] = {}
    warnings = []
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for i, (snapshot, row, change, brk) in enumerate(zip(releases, history, changes, breaks)):
            doc = json.loads(encode_snapshot(snapshot))
            if doc["api_surface"] is not None:
                doc["api_surface"].update(change)
            if brk is not None:
                doc = _broken(doc, *brk)
            text = json.dumps(doc)
            for corpus_root in (root / "shared", root / f"alone{i}"):
                release_dir = corpus_root / row.project_key / row.version_label
                release_dir.mkdir(parents=True)
                (release_dir / "snapshot.json").write_text(text, encoding="utf-8")
            with mock.patch.object(ingest, "_json_facts", return_value=None):
                alone = load_corpus(root / f"alone{i}", [row])
            for project, releases_alone in alone.facts.items():
                expected.setdefault(project, []).extend(releases_alone)
                failed.setdefault(project, []).extend(alone.failed[project])
            warnings += alone.warnings
        corpus = load_corpus(root / "shared", history)

    for snapshots in expected.values():
        snapshots.sort(key=lambda s: (s.timestamp, s.version_label))
    # load_corpus walks project and release directories by name; the pool's
    # keys all have one length, so sorted warning texts are in that order.
    assert corpus.warnings == sorted(warnings)
    assert corpus.facts == expected
    assert corpus.failed == failed


# --------------------------------------------------------------------------
# pom.xml releases: the fast decoder against the record path


def _manifest_spec(group, artifact, version=None, *, parent=None, directory="", modules=(), dependencies=(),
                   group_by_property=False):
    """One pom.xml as ``_pom_text`` writes it into ``directory``: group None
    takes the parent's; modules are (name, read from a property) pairs and
    dependencies (group, artifact, version, scope) tuples."""
    return {"directory": directory, "parent": parent, "group": group, "artifact": artifact, "version": version,
            "group_by_property": group_by_property, "modules": list(modules), "dependencies": list(dependencies)}


def _xml_fields(**fields):
    return "".join(f"<{name}>{escape(value)}</{name}>" for name, value in fields.items() if value is not None)


def _pom_text(spec):
    group, modules, parent = spec["group"], spec["modules"], spec["parent"]
    properties = {f"mod.{k}": name for k, (name, by_property) in enumerate(modules) if by_property}
    return "".join([
        "<project>",
        "" if parent is None else "<parent>" + _xml_fields(groupId=parent[0], artifactId=parent[1],
                                                           version=parent[2]) + "</parent>",
        f"<properties>{_xml_fields(**{'lib.group': group}, **properties)}</properties>",
        _xml_fields(groupId="${lib.group}" if spec["group_by_property"] else group, artifactId=spec["artifact"],
                    version=spec["version"]),
        "<modules>", *(f"<module>{'${mod.%d}' % k if by_property else escape(name)}</module>"
                       for k, (name, by_property) in enumerate(modules)), "</modules>",
        "<dependencies>", *(f"<dependency>{_xml_fields(groupId=g, artifactId=a, version=v, scope=s)}</dependency>"
                            for g, a, v, s in spec["dependencies"]), "</dependencies>",
        "</project>",
    ])


_pom_dependencies = st.lists(st.builds(lambda target, version, scope: (*target, version, scope), _pool_coordinates,
                                       st.sampled_from([None, "1.0", "${project.version}"]),
                                       st.sampled_from([None, "compile", "test"])), max_size=2)


@st.composite
def _pom_release(draw, project, version):
    """A clean pom.xml release of ``project``: a root manifest and one module
    manifest per declared module, optional sidecars and an optional src/ tree."""
    modules = draw(st.lists(st.sampled_from(["api", "core"]), unique=True, max_size=2))
    root = _manifest_spec(*project, version, group_by_property=draw(st.booleans()),
                          modules=[(name, draw(st.booleans())) for name in modules],
                          dependencies=draw(_pom_dependencies))
    return {
        "manifests": [root] + [_manifest_spec(draw(st.none() | st.just(project.group)), name, directory=name,
                                              parent=(*project, version), dependencies=draw(_pom_dependencies))
                               for name in modules],
        "malformed": False,
        "api_surface": draw(st.none() | st.dictionaries(_pool_methods, st.lists(_pool_methods, max_size=2),
                                                        max_size=3)),
        "usage": draw(st.none() | st.lists(_pool_coordinates.map(lambda c: {"group": c.group, "artifact": c.artifact}),
                                           max_size=2)),
        "loc": draw(st.none() | st.integers(0, 3)),
    }


@st.composite
def _pom_corpora(draw):
    projects = draw(st.lists(_pool_coordinates, min_size=1, max_size=2, unique=True))
    return [(project, version, draw(_pom_release(project, version)))
            for project in projects for version in ("1", "2", "3")[:draw(st.integers(1, 3))]]


def _write_release_spec(release_dir, release):
    """Write a release (see ``_pom_release``) into ``release_dir``; a
    malformed root manifest is cut in half."""
    for spec in release["manifests"]:
        text = _pom_text(spec)
        if release["malformed"] and not spec["directory"]:
            text = text[:len(text) // 2]
        (release_dir / spec["directory"]).mkdir(parents=True)
        (release_dir / spec["directory"] / "pom.xml").write_text(text, encoding="utf-8")
    for name in ("api_surface", "usage"):
        if release[name] is not None:
            (release_dir / f"{name}.json").write_text(json.dumps(release[name]), encoding="utf-8")
    if release["loc"] is not None:
        (release_dir / "src").mkdir()
        (release_dir / "src" / "A.java").write_text("x\n" * release["loc"], encoding="utf-8")


# Ways a pom.xml release may break a rule, each one edit of the release:
# whitespace in a coordinate the root names, in the group a module takes
# from its parent, in a dependency's, or in a module name read from a
# property (or a property of only whitespace, so an empty name); a manifest
# that lists itself as a module; a module manifest no manifest declares; a
# root that names another project, which its own module declares; an
# undefined property; malformed XML; a usage.json item or api_surface.json
# value of the wrong kind; and a history row whose timestamp or bug count
# the snapshot rules refuse.
_pom_spaced_names = st.builds(lambda name, space: name[0] + space + name[1:], st.sampled_from(["g1", "x"]),
                              st.sampled_from([" ", "\t", "\n", "\u00a0", "\u3000"]))
_POM_BREAK_SITES = [
    ("own", "group", _pom_spaced_names), ("own", "artifact", _pom_spaced_names),
    ("parent", None, _pom_spaced_names), ("dependency", None, _pom_spaced_names),
    ("module", None, _pom_spaced_names | st.just(" ")), ("self", None, st.none()), ("stranger", None, st.none()),
    ("mismatch", None, st.none()), ("unresolved", None, st.none()), ("malformed", None, st.none()),
    ("usage", None, _wrong_values | _pom_spaced_names.map(lambda name: {"group": "g1", "artifact": name})),
    ("surface", None, st.sampled_from([None, "p.A.g()V", 1, {}, [1], ["p.A.g()V", None]])),
    ("row", "timestamp", st.sampled_from(["1", 1.5, None])),
    ("row", "bugs_fixed", st.sampled_from([-1, "1", 1.5, None])),
]


@st.composite
def _pom_breaks(draw):
    kind, where, values = draw(st.sampled_from(_POM_BREAK_SITES))
    return kind, where, draw(values)


def _pom_broken(release, row, kind, where, value):
    """``release`` (edited in place) and ``row`` after one break."""
    root = release["manifests"][0]
    parent = (root["group"], root["artifact"], root["version"])
    if kind == "own":
        root[where] = value
    elif kind == "parent":
        release["manifests"].append(_manifest_spec(None, "par", directory="par", parent=(value, *parent[1:])))
        root["modules"].append(("par", False))
    elif kind == "dependency":
        root["dependencies"].append(("g2", value, None, None))
    elif kind == "unresolved":
        root["dependencies"].append(("g2", "y", "${undefined}", None))
    elif kind == "module":
        root["modules"].append((value, True))
    elif kind == "self":
        root["modules"].append((root["artifact"], False))
    elif kind == "stranger":
        release["manifests"].append(_manifest_spec(None, "zz", directory="zz", parent=parent))
    elif kind == "mismatch":
        release["manifests"].append(_manifest_spec(None, "mid", directory="mid", parent=parent,
                                                   modules=[("other", False)]))
        root["artifact"] = "other"
        root["modules"].append(("mid", False))
    elif kind == "malformed":
        release["malformed"] = True
    elif kind == "usage":
        release["usage"] = [*(release["usage"] or []), value]
    elif kind == "surface":
        release["api_surface"] = {**(release["api_surface"] or {}), "p.A.f()V": value}
    else:
        row = row._replace(**{where: value})
    return release, row


def _with_every_pom_break(test):
    """``test`` with explicit examples on a fixed corpus: each break site
    once, on the second of three releases on which every rule bites (a
    module declared by name and one from a property, unfiltered dependencies
    in every manifest, a usage record)."""
    project, other, _, used = _POOL_COORDINATES[:4]
    releases = [(project, version, {
        "manifests": [_manifest_spec(*project, version, group_by_property=True,
                                     modules=[("api", False), ("core", True)],
                                     dependencies=[(*other, "1.0", None)])]
                     + [_manifest_spec(None, name, directory=name, parent=(*project, version),
                                       dependencies=[(*used, None, None)]) for name in ("api", "core")],
        "malformed": False, "api_surface": {"p.A.f()V": ["p.A.g()V"]},
        "usage": [{"group": used.group, "artifact": used.artifact}], "loc": 2,
    }) for version in ("1", "2", "3")]
    breaks = [("own", "group", "g 1"), ("own", "artifact", "x\ty"), ("parent", None, "g\u00a01"),
              ("dependency", None, "y z"), ("module", None, "a b"), ("module", None, " "), ("self", None, None),
              ("stranger", None, None), ("mismatch", None, None), ("unresolved", None, None),
              ("malformed", None, None), ("usage", None, {"group": "g1", "artifact": "a b"}),
              ("usage", None, 7), ("surface", None, "p.A.g()V"), ("row", "timestamp", "1"),
              ("row", "bugs_fixed", -1), ("row", "bugs_fixed", "1")]
    for brk in breaks:
        test = example(releases, [0] * 6, [None, brk] + [None] * 4)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(_pom_corpora(), st.lists(st.integers(-2, 9), min_size=6, max_size=6),
       st.lists(st.none() | _pom_breaks(), min_size=6, max_size=6))
@_with_every_pom_break
def test_pom_load_equals_the_record_path_per_release(releases, bugs, breaks):
    # The load, whose fast decoder accepts what it can, must equal the record
    # path (read_pom's values as records, the snapshot rules, then the
    # facts) on every release, each read in a load of its own: on facts, on
    # failures (exact reason) and on warnings.
    expected: dict[ProjectCoordinate, list[ReleaseFacts]] = {}
    failed: dict[ProjectCoordinate, list[FailedRelease]] = {}
    warnings, history = [], []
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for i, ((project, version, release), bug_count, brk) in enumerate(zip(releases, bugs, breaks)):
            release, row = json.loads(json.dumps(release)), ReleaseHistoryRow(project.key(), version, i, bug_count)
            if brk is not None:
                release, row = _pom_broken(release, row, *brk)
            history.append(row)
            for corpus_root in (root / "shared", root / f"alone{i}"):
                _write_release_spec(corpus_root / project.key() / version, release)
            with mock.patch.object(ingest, "_pom_facts", return_value=None):
                alone = load_corpus(root / f"alone{i}", [row])
            for coordinate, releases_alone in alone.facts.items():
                expected.setdefault(coordinate, []).extend(releases_alone)
                failed.setdefault(coordinate, []).extend(alone.failed[coordinate])
            warnings += alone.warnings
        corpus = load_corpus(root / "shared", history)

    for facts in expected.values():
        facts.sort(key=lambda release: (release.timestamp, release.version_label))
    # As in the snapshot.json twin above, sorted warning texts are in load order.
    assert corpus.warnings == sorted(warnings)
    assert corpus.facts == expected
    assert corpus.failed == failed
