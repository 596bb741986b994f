"""On-disk input handling: snapshot JSON, release history CSV, corpus trees, LOC.

Corpus layout::

    <root>/
      <group>:<artifact>/          one directory per project, named by its key
        <version_label>/           one directory per release, named by its version
          snapshot.json            -- or --
          pom.xml [**/pom.xml]     root manifest plus nested module manifests
          api_surface.json         optional (pom releases)
          usage.json               optional
          src/                     optional source tree for LOC counting

snapshot.json and the JSON sidecars are UTF-8; a pom.xml is decoded as its
XML declaration says. Each project directory loads alone, and the loads are
concatenated in directory order. A release directory that yields no valid
snapshot (a name that is not UTF-8, no listing, an undecodable file, or a
coordinate or version other than its directories' names) is a failed release:
it counts toward the parse-ratio selection criterion, and never aborts the
load. An unlistable directory below it, and a project directory that cannot
be listed or whose name is not UTF-8 or not a group:artifact key, is skipped
with a warning.

A release's edges are the targets of its dependencies whose scope is not
filtered out (``test`` and ``provided`` by default), less the project's own
module and submodule coordinates.

This module holds the fast decoders, which turn a decoded release straight
into its ``ReleaseFacts``, the JSON and sidecar checkers they share with the
record path, the directory walk, LOC and the release history. A release the
fast decoders refuse is judged and its failure worded by
``records.judge_refused``, this module's one call into the record tier.
``parse_snapshot_json`` and ``encode_snapshot`` live there too, and are
served from here on first use.
"""

from __future__ import annotations

import csv
import io
import json
import os
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, NoReturn

from .metrics import response_set
from .model import ProjectCoordinate, ReleaseFacts, SharedValues

DEFAULT_LOC_EXTENSIONS = frozenset({".java"})
DEFAULT_SCOPE_FILTER = frozenset({"test", "provided"})

HISTORY_COLUMNS = ("project", "version", "timestamp", "bugs_fixed")

# The statistics take bug counts and LOC as floats; float(n) overflows from
# this n on. The one bound on a count, in releases.csv and snapshot.json.
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970
_FLOAT_RULE = "must convert to a float (below about 1.8e308)"
# 10**309, the smallest count with more digits than the float bound: a
# negative history count this long is quoted by its digit count.
_LONG_COUNT = 10 ** len(str(_FLOAT_OVERFLOW))


class SnapshotFormatError(ValueError):
    """snapshot.json breaks its schema, or a release directory yields no usable
    snapshot (no manifest, the snapshot rules, its names); the message says where or why."""


class HistoryFormatError(ValueError):
    """releases.csv violates its contract."""


class CorpusError(ValueError):
    """The corpus root itself is unusable."""


class ReleaseHistoryRow(NamedTuple):
    project_key: str
    version_label: str
    timestamp: int
    bugs_fixed: int


class FailedRelease(NamedTuple):
    version_label: str
    reason: str


class Corpus(NamedTuple):
    """Everything load_corpus learned about a corpus tree: per project, the
    facts of each parsed release in (timestamp, version) order and each
    failed release, then the load's warnings. That order is the only
    statement of release order; the series, statistics and reports keep it."""

    facts: dict[ProjectCoordinate, list[ReleaseFacts]]
    failed: dict[ProjectCoordinate, list[FailedRelease]]
    warnings: list[str]


# --------------------------------------------------------------------------
# snapshot.json


# Each input rule has one checker, here or, for a rule only the record path
# reads, in ``records``. It tests the raw JSON value and returns the decoded
# value; only for a failing value does it format the JSON path, passed in as
# a prefix plus an optional index, and raise naming the first broken part.
# So the success path formats no path.


def _invalid(path: str, message: str) -> NoReturn:
    raise SnapshotFormatError(f"{path}: {message}")


def _where(path: str, index: int | None) -> str:
    return path if index is None else f"{path}[{index}]"


def _coordinate(value: Any, shared: SharedValues, path: str, index: int | None = None) -> ProjectCoordinate:
    """The coordinate a JSON object names; SnapshotFormatError at ``path[index]`` when it names none."""
    if isinstance(value, dict):
        group, artifact = value.get("group"), value.get("artifact")
        if isinstance(group, str) and group and isinstance(artifact, str) and artifact:
            return shared.coordinate(group, artifact)
        _invalid(f"{_where(path, index)}.{'artifact' if isinstance(group, str) and group else 'group'}",
                 "must be a non-empty string")
    _invalid(_where(path, index), "must be an object")


def _response_count(surface: dict) -> int | None:
    """The RFC of a JSON API surface object; None unless every value is an
    array of strings.

    The whole object is tested in C: every value a list, then the response
    set (JSON keys are strings) all strings.
    """
    try:
        identities = response_set(surface) if all(map(isinstance, surface.values(), repeat(list))) else None
    except TypeError:  # an unhashable callee
        return None
    if identities is None or not all(map(isinstance, identities, repeat(str))):
        return None
    return len(identities)


def _api_surface_from_json(value: Any, path: str) -> tuple[dict[str, list[str]] | None, int | None]:
    """Check an API surface, the ``api_surface`` field or api_surface.json:
    the surface (method -> callee list) and its RFC, both None for null.
    Only a failing surface is walked method by method, to name the first
    bad one.
    """
    if value is None:
        return None, None
    if not isinstance(value, dict):
        _invalid(path, "must be an object or null")
    rfc = _response_count(value)
    if rfc is None:
        method = next(method for method, callees in value.items()
                      if not (isinstance(callees, list) and all(map(isinstance, callees, repeat(str)))))
        _invalid(f"{path}[{method!r}]", "must be an array of strings")
    return value, rfc


def _usage_from_json(value: Any, path: str, shared: SharedValues) -> frozenset[ProjectCoordinate] | None:
    """The coordinates a usage record references, the ``usage`` field or usage.json."""
    if value is None:
        return None
    if not isinstance(value, list):
        _invalid(path, "must be an array or null")
    return frozenset(_coordinate(item, shared, path, i) for i, item in enumerate(value))


def _decode_json(text: str, where: str) -> Any:
    """The JSON value of ``text``; SnapshotFormatError at ``where`` when it has none."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an integer of over 4300 digits
        raise SnapshotFormatError(f"{where}: invalid JSON: {exc}") from exc


# --------------------------------------------------------------------------
# releases.csv


def _records(reader: Any) -> Iterator[list[str]]:
    """A csv reader's rows; one it cannot split (say, a too-long field) is a HistoryFormatError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise HistoryFormatError(f"line {reader.line_num}: {exc}") from None


def load_release_history(csv_text: str) -> list[ReleaseHistoryRow]:
    """Parse the release/bug history table.

    Header must be exactly ``project,version,timestamp,bugs_fixed``, after
    one leading byte-order mark (U+FEFF), if any; (project, version) pairs
    must be unique; a bug count must be a non-negative integer that a float
    can hold. ``csv_text`` is the file's text as decoded, newlines
    untranslated: a quoted CR or LF stays in its cell, and LF, CRLF and CR
    all end a record. An error names the physical line its record ends on.
    """
    reader = csv.reader(io.StringIO(csv_text.removeprefix("\ufeff"), newline=""))
    records = _records(reader)
    try:
        header = next(records)
    except StopIteration:
        raise HistoryFormatError("history file is empty (missing header)") from None
    if tuple(h.strip() for h in header) != HISTORY_COLUMNS:
        raise HistoryFormatError(
            f"header must be {','.join(HISTORY_COLUMNS)}, got {','.join(header)}"
        )

    rows: list[ReleaseHistoryRow] = []
    seen: set[tuple[str, str]] = set()
    for record in records:
        if not record:
            continue
        lineno = reader.line_num
        if len(record) != len(HISTORY_COLUMNS):
            raise HistoryFormatError(f"line {lineno}: expected {len(HISTORY_COLUMNS)} columns, got {len(record)}")
        project_key, version, timestamp_text, bugs_text = (f.strip() for f in record)
        try:
            timestamp = int(timestamp_text)
        except ValueError:
            raise HistoryFormatError(f"line {lineno}: timestamp must be an integer, got {timestamp_text!r}") from None
        try:
            bugs = int(bugs_text)
        except ValueError:
            # int() also refuses a run of over 4300 digits, leading zeros
            # included; past the float bound's digit count, only its length
            # and sign matter.
            negative = bugs_text.startswith("-")
            unsigned = bugs_text[1:] if negative else bugs_text.removeprefix("+")
            if not (unsigned.isascii() and unsigned.isdigit()):
                raise HistoryFormatError(f"line {lineno}: bugs_fixed must be an integer, got {bugs_text!r}") from None
            digits = unsigned.lstrip("0")
            bugs = int(digits or "0") if len(digits) < len(str(_LONG_COUNT)) else _LONG_COUNT
            bugs = -bugs if negative else bugs
        if bugs < 0 or bugs >= _FLOAT_OVERFLOW:
            length = f"a {sum(map(str.isdigit, bugs_text))}-digit"
            if bugs >= 0:
                raise HistoryFormatError(f"line {lineno}: bugs_fixed {_FLOAT_RULE}, got {length} number")
            got = bugs if bugs > -_LONG_COUNT else f"{length} negative number"
            raise HistoryFormatError(f"line {lineno}: bugs_fixed must be non-negative, got {got}")
        key = (project_key, version)
        if key in seen:
            raise HistoryFormatError(f"line {lineno}: duplicate (project, version) pair {key}")
        seen.add(key)
        rows.append(ReleaseHistoryRow(project_key, version, timestamp, bugs))
    return rows


# --------------------------------------------------------------------------
# directory walk and LOC


_NAME = attrgetter("name")
_RELEASE_ORDER = attrgetter("timestamp", "version_label")
_READ_CHUNK = 1 << 16


def _scan(directory: str | os.PathLike[str]) -> list[os.DirEntry[str]]:
    """The entries of ``directory`` by name."""
    with os.scandir(directory) as it:
        return sorted(it, key=_NAME)


def _listing(directory: str, warnings: list[str] | None) -> list[os.DirEntry[str]]:
    """The entries of ``directory`` by name; none, with a warning, when it cannot be listed."""
    try:
        return _scan(directory)
    except OSError as exc:
        if warnings is not None:
            warnings.append(f"unreadable directory skipped: {directory} ({exc})")
        return []


def _walk(top: list[os.DirEntry[str]], warnings: list[str] | None) -> list[tuple[int, os.DirEntry[str]]]:
    """List (depth, entry) for every entry of ``top``, a directory's listing
    (depth 1), and below it, in the order of ``sorted(Path(...).rglob("*"))``:
    depth first, each directory's entries by name. As ``rglob`` does, list a
    symlinked directory but do not enter it, and skip a directory that cannot
    be listed, here with a warning. The walk keeps its own stack, so no tree
    is too deep for it.
    """
    out: list[tuple[int, os.DirEntry[str]]] = []
    pending = list(zip(repeat(1), reversed(top)))  # next entry last
    while pending:
        item = pending.pop()
        out.append(item)
        depth, entry = item
        if entry.is_dir(follow_symlinks=False):
            pending += zip(repeat(depth + 1), reversed(_listing(entry.path, warnings)))
    return out


# DirEntry.is_file and is_dir raise on a symlink loop, where Path's say False.


def _is_file(entry: os.DirEntry[str]) -> bool:
    return Path(entry.path).is_file() if entry.is_symlink() else entry.is_file()


def _is_dir(entry: os.DirEntry[str]) -> bool:
    return Path(entry.path).is_dir() if entry.is_symlink() else entry.is_dir()


def _read(path: str) -> bytes:
    """The whole content of the file at ``path``; every corpus file is read here.

    os.open, fstat and read cost about half of ``open(path, "rb").read()``
    and a third of ``Path(path).read_bytes()``, which also interns every
    component of the path. A failed open names ``path`` as ``open``'s does.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, os.fstat(fd).st_size + 1)
        while chunk := os.read(fd, _READ_CHUNK):  # the file grew since fstat
            data += chunk
    finally:
        os.close(fd)
    return data


def _count_lines(entries: Iterable[os.DirEntry[str]], warnings: list[str] | None) -> int:
    """Sum the lines of the files among ``entries``, as ``count_loc`` counts them."""
    total = 0
    for entry in entries:
        if not _is_file(entry):
            continue
        path = entry.path
        try:
            data = _read(path)
        except OSError as exc:
            if warnings is not None:
                warnings.append(f"unreadable file counted as 0 lines: {path} ({exc})")
            continue
        total += data.count(b"\n")
        if data and not data.endswith(b"\n"):
            total += 1
    return total


def count_loc(src_root: str | os.PathLike[str],
              extensions: frozenset[str] | set[str] = DEFAULT_LOC_EXTENSIONS,
              warnings: list[str] | None = None) -> int:
    """Count lines over all files whose name ends with a configured suffix.

    A line is a maximal text segment terminated by a newline or end of
    file; a trailing segment without a newline counts when non-empty.
    An unreadable file counts as 0 lines and an unlistable directory, ``src_root``
    included, as none; each appends a warning. Symlinked files count;
    symlinked directories below ``src_root`` are not entered.
    """
    suffixes = tuple(extensions)
    top = _listing(os.fspath(src_root), warnings)
    return _count_lines((entry for _, entry in _walk(top, warnings) if entry.name.endswith(suffixes)), warnings)


# --------------------------------------------------------------------------
# corpus trees


def _subdirs(directory: str | os.PathLike[str]) -> list[os.DirEntry[str]]:
    """The subdirectories of ``directory`` (symlinks followed), by name."""
    return [entry for entry in _scan(directory) if _is_dir(entry)]


def _utf8_name(name: str) -> str:
    """A directory name as UTF-8 text: each byte of it that does not decode,
    which os.scandir gives as a lone surrogate, is written as ``\\xNN``. So
    the result differs from ``name`` exactly when the name is not UTF-8."""
    return os.fsencode(name).decode("utf-8", "backslashreplace")


def _read_utf8(path: str, where: str) -> str:
    """The file's text as ``open(path, encoding="utf-8").read()`` gives it.

    Decoded in one piece, so an invalid-UTF-8 reason names the same byte
    position, and with universal newlines, so JSON error positions stay
    those of text mode.
    """
    try:
        text = _read(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"{where}: invalid UTF-8: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_sidecar(entry: os.DirEntry[str]) -> Any:
    """The JSON value of api_surface.json or usage.json."""
    return _decode_json(_read_utf8(entry.path, entry.name), entry.name)


def _read_pom_release(release_dir: os.DirEntry[str], loc_suffixes: tuple[str, ...], warnings: list[str],
                      shared: SharedValues) -> tuple[list[tuple], int | None, frozenset | None, int | None]:
    """Decode a pom.xml release: ``read_pom``'s values of each manifest, the
    RFC of api_surface.json, the coordinates usage.json references (through
    ``shared``) and the LOC under ``src/``; an optional part is None when absent.

    One walk of the release directory finds the manifests (every pom.xml,
    ordered by depth, then path), the sidecars and the LOC files; each
    manifest is parsed once. Only an unlistable release directory raises
    OSError; a manifest or sidecar that does not decode raises ValueError.
    """
    top: dict[str, os.DirEntry[str]] = {}
    pom_paths: list[tuple[int, str]] = []
    sources: list[os.DirEntry[str]] = []
    in_src = False
    for depth, entry in _walk(_scan(release_dir.path), warnings):
        name = entry.name
        if depth == 1:
            top[name] = entry
            in_src = name == "src"
        elif in_src and name.endswith(loc_suffixes):
            sources.append(entry)
        if name == "pom.xml" and _is_file(entry):
            pom_paths.append((depth, entry.path))
    if not pom_paths:
        raise SnapshotFormatError("no snapshot.json or pom.xml")

    # Imported here, so a load that reads no pom.xml never loads the XML decoder.
    from .pom import read_pom

    poms = [read_pom(_read(path)) for _, path in sorted(pom_paths)]

    rfc = referenced = loc = None
    surface_entry = top.get("api_surface.json")
    if surface_entry is not None and _is_file(surface_entry):
        _, rfc = _api_surface_from_json(_read_sidecar(surface_entry), surface_entry.name)
    usage_entry = top.get("usage.json")
    if usage_entry is not None and _is_file(usage_entry):
        referenced = _usage_from_json(_read_sidecar(usage_entry), usage_entry.name, shared)

    src_entry = top.get("src")
    if src_entry is not None and _is_dir(src_entry):
        # rglob enters a symlinked root, so a symlinked src/ gets a walk of its own.
        loc = (count_loc(src_entry.path, loc_suffixes, warnings) if src_entry.is_symlink()
               else _count_lines(sources, warnings))
    return poms, rfc, referenced, loc


def _pom_facts(raw: tuple, coordinate: ProjectCoordinate, version_label: str, row: ReleaseHistoryRow | None,
               scope_filter: frozenset[str] | set[str], shared: SharedValues) -> ReleaseFacts | None:
    """The facts of a decoded pom.xml release if the record path would accept
    it: its root names the project ``coordinate``, the history ``row`` (none
    reads 0 and 0) has an integer timestamp and a non-negative bug count,
    and every snapshot rule holds. None otherwise; this forms no message."""
    poms, rfc, referenced, loc = raw
    timestamp, bugs = (0, 0) if row is None else (row.timestamp, row.bugs_fixed)
    if not (shared.kept_coordinate(*poms[0][:2]) == coordinate
            and isinstance(timestamp, int) and isinstance(bugs, int) and bugs >= 0):
        return None
    found = _targets_and_lcom1(coordinate, ((group, artifact, zip(repeat(group), modules), dependencies)
                                            for group, artifact, _, dependencies, modules in poms),
                               referenced, scope_filter, shared)
    if found is None:
        return None
    targets, lcom1 = found
    return ReleaseFacts(version_label, timestamp, bugs, loc, targets, rfc, lcom1)


_NO_PAIR = (None, None)  # no rule keeps it
_BROKEN = (None, None, (), ())  # a manifest or dependency whose coordinate no rule keeps


def _targets_and_lcom1(coordinate: ProjectCoordinate, manifests: Iterable[tuple], referenced: Iterable[tuple] | None,
                       scope_filter: frozenset[str] | set[str], shared: SharedValues) -> tuple | None:
    """The rule core of both fast decoders: a release's targets and LCOM1, or
    None when a rule breaks. ``manifests`` yields (group, artifact,
    submodule pairs, dependencies as (group, artifact, version, scope)),
    ``referenced`` the usage record's pairs (None without one). Every pair
    keeps the coordinate rule, judged through ``shared``; versions and
    scopes are strings or None; no manifest lists itself as a submodule;
    each manifest is the project ``coordinate`` or a declared submodule."""
    kept = shared.kept_coordinate
    own = {coordinate}  # the project and every declared submodule
    strangers = []  # manifest coordinates other than the project's
    targets = []  # dependency targets whose scope is not filtered
    for group, artifact, submodules, dependencies in manifests:
        manifest = kept(group, artifact)  # None, which is never in own, when it breaks the rule
        for sub_group, sub_artifact in submodules:
            submodule = kept(sub_group, sub_artifact)
            if submodule is None or submodule == manifest:
                return None
            own.add(submodule)
        if manifest != coordinate:
            strangers.append(manifest)
        for dep_group, dep_artifact, version, scope in dependencies:
            target = kept(dep_group, dep_artifact)
            if not (target is not None and (version is None or type(version) is str)
                    and (scope is None or type(scope) is str)):
                return None
            if scope not in scope_filter:
                targets.append(target)
    if not own.issuperset(strangers):
        return None
    edges = frozenset(targets).difference(own)
    lcom1 = None
    if referenced is not None:
        references = set()
        for group, artifact in referenced:
            reference = kept(group, artifact)
            if reference is None:
                return None
            references.add(reference)
        lcom1 = len(edges.difference(references))
    return shared.targets.setdefault(edges, edges), lcom1


def _json_pair(value: Any) -> tuple:
    """The (group, artifact) of a JSON object; ``_NO_PAIR`` for another value."""
    return (value.get("group"), value.get("artifact")) if type(value) is dict else _NO_PAIR


def _json_manifest(item: Any) -> tuple:
    """A JSON manifest as ``_targets_and_lcom1`` reads it; ``_BROKEN`` unless
    it is an object with a string version and arrays of submodules and
    dependencies."""
    if type(item) is dict:
        submodules, dependencies = item.get("submodules", []), item.get("dependencies", [])
        if type(item.get("version")) is str and type(submodules) is list and type(dependencies) is list:
            return (item.get("group"), item.get("artifact"), map(_json_pair, submodules),
                    ((dep.get("group"), dep.get("artifact"), dep.get("version"), dep.get("scope"))
                     if type(dep) is dict else _BROKEN for dep in dependencies))
    return _BROKEN


def _json_facts(raw: Any, coordinate: ProjectCoordinate, version_label: str, row: ReleaseHistoryRow | None,
                scope_filter: frozenset[str] | set[str], shared: SharedValues) -> ReleaseFacts | None:
    """The facts of a snapshot.json value, decoded straight from JSON, if the
    record path would accept it: the value keeps every schema and snapshot
    rule, names the project ``coordinate`` and the release
    ``version_label``, and a history ``row`` has a non-negative bug count.
    None for any other value, which the record path then judges and words;
    this forms no message. Coordinates are judged through ``shared``."""
    if type(raw) is not dict:
        return None
    get, kept = raw.get, shared.kept_coordinate
    project, timestamp, loc, bugs = get("project"), get("timestamp"), get("loc"), get("bugs_fixed", 0)
    if not (type(project) is dict and kept(project.get("group"), project.get("artifact")) == coordinate
            and get("version") == version_label and type(timestamp) is int
            and (loc is None or type(loc) is int and 0 <= loc < _FLOAT_OVERFLOW)
            and type(bugs) is int and 0 <= bugs < _FLOAT_OVERFLOW):
        return None
    if row is not None:
        bugs = row.bugs_fixed
        if not (isinstance(bugs, int) and bugs >= 0):
            return None

    manifests, surface, usage, rfc = get("manifests"), get("api_surface"), get("usage"), None
    if not (type(manifests) is list and manifests and (usage is None or type(usage) is list)):
        return None
    if surface is not None and (type(surface) is not dict or (rfc := _response_count(surface)) is None):
        return None
    found = _targets_and_lcom1(coordinate, map(_json_manifest, manifests),
                               None if usage is None else map(_json_pair, usage), scope_filter, shared)
    if found is None:
        return None
    targets, lcom1 = found
    return ReleaseFacts(version_label, timestamp, bugs, loc, targets, rfc, lcom1)


def _load_project(project_dir: os.DirEntry[str], coordinate: ProjectCoordinate,
                  rows: dict[str, ReleaseHistoryRow] | None, loc_suffixes: tuple[str, ...],
                  scope_filter: frozenset[str] | set[str], shared: SharedValues,
                  ) -> tuple[list[ReleaseFacts], list[FailedRelease], list[str], dict]:
    """Load the directory of the project ``coordinate``: its releases' facts in
    (timestamp, version) order, its failed releases and warnings in directory
    order, and the history ``rows`` (by version; None without history) left unjoined.
    Each release is judged here alone, and by one path. A release is
    decoded once, a snapshot.json to its JSON value and a pom.xml release
    to ``read_pom``'s values and its sidecars, and a decoder error fails it.
    A decoded release that its fast decoder (``_json_facts``,
    ``_pom_facts``) accepts is done. Only a release it refuses takes the
    record path (``records.judge_refused``): records built from the decoded
    values and judged by the snapshot rules, then by its directories. Any
    OSError or ValueError makes it a failed release. Only an unlistable
    project directory raises."""
    facts, failed, warnings, unjoined = [], [], [], dict(rows or ())
    for release_dir in _subdirs(project_dir.path):
        version_label = _utf8_name(release_dir.name)
        try:
            if version_label != release_dir.name:
                raise SnapshotFormatError("release directory name is not valid UTF-8")
            row = unjoined.pop(version_label, None)
            snapshot_path = os.path.join(release_dir.path, "snapshot.json")
            pom = not os.path.isfile(snapshot_path)
            if pom:
                raw = _read_pom_release(release_dir, loc_suffixes, warnings, shared)
                release = _pom_facts(raw, coordinate, version_label, row, scope_filter, shared)
            else:
                raw = _decode_json(_read_utf8(snapshot_path, "."), ".")
                release = _json_facts(raw, coordinate, version_label, row, scope_filter, shared)
            if release is None:
                from .records import judge_refused  # the record tier, on the first refused release

                release = judge_refused(raw, pom, coordinate, version_label, row, scope_filter, shared)
        except (OSError, ValueError) as exc:
            failed.append(FailedRelease(version_label, str(exc)))
            warnings.append(f"failed release {project_dir.name}/{version_label}: {exc}")
            continue
        if row is None and rows is not None:
            warnings.append(f"no history row for {project_dir.name}/{version_label};"
                            f" bugs_fixed defaults to {release.bugs_fixed}")
        facts.append(release)
    facts.sort(key=_RELEASE_ORDER)
    return facts, failed, warnings, unjoined


def load_corpus(root: Path, history: list[ReleaseHistoryRow] | None,
                loc_extensions: frozenset[str] | set[str] = DEFAULT_LOC_EXTENSIONS,
                scope_filter: frozenset[str] | set[str] = DEFAULT_SCOPE_FILTER) -> Corpus:
    """Walk a corpus tree into per-project, time-ordered lists of release facts.

    Each release is judged once, by one path (see ``_load_project``), and
    only its ``ReleaseFacts`` are kept: the out-edges left after ``scope_filter`` drops dependency
    scopes, RFC, LCOM1, LOC, timestamp and bug count. ``history`` joins bug
    counts (and, for pom releases, timestamps) by (project key, version
    label); its keys are unique, as ``load_release_history`` guarantees, so
    a row joins at most one release directory. The rows that join none are
    warned as orphans, in history order. Pass None to skip the join
    silently; an empty list warns on every unmatched release.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root is not a readable directory: {root}")

    rows_of: dict[str, dict[str, ReleaseHistoryRow]] = {}  # key -> {version: row}, then the rows left unjoined
    for row in history or ():
        rows_of.setdefault(row.project_key, {})[row.version_label] = row
    facts, failed, warnings = {}, {}, []
    shared = SharedValues()
    loc_suffixes = tuple(loc_extensions)
    for project_dir in _subdirs(root):
        key = project_dir.name
        if (shown := _utf8_name(key)) != key:
            warnings.append(f"skipping directory '{shown}': name is not valid UTF-8")
            continue
        try:
            coordinate = ProjectCoordinate.from_key(key)
        except ValueError:
            warnings.append(f"skipping directory {key!r}: name is not a group:artifact key")
            continue
        try:
            facts[coordinate], failed[coordinate], project_warnings, rows_of[key] = _load_project(
                project_dir, coordinate, None if history is None else rows_of.get(key, {}), loc_suffixes,
                scope_filter, shared)
        except OSError as exc:  # no listing: its rows stay orphans
            warnings.append(f"skipping directory {key!r}: {exc}")
            continue
        warnings += project_warnings
    warnings += [f"orphan history row: {row.project_key},{row.version_label},"
                 f"{row.timestamp},{row.bugs_fixed} matches no release directory"
                 for row in history or () if row.version_label in rows_of[row.project_key]]
    return Corpus(facts, failed, warnings)


def __getattr__(name: str):
    # The two record-tier names that ``perfbench/corpora.py`` imports from
    # here, served on first use.
    if name in ("encode_snapshot", "parse_snapshot_json"):
        from . import records

        return getattr(records, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
