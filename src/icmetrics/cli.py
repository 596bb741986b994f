"""Command-line entry point: analyze / metrics / synth.

Exit codes: 0 success (warnings allowed), 1 fatal error, 2 invalid flags.
Warnings and progress go to stderr; report data goes to files only. The
commands raise; ``main`` alone turns an OSError or a ValueError (every input
error is one) into ``error: ...`` and exit 1. Anything else is a bug.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path

from .ingest import (
    DEFAULT_LOC_EXTENSIONS,
    DEFAULT_SCOPE_FILTER,
    Corpus,
    HistoryFormatError,
    load_corpus,
    load_release_history,
)
from .model import ProjectCoordinate
from .pipeline import (
    ProjectSeries,
    build_series,
    classify_activity,
    correlate_pooled,
    select_projects,
    summarize_project,
)
from .report import (
    emit_combined_table,
    emit_metrics_jsonl,
    emit_per_project_table,
    emit_series_csv,
    emit_summaries_table,
    render_combined_human,
    render_summaries_human,
    series_filename,
)


def _comma_set(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _path(text: str) -> Path:
    return Path(text).resolve()


def _positive_float(text: str) -> float:
    """An argparse type: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number greater than 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmetrics",
        description="Interaction-complexity metrics over dependency-manifest corpora,"
        " correlated against per-release bug-fix counts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_corpus_flags(sub: argparse.ArgumentParser, history_required: bool) -> None:
        sub.add_argument("--corpus", type=_path, required=True, metavar="DIR", help="corpus root directory")
        sub.add_argument("--history", required=history_required, metavar="FILE",
                         help="releases.csv with project,version,timestamp,bugs_fixed")
        sub.add_argument("--out", type=_path, required=True, metavar="DIR",
                         help="output directory (created if absent); an existing report file is never overwritten")
        # argparse passes a non-string default through without calling type.
        sub.add_argument("--exclude-scopes", type=_comma_set, default=DEFAULT_SCOPE_FILTER, metavar="SCOPES",
                         help="comma-separated dependency scopes to ignore"
                         f" (default: {','.join(sorted(DEFAULT_SCOPE_FILTER))})")
        sub.add_argument("--loc-ext", type=_comma_set, default=DEFAULT_LOC_EXTENSIONS, metavar="EXTS",
                         help="comma-separated source suffixes for LOC counting"
                         f" (default: {','.join(sorted(DEFAULT_LOC_EXTENSIONS))})")
        sub.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                         help="accepted for compatibility (N >= 1); has no effect")

    analyze = subparsers.add_parser("analyze", help="run the full correlation study over a corpus")
    add_corpus_flags(analyze, history_required=True)
    analyze.add_argument("--activity-threshold", type=_positive_float, default=0.05, metavar="T",
                         help="releases-per-bug threshold for the low-activity partition (default: 0.05)")
    analyze.add_argument("--human", action="store_true",
                         help="also print aligned 2-decimal tables to stdout")

    metrics = subparsers.add_parser("metrics", help="dump one metric vector per release as JSON lines")
    add_corpus_flags(metrics, history_required=False)

    synth = subparsers.add_parser("synth", help="generate a seeded synthetic corpus + history")
    synth.add_argument("--out", type=_path, required=True, metavar="DIR", help="output directory (created if absent)")
    synth.add_argument("--seed", type=int, default=0, metavar="N")
    synth.add_argument("--projects", type=int, default=10, metavar="N")
    synth.add_argument("--releases", type=int, default=20, metavar="N")
    synth.add_argument("--coupling", type=float, default=1.0, metavar="A",
                       help="strength of the bug/API-surface coupling (0 = independent)")
    synth.add_argument("--noise", type=float, default=1.0, metavar="S",
                       help="standard deviation of the bug-count noise")

    return parser


def _info(message: str) -> None:
    print(f"info: {message}", file=sys.stderr)


def _load_series(args: argparse.Namespace) -> tuple[Corpus, dict[ProjectCoordinate, ProjectSeries]]:
    """Load the corpus and history, warn about load problems, create
    ``--out``, and build every project's series.

    Raises OSError or ValueError on a fatal input error.
    The load is the only step that turns a bad release into a warning: the
    series build measures every release it keeps.
    """
    history = None
    if args.history:
        path = _path(args.history)
        try:
            # Decoded from bytes: text mode would turn a quoted CR into LF.
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HistoryFormatError(f"{path}: invalid UTF-8: {exc}") from None
        history = load_release_history(text)
    corpus = load_corpus(args.corpus, history, args.loc_ext, args.exclude_scopes)
    del history  # joined into the corpus; free the rows before the series build
    for message in corpus.warnings:
        print(f"warning: {message}", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    return corpus, build_series(corpus)


def _write_new(out: Path, command: str, files: list[tuple[str, str, str]]) -> None:
    """Write each (file name, owner, text) of ``files`` to ``out``, or none:
    if a name repeats or is in ``out`` already, write nothing and raise
    FileExistsError saying why. If a write fails, whatever the exception,
    delete the files this call created and let the exception go on."""
    present = set(os.listdir(out))
    owners: dict[str, str] = {}
    for name, owner, _ in files:
        if name in owners:
            raise FileExistsError(f"series file name clash: {owners[name]} and {owner} both map to {name}")
        if name in present:
            raise FileExistsError(f"{out / name} already exists; {command} never overwrites a report file")
        owners[name] = owner
    created: list[Path] = []
    try:
        for name, _, text in files:
            with open(out / name, "x", encoding="utf-8", newline="") as handle:  # "x": create, never replace
                created.append(out / name)
                handle.write(text)
        created.clear()  # every file written: keep them
    finally:
        for path in created:
            path.unlink(missing_ok=True)


def cmd_analyze(args: argparse.Namespace) -> None:
    corpus, series_map = _load_series(args)
    selected, rejected = select_projects(corpus)
    for coordinate, reason in rejected.items():
        _info(f"rejected {coordinate.key()} ({reason})")

    selected_series = [series_map[c] for c in sorted(selected)]
    summaries = [summarize_project(series) for series in selected_series]
    pooled = correlate_pooled(selected_series)

    files = [("combined.csv", "analyze", emit_combined_table(pooled)),
             ("per_project.csv", "analyze", emit_per_project_table(
                 (summary.coordinate.key(), summary.correlations) for summary in summaries)),
             ("summaries.csv", "analyze", emit_summaries_table(summaries))]
    # series_filename joins group and artifact with "_", so two keys can
    # share a file name.
    files += [(series_filename(series), series.coordinate.key(), emit_series_csv(series))
              for series in selected_series]
    _write_new(args.out, "analyze", files)

    low_activity, _ = classify_activity(summaries, args.activity_threshold)
    if low_activity:
        keys = ", ".join(summary.coordinate.key() for summary in low_activity)
        _info(f"low-activity projects (activity < {args.activity_threshold}): {keys}")

    if args.human:
        sys.stdout.write(render_combined_human(pooled))
        sys.stdout.write("\n")
        sys.stdout.write(render_summaries_human(summaries))


def cmd_metrics(args: argparse.Namespace) -> None:
    _, series_map = _load_series(args)
    metrics = emit_metrics_jsonl(series_map.values())
    _write_new(args.out, "metrics", [("metrics.jsonl", "metrics", metrics)])


def cmd_synth(args: argparse.Namespace) -> None:
    from .synth import synth_ecosystem  # here, so analyze and metrics runs never import it

    corpus_dir, history_path = synth_ecosystem(args.out, args.seed, args.projects, args.releases,
                                               args.coupling, args.noise)
    _info(f"wrote {corpus_dir} and {history_path}")


_COMMANDS = {"analyze": cmd_analyze, "metrics": cmd_metrics, "synth": cmd_synth}


def main(argv: list[str] | None = None) -> int:
    """Run one command; return 1, after an ``error:`` line, if it or the
    flush of its stdout raises an OSError or a ValueError, else 0."""
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
        sys.stdout.flush()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """The process entry point: run ``main`` and exit with its code.

    Text that a closed or full stdout refused stays buffered, and the flush
    at exit would fail again (``Exception ignored``, exit 120); so stdout is
    pointed at the null device, as Python's note on SIGPIPE advises.
    Freezing the heap moves every live object to the permanent generation,
    so interpreter shutdown skips its collection passes; ``main`` itself
    leaves the heap collectable for callers that run it many times.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
