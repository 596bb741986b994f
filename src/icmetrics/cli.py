"""Command-line entry point: analyze / metrics / synth.

Exit codes: 0 success (warnings allowed), 1 fatal input error, 2 invalid
flags. Warnings and progress go to stderr; report data goes to files only.
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
    CorpusError,
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


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(f"info: {message}", file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_series(args: argparse.Namespace) -> tuple[Corpus, dict[ProjectCoordinate, ProjectSeries]]:
    """Load the corpus and history, create ``--out``, and build every
    project's series; warn about load problems, then about vector errors.

    Raises OSError, HistoryFormatError or CorpusError on a fatal input error.
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
        _warn(message)
    args.out.mkdir(parents=True, exist_ok=True)

    vector_errors: list[str] = []
    series_map = build_series(corpus, vector_errors)
    for message in vector_errors:
        _warn(message)
    return corpus, series_map


def _write_new(out: Path, command: str, files: list[tuple[str, str, str]]) -> str | None:
    """Write each (file name, owner, text) of ``files`` to ``out``, or none:
    if a name repeats or is in ``out`` already, write nothing and return why;
    if a write fails, delete the files this call created and return the error."""
    created: list[Path] = []
    try:
        present = set(os.listdir(out))
        owners: dict[str, str] = {}
        for name, owner, _ in files:
            if name in owners:
                return f"series file name clash: {owners[name]} and {owner} both map to {name}"
            if name in present:
                return f"{out / name} already exists; {command} never overwrites a report file"
            owners[name] = owner
        for name, _, text in files:
            with open(out / name, "x", encoding="utf-8", newline="") as handle:  # "x": create, never replace
                created.append(out / name)
                handle.write(text)
    except OSError as exc:
        for path in created:
            path.unlink(missing_ok=True)
        return str(exc)
    return None


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        corpus, series_map = _load_series(args)
    except (OSError, HistoryFormatError, CorpusError) as exc:
        return _fail(str(exc))

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
    refusal = _write_new(args.out, "analyze", files)
    if refusal:
        return _fail(refusal)

    low_activity, _ = classify_activity(summaries, args.activity_threshold)
    if low_activity:
        keys = ", ".join(summary.coordinate.key() for summary in low_activity)
        _info(f"low-activity projects (activity < {args.activity_threshold}): {keys}")

    if args.human:
        sys.stdout.write(render_combined_human(pooled))
        sys.stdout.write("\n")
        sys.stdout.write(render_summaries_human(summaries))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    try:
        _, series_map = _load_series(args)
    except (OSError, HistoryFormatError, CorpusError) as exc:
        return _fail(str(exc))
    metrics = emit_metrics_jsonl(series_map.values())
    refusal = _write_new(args.out, "metrics", [("metrics.jsonl", "metrics", metrics)])
    return _fail(refusal) if refusal else 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import synth_ecosystem  # here, so analyze and metrics runs never import it

    try:
        corpus_dir, history_path = synth_ecosystem(
            args.out, args.seed, args.projects, args.releases, args.coupling, args.noise,
        )
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    _info(f"wrote {corpus_dir} and {history_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "metrics":
        return cmd_metrics(args)
    return cmd_synth(args)


def run() -> None:
    """The process entry point: run ``main`` and exit with its code.

    Freezing the heap first moves every live object to the permanent
    generation, so interpreter shutdown skips its collection passes over a
    heap that holds no garbage. ``main`` itself leaves the heap collectable
    for callers that run it many times in one process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
