"""Command-line entry point: analyze / metrics / synth.

Exit codes: 0 success (warnings allowed), 1 fatal input error, 2 invalid
flags. Warnings and progress go to stderr; report data goes to files only.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .graph import DEFAULT_SCOPE_FILTER
from .ingest import (
    DEFAULT_LOC_EXTENSIONS,
    Corpus,
    CorpusError,
    HistoryFormatError,
    load_corpus,
    load_release_history,
)
from .pipeline import (
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
from .synth import synth_ecosystem


@dataclass
class RunConfig:
    command: str
    corpus: Path | None = None
    history: Path | None = None
    out: Path | None = None
    scope_filter: frozenset[str] = DEFAULT_SCOPE_FILTER
    loc_extensions: frozenset[str] = DEFAULT_LOC_EXTENSIONS
    activity_threshold: float = 0.05
    human: bool = False
    seed: int = 0
    n_projects: int = 10
    n_releases: int = 20
    coupling: float = 1.0
    noise: float = 1.0


def _comma_set(text: str) -> frozenset[str]:
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _positive_float(text: str) -> float:
    """An argparse type: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number greater than 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icmetrics",
        description="Interaction-complexity metrics over dependency-manifest corpora,"
        " correlated against per-release bug-fix counts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_corpus_flags(sub: argparse.ArgumentParser, history_required: bool) -> None:
        sub.add_argument("--corpus", required=True, metavar="DIR", help="corpus root directory")
        sub.add_argument("--history", required=history_required, metavar="FILE",
                         help="releases.csv with project,version,timestamp,bugs_fixed")
        sub.add_argument("--out", required=True, metavar="DIR", help="output directory (created if absent)")
        sub.add_argument("--exclude-scopes", default="test,provided", metavar="SCOPES",
                         help="comma-separated dependency scopes to ignore (default: test,provided)")
        sub.add_argument("--loc-ext", default=".java", metavar="EXTS",
                         help="comma-separated source suffixes for LOC counting (default: .java)")
        sub.add_argument("--workers", type=int, default=1, metavar="N",
                         help="accepted for compatibility; has no effect")

    analyze = subparsers.add_parser("analyze", help="run the full correlation study over a corpus")
    add_corpus_flags(analyze, history_required=True)
    analyze.add_argument("--activity-threshold", type=_positive_float, default=0.05, metavar="T",
                         help="releases-per-bug threshold for the low-activity partition (default: 0.05)")
    analyze.add_argument("--human", action="store_true",
                         help="also print aligned 2-decimal tables to stdout")

    metrics = subparsers.add_parser("metrics", help="dump one metric vector per release as JSON lines")
    add_corpus_flags(metrics, history_required=False)

    synth = subparsers.add_parser("synth", help="generate a seeded synthetic corpus + history")
    synth.add_argument("--out", required=True, metavar="DIR", help="output directory (created if absent)")
    synth.add_argument("--seed", type=int, default=0, metavar="N")
    synth.add_argument("--projects", type=int, default=10, metavar="N")
    synth.add_argument("--releases", type=int, default=20, metavar="N")
    synth.add_argument("--coupling", type=float, default=1.0, metavar="A",
                       help="strength of the bug/API-surface coupling (0 = independent)")
    synth.add_argument("--noise", type=float, default=1.0, metavar="S",
                       help="standard deviation of the bug-count noise")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.command in ("analyze", "metrics"):
        config.corpus = Path(args.corpus).resolve()
        config.history = Path(args.history).resolve() if args.history else None
        config.out = Path(args.out).resolve()
        config.scope_filter = _comma_set(args.exclude_scopes)
        config.loc_extensions = _comma_set(args.loc_ext)
        if args.command == "analyze":
            config.activity_threshold = args.activity_threshold
            config.human = args.human
    else:
        config.out = Path(args.out).resolve()
        config.seed = args.seed
        config.n_projects = args.projects
        config.n_releases = args.releases
        config.coupling = args.coupling
        config.noise = args.noise
    return config


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _info(message: str) -> None:
    print(f"info: {message}", file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_inputs(config: RunConfig) -> Corpus:
    history = None
    if config.history is not None:
        history = load_release_history(config.history.read_text(encoding="utf-8"))
    corpus = load_corpus(config.corpus, history, config.loc_extensions)
    for message in corpus.warnings:
        _warn(message)
    return corpus


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def cmd_analyze(config: RunConfig) -> int:
    try:
        corpus = _load_inputs(config)
        config.out.mkdir(parents=True, exist_ok=True)
    except (OSError, HistoryFormatError, CorpusError) as exc:
        return _fail(str(exc))

    vector_errors: list[str] = []
    series_map = build_series(corpus, config.scope_filter, vector_errors)
    for message in vector_errors:
        _warn(message)

    selected, rejected = select_projects(corpus)
    for coordinate in sorted(rejected):
        _info(f"rejected {coordinate.key()} ({rejected[coordinate]})")

    selected_series = [series_map[c] for c in sorted(selected)]
    # series_filename joins group and artifact with "_", so two keys can
    # share a file name; refuse before any file is written.
    owners: dict[str, str] = {}
    for series in selected_series:
        name = series_filename(series)
        if name in owners:
            return _fail(
                f"series file name clash: {owners[name]} and {series.coordinate.key()} both map to {name}"
            )
        owners[name] = series.coordinate.key()
    summaries = [summarize_project(series) for series in selected_series]
    pooled = correlate_pooled(selected_series)

    try:
        _write(config.out / "combined.csv", emit_combined_table(pooled))
        _write(
            config.out / "per_project.csv",
            emit_per_project_table(
                (summary.coordinate.key(), summary.correlations) for summary in summaries
            ),
        )
        _write(config.out / "summaries.csv", emit_summaries_table(summaries))
        for series in selected_series:
            _write(config.out / series_filename(series), emit_series_csv(series))
    except OSError as exc:
        return _fail(str(exc))

    low_activity, _ = classify_activity(summaries, config.activity_threshold)
    if low_activity:
        keys = ", ".join(summary.coordinate.key() for summary in low_activity)
        _info(f"low-activity projects (activity < {config.activity_threshold}): {keys}")

    if config.human:
        sys.stdout.write(render_combined_human(pooled))
        sys.stdout.write("\n")
        sys.stdout.write(render_summaries_human(summaries))
    return 0


def cmd_metrics(config: RunConfig) -> int:
    try:
        corpus = _load_inputs(config)
        config.out.mkdir(parents=True, exist_ok=True)
    except (OSError, HistoryFormatError, CorpusError) as exc:
        return _fail(str(exc))

    vector_errors: list[str] = []
    series_map = build_series(corpus, config.scope_filter, vector_errors)
    for message in vector_errors:
        _warn(message)

    try:
        _write(config.out / "metrics.jsonl", emit_metrics_jsonl(series_map.values()))
    except OSError as exc:
        return _fail(str(exc))
    return 0


def cmd_synth(config: RunConfig) -> int:
    try:
        corpus_dir, history_path = synth_ecosystem(
            config.out, config.seed, config.n_projects, config.n_releases,
            config.coupling, config.noise,
        )
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    _info(f"wrote {corpus_dir} and {history_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    if config.command == "analyze":
        return cmd_analyze(config)
    if config.command == "metrics":
        return cmd_metrics(config)
    return cmd_synth(config)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
