"""Deterministic report emitters: CSV tables, JSON-lines dump, text tables.

Every emitter is a pure function from its inputs to text, and keeps the
order of projects, releases and correlations it is given: projects by
coordinate, releases by (timestamp, version) and correlation rows in
METRIC_ORDER, as the pipeline builds them. So output bytes never depend on
filesystem ordering. Every per-release column and key comes from
METRIC_FIELDS.

Every CSV table is RFC 4180 CSV with LF line ends: a cell holding `,`, `"`,
CR or LF is double-quoted, with `"` doubled, and other cells are written as
is. An absent value is an empty cell; a float is written as its repr.
"""

from __future__ import annotations

import csv
import json
import math
from types import SimpleNamespace
from typing import Iterable

from .metrics import METRIC_FIELDS
from .pipeline import ProjectSeries, ProjectSummary
from .stats import CorrelationResult

COMBINED_HEADER = "metric,correlation,p_value,n"
PER_PROJECT_HEADER = "project," + COMBINED_HEADER
SUMMARIES_HEADER = "project,n_releases,n_bugs,activity," + ",".join(
    f"median_{field}" for field in METRIC_FIELDS.values())
SERIES_HEADER = "version,timestamp,bugs_fixed," + ",".join(METRIC_FIELDS.values())


def format_correlation(r: float) -> str:
    """4 significant digits; NaN as the literal `nan`."""
    return f"{r:.4g}"


def format_p(p: float) -> str:
    """Scientific notation with 3 significant digits, correctly rounded
    (subnormal p included), and a bare exponent, e.g. 1.00e0, 2.48e-2."""
    if p <= 0.0:
        return "0.00e0"
    mantissa, exponent = f"{p:.2e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _csv(header: str, rows: Iterable[Iterable[object]]) -> str:
    # Python 3.11's writer quotes CR and LF only where its line terminator
    # holds them, so records are written with CRLF, then cut to LF.
    records: list[str] = []
    csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n").writerows(rows)
    return "\n".join([header, *(record[:-2] for record in records)]) + "\n"


def _correlation_row(result: CorrelationResult) -> tuple[str, str, str, int]:
    return result.metric_name, format_correlation(result.r), format_p(result.p_two_tailed), result.n


def emit_combined_table(results: Iterable[CorrelationResult]) -> str:
    """Pooled correlation table, one row per metric in the order given."""
    return _csv(COMBINED_HEADER, map(_correlation_row, results))


def emit_per_project_table(per_project: Iterable[tuple[str, Iterable[CorrelationResult]]]) -> str:
    """Per-project correlation rows, projects and metrics in the order given."""
    return _csv(PER_PROJECT_HEADER, ((project_key, *_correlation_row(result))
                                     for project_key, results in per_project for result in results))


def emit_summaries_table(summaries: Iterable[ProjectSummary]) -> str:
    return _csv(SUMMARIES_HEADER, (
        (summary.coordinate.key(), summary.n_releases, summary.n_bugs_total, summary.activity,
         *map(summary.medians.get, METRIC_FIELDS))
        for summary in summaries
    ))


def emit_series_csv(series: ProjectSeries) -> str:
    """Plot-ready rows, one per release: version, timestamp, bug count, vector."""
    return _csv(SERIES_HEADER, (point[:3] + point.vector for point in series.releases))


def series_filename(series: ProjectSeries) -> str:
    return f"series_{series.coordinate.group}_{series.coordinate.artifact}.csv"


def emit_metrics_jsonl(series_list: Iterable[ProjectSeries]) -> str:
    """One JSON object per (project, release), in the order given."""
    lines = []
    for series in series_list:
        for point in series.releases:
            record = {
                "project": series.coordinate.key(),
                "version": point.version_label,
                "timestamp": point.timestamp,
                **dict(zip(METRIC_FIELDS.values(), point.vector)),
            }
            lines.append(json.dumps(record, sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# --human rendering


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    ruler = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), ruler] + [fmt(row) for row in rows]) + "\n"


def _human_float(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.2f}"


def render_combined_human(results: Iterable[CorrelationResult]) -> str:
    rows = [
        [result.metric_name, _human_float(result.r), _human_float(result.p_two_tailed), str(result.n)]
        for result in results
    ]
    return _render_table(["Metric", "Correlation", "two-tailed p-value", "n"], rows)


def render_summaries_human(summaries: Iterable[ProjectSummary]) -> str:
    rows = [
        [summary.coordinate.key(), str(summary.n_releases), str(summary.n_bugs_total),
         _human_float(summary.activity)]
        + ["" if summary.medians.get(name) is None else _human_float(summary.medians[name])
           for name in METRIC_FIELDS]
        for summary in summaries
    ]
    return _render_table(
        ["Project", "Releases", "Bugs", "Activity"] + [name.removeprefix("IC-") for name in METRIC_FIELDS],
        rows,
    )
