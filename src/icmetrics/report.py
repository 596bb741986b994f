"""Deterministic report emitters: CSV tables, JSON-lines dump, text tables.

Every emitter is a pure function from already-sorted inputs to text, so
output bytes never depend on worker count or filesystem ordering.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .metrics import METRIC_ORDER
from .pipeline import ProjectSeries, ProjectSummary
from .stats import CorrelationResult

COMBINED_HEADER = "metric,correlation,p_value,n"
PER_PROJECT_HEADER = "project,metric,correlation,p_value,n"
SUMMARIES_HEADER = (
    "project,n_releases,n_bugs,activity,median_wmc,median_dit,median_noc,"
    "median_cbo,median_rfc,median_lcom1,median_loc"
)
SERIES_HEADER = "version,timestamp,bugs_fixed,wmc,dit,noc,cbo,rfc,lcom1,loc"

_SUMMARY_MEDIAN_ORDER = ("IC-WMC", "IC-DIT", "IC-NOC", "IC-CBO", "IC-RFC", "IC-LCOM1", "LOC")


def format_correlation(r: float) -> str:
    """4 significant digits; NaN as the literal `nan`."""
    return f"{r:.4g}"


def format_p(p: float) -> str:
    """Scientific notation with 3 significant digits and a bare exponent,
    e.g. 1.00e0, 2.48e-2."""
    if p <= 0.0:
        return "0.00e0"
    exponent = math.floor(math.log10(p))
    mantissa = p / 10.0 ** exponent
    if round(mantissa, 2) >= 10.0:
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.2f}e{exponent}"


def _float_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _ordered(results: Iterable[CorrelationResult]) -> list[CorrelationResult]:
    by_name = {result.metric_name: result for result in results}
    return [by_name[name] for name in METRIC_ORDER if name in by_name]


def emit_combined_table(results: Iterable[CorrelationResult]) -> str:
    """Pooled correlation table, one row per metric in fixed report order."""
    lines = [COMBINED_HEADER]
    for result in _ordered(results):
        lines.append(
            f"{result.metric_name},{format_correlation(result.r)},{format_p(result.p_two_tailed)},{result.n}"
        )
    return "\n".join(lines) + "\n"


def emit_per_project_table(per_project: Iterable[tuple[str, Iterable[CorrelationResult]]]) -> str:
    """Per-project correlation rows; projects pre-sorted by the caller's key."""
    lines = [PER_PROJECT_HEADER]
    for project_key, results in per_project:
        for result in _ordered(results):
            lines.append(
                f"{project_key},{result.metric_name},"
                f"{format_correlation(result.r)},{format_p(result.p_two_tailed)},{result.n}"
            )
    return "\n".join(lines) + "\n"


def emit_summaries_table(summaries: Iterable[ProjectSummary]) -> str:
    lines = [SUMMARIES_HEADER]
    for summary in summaries:
        medians = ",".join(_float_cell(summary.medians.get(name)) for name in _SUMMARY_MEDIAN_ORDER)
        lines.append(
            f"{summary.coordinate.key()},{summary.n_releases},{summary.n_bugs_total},"
            f"{repr(summary.activity)},{medians}"
        )
    return "\n".join(lines) + "\n"


def emit_series_csv(series: ProjectSeries) -> str:
    """Plot-ready per-release values for one project; absent metrics are empty cells."""
    lines = [SERIES_HEADER]
    for point in series.releases:
        vector = point.vector
        cells = [
            point.version_label,
            str(point.timestamp),
            str(point.bugs_fixed),
            str(vector.wmc),
            str(vector.dit),
            str(vector.noc),
            str(vector.cbo),
            "" if vector.rfc is None else str(vector.rfc),
            "" if vector.lcom1 is None else str(vector.lcom1),
            "" if vector.loc is None else str(vector.loc),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def series_filename(series: ProjectSeries) -> str:
    return f"series_{series.coordinate.group}_{series.coordinate.artifact}.csv"


def emit_metrics_jsonl(series_list: Iterable[ProjectSeries]) -> str:
    """One JSON object per (project, release), sorted by (coordinate, timestamp)."""
    lines = []
    for series in sorted(series_list, key=lambda s: s.coordinate):
        for point in sorted(series.releases, key=lambda p: (p.timestamp, p.version_label)):
            record = {
                "project": series.coordinate.key(),
                "version": point.version_label,
                "timestamp": point.timestamp,
                "wmc": point.vector.wmc,
                "dit": point.vector.dit,
                "noc": point.vector.noc,
                "cbo": point.vector.cbo,
                "rfc": point.vector.rfc,
                "lcom1": point.vector.lcom1,
                "loc": point.vector.loc,
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
        for result in _ordered(results)
    ]
    return _render_table(["Metric", "Correlation", "two-tailed p-value", "n"], rows)


def render_summaries_human(summaries: Iterable[ProjectSummary]) -> str:
    rows = []
    for summary in summaries:
        rows.append(
            [summary.coordinate.key(), str(summary.n_releases), str(summary.n_bugs_total),
             _human_float(summary.activity)]
            + [
                "" if summary.medians.get(name) is None else _human_float(summary.medians[name])
                for name in _SUMMARY_MEDIAN_ORDER
            ]
        )
    return _render_table(
        ["Project", "Releases", "Bugs", "Activity", "WMC", "DIT", "NOC", "CBO", "RFC", "LCOM1", "LOC"],
        rows,
    )
