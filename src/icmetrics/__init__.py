"""Interaction-complexity metrics for dependency-manifest ecosystems."""

from .ingest import (
    Corpus,
    ReleaseHistoryRow,
    count_loc,
    encode_snapshot,
    load_corpus,
    load_release_history,
    parse_snapshot_json,
    release_facts,
)
from .metrics import ic_lcom1, ic_rfc
from .model import (
    ApiSurface,
    DependencyDecl,
    MetricVector,
    ProjectCoordinate,
    ReleaseFacts,
    UsageRecord,
    validate_snapshot,
)
from .pipeline import (
    ProjectSeries,
    ProjectSummary,
    build_series,
    classify_activity,
    correlate_pooled,
    correlate_project,
    select_projects,
)
from .stats import CorrelationResult, activity_ratio, median, p_two_tailed, pearson_r

__version__ = "0.1.0"


def __getattr__(name: str):
    # parse_pom, synth_ecosystem and the record tier are imported on first
    # use, so importing the package (as every analyze run does) loads
    # neither the XML decoder, the generator nor ``dataclasses``.
    if name in ("ProjectManifest", "ReleaseSnapshot"):
        from . import records

        return getattr(records, name)
    if name == "parse_pom":
        from .pom import parse_pom

        return parse_pom
    if name == "synth_ecosystem":
        from .synth import synth_ecosystem

        return synth_ecosystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
