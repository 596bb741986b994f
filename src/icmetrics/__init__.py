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
    ProjectManifest,
    ReleaseFacts,
    ReleaseSnapshot,
    UsageRecord,
    validate_snapshot,
)
from .pom import parse_pom
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
from .synth import synth_ecosystem

__version__ = "0.1.0"
