"""The six interaction-complexity metrics and their report order.

The four graph metrics come from ``pipeline.build_series``, which computes
them in one sweep over the ecosystem's history; the two below read only the
release's own inputs.

  IC-WMC   number of distinct libraries a project depends on
  IC-DIT   longest dependency chain below the project
  IC-NOC   number of corpus projects depending on it
  IC-CBO   number of projects mutually dependent with it (cycle size - 1)
  IC-RFC   unique methods reachable in one step through the public surface
  IC-LCOM1 declared direct dependencies the project never references
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .model import ApiSurface, ProjectCoordinate, UsageRecord

# Row order of the correlation tables.
METRIC_ORDER = ("IC-NOC", "IC-DIT", "IC-LCOM1", "IC-WMC", "IC-RFC", "IC-CBO", "LOC")

# Report name -> MetricVector field, in field order; every report column
# and key for the per-release metrics is derived from it.
METRIC_FIELDS = {
    "IC-WMC": "wmc",
    "IC-DIT": "dit",
    "IC-NOC": "noc",
    "IC-CBO": "cbo",
    "IC-RFC": "rfc",
    "IC-LCOM1": "lcom1",
    "LOC": "loc",
}


def response_set(methods: Mapping[str, Iterable[str]]) -> set[str]:
    """(public method identities) union (all first-step callees)."""
    return set(methods).union(*methods.values())


def ic_rfc(surface: ApiSurface) -> int:
    """Size of the surface's response set."""
    return len(response_set(surface.methods))


def ic_lcom1(manifest_deps: frozenset[ProjectCoordinate] | set[ProjectCoordinate],
             usage: UsageRecord) -> int:
    """Declared direct dependencies never referenced by the project.

    Referenced coordinates that were not declared (transitively supplied)
    are ignored; they cannot reduce the count below zero.
    """
    return len(manifest_deps - usage.referenced_coordinates)
