"""Traced in-process run of ``icmetrics.cli.main``.

    python3 perfbench/tracer.py --spans FILE --run-id N -- analyze --corpus ...

Wraps the module-level names each layer calls through, so that spans sit
at layer boundaries without any change to the program. Spans (name, start,
end, parent index) and counters are kept in memory and appended to FILE as
one JSON line when main returns. A name the program no longer has is
skipped, so later refactors leave the trace partial instead of broken.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from collections import Counter
from functools import wraps

# module -> {attribute: span name}
SPANNED = {
    "cli": {
        "load_corpus": "ingest.load_corpus",
        "load_release_history": "ingest.load_release_history",
        "build_series": "pipeline.build_series",
        "select_projects": "pipeline.select_projects",
        "summarize_project": "pipeline.summarize_project",
        "correlate_pooled": "pipeline.correlate_pooled",
        "emit_combined_table": "report.emit",
        "emit_per_project_table": "report.emit",
        "emit_summaries_table": "report.emit",
        "emit_series_csv": "report.emit",
    },
    "pipeline": {
        "graph_snapshots_at": "pipeline.graph_snapshots_at",
        "build_graph": "graph.build_graph",
        "compute_vector": "metrics.compute_vector",
        "correlate": "stats.correlate",
    },
    "metrics": {"condensation_depth": "graph.condensation_depth"},
    "ingest": {
        "parse_snapshot_json": "ingest.parse_snapshot_json",
        "count_loc": "ingest.count_loc",
        "parse_pom": "pom.parse_pom",
    },
}

# Called too often for a span each (latest_at_or_before runs P times per
# release); these only count calls.
COUNTED = {
    "pipeline": {"latest_at_or_before": "pipeline.latest_at_or_before"},
    "ingest": {"validate_snapshot": "model.validate_snapshot"},
}


def _edge_count(graph) -> int:
    edges = getattr(graph, "edges", None)
    if edges is None:
        edges = [t for targets in getattr(graph, "out_edges", {}).values() for t in targets]
    return len(edges)


def _corpus_sizes(corpus) -> dict[str, int]:
    return {
        "ingest.releases_parsed": sum(len(v) for v in getattr(corpus, "snapshots", {}).values()),
        "ingest.releases_failed": sum(len(v) for v in getattr(corpus, "failed", {}).values()),
    }


# span name -> function of the wrapped call's result giving counters to add
OBSERVERS = {
    "graph.build_graph": lambda graph: {"graph.edges": _edge_count(graph)},
    "ingest.load_corpus": _corpus_sizes,
    "report.emit": lambda text: {"report.bytes_out": len(text.encode("utf-8"))},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        observe = OBSERVERS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                counts.update(observe(result))
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for table, wrap in ((SPANNED, self.span), (COUNTED, self.counted)):
            for module_name, names in table.items():
                module = importlib.import_module(f"icmetrics.{module_name}")
                for attribute, span_name in names.items():
                    if hasattr(module, attribute):
                        setattr(module, attribute, wrap(span_name, getattr(module, attribute)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file the run's trace is appended to")
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="icmetrics arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    tracer.install()
    from icmetrics import cli

    code = tracer.span("cli.main", cli.main)(argv)
    with open(args.spans, "a", encoding="utf-8") as handle:
        json.dump({"run_id": args.run_id, "exit_code": code, "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, handle)
        handle.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
