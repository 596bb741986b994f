"""End-to-end and per-layer benchmark for ``icmetrics analyze``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload aligned --seed 0 --seconds 30 --trace 0

Set-up writes the workload's corpus with ``icmetrics synth`` (timed several
times; the median is ``setup_s``) and rewrites it for the workload. The
benchmark then runs one ``icmetrics analyze --workers 1`` process at a time
in a closed loop for ``--seconds`` seconds and checks every output directory
against the oracle in ``oracle.py``. ``--workers 1`` keeps counters exact,
spans disjoint and the load on one core whatever the host. Every analyze
process is bracketed by calibration passes, and its time is reported at a
fixed reference speed (see ``Calibration``).

``--trace 0`` reports the end-to-end metrics of untraced processes.
``--trace 1`` alternates untraced processes with traced in-process runs of
``icmetrics.cli.main`` (``tracer.py``), writes every span to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl`` and reports per-layer
metrics derived from the spans. Human-readable lines go first; the last line
of standard output is one JSON object.

The program comes from ``src/`` of the checkout, never from an installed
copy; without ``src/icmetrics`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORK_ROOT = Path.cwd() / ".perfbench_work"
OUT_ROOT = Path.cwd() / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
# A run must end within 180 s; a child still running at this point of the
# run is killed and counted as failed.
RUN_BUDGET_S = 170.0


# The host's speed drifts: the same analyze process has taken anywhere from
# 6 s to 10.5 s, and a fixed pass of pure Python from 0.15 s to 0.27 s, in
# phases lasting from seconds to minutes. So every analyze process is bracketed
# by a fixed calibration pass of the kind of work analyze does (graph
# reachability, sorting names, a JSON round trip), and its wall time is scaled
# by CALIBRATION_REF_S over the mean of the two passes around it. That is the
# time the process would have taken on a host that runs the pass in
# CALIBRATION_REF_S, close to the pass's median on the 2-vCPU VM the first
# numbers in README.md come from. The benchmark code is the same on every
# commit compared, so a slower program still reads slower.
CALIBRATION_REF_S = 0.22


class Calibration:
    """Times of a fixed calibration pass, run between timed processes."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.graph = [rng.sample(range(500), 4) for _ in range(500)]
        self.names = [f"org.example{rng.randrange(10**4)}:artifact{rng.randrange(10**4)}" for _ in range(4000)]
        self.passes: list[float] = []
        self._pass()  # warm-up, not recorded

    def _pass(self) -> float:
        start = time.perf_counter()
        for root in range(0, len(self.graph), 3):
            seen = {root}
            stack = [root]
            while stack:
                for node in self.graph[stack.pop()]:
                    if node not in seen:
                        seen.add(node)
                        stack.append(node)
        for _ in range(7):
            json.loads(json.dumps({name: sorted(name) for name in sorted(self.names)}))
        return time.perf_counter() - start

    def mark(self) -> None:
        """Time one pass; call before the first timed process and after each."""
        self.passes.append(self._pass())

    def scale(self, wall_s: float) -> float:
        """`wall_s` of the process between the last two passes, at the reference speed."""
        return wall_s * CALIBRATION_REF_S / statistics.mean(self.passes[-2:])


# name -> (projects, releases). Why each workload exists is recorded in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {"aligned": (100, 20), "staggered": (40, 20), "pom-loc": (40, 30)}


@dataclass
class Process:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str


def spawn(argv: list[str], log: Path, deadline: float) -> Process:
    """Run one child to completion: wall time from spawn to exit, and its own
    peak RSS from wait4. A child still running at `deadline` is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(child.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - start))
            wall = time.perf_counter() - start
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            os.close(pidfd)
    child.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, usage.ru_maxrss / 1024.0, child.returncode, log.read_text(errors="replace"))


def icmetrics(*args: str) -> list[str]:
    return [sys.executable, "-m", "icmetrics.cli", *args]


def synth_seed(seed: int) -> int:
    """The synth seed for a workload seed.

    synth's first draw from its seed is a drift slope in 2..5 that sets
    every API-surface size: corpora of slope 2 and 5 differ by about 1.5x
    in bytes, memory and parse time. Mapping each workload seed to a synth
    seed of slope 3 keeps input size the same across seeds, while every
    other seeded choice still varies.
    """
    return next(s for s in itertools.count(seed * 64) if random.Random(s).randint(2, 5) == 3)


def set_up(name: str, seed: int, work: Path, projects: int, releases: int, deadline: float):
    """Write the workload corpus; return (setup_s, base dir, input bytes, Expected).

    setup_s is the median wall time of SETUP_REPEATS synth runs. It is not
    scaled to the reference speed: most of synth's time is spent writing
    files in the kernel, which the calibration pass does not exercise, and
    scaling made its spread over ten runs wider (0.31 against 0.14 raw)."""
    # corpora and oracle import icmetrics, which is importable only once
    # main() has put the checkout's src/ on sys.path.
    import corpora
    import oracle

    times = []
    for k in range(SETUP_REPEATS):
        proc = spawn(icmetrics("synth", "--out", str(work / f"base{k}"), "--seed", str(synth_seed(seed)),
                               "--projects", str(projects), "--releases", str(releases)), work / f"synth{k}.log", deadline)
        if proc.exit_code != 0:
            raise RuntimeError(f"synth failed with exit code {proc.exit_code}: {proc.stderr.strip()}")
        times.append(proc.wall_s)
    base = work / f"base{SETUP_REPEATS - 1}"
    for k in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"base{k}")

    if name == "pom-loc":
        releases_written = corpora.to_pom(base, seed)
    else:
        if name == "staggered":
            corpora.stagger(base, seed)
        releases_written = corpora.read_json_corpus(base)
    in_bytes = sum(p.stat().st_size for p in base.rglob("*") if p.is_file())
    print(f"{name}: synth wall times {', '.join(f'{t:.4f}' for t in times)} s")
    return statistics.median(times), base, in_bytes, oracle.Expected(releases_written)


def layer_metrics(record: dict, releases: int, in_bytes: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer numbers of one traced run, from its spans and counters,
    and the self time of every span name."""
    spans, counts = record["spans"], Counter(record["counts"])
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, start, end, _), child_time in zip(spans, covered):
        total[name] += end - start
        own[name] += end - start - child_time
        calls[name] += 1
    parsed = counts["ingest.releases_parsed"] or releases
    states = calls["graph.build_graph"]
    ingest_s = total["ingest.load_corpus"] + total["ingest.load_release_history"]
    return {
        "graph.build_graph_s": total["graph.build_graph"],
        "graph.states_built": states,
        "graph.states_per_release": states / parsed,
        "graph.mean_edges_per_state": counts["graph.edges"] / states if states else 0.0,
        "graph.condensation_depth_s": total["graph.condensation_depth"],
        "graph.condensation_depth_calls": calls["graph.condensation_depth"],
        "pipeline.graph_snapshots_at_s": total["pipeline.graph_snapshots_at"],
        "pipeline.latest_at_or_before_calls": counts["pipeline.latest_at_or_before"],
        "pipeline.build_series_s": total["pipeline.build_series"],
        "pipeline.build_series_self_s": own["pipeline.build_series"],
        "pipeline.select_projects_s": total["pipeline.select_projects"],
        "pipeline.summarize_s": total["pipeline.summarize_project"],
        "pipeline.correlate_pooled_s": total["pipeline.correlate_pooled"],
        "metrics.compute_vector_s": total["metrics.compute_vector"],
        "metrics.compute_vector_self_s": own["metrics.compute_vector"],
        "ingest.load_corpus_s": total["ingest.load_corpus"],
        "ingest.load_release_history_s": total["ingest.load_release_history"],
        "ingest.parse_snapshot_json_s": total["ingest.parse_snapshot_json"],
        "ingest.parse_snapshot_json_calls": calls["ingest.parse_snapshot_json"],
        "ingest.count_loc_s": total["ingest.count_loc"],
        "ingest.input_mb_per_s": in_bytes / 1e6 / ingest_s if ingest_s else 0.0,
        "ingest.releases_failed": counts["ingest.releases_failed"],
        "pom.parse_pom_s": total["pom.parse_pom"],
        "pom.parse_pom_calls": calls["pom.parse_pom"],
        "model.validate_calls_per_release": counts["model.validate_snapshot"] / parsed,
        "stats.correlate_s": total["stats.correlate"],
        "stats.correlate_calls": calls["stats.correlate"],
        "report.emit_s": total["report.emit"],
        "report.bytes_out": counts["report.bytes_out"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
    }, dict(own)


UNITS = {"mb_per_s": "MB/s", "_s": "s", "_calls": "count", "states_built": "count",
         "edges_per_state": "count", "releases_failed": "count", "bytes_out": "bytes"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "ratio")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  projects: int | None = None, releases: int | None = None, tamper=None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    `tamper(out_dir)`, when given, runs on each output directory before it
    is checked (the self-test plants faults with it).
    """
    import oracle

    deadline = time.perf_counter() + RUN_BUDGET_S
    projects = projects or WORKLOADS[name][0]
    releases = releases or WORKLOADS[name][1]
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, base, in_bytes, expected = set_up(name, seed, work, projects, releases, deadline)
        recorded = None
        if seed == DEFAULT_SEED and (projects, releases) == WORKLOADS[name]:
            recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(name)
        spans_file = OUT_ROOT / f"spans-{name}-seed{seed}.jsonl"
        if trace:
            OUT_ROOT.mkdir(exist_ok=True)
            spans_file.write_text("")

        analyze = ["analyze", "--corpus", str(base / "corpus"), "--history", str(base / "releases.csv"),
                   "--workers", "1"]
        untraced: list[Process] = []
        traced: list[Process] = []
        scaled: list[float] = []   # untraced wall times at the reference speed
        problems: list[str] = []
        failed = 0
        reference = recorded
        calibration = Calibration()
        calibration.mark()
        start = time.perf_counter()
        while not untraced or (trace and not traced) or time.perf_counter() - start < seconds:
            index = len(untraced) + len(traced)
            out = work / f"out{index}"
            if trace and len(traced) < len(untraced):
                proc = spawn([sys.executable, str(HERE / "tracer.py"), "--spans", str(spans_file),
                              "--run-id", str(len(traced)), "--", *analyze, "--out", str(out)],
                             work / f"analyze{index}.log", deadline)
                traced.append(proc)
            else:
                proc = spawn(icmetrics(*analyze, "--out", str(out)), work / f"analyze{index}.log", deadline)
                untraced.append(proc)
            calibration.mark()
            if proc is untraced[-1]:
                scaled.append(calibration.scale(proc.wall_s))
            if tamper is not None and out.is_dir():
                tamper(out)
            found = []
            if proc.exit_code != 0:
                found.append(f"exit code {proc.exit_code}")
            if "Traceback" in proc.stderr:
                found.append("traceback on stderr")
            if not found:
                try:
                    found = oracle.check(expected, out)
                except (ValueError, IndexError, OSError) as exc:
                    found = [f"unreadable report: {exc!r}"]
            if not found:
                digest = oracle.report_digest(out)
                reference = reference or digest
                if digest != reference:
                    found.append(f"report digest {digest} differs from {reference}")
            if found:
                failed += 1
                problems.append(f"run {index}: " + "; ".join(found[:3]))
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(untraced) + len(traced)
    analyze_s = statistics.median([p.wall_s for p in untraced])
    analyze_ref_s = statistics.median(scaled)
    for line in problems[:10]:
        print(f"FAIL {line}")
    print(f"{name}: seed {seed}, {projects}x{releases} = {expected.releases} releases,"
          f" {expected.states} ecosystem states, report digest {reference}")
    print(f"{name}: error_rate = {failed / attempted} ({failed} of {attempted} analyze runs failed)")

    if not trace:
        metrics = {
            "analyze_ref_s": analyze_ref_s,
            "releases_per_ref_s": expected.releases / analyze_ref_s,
            "peak_rss_mb": statistics.median([p.peak_rss_mb for p in untraced]),
            "setup_s": setup_s,
        }
        units = {"analyze_ref_s": "s", "releases_per_ref_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
        print(f"{name}: analyze wall times {', '.join(f'{p.wall_s:.4f}' for p in untraced)} s;"
              f" median {analyze_s:.4f} s of {len(untraced)}")
        print(f"{name}: calibration passes {', '.join(f'{t:.4f}' for t in calibration.passes)} s")
        print(f"{name}: analyze times at the reference speed {', '.join(f'{t:.4f}' for t in scaled)} s")
    else:
        records = [json.loads(line) for line in spans_file.read_text(encoding="utf-8").splitlines()]
        # With no trace at all (every traced run failed) every layer reads 0.
        per_run = [layer_metrics(r, expected.releases, in_bytes)
                   for r in records or [{"spans": [], "counts": {}}]]
        metrics = {key: statistics.median([m[key] for m, _ in per_run]) for key in per_run[0][0]}
        # Counts repeat exactly across runs; keep them whole numbers.
        metrics = {k: int(v) if unit_of(k) in ("count", "bytes") else v for k, v in metrics.items()}
        metrics["trace.overhead_ratio"] = metrics["cli.main_s"] / analyze_s
        units = {key: unit_of(key) for key in metrics}
        own = per_run[-1][1]
        top = max(own, key=own.get, default=None)
        ingest = metrics["ingest.load_corpus_s"] + metrics["ingest.load_release_history_s"]
        print(f"{name}: largest self time {top} ({own.get(top, 0.0):.4f} s);"
              f" ingest share of cli.main {ingest / (metrics['cli.main_s'] or 1.0):.3f};"
              f" states per release {metrics['graph.states_per_release']:.4f}")
    for key, value in metrics.items():
        print(f"{name}: {key} = {value} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark icmetrics analyze end to end and per layer.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "icmetrics" / "cli.py").is_file():
        print(f"error: no icmetrics sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
