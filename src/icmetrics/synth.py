"""Seeded synthetic-ecosystem generator.

Materializes a corpus tree plus release history in the exact ingest
formats, so an analyze run can consume it unmodified. Metric inputs drift
across releases; the bug series couples to the API-surface size through
`coupling`, with seeded Gaussian noise and a small metric-independent
baseline so every project clears the non-zero-bugs selection criterion.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

from .ingest import encode_snapshot
from .model import ApiSurface, DependencyDecl, ProjectCoordinate, ProjectManifest, ReleaseSnapshot, UsageRecord

GROUP = "synth.example"
EXTERNAL_GROUP = "ext.vendor"

_EPOCH = 1_577_836_800  # 2020-01-01T00:00:00Z
_DAY = 86_400
# random.gauss returns cos(a) * sqrt(-2 ln(1 - u)) with 1 - u >= 2**-53,
# so no standard draw exceeds 8.6 in magnitude.
_GAUSS_BOUND = 9.0


def synth_ecosystem(out_dir: Path, seed: int, n_projects: int, n_releases: int,
                    coupling: float, noise: float) -> tuple[Path, Path]:
    """Write `corpus/` and `releases.csv` under out_dir; return both paths.

    Identical arguments produce byte-identical trees. With coupling = 0 the
    bug series is independent of every metric. If either path exists, write
    nothing and raise FileExistsError, so two corpora never mix."""
    if n_projects < 2:
        raise ValueError(f"need at least 2 projects, got {n_projects}")
    if n_releases < 3:
        raise ValueError(f"need at least 3 releases, got {n_releases}")
    if not math.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    if noise < 0:
        raise ValueError(f"noise must be non-negative, got {noise}")
    # Every bug count is baseline (<= 5) + coupling * method count + a
    # scaled Gaussian draw; bound each term so no release overflows.
    max_methods = 8 + 5 * (n_releases - 1) + 2
    if not math.isfinite(5 + abs(coupling) * max_methods + noise * _GAUSS_BOUND):
        raise ValueError(f"coupling {coupling} and noise {noise} overflow the bug counts")

    out_dir = Path(out_dir)
    corpus_dir = out_dir / "corpus"
    history_path = out_dir / "releases.csv"
    for path in (corpus_dir, history_path):
        if os.path.lexists(path):
            raise FileExistsError(f"{path} already exists; synth never overwrites a corpus")
    corpus_dir.mkdir(parents=True)

    rng = random.Random(seed)
    coordinates = [ProjectCoordinate(GROUP, f"lib{i:02d}") for i in range(n_projects)]
    externals = [ProjectCoordinate(EXTERNAL_GROUP, f"util{k}") for k in range(3)]
    # One shared drift slope: per-project slopes would make the pooled
    # correlation cluster-heavy (10 effective samples instead of n), which
    # skews the null p distribution away from uniform.
    slope = rng.randint(2, 5)

    history_lines = ["project,version,timestamp,bugs_fixed"]
    for i, coordinate in enumerate(coordinates):
        for t in range(n_releases):
            version = f"0.{t}.0"
            timestamp = _EPOCH + t * _DAY

            method_count = 8 + slope * t + rng.randint(0, 2)
            methods = {
                f"{GROUP}.lib{i:02d}.Api.m{k}()V": frozenset({f"{GROUP}.lib{i:02d}.Api.m{(k + 1) % method_count}()V"})
                for k in range(method_count)
            }

            intra = [coordinates[j] for j in range(min(i, 1 + t // 5))]
            ext = [externals[i % 3]] + ([externals[(i + 1) % 3]] if t >= 10 else [])
            declared = intra + ext
            referenced = declared[::2]

            loc = 1000 + 200 * i + 40 * t + rng.randint(0, 20)
            baseline = rng.randint(1, 5)
            bugs = max(0, round(baseline + coupling * method_count + rng.gauss(0.0, noise)))

            snapshot = ReleaseSnapshot(
                coordinate=coordinate,
                version_label=version,
                timestamp=timestamp,
                manifests=(
                    ProjectManifest(
                        coordinate=coordinate,
                        version_text=version,
                        declared_dependencies=tuple(
                            DependencyDecl(target=d, version_text="1.0", scope=None) for d in declared
                        ),
                    ),
                ),
                api_surface=ApiSurface(methods),
                usage=UsageRecord(frozenset(referenced)),
                loc=loc,
            )

            release_dir = corpus_dir / coordinate.key() / version
            release_dir.mkdir(parents=True, exist_ok=True)
            (release_dir / "snapshot.json").write_text(encode_snapshot(snapshot), encoding="utf-8")
            history_lines.append(f"{coordinate.key()},{version},{timestamp},{bugs}")

    history_path.write_text("\n".join(history_lines) + "\n", encoding="utf-8")
    return corpus_dir, history_path
