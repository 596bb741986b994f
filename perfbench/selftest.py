"""Self-test of the benchmark, on tiny sizes of every workload.

    python3 perfbench/selftest.py

Checks that each workload passes the oracle in both modes, and that a
planted wrong series value is caught and counted in the error rate.
Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

TINY = {"aligned": (6, 10), "staggered": (6, 10), "pom-loc": (4, 10)}


def plant_wrong_value(out_dir) -> None:
    """Add one to the wmc cell of the first release of the first series."""
    path = sorted(out_dir.glob("series_*.csv"))[0]
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"selftest ok: {message}")


def main() -> int:
    if not (run.SRC / "icmetrics").is_dir():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    for name, (projects, releases) in TINY.items():
        for trace in (False, True):
            result = run.run_benchmark(name, 3, 0.5, trace, projects, releases)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)} passes the checks ({result['attempted']} runs)")
            wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={int(trace)} reports exactly the BENCHMARK.json metrics")
    planted = {"done": False}

    def plant_once(out_dir) -> None:
        if not planted["done"]:
            planted["done"] = True
            plant_wrong_value(out_dir)

    result = run.run_benchmark("aligned", 3, 0.5, False, *TINY["aligned"], tamper=plant_once)
    expect(not result["correct"] and result["failed"] == 1 and result["attempted"] >= 2,
           f"planted wrong series value is caught: {result['failed']} of {result['attempted']} runs failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
