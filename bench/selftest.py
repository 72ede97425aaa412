"""Self-test of the campaign benchmark.

Runs every workload twice at one seed, untraced and traced, through
``run.py`` with a short measuring time, and checks that

- each run prints exactly the metrics BENCHMARK.json names for its
  mode, each with the unit given there, and every campaign passes;
- the exact counters, the per-layer counts and the artifact digests of
  the campaigns both runs share repeat exactly.

Run from the repository root (about three minutes on two cores):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = "1"
EXACT_UNITS = ("count", "B")
EXACT_LAYERS = ("estimation.basket_fraction",)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report_path = ROOT / ".bench_run" / f"report-{workload}-seed{SEED}-trace{trace}.json"
    with open(report_path) as fh:
        return line, json.load(fh)


def exact_part(report: dict, trace: int) -> dict:
    """What must repeat exactly at one seed: counters and shared digests."""
    if trace:
        counts = {
            name: m["value"]
            for name, m in report["metrics"].items()
            if m["unit"] in EXACT_UNITS or name in EXACT_LAYERS
        }
    else:
        counts = report["counters"]
    return {"counts": counts, "sha256": report["sha256"]}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs = [run(workload, trace) for _ in range(2)]
            for line, _ in runs:
                units = {name: m["unit"] for name, m in line["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{workload} trace={trace}: metrics/units {units}")
                if not line["correct"] or line["failed"]:
                    problems.append(f"{workload} trace={trace}: outputs failed checks")
            first, second = (exact_part(report, trace) for _, report in runs)
            shared = first["sha256"].keys() & second["sha256"].keys()
            if first["counts"] != second["counts"]:
                problems.append(
                    f"{workload} trace={trace}: counters differ "
                    f"{first['counts']} != {second['counts']}"
                )
            if any(first["sha256"][k] != second["sha256"][k] for k in shared):
                problems.append(f"{workload} trace={trace}: artifact digests differ")
            print(f"{workload} trace={trace}: {len(first['counts'])} counters, "
                  f"{len(shared)} campaigns compared", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
