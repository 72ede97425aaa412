"""Campaign benchmark for gaussqpe.

A campaign is one ``gaussqpe`` CLI invocation. Each workload runs its
campaigns back to back through ``gaussqpe.cli.main``, in-process, in a
fresh worker process with one client, ``--threads 1`` and BLAS pinned to
one thread. Every campaign's artifacts are checked.

Run from the repository root:

    python3 bench/run.py --workload gsee-shallow --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and wraps
nothing. ``--trace 1`` wraps the layers' public callables (see
``spans.py``) and reports the per-layer metrics, with the tracing
overhead. Every metric is printed by name with its unit; the last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A full report (environment, exact counters,
per-campaign artifact sha256 digests) and the spans go to ``.bench_run/``
at the repository root; configs and ``--out`` directories live in a
temporary directory there that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".bench_run"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
# Share of gsee estimates allowed to miss epsilon: the campaigns' delta_fail.
DELTA_FAIL = workloads.ACCEPTANCE_INPUTS["delta_fail"]
TIME_LIMIT_S = 170.0


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``gaussqpe.cli``
    is imported. The first, untimed import compiles bytecode."""
    code = "import time, gaussqpe.cli; print(time.monotonic())"
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(proc.stdout.split()[-1]) - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussqpe campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaussqpe" / "cli.py").is_file():
        print(f"no gaussqpe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("--seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    began = time.monotonic()
    env = pinned_env()
    RUN_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=RUN_DIR)
    try:
        setup = [] if args.trace else measure_setup(env)
        result_path = os.path.join(workdir, "result.json")
        subprocess.run(
            [
                sys.executable, str(BENCH / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--workdir", workdir,
                "--result", result_path,
                "--spans", str(RUN_DIR / f"spans-{stem}.jsonl"),
            ],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
            timeout=TIME_LIMIT_S - (time.monotonic() - began),
        )
        with open(result_path) as fh:
            result = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    misses, estimates = result["estimate_misses"], result["estimates"]
    correct = failed == 0 and misses <= DELTA_FAIL * estimates
    if args.trace:
        metrics = result.pop("layers")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "campaign_s": {"value": result["campaign_s"], "unit": "s"},
            "work_per_s": {"value": result["work_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "fail_frac": failed / attempted,
        "setup_s_all": setup,
        "metrics": metrics,
        **result,
    }
    with open(RUN_DIR / f"report-{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    for key, value in sorted(result["env"].items()):
        print(f"env.{key} = {value}")
    for name, value in sorted(result.get("counters", {}).items()):
        print(f"counter.{name} = {value:.12g} per campaign")
    for name, metric in metrics.items():
        alias = f" ({workloads.WORKLOADS[args.workload].work})" if name == "work_per_s" else ""
        print(f"{name}{alias} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {failed / attempted:g} ({failed}/{attempted} campaigns)")
    if estimates:
        print(f"estimate_miss_frac = {misses / estimates:g} ({misses}/{estimates}, limit {DELTA_FAIL:g})")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
