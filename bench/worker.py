"""One workload in one fresh process: campaigns back to back through
``gaussqpe.cli.main``, in-process, with one client (a closed loop).

Started by ``run.py`` with BLAS pinned to one thread. Writes a JSON
result to ``--result``; the CLI's own stdout goes wherever the parent
sends it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from spans import SpanRecorder

from gaussqpe import cli

# Per-layer metrics of the traced run; "s" and "self_s" are seconds per
# campaign, the rest exact counts per campaign of the first cycle.
LAYER_TIMES = (
    ("planner.plan_gsee", "s"),
    ("planner.plan_sampling_round", "s"),
    ("simulator.mixed_distribution", "s"),
    ("simulator.SampleStream.draw", "s"),
    ("gaussian.wrap_mod", "s"),
    ("estimation.run_gsee", "self_s"),
    ("estimation.run_sampling_round", "self_s"),
    ("bounds.evaluate_plan_cases", "s"),
    ("bounds.run_default_grid", "self_s"),
    ("cli.main", "self_s"),
)
LAYER_CALLS = (
    "planner.plan_gsee",
    "simulator.mixed_distribution",
    "simulator.SampleStream.draw",
    "gaussian.wrap_mod",
    "estimation.run_gsee",
    "estimation.run_sampling_round",
    "bounds.evaluate_plan_cases",
)
LAYER_COUNTERS = (
    "simulator.bins",
    "simulator.fft_bytes_computed",
    "simulator.draws",
    "estimation.rounds",
    "bounds.cases",
    "bounds.mc_rounds",
)


# The warm-up campaign fills caches and finishes lazy set-up before any
# timing; its index lies outside the timed cycles, so they stay whole.
WARM_UP = -1
# In the traced run, the untraced reference campaigns take indices from
# here, so the traced ones start at 0 like those of the untraced run.
REFERENCE_BASE = 1_000_000


class Runner:
    """Runs, times and checks the campaigns of one workload."""

    def __init__(self, workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.estimates = 0
        self.estimate_misses = 0
        self.errors: list[str] = []
        self.sha256: dict[int, dict[str, str]] = {}

    def campaign(self, index: int):
        """Run, time and check one campaign; return (index, seconds, outcome)."""
        camp = workloads.make_campaign(self.workload, self.seed, index)
        config_path = os.path.join(self.workdir, f"config-{index}.json")
        out_dir = os.path.join(self.workdir, f"out-{index}")
        with open(config_path, "w") as fh:
            json.dump(camp.config, fh)
        argv = camp.argv(config_path, out_dir)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails this campaign, not the run
            code = f"none, uncaught exception:\n{traceback.format_exc()}"
        seconds = time.perf_counter() - start
        outcome = workloads.check(camp, code, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.remove(config_path)
        self.attempted += 1
        self.estimates += outcome.estimates
        self.estimate_misses += outcome.estimate_misses
        self.sha256[index] = outcome.sha256
        if outcome.errors:
            self.failed += 1
            self.errors.extend(f"campaign {index}: {e}" for e in outcome.errors)
        return index, seconds, outcome

    def cycle(self, number: int, base: int = 0, before_campaign=None) -> list:
        """Run the campaigns of one whole cycle."""
        size = self.workload.cycle
        done = []
        for index in range(base + number * size, base + (number + 1) * size):
            if before_campaign is not None:
                before_campaign(index)
            done.append(self.campaign(index))
        return done


def _median_rate(done) -> float:
    return statistics.median(outcome.work / seconds for _, seconds, outcome in done)


def _first_cycle_counters(done, cycle: int) -> dict[str, float]:
    totals: dict[str, int] = {}
    for _, _, outcome in done[:cycle]:
        for name, value in outcome.counters.items():
            totals[name] = totals.get(name, 0) + value
    return {name: value / cycle for name, value in totals.items()}


def untraced(runner: Runner, seconds: float) -> dict:
    """Whole cycles of campaigns until ``seconds`` of campaign time pass."""
    runner.campaign(WARM_UP)
    done = []
    while sum(s for _, s, _ in done) < seconds:
        done.extend(runner.cycle(len(done) // runner.workload.cycle))
    times = [s for _, s, _ in done]
    return {
        "campaign_s": statistics.median(times),
        "campaign_s_all": times,
        "work_per_s": _median_rate(done),
        "counters": _first_cycle_counters(done, runner.workload.cycle),
    }


def traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced cycles, so that the tracing overhead
    compares campaigns run under the same machine conditions."""
    runner.campaign(WARM_UP)
    recorder = SpanRecorder()
    plain, done = [], []
    while sum(s for _, s, _ in plain + done) < seconds:
        number = len(done) // runner.workload.cycle
        plain.extend(runner.cycle(number, REFERENCE_BASE))
        recorder.install()
        try:
            done.extend(
                runner.cycle(number, before_campaign=lambda i: setattr(recorder, "campaign", i))
            )
        finally:
            recorder.uninstall()
    recorder.dump(spans_path)

    indices = [i for i, _, _ in done]
    first_cycle = indices[: runner.workload.cycle]
    layers = recorder.layer_times()
    metrics: dict[str, tuple[float, str]] = {}

    def total(name: str, key: str, campaigns) -> float:
        return sum(layers[(i, name)][key] for i in campaigns if (i, name) in layers)

    def counter(name: str, campaigns) -> int:
        return sum(recorder.counters.get((i, name), 0) for i in campaigns)

    for name, key in LAYER_TIMES:
        metrics[f"{name}.{key}"] = (total(name, key, indices) / len(indices), "s")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (total(name, "calls", first_cycle) / len(first_cycle), "count")
    for name in LAYER_COUNTERS:
        unit = "B" if name.endswith("bytes_computed") else "count"
        metrics[name] = (counter(name, first_cycle) / len(first_cycle), unit)

    draw_s = total("simulator.SampleStream.draw", "s", indices)
    metrics["simulator.draws_per_s"] = (
        counter("simulator.draws", indices) / draw_s if draw_s else 0.0, "1/s"
    )
    drawn = counter("estimation.drawn", first_cycle)
    metrics["estimation.basket_fraction"] = (
        counter("estimation.kept", first_cycle) / drawn if drawn else 0.0, "ratio"
    )
    artifact_bytes = [o.counters.get("artifact_bytes", 0) for _, _, o in done]
    metrics["cli.artifact_bytes"] = (
        sum(artifact_bytes[: runner.workload.cycle]) / len(first_cycle), "B"
    )
    main_self = total("cli.main", "self_s", indices)
    metrics["cli.artifact_mb_per_s"] = (sum(artifact_bytes) / 1e6 / main_self, "MB/s")

    plain_s = statistics.median(s for _, s, _ in plain)
    traced_s = statistics.median(s for _, s, _ in done)
    metrics["trace.untraced_campaign_s"] = (plain_s, "s")
    metrics["trace.campaign_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return {"layers": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def environment() -> dict[str, str]:
    import platform

    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": cpu or "unknown",
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    runner = Runner(workloads.WORKLOADS[args.workload], args.seed, args.workdir)
    if args.trace:
        result = traced(runner, args.seconds, args.spans)
    else:
        result = untraced(runner, args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        estimates=runner.estimates,
        estimate_misses=runner.estimate_misses,
        sha256={str(k): v for k, v in runner.sha256.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
