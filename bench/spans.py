"""In-memory span recorder that wraps gaussqpe's layer callables.

Tracing is installed from the benchmark's own files: each callable is
replaced at the module attribute its caller looks up at call time, so
nothing under ``src/`` is edited. A span is (name, start, end, parent,
campaign); the parent is the index of the enclosing span, or -1. The
untraced run never calls ``install``, so it wraps nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, span name). ``SampleStream.draw`` is patched on
# the class so that every stream the estimator or the bound lab builds is seen.
TARGETS = (
    ("gaussqpe.cli", "main", "cli.main"),
    ("gaussqpe.cli", "plan_gsee", "planner.plan_gsee"),
    ("gaussqpe.cli", "mixed_distribution", "simulator.mixed_distribution"),
    ("gaussqpe.cli", "run_gsee", "estimation.run_gsee"),
    ("gaussqpe.simulator", "mixed_distribution", "simulator.mixed_distribution"),
    ("gaussqpe.simulator", "SampleStream.draw", "simulator.SampleStream.draw"),
    ("gaussqpe.gaussian", "wrap_mod", "gaussian.wrap_mod"),
    ("gaussqpe.estimation", "run_sampling_round", "estimation.run_sampling_round"),
    ("gaussqpe.bounds", "evaluate_plan_cases", "bounds.evaluate_plan_cases"),
    ("gaussqpe.bounds", "plan_sampling_round", "planner.plan_sampling_round"),
    ("gaussqpe.bounds", "run_default_grid", "bounds.run_default_grid"),
)

_COMPLEX128_BYTES = 16


class SpanRecorder:
    """Records spans and exact counters at the wrapped layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.campaign = -1
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _count(self, name: str, value: int) -> None:
        self.counters[(self.campaign, name)] += int(value)

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        """Exact counters read from the arguments and results of a call."""
        if name == "simulator.mixed_distribution":
            bins = result.per_eigenstate.size
            self._count("simulator.bins", bins)
            # One complex128 FFT input and output array per eigenphase.
            self._count("simulator.fft_bytes_computed", 2 * _COMPLEX128_BYTES * bins)
        elif name == "simulator.SampleStream.draw":
            self._count("simulator.draws", args[1])
        elif name == "estimation.run_gsee":
            plan = kwargs["plan"]
            drawn = result.M_used * plan.round_plan.M0
            self._count("estimation.rounds", result.M_used)
            self._count("estimation.drawn", drawn)
            self._count(
                "estimation.kept", round(result.diagnostics["basket_fraction"] * drawn)
            )
        elif name == "estimation.run_sampling_round":
            self._count("estimation.rounds", 1)
            self._count("bounds.mc_rounds", 1)
            self._count("estimation.drawn", result.round_samples)
            self._count("estimation.kept", result.size)
        elif name == "bounds.run_default_grid":
            self._count("bounds.cases", result.n_cases)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.campaign)
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> dict[tuple[int, str], dict[str, float]]:
        """Total and self seconds of each span name, per campaign.

        Self time is a span's duration minus the time its direct
        children cover; calls are single-threaded, so children never
        overlap and their durations add.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[int, str], dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for i, (name, start, end, _, campaign) in enumerate(self.spans):
            entry = out[(campaign, name)]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, campaign in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "campaign": campaign,
                        }
                    )
                )
                fh.write("\n")
