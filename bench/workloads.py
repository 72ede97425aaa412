"""Seeded campaign generator and output checks.

A campaign is one ``gaussqpe`` CLI invocation. Its config and CLI seed
derive from (workload, workload seed, campaign index) alone, so the same
seed gives the same inputs on every machine. Campaigns come in cycles:
``gsee-deep`` steps through the spectrum sizes J = 2..6 in a fixed
cycle, so every whole cycle does the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

ACCEPTANCE_INPUTS = {
    "delta_fail": 0.1,
    "eta": 0.5,
    "Delta_true": 0.15,
    "epsilon": 0.01,
    "alpha": 0.0,
}
ACCEPTANCE_SPECTRUM = {"eigenphases": [-0.2, -0.05, 0.15], "overlaps_sq": [0.5, 0.3, 0.2]}

# A sub-grid of the default bound grid that still yields every case kind,
# both moment orders and the Monte Carlo shadow (two plans, 500 rounds each).
BOUNDS_GRID = {
    "etas": [0.25, 1.0],
    "deltas": [0.01],
    "gaps": [0.1],
    "orders": [1, 2],
    "mu_centers": [-0.25, 0.25],
    "mc_rounds": 500,
}
BOUNDS_CASES = 238
BOUNDS_MC_CASES = 2
BOUND_KINDS = frozenset(
    """aliasing_signed_vs_abs contamination_left contamination_loose
    contamination_right discretization_series error_decomposition fail_gap_draw
    fail_left_draw fail_round_total fail_zero_hits hit_rate hit_rate_floor
    inv_norm mc_round_failure moment_target norm_lower norm_upper
    normalization_error pollution_norm register_lambert_vs_sandwich
    register_requirement tail_erfc_vs_exp tail_window total_moment_error
    truncation_pollution window_moment_functional xleft_at_least_half""".split()
)

ARTIFACTS = {
    "gsee": {"config-echo.json", "estimates.csv", "plans.csv", "summary.json"},
    "spectrum": {"config-echo.json", "plans.csv", "spectrum.csv"},
    "bounds": {"bounds.csv", "config-echo.json", "summary.json"},
}

_PHASE_LIMIT = 0.49  # keeps every phase clear of the seam for any working gap used
_DEEP_SIZES = (2, 3, 4, 5, 6)
_MIXED_SUM_TOL = 1e-12
_MIXED_ROW_TOL = 1e-15


@dataclass(frozen=True)
class Workload:
    """A campaign kind; BENCHMARK.json records why each was chosen."""

    name: str
    mode: str
    runs: int  # estimates per gsee campaign
    cycle: int
    work: str  # what work_per_s counts on this workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gsee-shallow", "gsee", 1, 1, "draws_per_s"),
        Workload("gsee-deep", "gsee", 3, len(_DEEP_SIZES), "bins_per_s"),
        Workload("bounds-grid", "bounds", 1, 1, "cases_per_s"),
        Workload("spectrum-dump", "spectrum", 1, 1, "bins_per_s"),
    )
}


@dataclass(frozen=True)
class Campaign:
    workload: Workload
    index: int
    seed: int
    config: dict

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [
            "--config", config_path,
            "--mode", self.workload.mode,
            "--seed", str(self.seed),
            "--runs", str(self.workload.runs),
            "--threads", "1",
            "--out", out_dir,
        ]


def _spectrum(rng: random.Random, J: int, eta: float, gap: float) -> dict:
    """J phases with every gap >= ``gap`` and ground overlap >= ``eta``."""
    slack = 2 * _PHASE_LIMIT - gap * (J - 1)
    cuts = sorted(rng.uniform(0.0, slack) for _ in range(J))
    # Gap j gets the slack between cut j-1 and cut j; the ground phase
    # sits at the first cut, and the last cut's remainder stays unused.
    phases = [-_PHASE_LIMIT + cuts[0]]
    for j in range(1, J):
        phases.append(phases[-1] + gap + (cuts[j] - cuts[j - 1]))
    ground = rng.uniform(eta, 0.9)
    rest = [rng.random() + 0.05 for _ in range(J - 1)]
    scale = (1.0 - ground) / math.fsum(rest)
    weights = [ground] + [r * scale for r in rest]
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return {"eigenphases": phases, "overlaps_sq": weights}


def make_campaign(workload: Workload, seed: int, index: int) -> Campaign:
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    cli_seed = rng.randrange(1 << 32)
    if workload.name == "gsee-shallow":
        config = {"inputs": ACCEPTANCE_INPUTS, "spectrum": ACCEPTANCE_SPECTRUM}
    elif workload.name == "gsee-deep":
        inputs = dict(ACCEPTANCE_INPUTS, epsilon=1e-3, alpha=1.0)
        config = {
            "inputs": inputs,
            "spectrum": _spectrum(
                rng, _DEEP_SIZES[index % workload.cycle], inputs["eta"], inputs["Delta_true"]
            ),
        }
    elif workload.name == "spectrum-dump":
        inputs = dict(ACCEPTANCE_INPUTS, alpha=1.0)
        config = {
            "inputs": inputs,
            "spectrum": _spectrum(rng, 3, inputs["eta"], inputs["Delta_true"]),
        }
    elif workload.name == "bounds-grid":
        config = {"bounds": BOUNDS_GRID}
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
    return Campaign(workload, index, cli_seed, config)


@dataclass
class Outcome:
    """What one campaign's artifacts show."""

    errors: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)
    estimates: int = 0
    estimate_misses: int = 0
    work: int = 0


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(campaign: Campaign, exit_code: int, out_dir: str) -> Outcome:
    """Check a campaign's exit code and artifacts; count its exact work."""
    outcome = Outcome()
    if exit_code != 0:
        outcome.errors.append(f"exit code {exit_code}")
        return outcome
    present = set(os.listdir(out_dir))
    expected = ARTIFACTS[campaign.workload.mode]
    if present != expected:
        outcome.errors.append(f"artifacts {sorted(present)} != {sorted(expected)}")
        return outcome
    total_bytes = 0
    for name in sorted(present):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        total_bytes += len(data)
        outcome.sha256[name] = hashlib.sha256(data).hexdigest()
    outcome.counters["artifact_bytes"] = total_bytes
    try:
        _CHECKS[campaign.workload.mode](campaign, out_dir, outcome)
    except (KeyError, ValueError, IndexError) as exc:
        outcome.errors.append(f"unreadable artifact: {exc!r}")
    return outcome


def _check_gsee(campaign: Campaign, out_dir: str, outcome: Outcome) -> None:
    spectrum = campaign.config["spectrum"]
    epsilon = campaign.config["inputs"]["epsilon"]
    ground = min(spectrum["eigenphases"])
    rows = _read_rows(os.path.join(out_dir, "estimates.csv"))
    if len(rows) != campaign.workload.runs:
        outcome.errors.append(f"{len(rows)} estimates, expected {campaign.workload.runs}")
    draws = rounds = 0
    for row in rows:
        M, M0 = int(row["M"]), int(row["M0"])
        draws += M * M0
        rounds += M
        outcome.estimates += 1
        if abs(float(row["mu_hat"]) - ground) > epsilon:
            outcome.estimate_misses += 1
    q = int(_read_rows(os.path.join(out_dir, "plans.csv"))[0]["round_plan.q"])
    bins = len(spectrum["eigenphases"]) << q
    outcome.counters.update(draws=draws, rounds=rounds, bins=bins)
    outcome.work = draws if campaign.workload.work == "draws_per_s" else bins


def _check_spectrum(campaign: Campaign, out_dir: str, outcome: Outcome) -> None:
    weights = np.array(campaign.config["spectrum"]["overlaps_sq"])
    q = int(_read_rows(os.path.join(out_dir, "plans.csv"))[0]["round_plan.q"])
    table = np.loadtxt(os.path.join(out_dir, "spectrum.csv"), delimiter=",", skiprows=1)
    if table.shape != (1 << q, 2 + weights.size):
        outcome.errors.append(f"spectrum.csv shape {table.shape}, q={q}, J={weights.size}")
        return
    if not np.array_equal(table[:, 0], np.arange(1 << q)):
        outcome.errors.append("spectrum.csv z column is not 0..2^q-1")
    mixed = table[:, 1]
    if abs(math.fsum(mixed) - 1.0) > _MIXED_SUM_TOL:
        outcome.errors.append(f"P_mixed sums to {math.fsum(mixed)!r}")
    deviation = float(np.max(np.abs(table[:, 2:] @ weights - mixed)))
    if deviation > _MIXED_ROW_TOL:
        outcome.errors.append(f"P_mixed differs from the weighted P_j by {deviation!r}")
    bins = weights.size << q
    outcome.counters["bins"] = bins
    outcome.work = bins


def _check_bounds(campaign: Campaign, out_dir: str, outcome: Outcome) -> None:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    rows = _read_rows(os.path.join(out_dir, "bounds.csv"))
    if summary["n_violations"] != 0:
        outcome.errors.append(f"{summary['n_violations']} bound violations")
    if summary["n_cases"] != BOUNDS_CASES or len(rows) != BOUNDS_CASES:
        outcome.errors.append(
            f"{summary['n_cases']} cases in summary, {len(rows)} rows, expected {BOUNDS_CASES}"
        )
    kinds = {row["kind"] for row in rows}
    if kinds != BOUND_KINDS:
        outcome.errors.append(f"case kinds differ: {sorted(kinds ^ BOUND_KINDS)}")
    broken = [r for r in rows if r["preconditions_met"] == "True" and r["holds"] != "True"]
    if broken:
        outcome.errors.append(f"{len(broken)} rows fail with preconditions met")
    mc = [json.loads(r["params"]) for r in rows if r["kind"] == "mc_round_failure"]
    if len(mc) != BOUNDS_MC_CASES:
        outcome.errors.append(f"{len(mc)} Monte Carlo cases, expected {BOUNDS_MC_CASES}")
    outcome.counters.update(cases=len(rows), mc_rounds=sum(p["rounds"] for p in mc))
    outcome.work = len(rows)


_CHECKS = {"gsee": _check_gsee, "spectrum": _check_spectrum, "bounds": _check_bounds}
