"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test checks one end-user guarantee at its stated tolerance and
prints a single verdict line (visible with -v via the test name, and in
captured output via the printed summary). Budgets are wall-clock
ceilings on a commodity core.
"""

import filecmp
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from gaussqpe import bounds, estimation, gaussian
from gaussqpe.cli import main as cli_main
from gaussqpe.planner import (
    DEFAULT_INTERP_COEFF,
    PlanInputs,
    QPE_VOTE_COEFF,
    plan_gsee,
    plan_qpe_baseline,
    plan_sampling_round,
)
from gaussqpe.simulator import (
    SampleStream,
    SpectrumSpec,
    distribution_from_window,
    gaussian_window,
    mixed_distribution,
    rectangular_window,
)

SEED = 20260814


def _verdict(label: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {label}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label}: took {elapsed:.1f}s, budget {budget}s"


def test_printed_constants():
    t0 = time.perf_counter()
    checks = []

    # Vote-repetition coefficient 2 / (sqrt(2) - 1)^2.
    checks.append(abs(QPE_VOTE_COEFF - 2.0 / (math.sqrt(2.0) - 1.0) ** 2) <= 1e-12)
    checks.append(abs(QPE_VOTE_COEFF - 11.656854249492380195) <= 1e-12)

    # Full-depth per-round sample count, ceil(16/(3 eta) * ln(3/delta)).
    for eta, want in ((1.0, 31), (0.5, 61)):
        hand = math.ceil(16.0 / (3.0 * eta) * math.log(3.0 / 0.01))
        got = plan_sampling_round(0.01, eta, 0.15, 1, 0.005).M0_nominal
        checks.append(hand == want and got == want)

    # Outer repetition count, ceil(8 D^2 ln(4/delta) / (9 eps^2 (1-c)^2)).
    c = DEFAULT_INTERP_COEFF

    def hand_M(D, eps, delta):
        return math.ceil(
            8.0 * D**2 * math.log(4.0 / delta) / (9.0 * eps**2 * (1.0 - c) ** 2)
        )

    plan = plan_gsee(
        PlanInputs(delta_fail=0.1, eta=0.5, Delta_true=0.1, epsilon=0.01, alpha=0.0)
    )
    checks.append(plan.M == hand_M(0.1, 0.01, 0.1) == 369)

    # Interpolation endpoints: alpha = 0 and alpha = 1.
    for alpha, want_M, want_M0 in ((0.0, 600, 144), (1.0, 6, 95)):
        g = plan_gsee(
            PlanInputs(
                delta_fail=0.01, eta=0.5, Delta_true=0.1, epsilon=0.01, alpha=alpha
            )
        )
        D_alpha = 0.1 ** (1.0 - alpha) * 0.01**alpha
        hand_m = hand_M(D_alpha, 0.01, 0.01)
        hand_m0 = math.ceil(16.0 / (3.0 * 0.5) * math.log(3.0 * 4 * hand_m / 0.01))
        checks.append(g.M == hand_m == want_M)
        checks.append(g.round_plan.M0_nominal == hand_m0 == want_M0)
        checks.append(abs(g.round_plan.delta_input - 0.01 / (4 * g.M)) <= 1e-12)

    _verdict(
        "printed-constants",
        all(checks),
        time.perf_counter() - t0,
        1.0,
        f"{len(checks)} hand-derived constants matched",
    )


def test_distribution_invariants(acceptance_plan):
    t0 = time.perf_counter()
    q16_plan = plan_sampling_round(0.01, 1.0, 0.01, 1, 0.05)
    assert acceptance_plan.round_plan.q == 12 and q16_plan.q == 16

    def dist_factory(q):
        if q == 12:
            rp = acceptance_plan.round_plan
            window = gaussian_window(rp.q, rp.sigma_tilde)
        elif q == 16:
            window = gaussian_window(q16_plan.q, q16_plan.sigma_tilde)
        else:
            window = gaussian_window(8, 3.0 / 256.0)
        return lambda th: distribution_from_window(window, th)

    worst_norm = worst_shift = worst_reflect = 0.0
    for q in (8, 12, 16):
        N = 1 << q
        make = dist_factory(q)
        idx = (-np.arange(N)) % N
        # On-grid, generic off-grid, half-bin, and near-edge phases.
        for theta in (17.0 / N, -51.0 / N, 0.1234567, -0.37891,
                      0.75 / N, 0.5 - 1.3 / N):
            P = make(theta)
            worst_norm = max(worst_norm, abs(float(P.sum()) - 1.0))
            shifted = make(theta + 37.0 / N)
            worst_shift = max(worst_shift, float(np.abs(shifted - np.roll(P, 37)).max()))
            reflected = make(-theta)
            worst_reflect = max(worst_reflect, float(np.abs(reflected - P[idx]).max()))

    ok = worst_norm <= 1e-10 and worst_shift <= 1e-12 and worst_reflect <= 1e-12
    _verdict(
        "distribution-invariants",
        ok,
        time.perf_counter() - t0,
        30.0,
        f"q in (8,12,16): |norm-1| {worst_norm:.1e}, "
        f"shift {worst_shift:.1e}, reflect {worst_reflect:.1e}",
    )


def test_bound_grid():
    t0 = time.perf_counter()
    report = bounds.run_default_grid()
    kinds = {c.kind for c in report.cases}
    ok = report.n_cases >= 300 and len(kinds) >= 16 and report.n_violations == 0
    _verdict(
        "bound-grid",
        ok,
        time.perf_counter() - t0,
        300.0,
        f"{report.n_cases} cases, {len(kinds)} kinds, "
        f"{report.n_violations} violations, worst margin "
        f"1e{report.worst_margin_log10:.0f}",
    )


def test_hit_rate_floor():
    t0 = time.perf_counter()
    margins = []
    ok = True
    for eta in (0.25, 0.5, 1.0):
        plan = plan_sampling_round(0.01, eta, 0.1, 1, bounds.DEFAULT_EPS_REL)
        cases = [
            c
            for c in bounds.evaluate_plan_cases(plan, bounds.DEFAULT_MU_CENTERS)
            if c.kind == "hit_rate_floor"
        ]
        ok = ok and len(cases) == len(bounds.DEFAULT_MU_CENTERS)
        ok = ok and all(c.preconditions_met and c.holds for c in cases)
        margins.append(min(c.margin for c in cases))
    _verdict(
        "hit-rate-floor",
        ok,
        time.perf_counter() - t0,
        60.0,
        "window mass >= 3/8 eta at eta (0.25, 0.5, 1); min margins "
        + ", ".join(f"{m:.4f}" for m in margins),
    )


def test_end_to_end_failure_rate(acceptance_spectrum, acceptance_plan):
    t0 = time.perf_counter()
    runs = 200
    dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
    children = np.random.SeedSequence(SEED).spawn(runs)
    theta0 = acceptance_spectrum.ground_phase
    epsilon = acceptance_plan.inputs.epsilon
    errs = np.empty(runs)
    for i in range(runs):
        est = estimation.run_gsee(acceptance_plan, dist, children[i])
        errs[i] = abs(est.mu_hat - theta0)
    failures = int(np.count_nonzero(errs > epsilon))
    rate = failures / runs
    band = 0.1 + 1.96 * math.sqrt(0.1 * 0.9 / runs)
    _verdict(
        "end-to-end-failure-rate",
        rate <= band,
        time.perf_counter() - t0,
        600.0,
        f"{failures}/{runs} failures (rate {rate:.3f} <= {band:.3f}), "
        f"max |err| {errs.max():.1e}, {acceptance_plan.total_samples} draws/run",
    )


def test_depth_interpolation(acceptance_inputs):
    t0 = time.perf_counter()
    plans = [
        plan_gsee(replace(acceptance_inputs, alpha=a))
        for a in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    qs = [g.round_plan.q for g in plans]
    totals = [g.total_samples for g in plans]
    ok = (
        all(a <= b for a, b in zip(qs, qs[1:]))
        and all(a >= b for a, b in zip(totals, totals[1:]))
        and all(g.round_plan.n_bins <= 2 * g.round_plan.q_lower_bound for g in plans)
    )
    _verdict(
        "depth-interpolation",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"q {qs} nondecreasing, samples {totals} nonincreasing, "
        "2^q within the register bound",
    )


def test_qpe_baseline_guarantee():
    t0 = time.perf_counter()
    baseline = plan_qpe_baseline(0.01, 0.01)
    N = 1 << baseline.q
    window = rectangular_window(baseline.q)
    floor = 1.0 - 1.0 / (2.0 * math.sqrt(2.0))

    # Exact single-draw success mass, minimized over sub-bin offsets.
    z = np.arange(N)
    worst = 2.0
    for frac in np.linspace(0.0, 1.0, 201):
        theta = (-26 + frac) / N
        P = distribution_from_window(window, theta)
        dist_turns = (z / N - theta + 0.5) % 1.0 - 0.5
        worst = min(worst, float(P[np.abs(dist_turns) <= 0.01 + 1e-15].sum()))

    # Majority vote at the worst (half-bin) phase.
    trials = 2000
    theta_half = (-26 + 0.5) / N
    one = SpectrumSpec(eigenphases=(theta_half,), overlaps_sq=(1.0,))
    children = np.random.SeedSequence(SEED).spawn(trials)
    failures = sum(
        abs(
            estimation.run_qpe_baseline(one, baseline, children[i]).theta_hat
            - theta_half
        )
        > 0.01
        for i in range(trials)
    )
    band = 0.01 + 1.96 * math.sqrt(0.01 * 0.99 / trials)
    ok = worst >= floor - 1e-12 and failures / trials <= band
    _verdict(
        "qpe-baseline",
        ok,
        time.perf_counter() - t0,
        120.0,
        f"min single-draw success {worst:.4f} >= {floor:.4f}; "
        f"vote failures {failures}/{trials} (band {band:.4f})",
    )


def test_second_moment_convergence():
    t0 = time.perf_counter()
    plan = plan_sampling_round(0.01, 1.0, 0.2, 2, 0.01)
    theta0 = 0.1
    probs = distribution_from_window(gaussian_window(plan.q, plan.sigma_tilde), theta0)
    rounds, block = 100_000, 20
    # The stream is the same however it is batched: draw `block` rounds at
    # once (small enough to stay in cache) and window each row of signed
    # residues on its leftmost residue.
    stream = SampleStream(probs, SEED)
    vals = np.empty(rounds)
    for start in range(0, rounds, block):
        res = stream.draw(block * plan.M0)
        res[res > plan.n_bins // 2] -= plan.n_bins
        res = res.reshape(block, plan.M0)
        basket = res <= res.min(axis=1, keepdims=True) + plan.two_K
        # Integer sums of squares are exact, as the oracle's float64 sums are.
        squares = np.sum(res * res, axis=1, where=basket)
        vals[start : start + block] = squares / np.count_nonzero(basket, axis=1)
    oracle = SampleStream(probs, SEED)
    prefix = [
        np.mean(estimation.run_sampling_round(oracle, plan).members.astype(np.float64) ** 2)
        for _ in range(1000)
    ]
    assert np.array_equal(vals[:1000], prefix)

    target = float(gaussian.fourier_moment(2, 0, theta0 * plan.n_bins, plan.sigma_bins).real)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(rounds)
    tol = plan.eps_rel_target * plan.n_bins**2 + 3.0 * se
    diff = abs(mean - target)
    # The analytic bias at this plan is far below one standard error, so
    # a pure-noise margin must hold as well.
    ok = diff <= tol and diff <= 4.0 * se
    _verdict(
        "second-moment-convergence",
        ok,
        time.perf_counter() - t0,
        300.0,
        f"|mean - (mu^2+sigma^2)| = {diff:.3f} bins^2 <= 4 se = {4 * se:.3f} "
        f"(guarantee tol {tol:.1f})",
    )


def test_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    config = {
        "inputs": {
            "delta_fail": 0.1,
            "eta": 0.5,
            "Delta_true": 0.15,
            "epsilon": 0.01,
            "alpha": 0.0,
        },
        "spectrum": {
            "eigenphases": [-0.2, -0.05, 0.15],
            "overlaps_sq": [0.5, 0.3, 0.2],
        },
        "qpe": {"epsilon": 0.01, "delta": 0.01},
        "bounds": {
            "etas": [0.5],
            "deltas": [0.01],
            "gaps": [0.1],
            "orders": [1],
            "mu_centers": [-0.25],
            "mc": True,
            "mc_rounds": 50,
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    mode_args = {
        "plan": ["--alpha-list", "0,0.5,1"],
        "spectrum": [],
        "gsee": ["--runs", "2"],
        "sweep": ["--runs", "1", "--alpha-list", "0,1"],
        "qpe": ["--runs", "20"],
        "bounds": [],
    }
    checked = []
    ok = True
    for mode, extra in mode_args.items():
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{mode}-{tag}"
            rc = cli_main(
                ["--config", str(cfg), "--mode", mode, "--seed", "5",
                 "--out", str(out), *extra]
            )
            ok = ok and rc == 0
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        ok = ok and names == sorted(os.listdir(dirs[1]))
        match, mismatch, errors = filecmp.cmpfiles(
            dirs[0], dirs[1], names, shallow=False
        )
        ok = ok and not mismatch and not errors
        checked.append(f"{mode}:{len(match)}")
    _verdict(
        "byte-determinism",
        ok,
        time.perf_counter() - t0,
        60.0,
        "identical reruns byte-match all artifacts (" + ", ".join(checked) + ")",
    )
