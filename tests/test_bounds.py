"""High-precision bound certificates and their Monte Carlo shadow.

The heavy lifting is mpmath inside the module; the tests here verify a
plan's full case set holds, re-derive a few model internals with direct
series written independently of the module's summation strategy, and
check the reporting layer's bookkeeping.
"""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from gaussqpe import bounds
from gaussqpe.bounds import (
    BoundCase,
    BoundReport,
    DEFAULT_EPS_REL,
    evaluate_plan_cases,
    run_default_grid,
)
from gaussqpe.planner import plan_sampling_round


@pytest.fixture(scope="module")
def plan():
    return plan_sampling_round(0.01, 0.5, 0.1, 1, DEFAULT_EPS_REL)


@pytest.fixture(scope="module")
def cases(plan):
    return evaluate_plan_cases(plan, mu_centers=(-0.5, 0.0, 0.25))


def test_every_case_holds(cases):
    bad = [c for c in cases if c.preconditions_met and not c.holds]
    assert bad == []


def test_kind_coverage(cases):
    kinds = {c.kind for c in cases}
    assert len(kinds) >= 16
    expected = {
        "norm_upper",
        "norm_lower",
        "tail_window",
        "contamination_right",
        "hit_rate",
        "hit_rate_floor",
        "aliasing_signed_vs_abs",
        "discretization_series",
        "window_moment_functional",
        "truncation_pollution",
        "normalization_error",
        "error_decomposition",
        "total_moment_error",
        "moment_target",
        "fail_round_total",
        "register_requirement",
    }
    assert expected <= kinds


def test_margins_are_consistent(cases):
    for c in cases:
        assert c.holds == (c.margin >= 0.0)
        if c.holds and c.margin > 0.0:
            assert math.isfinite(c.margin_log10) or c.margin_log10 == -math.inf


def test_model_tail_and_aliasing_against_direct_series(plan):
    """Recompute T and A with plain one-line mpmath series."""
    with mpmath.workdps(45):
        sigma = mpmath.mpf(plan.sigma_bins)
        K = plan.K

        # Tail mass: brute lattice sum, 60 sigma out.
        mu = mpmath.mpf("0.25")
        model = bounds._TwoStateModel(plan, 0.25)

        def gauss(x):
            return mpmath.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (
                sigma * mpmath.sqrt(2 * mpmath.pi)
            )

        span = int(mpmath.ceil(60 * sigma))
        tail = mpmath.fsum(gauss(n) for n in range(K + 1, K + span))
        tail += mpmath.fsum(gauss(-n) for n in range(K + 1, K + span))
        assert abs(model.T - tail) <= abs(tail) * mpmath.mpf("1e-35")

        # Signed dual series at a center away from the cos zeros.
        # mpf(0.2), not mpf("0.2"): the model sees the binary float.
        model2 = bounds._TwoStateModel(plan, 0.2)
        alias = 2 * mpmath.fsum(
            mpmath.exp(-2 * mpmath.pi**2 * sigma**2 * k**2)
            * mpmath.cos(2 * mpmath.pi * mpmath.mpf(0.2) * k)
            for k in range(1, 40)
        )
        assert abs(model2.A - abs(alias)) <= abs(alias) * mpmath.mpf("1e-30")

        # Absolute dual series drops the cosine entirely.
        alias_abs = 2 * mpmath.fsum(
            mpmath.exp(-2 * mpmath.pi**2 * sigma**2 * k**2) for k in range(1, 40)
        )
        assert abs(model.alias_abs[0] - alias_abs) <= alias_abs * mpmath.mpf("1e-30")
        assert model.A <= model.alias_abs[0]


def test_hit_rate_floor_on_worst_sign(plan):
    with mpmath.workdps(45):
        for mu_c in (-0.5, 0.0, 0.49):
            model = bounds._TwoStateModel(plan, mu_c)
            worst = min(model.p0_tilde(+1), model.p0_tilde(-1))
            assert worst >= mpmath.mpf("0.375") * plan.eta


def test_window_functional_inequality_on_random_vectors(plan, rng):
    """|sum n^j d_n| <= j! (2K+1)^j / (pi delta)^j * e^(2 pi delta) * |d|_1
    for any perturbation d supported on the window; checked directly on
    random vectors, independent of the model's construction of d."""
    K = 32
    n = np.arange(-K, K + 1, dtype=np.float64)
    delta = 1.0 / math.pi
    for j in (1, 2):
        bound_factor = (
            math.factorial(j)
            * (2 * K + 1) ** j
            / (math.pi * delta) ** j
            * math.exp(2 * math.pi * delta)
        )
        for _ in range(100):
            d = rng.normal(size=2 * K + 1) * 10.0 ** rng.integers(-12, 0)
            functional = abs(float(np.sum(n**j * d)))
            l1 = float(np.sum(np.abs(d)))
            assert functional <= bound_factor * l1 * (1.0 + 1e-12)


def test_window_vector_terms_shape_and_scale(plan):
    with mpmath.workdps(45):
        model = bounds._TwoStateModel(plan, 0.0)
        terms = model.window_vector_terms(2)
        assert sorted(terms) == [-1, +1]
        for l1, moments in terms.values():
            # The perturbed window deviates from the ideal one, so the l1
            # radius is positive but small compared to the unit mass scale.
            assert l1 >= 0
            assert l1 < mpmath.mpf("0.5")
            assert len(moments) == 3
            for j in (0, 1, 2):
                assert abs(moments[j]) <= (2 * model.K + 1) ** j * l1


@pytest.mark.parametrize("K, gap_bins", [(None, None), (10, 24)])
def test_window_terms_and_fail_probs_against_direct_series(plan, K, gap_bins):
    """Per-sign window perturbation and region probabilities, rebuilt
    from bin amplitudes with plain fsum series over explicit bin ranges.

    The planned model keeps tails and cross terms far below 45 digits;
    the squeezed one (window of 10 bins, states 24 bins apart) makes every
    term, and so each sign, visible at that precision."""
    if K is not None:
        plan = dataclasses.replace(plan, K=K, Delta_work=gap_bins / plan.n_bins)
    tol = mpmath.mpf("1e-35")
    with mpmath.workdps(45):
        model = bounds._TwoStateModel(plan, 0.25)
        sigma, K = mpmath.mpf(plan.sigma_bins), plan.K
        mu = mpmath.mpf(0.25)
        ND = mpmath.mpf(plan.Delta_work) * plan.n_bins
        mu1 = mu + ND
        span = int(mpmath.ceil(60 * sigma))

        def gauss(n, centre):
            return mpmath.exp(-((n - centre) ** 2) / (2 * sigma**2)) / (
                sigma * mpmath.sqrt(2 * mpmath.pi)
            )

        # Window: d_n = |h_n|^2 / sum|h|^2 - g_n / sum g, with h = f + e the
        # polluted amplitude; written via p = |h|^2 - g to avoid cancelling.
        window = range(-K, K + 1)
        g = {n: gauss(n, mu) for n in window}
        e = {n: model.c_mix * mpmath.sqrt(gauss(n, mu1)) for n in window}
        terms = model.window_vector_terms(2)
        for s in (-1, +1):
            p = {n: 2 * s * mpmath.sqrt(g[n]) * e[n] + e[n] ** 2 for n in window}
            F, P = mpmath.fsum(g.values()), mpmath.fsum(p.values())
            d = {n: (p[n] * F - g[n] * P) / (F * (F + P)) for n in window}
            l1, moments = terms[s]
            ref_l1 = mpmath.fsum(abs(v) for v in d.values())
            assert abs(l1 - ref_l1) <= ref_l1 * tol
            for j in (0, 1, 2):
                ref = mpmath.fsum(n**j * d[n] for n in window)
                scale = mpmath.fsum(abs(n**j * d[n]) for n in window)
                assert abs(moments[j] - ref) <= scale * tol

        # Regions of one draw from the coherent mixture, normalized over
        # the whole lattice; register normalizations over the peaks.
        half = plan.n_bins // 2
        lo0, hi0 = int(mu) - span, int(mu) + span
        lo1, hi1 = max(int(mu1) - span, -half), min(int(mu1) + span, half - 1)
        N0 = mpmath.fsum(gauss(n, mu) for n in range(lo0, hi0 + 1))
        N1 = mpmath.fsum(gauss(n, mu1) for n in range(lo1, hi1 + 1))
        a0 = mpmath.sqrt(model.eta / N0)
        a1 = mpmath.sqrt((1 - model.eta) / N1)
        cross = mpmath.fsum(
            mpmath.sqrt(gauss(n, mu) * gauss(n, mu1)) for n in range(lo0, hi1 + 1)
        )

        def region(s, ns):
            mass = mpmath.fsum(
                (a0 * mpmath.sqrt(gauss(n, mu)) + s * a1 * mpmath.sqrt(gauss(n, mu1))) ** 2
                for n in ns
            )
            return mass / (1 + 2 * s * a0 * a1 * cross)

        left_edge = int(mpmath.floor(mu - ND / 3)) - 1
        left = range(left_edge - span, left_edge + 1)
        gap = range(int(mpmath.ceil(mu + ND / 3)), int(mpmath.floor(mu + 2 * ND / 3)) + 1)
        xleft = range(-K, 1)
        expected = (
            max(region(s, left) for s in (-1, +1)),
            max(region(s, gap) for s in (-1, +1)),
            min(region(s, xleft) for s in (-1, +1)),
        )
        for got, ref in zip(model.fail_probs(), expected):
            assert ref > 0
            assert abs(got - ref) <= ref * tol


def test_mc_case_sees_no_failures(plan):
    case = bounds._mc_case(plan, mu_center=-0.25, rounds=300, seed=20260814)
    assert case.kind == "mc_round_failure"
    assert case.preconditions_met
    assert case.holds
    assert case.params["failures"] == 0
    assert case.bound >= 5.0 / 300.0


def test_small_grid_report(capsys):
    report = run_default_grid(
        etas=(0.5,),
        deltas=(0.01,),
        gaps=(0.1,),
        orders=(1,),
        mu_centers=(0.0, 0.25),
        mc=False,
    )
    assert report.all_hold
    assert report.n_violations == 0
    assert report.n_cases >= 40
    rows = report.to_rows()
    assert len(rows) == report.n_cases
    for row in rows[:3]:
        assert set(row) >= {"kind", "exact", "bound", "margin", "holds"}
        json.dumps(row["params"])
    summary = report.summary()
    assert summary["n_cases"] == report.n_cases
    json.dumps(summary)


def test_report_counts_only_applicable_violations():
    case_na = BoundCase(
        kind="synthetic",
        params={},
        exact=2.0,
        bound=1.0,
        margin=-1.0,
        exact_log10=math.log10(2.0),
        bound_log10=0.0,
        margin_log10=math.nan,
        preconditions_met=False,
        holds=False,
    )
    report = BoundReport(cases=(case_na,))
    assert report.n_violations == 0
    assert report.all_hold
    case_bad = BoundCase(
        kind="synthetic",
        params={},
        exact=2.0,
        bound=1.0,
        margin=-1.0,
        exact_log10=math.log10(2.0),
        bound_log10=0.0,
        margin_log10=math.nan,
        preconditions_met=True,
        holds=False,
    )
    assert BoundReport(cases=(case_bad,)).n_violations == 1
