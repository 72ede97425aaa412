"""Planner closed forms against independently derived constants.

Integer expectations are frozen from tests/make_oracles.py, which
evaluates the printed formulas directly in mpmath.
"""

import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussqpe import planner
from gaussqpe.gaussian import g0
from gaussqpe.planner import (
    DEFAULT_INTERP_COEFF,
    QPE_VOTE_COEFF,
    PlanInfeasible,
    PlanInputs,
    compute_C_eta,
    hoeffding_sample_count,
    plan_gsee,
    plan_qpe_baseline,
    plan_sampling_round,
    plan_to_text,
    _predicate_values,
)

QPE_COEFF = 11.656854249492380195
QPE_SINGLE_SHOT = 0.6464466094067262378


def test_printed_constants():
    assert QPE_VOTE_COEFF == pytest.approx(QPE_COEFF, rel=1e-15)
    assert QPE_VOTE_COEFF == pytest.approx(11.66, rel=1e-3)
    assert 16.0 / 3.0 == pytest.approx(5.33, rel=1e-3)
    assert DEFAULT_INTERP_COEFF == pytest.approx(1.0 - 2.0 * math.sqrt(2.0) / 3.0,
                                                 rel=1e-15)


def test_full_depth_sample_counts():
    # ceil((16/3eta) * ln(3/delta)) at delta = 0.01.
    assert plan_sampling_round(0.01, 1.0, 0.15, 1, 0.005).M0_nominal == 31
    assert plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005).M0_nominal == 61


def test_outer_repetition_count():
    plan = plan_gsee(
        PlanInputs(delta_fail=0.1, eta=0.5, Delta_true=0.1, epsilon=0.01, alpha=0.0)
    )
    assert plan.M == 369


@pytest.mark.parametrize(
    "alpha,expected_M,expected_M0",
    [(0.0, 600, 144), (1.0, 6, 95)],
)
def test_interpolation_endpoints(alpha, expected_M, expected_M0):
    plan = plan_gsee(
        PlanInputs(delta_fail=0.01, eta=0.5, Delta_true=0.1, epsilon=0.01,
                   alpha=alpha)
    )
    assert plan.M == expected_M
    assert plan.round_plan.M0_nominal == expected_M0
    assert plan.round_plan.delta_input == pytest.approx(0.01 / (4 * plan.M), rel=1e-15)


def test_qpe_baseline_counts():
    baseline = plan_qpe_baseline(1.0 / 16.0, math.exp(-1.0))
    assert baseline.q == 4
    assert baseline.n_samples == 12
    assert plan_qpe_baseline(0.01, 0.01).n_samples == 54
    assert plan_qpe_baseline(0.01, 0.01).q == 7


def test_qpe_baseline_validation():
    with pytest.raises(ValueError):
        plan_qpe_baseline(0.6, 0.1)
    with pytest.raises(ValueError):
        plan_qpe_baseline(0.1, 1.5)


def test_C_eta_value_and_shape():
    # Written out term by term, independently of the implementation.
    def reference(eta):
        root = math.sqrt(1.0 / eta)
        return (
            (128.0 / 45.0) * math.exp(12.0) * (15.0 + 2.25 * root)
            + 10.0 * math.exp(12.0)
            + (55.0 / 8.0) * math.exp(2.0)
            * (1.0 + math.sqrt(5.0 / 3.0) * root)
        )

    for eta in (0.1, 0.25, 0.5, 0.9, 1.0):
        assert compute_C_eta(eta) == pytest.approx(reference(eta), rel=1e-12)
    assert compute_C_eta(1.0) == pytest.approx(9.6135e6, rel=1e-4)
    # Less initial overlap means a larger constant.
    values = [compute_C_eta(eta) for eta in (0.1, 0.3, 0.6, 1.0)]
    assert values == sorted(values, reverse=True)


def test_inputs_validation():
    good = dict(delta_fail=0.1, eta=0.5, Delta_true=0.1, epsilon=0.01, alpha=0.0)
    PlanInputs(**good)
    for field, bad in [
        ("delta_fail", 0.0),
        ("delta_fail", 1.0),
        ("eta", 0.0),
        ("eta", 1.2),
        ("Delta_true", 0.0),
        ("Delta_true", 1.0),
        ("epsilon", 0.0),
        ("epsilon", 0.2),
        ("alpha", -0.1),
        ("alpha", 1.1),
        ("m", 0),
        ("m", 5),
        ("c", 0.0),
        ("c", 1.0),
    ]:
        with pytest.raises(ValueError):
            PlanInputs(**{**good, field: bad})


def test_round_plan_rejects_oversized_delta():
    with pytest.raises(ValueError):
        plan_sampling_round(0.02, 0.5, 0.1, 1, 0.005)


def test_infeasible_round_budget():
    inputs = PlanInputs(delta_fail=0.9, eta=0.5, Delta_true=0.15, epsilon=0.01,
                        alpha=1.0)
    with pytest.raises(PlanInfeasible) as err:
        plan_gsee(inputs)
    assert err.value.predicate == "round_budget"


@pytest.mark.parametrize(
    "make, predicate",
    [
        # accuracy**2 underflows to 0: the count divides by zero.
        (lambda: hoeffding_sample_count(1.0, 1e-300, 0.0, 0.05), "round_count"),
        (lambda: plan_gsee(PlanInputs(0.1, 0.5, 0.15, 1e-300)), "round_count"),
        # accuracy**2 is subnormal: the count is inf.
        (lambda: plan_gsee(PlanInputs(0.1, 0.5, 0.15, 1e-160)), "round_count"),
        # 2**q passes float64 range once the budget is halved.
        (lambda: plan_sampling_round(0.01, 0.5, 1e-305, 1, 0.01), "register_width"),
        # The register span itself overflows to inf.
        (lambda: plan_sampling_round(0.01, 0.5, 1e-310, 1, 0.01), "register_width"),
        # sigma_tilde underflows to 0.
        (lambda: plan_sampling_round(0.01, 0.5, 5e-324, 1, 0.01), "register_width"),
        # delta_fail / (4M) underflows to 0.
        (lambda: plan_gsee(PlanInputs(1e-30, 0.5, 0.15, 1e-150)), "round_budget"),
        # 16 / (3 eta) overflows: no finite per-round sample count.
        (lambda: plan_gsee(PlanInputs(0.1, 5e-324, 0.15, 0.01)), "round_count"),
        # u grows with the budget as fast as L does: the cap is reached.
        (lambda: plan_sampling_round(0.01, 0.5, 0.1, 1, 1e-300), "delta_ratio"),
        (lambda: plan_gsee(PlanInputs(0.1, 0.5, 0.15, 1e-160, alpha=1.0)), "delta_ratio"),
    ],
    ids=["hoeffding_underflow", "gsee_underflow", "gsee_overflow", "register_past_float64",
         "register_inf", "sigma_underflow", "gsee_budget_underflow", "gsee_eta_underflow",
         "ratio_cap", "gsee_ratio_cap"],
)
def test_extreme_inputs_are_named_refusals(make, predicate):
    with pytest.raises(PlanInfeasible) as err:
        make()
    assert err.value.predicate == predicate


def test_window_predicates_run_once_per_plan(monkeypatch):
    calls = []
    real = planner._predicate_values
    monkeypatch.setattr(
        planner, "_predicate_values", lambda *args: calls.append(args) or real(*args)
    )
    plan = plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)
    assert calls == [(plan.sigma_bins, plan.q, plan.K, plan.Delta_input)]
    assert plan.halvings == 895


@pytest.mark.parametrize(
    "values, predicate",
    [
        ((0.2, 0.0, 0.0), "aliasing_eighth"),
        ((0.0, 0.2, 0.0), "tail_eighth"),
        # R / sqrt(eta) with eta = 0.5: 0.1 passes alone, not after the scaling.
        ((0.0, 0.0, 0.1), "contamination_eighth"),
        # The first failing predicate is the one named.
        ((0.2, 0.2, 1.0), "aliasing_eighth"),
    ],
)
def test_failing_window_predicate_is_refused(monkeypatch, values, predicate):
    monkeypatch.setattr(planner, "_predicate_values", lambda *args: values)
    with pytest.raises(PlanInfeasible) as err:
        plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)
    assert err.value.predicate == predicate


def test_narrow_window_is_refused(monkeypatch):
    monkeypatch.setattr(planner, "_window_width", lambda q, Delta: 1)
    with pytest.raises(PlanInfeasible) as err:
        plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)
    assert err.value.predicate == "window_width"


@pytest.mark.parametrize(
    "window_width, predicate",
    [
        # K = 1 holds less than sigma_bins + 1/2 bins.
        (lambda q, Delta: 3, "tail_regime"),
        # The window reaches the contaminant a working gap away.
        (lambda q, Delta: 2 * math.ceil(Delta * 2**q) + 1, "contamination_regime"),
    ],
    ids=["tail_regime", "contamination_regime"],
)
def test_failing_regime_predicate_is_refused(monkeypatch, window_width, predicate):
    monkeypatch.setattr(planner, "_predicate_values", lambda *args: (0.0, 0.0, 0.0))
    monkeypatch.setattr(planner, "_window_width", window_width)
    with pytest.raises(PlanInfeasible) as err:
        plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)
    assert err.value.predicate == predicate


def _assert_meets_every_predicate(plan):
    """Every feasibility predicate, from the plan's own numbers."""
    n, K, sigma = plan.n_bins, plan.K, plan.sigma_bins
    Delta, u, L = plan.Delta_input, plan.u_value, plan.L_value
    A, T, R = _predicate_values(sigma, plan.q, K, Delta)
    assert max(A, T, R / math.sqrt(plan.eta)) <= 0.125
    assert u > 1.0
    assert L >= 4.0 * (1.0 + 3.0 * u)
    assert 1.0 / n <= Delta / 6.0
    assert K >= 1 and sigma <= K - 0.5
    assert Delta * n > K + 0.5
    assert sigma <= (Delta * n / 3.0 - 1.5) / math.sqrt(2.0 * L)
    assert sigma <= 2.0 ** (-0.25) * math.sqrt((K - 0.5) / (2.0 * math.pi))
    assert n >= plan.q_lower_bound


def test_domain_corners_plan_or_refuse_the_ratio():
    # The predicates are checked once, at the sized window; this pins that
    # no input in the domain fails one there. Every corner of
    # (delta, eta, Delta, m, eps_rel), plus seeded points between them.
    deltas, etas = (0.01, 1e-300), (1.0, 1e-300)
    gaps, rels = (1e-3, 0.999999), (1e-50, 0.999999)
    points = [
        (d, e, g, m, r) for d in deltas for e in etas for g in gaps for m in (1, 4) for r in rels
    ]
    rng = random.Random(20261019)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points += [
        (
            log_uniform(1e-300, 0.01),
            log_uniform(1e-300, 1.0),
            log_uniform(1e-3, 0.999999),
            rng.randint(1, 4),
            log_uniform(1e-50, 0.999999),
        )
        for _ in range(120)
    ]
    outcomes = set()
    for point in points:
        try:
            plan = plan_sampling_round(*point)
        except PlanInfeasible as exc:
            assert exc.predicate == "delta_ratio", point
            outcomes.add("delta_ratio")
            continue
        _assert_meets_every_predicate(plan)
        assert plan.log_inv_delta_work == pytest.approx(
            -math.log(point[0]) + plan.halvings * math.log(2.0), rel=1e-12
        ), point
        outcomes.add("feasible")
    assert outcomes == {"feasible", "delta_ratio"}


@given(
    delta=st.sampled_from([0.01, 0.001, 1e-4]),
    eta=st.sampled_from([0.25, 0.5, 0.8, 1.0]),
    gap=st.sampled_from([0.05, 0.1, 0.2, 0.3]),
    m=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_round_plan_invariants(delta, eta, gap, m):
    plan = plan_sampling_round(delta, eta, gap, m, 0.005)
    n = plan.n_bins
    assert plan.two_K == 2 * plan.K
    assert plan.K >= 1
    assert plan.two_K + 1 <= math.floor((2.0 / 3.0) * n * plan.Delta_input)
    assert plan.dark_bins == math.floor(n * plan.Delta_input / 3.0)
    assert plan.log_inv_delta_work >= math.log(1.0 / plan.delta_input)
    assert plan.log_inv_delta_work == pytest.approx(
        math.log(1.0 / plan.delta_input) + plan.halvings * math.log(2.0), rel=1e-12
    )
    assert plan.M0 == math.ceil(
        16.0 / (3.0 * eta) * (math.log(3.0) + plan.log_inv_delta_work)
    )
    assert plan.M0 >= plan.M0_nominal
    assert plan.sigma_tilde == pytest.approx(
        (plan.Delta_input / 6.0) / (math.sqrt(m) * math.sqrt(2.0 * plan.L_value)),
        rel=1e-12,
    )
    assert plan.sigma_bins == pytest.approx(plan.sigma_tilde * n, rel=1e-15)
    # The register meets its own lower bound, with the ceiling tight to
    # one doubling, and stays within the allowance of twice that bound.
    assert n >= plan.q_lower_bound
    assert n < 2.0 * plan.q_lower_bound or plan.q == 1
    assert n <= 2.0 * plan.q_lower_bound
    _assert_meets_every_predicate(plan)


def test_depth_interpolation_monotone():
    qs, work = [], []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        plan = plan_gsee(
            PlanInputs(delta_fail=0.1, eta=0.5, Delta_true=0.15, epsilon=0.01,
                       alpha=alpha)
        )
        qs.append(plan.round_plan.q)
        work.append(plan.total_samples)
    assert qs == sorted(qs)
    assert work == sorted(work, reverse=True)


def test_plan_serialization_roundtrip(acceptance_plan):
    payload = acceptance_plan.to_dict()
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert payload["round_plan"]["q"] == acceptance_plan.round_plan.q


def test_plan_to_text_is_flat_and_deterministic(acceptance_plan):
    text = plan_to_text(acceptance_plan)
    assert text == plan_to_text(acceptance_plan)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == sorted(keys)
    assert any(ln.startswith("M = ") for ln in lines)


def _float64_window_values(sigma_bins, q, K, Delta):
    """(A, T, R) as explicit float64 sums over explicit ranges."""
    k = np.arange(1, 51, dtype=float)
    A = 2.0 * float(np.sum(np.exp(-2.0 * math.pi**2 * sigma_bins**2 * k**2)))
    outside = np.concatenate([np.arange(-K - 200, -K), np.arange(K + 1, K + 201)])
    T = float(np.sum(g0(outside.astype(float), -0.5, sigma_bins)))
    window = np.arange(-K, K + 1, dtype=float)
    R = math.sqrt(float(np.sum(g0(window, -0.5 + Delta * 2.0**q, sigma_bins))))
    return A, T, R


@pytest.mark.parametrize("which", ["acceptance", "default_grid", "small_window"])
def test_predicate_values_match_float64_sums(which, acceptance_plan):
    # At real plans T and R lie below float64 range (both sides read 0.0),
    # so a hand-made small window pins them at representable values.
    if which == "acceptance":
        plan = acceptance_plan.round_plan
    elif which == "default_grid":
        plan = plan_sampling_round(0.001, 0.25, 0.1, 2, DEFAULT_INTERP_COEFF * 0.01)
    if which == "small_window":
        args = (1.0, 6, 2, 5.0 / 64.0)
    else:
        args = (plan.sigma_bins, plan.q, plan.K, plan.Delta_input)
    values = _predicate_values(*args)
    expected = _float64_window_values(*args)
    assert values == pytest.approx(expected, rel=1e-12, abs=0.0)
    # The planner fixes its own precision; the caller's context is ignored.
    with mpmath.workprec(20):
        assert _predicate_values(*args) == values
