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
from scipy import stats

from gaussqpe import bounds
from gaussqpe.bounds import (
    BoundCase,
    BoundReport,
    DEFAULT_DELTAS,
    DEFAULT_EPS_REL,
    DEFAULT_ETAS,
    DEFAULT_GAPS,
    DEFAULT_MU_CENTERS,
    DEFAULT_ORDERS,
    evaluate_plan_cases,
    run_default_grid,
)
from gaussqpe.planner import plan_sampling_round


@pytest.fixture(scope="module")
def plan():
    return plan_sampling_round(0.01, 0.5, 0.1, 1, DEFAULT_EPS_REL)


@pytest.fixture(scope="module")
def plan_m2():
    return plan_sampling_round(0.01, 0.5, 0.1, 2, DEFAULT_EPS_REL)


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


def test_window_vector_terms_shape_and_scale(plan_m2):
    with mpmath.workdps(45):
        model = bounds._TwoStateModel(plan_m2, 0.0)
        terms = model.window_vector_terms()
        assert sorted(terms) == [-1, +1]
        for l1, moments in terms.values():
            # The perturbed window deviates from the ideal one, so the l1
            # radius is positive but small compared to the unit mass scale.
            assert l1 >= 0
            assert l1 < mpmath.mpf("0.5")
            assert len(moments) == 3
            for j in (0, 1, 2):
                assert abs(moments[j]) <= (2 * model.K + 1) ** j * l1


# (K, gap in bins, center, eta override, sign changes of d for s = -1, +1).
# The planned window has one cut per sign. Squeezing the states 6 or 12
# bins apart lets the contaminant amplitude pass twice the ground's near
# the window's right edge, which gives s = -1 a second cut. At eta = 1
# the perturbation vanishes bin by bin.
_WINDOW_MODELS = [
    pytest.param(None, None, 0.25, None, (1, 1), id="None-None"),
    pytest.param(10, 24, 0.25, None, (1, 1), id="10-24"),
    *(
        pytest.param(6, 6, mu, None, (2, 1), id=f"6-6-mu{mu}")
        for mu in (-0.5, 0.0, 0.25, 0.49)
    ),
    pytest.param(10, 12, -0.5, None, (1, 1), id="10-12-mu-0.5"),
    *(
        pytest.param(10, 12, mu, None, (2, 1), id=f"10-12-mu{mu}")
        for mu in (0.0, 0.25, 0.49)
    ),
    pytest.param(None, None, 0.25, 1.0, (0, 0), id="eta1"),
]


@pytest.mark.parametrize("K, gap_bins, mu_center, eta, changes", _WINDOW_MODELS)
def test_window_terms_and_fail_probs_against_direct_series(
    plan_m2, K, gap_bins, mu_center, eta, changes
):
    """Per-sign window perturbation and region probabilities, rebuilt
    from bin amplitudes with plain fsum series over explicit bin ranges.

    The planned model keeps tails and cross terms far below 45 digits;
    the squeezed ones (half-widths of 6 and 10 bins, states 6 to 24 bins
    apart) make every term, and so each sign, visible at that precision."""
    plan = plan_m2
    if K is not None:
        plan = dataclasses.replace(plan, K=K, Delta_input=gap_bins / plan.n_bins)
    if eta is not None:
        plan = dataclasses.replace(plan, eta=eta)
    tol = mpmath.mpf("1e-35")
    with mpmath.workdps(45):
        model = bounds._TwoStateModel(plan, mu_center)
        sigma, K = mpmath.mpf(plan.sigma_bins), plan.K
        mu = mpmath.mpf(mu_center)
        ND = mpmath.mpf(plan.Delta_input) * plan.n_bins
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
        terms = model.window_vector_terms()
        for s, n_changes in zip((-1, +1), changes):
            p = {n: 2 * s * mpmath.sqrt(g[n]) * e[n] + e[n] ** 2 for n in window}
            F, P = mpmath.fsum(g.values()), mpmath.fsum(p.values())
            d = {n: (p[n] * F - g[n] * P) / (F * (F + P)) for n in window}
            signs = [mpmath.sign(d[n]) for n in window if d[n] != 0]
            assert sum(a != b for a, b in zip(signs, signs[1:])) == n_changes
            l1, moments = terms[s]
            assert len(moments) == 3
            if eta == 1.0:
                assert l1 == 0 and all(v == 0 for v in moments)
                continue
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


def _norm_and_pollution_cases(plan, mu_center):
    with mpmath.workdps(bounds._DPS):
        model = bounds._TwoStateModel(plan, mu_center)
        base = bounds._base_params(plan, mu_center)
        cases = [c for c in bounds._norm_cases(model, base) if c.kind == "inv_norm"]
        if plan.eta < 1:
            cases.append(bounds._pollution_case(model, base))
    return model, cases


def test_tiny_margins_match_the_plain_difference(plan):
    """inv_norm and pollution_norm margins, assembled from the tiny terms,
    equal bound - exact formed plainly from the same model terms at enough
    digits that the difference does not round away. The squeezed models
    (2**5 and 2**6 bins, K = 13 and 20) bring the register tail within a
    factor of ten of the window tail, so a sign slip there shows."""
    squeezed = [
        dataclasses.replace(
            plan, q=q, K=K, sigma_tilde=plan.sigma_bins / (1 << q), Delta_input=gap / (1 << q)
        )
        for q, K, gap in ((5, 13, 12), (6, 20, 20))
    ]
    for model_plan in (plan, *squeezed):
        for mu_center in (-0.5, 0.0, 0.25):
            model, cases = _norm_and_pollution_cases(model_plan, mu_center)
            with mpmath.workdps(1500):
                t0, t1 = model.norm0_minus_1, model.norm1_minus_1
                S = model.A + model.T
                S_abs = model.alias_abs[0] + model.T
                refs = {
                    "inv_norm": S / (1 - S) - abs(t0) / (1 + t0),
                    "pollution_norm": (
                        mpmath.sqrt((1 - model.eta) / model.eta)
                        * model.R
                        * (
                            mpmath.sqrt((1 + S_abs) / (1 - S_abs))
                            - mpmath.sqrt((1 + t0) / (1 + t1))
                        )
                    ),
                }
                # The pollution bound is not meant for the squeezed models.
                for case in cases[: 2 if model_plan is plan else 1]:
                    ref = refs[case.kind]
                    assert ref > 0
                    assert case.margin_log10 == pytest.approx(
                        float(mpmath.log10(ref)), rel=1e-12
                    )


def test_pollution_bound_needs_the_alias_majorant(plan):
    """At mu = 1/4 the ground centre's own aliasing defect is ~1e-176 while
    the contaminant's, which N1 carries, is ~1e-114: with the centre's A in
    place of the majorant the pollution bound would fail."""
    model, _ = _norm_and_pollution_cases(plan, 0.25)
    with mpmath.workdps(1500):
        t0, t1 = model.norm0_minus_1, model.norm1_minus_1
        S = model.A + model.T
        assert (1 + S) / (1 - S) < (1 + t0) / (1 + t1)
        S_abs = model.alias_abs[0] + model.T
        assert (1 + S_abs) / (1 - S_abs) > (1 + t0) / (1 + t1)


def test_default_grid_norm_and_pollution_margins_are_positive():
    """Every default-grid inv_norm and pollution_norm row holds with a
    finite margin_log10, so both kinds reach worst_margin_log10_by_kind."""
    cases = []
    for eta in DEFAULT_ETAS:
        for delta in DEFAULT_DELTAS:
            for gap in DEFAULT_GAPS:
                for m in DEFAULT_ORDERS:
                    plan = plan_sampling_round(delta, eta, gap, m, DEFAULT_EPS_REL)
                    for mu_center in DEFAULT_MU_CENTERS:
                        cases.extend(_norm_and_pollution_cases(plan, mu_center)[1])
    kinds = [c.kind for c in cases]
    assert (kinds.count("inv_norm"), kinds.count("pollution_norm")) == (180, 120)
    assert all(c.holds and math.isfinite(c.margin_log10) for c in cases)
    worst = BoundReport(cases=tuple(cases)).summary()["worst_margin_log10_by_kind"]
    assert set(worst) == {"inv_norm", "pollution_norm"}


@pytest.mark.parametrize("mu_center", [0.04, 0.31])
def test_two_state_spectrum_keeps_the_working_gap(mu_center):
    """theta0 + 1/8 rounds down at these centers, one ulp short of the
    working gap; the plan accepts the model as it is."""
    plan = plan_sampling_round(0.01, 0.25, 0.125, 1, DEFAULT_EPS_REL)
    theta0 = mu_center / plan.n_bins
    assert (theta0 + 0.125) - theta0 < 0.125
    spec = bounds._two_state_spectrum(plan, mu_center)
    assert spec.eigenphases == (theta0, theta0 + 0.125)
    spec.validate_for_plan(plan)


def test_mc_case_sees_no_failures(plan):
    case = bounds._mc_case(plan, mu_center=-0.25, rounds=300, seed=20260814)
    assert case.kind == "mc_round_failure"
    assert case.preconditions_met
    assert case.holds
    assert case.params["failures"] == 0
    assert case.bound >= 5.0 / 300.0


@pytest.mark.parametrize("M0, seed", [(1, 20261001), (2, 20261002), (4, 20261004)])
def test_mc_case_sees_failures_of_starved_rounds(M0, seed):
    """With M0 = 1, 2 or 4 draws a round fails exactly when no draw lands
    on the ground state (up to ~1e-100: the states sit a working gap
    apart, far beyond 2K), so failures ~ Binomial(rounds, (1 - eta)**M0).
    Two-sided binomial test at a level and seeds fixed in advance."""
    plan = plan_sampling_round(0.01, 0.25, 0.1, 1, DEFAULT_EPS_REL)
    rounds = 4000
    case = bounds._mc_case(dataclasses.replace(plan, M0=M0), -0.25, rounds, seed)
    failures = case.params["failures"]
    p_fail = (1.0 - plan.eta) ** M0
    assert stats.binomtest(failures, rounds, p_fail).pvalue > 1e-3
    assert case.exact == failures / rounds


def test_mc_case_failure_event_reads_the_basket_mean(monkeypatch):
    """Crafted round statistics with half the draws in the basket: means
    2K+1 and -2K-1 miss the center -1/4 by more than 2K, means 2K-1 and 0
    do not. A shadow that divided basket sums by M0 would halve the means
    and see no failure."""
    plan = plan_sampling_round(0.01, 0.25, 0.1, 1, DEFAULT_EPS_REL)
    assert (plan.K, plan.M0) == (272, 14688)
    K, count = plan.K, plan.M0 // 2
    means = np.array([2 * K + 1, -2 * K - 1, 2 * K - 1, 0])

    def crafted(rng, dist, rounds, M0, two_K, dark_bins):
        assert (rounds, M0, two_K) == (means.size, plan.M0, plan.two_K)
        counts = np.full(rounds, count, dtype=np.int64)
        zeros = np.zeros(rounds, dtype=np.int64)
        return zeros, counts, means * counts, zeros

    monkeypatch.setattr(bounds.estimation, "_draw_rounds", crafted)
    case = bounds._mc_case(plan, -0.25, means.size, 1)
    assert case.params["failures"] == 2


def test_mc_shadow_runs_at_the_middle_gap():
    """A grid whose gaps leave out 0.1 still gets one shadow case per eta."""
    report = run_default_grid(
        etas=(0.25, 0.5),
        deltas=(0.01,),
        gaps=(0.05, 0.2),
        orders=(1,),
        mu_centers=(0.0,),
        mc_rounds=50,
    )
    shadow = [c.params["plan"] for c in report.cases if c.kind == "mc_round_failure"]
    assert shadow == ["eta0.25_delta0.01_gap0.2_m1", "eta0.5_delta0.01_gap0.2_m1"]


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
