"""Windowed moment estimation: baskets, round means, and the grand mean.

HOEFFDING_185 is ceil(ln(2/0.05) / (2 * 0.1**2)) from the oracle script.
"""

import math

import numpy as np
import pytest

from gaussqpe.gaussian import wrap_mod
from gaussqpe.estimation import (
    _residues,
    basket_from_outcomes,
    moment_from_basket,
    run_gsee,
    run_qpe_baseline,
    run_sampling_round,
)
from gaussqpe.planner import (
    PlanInputs,
    hoeffding_sample_count,
    plan_gsee,
    plan_sampling_round,
)
from gaussqpe.simulator import SampleStream, SpectrumSpec, mixed_distribution

HOEFFDING_185 = 185


def test_hoeffding_reference():
    assert hoeffding_sample_count(1.0, 0.1, 0.0, 0.05) == HOEFFDING_185


def test_hoeffding_scaling():
    base = hoeffding_sample_count(1.0, 0.1, 0.0, 0.05)
    assert hoeffding_sample_count(2.0, 0.1, 0.0, 0.05) == 4 * base or (
        abs(hoeffding_sample_count(2.0, 0.1, 0.0, 0.05) - 4 * base) <= 3
    )
    assert hoeffding_sample_count(1.0, 0.1, 0.5, 0.05) > base
    with pytest.raises(ValueError):
        hoeffding_sample_count(0.0, 0.1, 0.0, 0.05)


@pytest.fixture(scope="module")
def round_plan():
    return plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)


def test_basket_window_and_dark_segment(round_plan):
    n = round_plan.n_bins
    anchor = 400
    inside = anchor + round_plan.two_K
    dark = inside + 1
    far = inside + round_plan.dark_bins + 5
    outcomes = np.array([anchor, anchor + 3, inside, dark, far, n - 1])
    basket = basket_from_outcomes(outcomes, round_plan)
    # n - 1 wraps to -1 and becomes the true leftmost residue.
    assert basket.anchor == -1
    assert basket.round_samples == 6
    members = set(basket.members.tolist())
    assert members == {-1, anchor, anchor + 3}
    assert basket.n_dark == 0

    no_wrap = basket_from_outcomes(outcomes[:-1], round_plan)
    assert no_wrap.anchor == anchor
    assert set(no_wrap.members.tolist()) == {anchor, anchor + 3, inside}
    assert no_wrap.n_dark == 1
    assert no_wrap.size == 3


def test_basket_rejects_empty(round_plan):
    with pytest.raises(ValueError):
        basket_from_outcomes(np.array([]), round_plan)


@pytest.mark.parametrize("q", range(1, 17))
def test_residues_match_wrap_mod_on_every_bin(q):
    bins = np.arange(1 << q, dtype=np.int64)
    residues = _residues(bins, q)
    assert residues.dtype == np.int64
    np.testing.assert_array_equal(residues, wrap_mod(bins, 0.0, q).astype(np.int64))
    assert residues[1 << (q - 1)] == 1 << (q - 1)


def test_basket_rejects_non_integer_and_out_of_range_outcomes(round_plan):
    n = round_plan.n_bins
    with pytest.raises(ValueError, match="integers"):
        basket_from_outcomes(np.array([100.7, 102.0]), round_plan)
    with pytest.raises(ValueError, match="integers"):
        basket_from_outcomes(np.array([100.0, 102.0]), round_plan)
    with pytest.raises(ValueError, match="integers"):
        basket_from_outcomes(np.array([True, False]), round_plan)
    for bad in (-1, n, n + 7):
        with pytest.raises(ValueError, match=r"lie in \[0, "):
            basket_from_outcomes(np.array([100, bad]), round_plan)
    edge = basket_from_outcomes(np.array([0, n - 1], dtype=np.uint32), round_plan)
    assert edge.anchor == -1


def test_moment_from_basket(round_plan):
    outcomes = np.array([100, 102, 104])
    basket = basket_from_outcomes(outcomes, round_plan)
    first = moment_from_basket(basket, round_plan)
    assert first.m == round_plan.m == 1
    assert first.value_bins == pytest.approx(102.0)
    assert first.value_rel == pytest.approx(102.0 / round_plan.n_bins)
    second = moment_from_basket(basket, round_plan, m=2)
    assert second.value_bins == pytest.approx((100**2 + 102**2 + 104**2) / 3.0)
    with pytest.raises(ValueError):
        moment_from_basket(basket, round_plan, m=7)


def test_round_uses_plan_sample_count(round_plan):
    probs = np.zeros(round_plan.n_bins)
    probs[50] = 1.0
    basket = run_sampling_round(SampleStream(probs, 5), round_plan)
    assert basket.round_samples == round_plan.M0
    assert basket.anchor == 50
    assert basket.size == round_plan.M0


class TestRunGsee:
    def test_matches_repeated_single_rounds(self, acceptance_spectrum,
                                            acceptance_plan):
        """The batched path must equal round-by-round evaluation on the
        same stream, whatever the internal batch size."""
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        est = run_gsee(acceptance_spectrum, None, 31, plan=acceptance_plan,
                       dist=dist)
        stream = SampleStream(dist, 31)
        round_plan = acceptance_plan.round_plan
        means = []
        for _ in range(acceptance_plan.M):
            basket = run_sampling_round(stream, round_plan)
            means.append(moment_from_basket(basket, round_plan).value_bins)
        assert np.allclose(est.per_round_means, means, rtol=0, atol=0)
        assert est.mu_hat == pytest.approx(
            np.mean(means) / round_plan.n_bins, rel=1e-15
        )

    def test_recovers_ground_phase(self, acceptance_spectrum, acceptance_inputs):
        est = run_gsee(acceptance_spectrum, acceptance_inputs, 7)
        assert abs(est.mu_hat - acceptance_spectrum.ground_phase) < 0.01
        assert est.n_left == 0
        assert est.M_used == len(est.per_round_means)

    def test_deterministic_in_seed(self, acceptance_spectrum, acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        a = run_gsee(acceptance_spectrum, None, 123, plan=acceptance_plan,
                     dist=dist)
        b = run_gsee(acceptance_spectrum, None, 123, plan=acceptance_plan,
                     dist=dist)
        assert a.mu_hat == b.mu_hat
        assert a.n_dark == b.n_dark
        np.testing.assert_array_equal(a.per_round_means, b.per_round_means)

    def test_requires_inputs_or_plan(self, acceptance_spectrum):
        with pytest.raises(ValueError):
            run_gsee(acceptance_spectrum, None, 1)

    def test_negative_ground_phase(self, acceptance_plan):
        spec = SpectrumSpec(eigenphases=(-0.31, -0.1), overlaps_sq=(0.7, 0.3))
        est = run_gsee(spec, None, 11, plan=acceptance_plan)
        assert abs(est.mu_hat - (-0.31)) < 0.01


class TestQpeBaseline:
    def test_recovers_on_grid_phase(self):
        spec = SpectrumSpec(eigenphases=(3.0 / 16.0,), overlaps_sq=(1.0,))
        est = run_qpe_baseline(spec, 1.0 / 16.0, 0.01, 17)
        assert est.q == 4
        assert est.theta_hat == pytest.approx(3.0 / 16.0)
        assert est.mode_residue == 3
        assert est.n_samples == 54

    def test_half_bin_phase_lands_on_neighbor(self):
        theta = (3.0 + 0.5) / 16.0
        spec = SpectrumSpec(eigenphases=(theta,), overlaps_sq=(1.0,))
        est = run_qpe_baseline(spec, 1.0 / 16.0, 0.01, 29)
        assert abs(est.theta_hat - theta) <= 1.0 / 16.0

    def test_rejects_mixed_state(self, acceptance_spectrum):
        with pytest.raises(ValueError):
            run_qpe_baseline(acceptance_spectrum, 0.0625, 0.1, 3)

    def test_vote_ties_resolve_low(self, acceptance_spectrum):
        # Synthetic check of the tie rule through a two-spike stream.
        probs = np.zeros(16)
        probs[[4, 11]] = 0.5
        stream = SampleStream(probs, 8)
        draws = stream.draw(100)
        values, counts = np.unique(draws, return_counts=True)
        mode = int(values[np.argmax(counts)])
        if counts[0] == counts[1]:
            assert mode == 4


def test_wraparound_mean_is_unbiased(acceptance_plan):
    """A ground phase just left of the seam keeps its basket coherent
    through the wrap."""
    spec = SpectrumSpec(eigenphases=(-0.42, -0.2), overlaps_sq=(0.8, 0.2))
    est = run_gsee(spec, None, 13, plan=acceptance_plan)
    assert abs(est.mu_hat - (-0.42)) < 0.01
