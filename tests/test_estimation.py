"""Windowed moment estimation: baskets, round means, and the grand mean.

HOEFFDING_185 is ceil(ln(2/0.05) / (2 * 0.1**2)) from the oracle script.

``run_gsee`` draws each round's sufficient statistics directly, so it is
checked in law, not bit for bit: against the exact joint law enumerated
on a toy lattice, against ``SampleStream`` + ``basket_from_outcomes``
by two-sample chi-square tests, and exactly on degenerate distributions.
Every statistical test here has its seed and level (``CHI2_LEVEL``)
fixed; a failure is a finding, not a reason to re-seed.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from gaussqpe import estimation
from gaussqpe.gaussian import wrap_mod
from gaussqpe.estimation import (
    _MAX_ROUNDS,
    RoundBudgetTooLarge,
    _draw_rounds,
    _residues,
    basket_from_outcomes,
    run_gsee,
    run_qpe_baseline,
    run_sampling_round,
)
from gaussqpe.planner import (
    hoeffding_sample_count,
    plan_gsee,
    plan_qpe_baseline,
    plan_sampling_round,
)
from gaussqpe.simulator import (
    OutcomeDistribution,
    SampleStream,
    SpectrumSpec,
    mixed_distribution,
)
from scipy import stats

HOEFFDING_185 = 185
CHI2_LEVEL = 1e-3


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


def test_round_uses_plan_sample_count(round_plan):
    probs = np.zeros(round_plan.n_bins)
    probs[50] = 1.0
    basket = run_sampling_round(SampleStream(probs, 5), round_plan)
    assert basket.round_samples == round_plan.M0
    assert basket.anchor == 50
    assert basket.size == round_plan.M0


class TestRunGsee:
    def test_recovers_ground_phase(self, acceptance_spectrum, acceptance_inputs):
        plan = plan_gsee(acceptance_inputs)
        est = run_gsee(plan, mixed_distribution(acceptance_spectrum, plan), 7)
        assert abs(est.mu_hat - acceptance_spectrum.ground_phase) < 0.01
        assert est.n_left == 0
        assert est.M_used == len(est.per_round_means)

    def test_deterministic_in_seed(self, acceptance_spectrum, acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        a = run_gsee(acceptance_plan, dist, 123)
        b = run_gsee(acceptance_plan, dist, 123)
        assert a.mu_hat == b.mu_hat
        assert a.n_dark == b.n_dark
        np.testing.assert_array_equal(a.per_round_means, b.per_round_means)

    def test_rejects_distribution_of_another_plan(self, acceptance_spectrum,
                                                  acceptance_inputs, acceptance_plan):
        """A distribution on another register would be wrapped mod the
        plan's 2**q and give a confident wrong answer."""
        deeper = plan_gsee(replace(acceptance_inputs, alpha=0.5))
        assert deeper.round_plan.q != acceptance_plan.round_plan.q
        dist = mixed_distribution(acceptance_spectrum, deeper)
        with pytest.raises(ValueError, match=r"distribution is on 2\*\*14 bins"):
            run_gsee(acceptance_plan, dist, 1)

    def test_negative_ground_phase(self, acceptance_plan):
        spec = SpectrumSpec(eigenphases=(-0.31, -0.1), overlaps_sq=(0.7, 0.3))
        est = run_gsee(acceptance_plan, mixed_distribution(spec, acceptance_plan), 11)
        assert abs(est.mu_hat - (-0.31)) < 0.01

    def test_round_budget_too_large_is_named_error(
        self, acceptance_spectrum, acceptance_inputs, acceptance_plan, monkeypatch
    ):
        """A feasible plan whose rounds would not fit in memory is refused
        before anything is drawn; epsilon 1e-4 (8.3M rounds) still runs."""

        def no_draw(*args):
            raise AssertionError("rounds drawn past the round budget")

        monkeypatch.setattr(estimation, "_draw_rounds", no_draw)
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        deep = plan_gsee(replace(acceptance_inputs, epsilon=1e-5))
        assert deep.M == 829_997_878
        over = replace(acceptance_plan, M=_MAX_ROUNDS + 1)
        for plan in (deep, over):
            with pytest.raises(RoundBudgetTooLarge, match="above the 2147483648-byte"):
                run_gsee(plan, dist, 1)
        assert plan_gsee(replace(acceptance_inputs, epsilon=1e-4)).M <= _MAX_ROUNDS
        with pytest.raises(AssertionError, match="past the round budget"):
            run_gsee(replace(acceptance_plan, M=_MAX_ROUNDS), dist, 1)

    def test_higher_moment_plan_is_refused_before_drawing(
        self, acceptance_spectrum, acceptance_inputs, monkeypatch
    ):
        """The Hoeffding layer sizes M for the basket mean only, so a round
        planned for m = 2 is refused, not silently run as a mean."""

        def no_draw(*args):
            raise AssertionError("rounds drawn for an m = 2 plan")

        monkeypatch.setattr(estimation, "_draw_rounds", no_draw)
        plan = plan_gsee(replace(acceptance_inputs, m=2))
        assert plan.round_plan.M0 == 4522
        dist = mixed_distribution(acceptance_spectrum, plan)
        with pytest.raises(ValueError, match="moment order m=2"):
            run_gsee(plan, dist, 1)


class TestQpeBaseline:
    def test_recovers_on_grid_phase(self):
        spec = SpectrumSpec(eigenphases=(3.0 / 16.0,), overlaps_sq=(1.0,))
        est = run_qpe_baseline(spec, plan_qpe_baseline(1.0 / 16.0, 0.01), 17)
        assert est.q == 4
        assert est.theta_hat == pytest.approx(3.0 / 16.0)
        assert est.mode_residue == 3
        assert est.n_samples == 54

    def test_half_bin_phase_lands_on_neighbor(self):
        theta = (3.0 + 0.5) / 16.0
        spec = SpectrumSpec(eigenphases=(theta,), overlaps_sq=(1.0,))
        est = run_qpe_baseline(spec, plan_qpe_baseline(1.0 / 16.0, 0.01), 29)
        assert abs(est.theta_hat - theta) <= 1.0 / 16.0

    def test_rejects_mixed_state(self, acceptance_spectrum):
        with pytest.raises(ValueError):
            run_qpe_baseline(acceptance_spectrum, plan_qpe_baseline(0.0625, 0.1), 3)

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
    est = run_gsee(acceptance_plan, mixed_distribution(spec, acceptance_plan), 13)
    assert abs(est.mu_hat - (-0.42)) < 0.01


def test_positive_seam_mean_is_unbiased(acceptance_plan):
    """A ground phase near +0.42 puts the window and dark segment past
    +2**(q-1); no round mean may land beyond it."""
    spec = SpectrumSpec(eigenphases=(0.42,), overlaps_sq=(1.0,))
    est = run_gsee(acceptance_plan, mixed_distribution(spec, acceptance_plan), 17)
    round_plan = acceptance_plan.round_plan
    assert est.diagnostics["median_anchor"] + round_plan.two_K + round_plan.dark_bins > (
        round_plan.n_bins // 2
    )
    assert est.per_round_means.max() <= round_plan.n_bins // 2
    assert abs(est.mu_hat - 0.42) < 0.01


def _lattice_dist(q: int, mass_by_residue: dict[int, float]) -> OutcomeDistribution:
    """A distribution given by residue, normalised as mixed_distribution does."""
    mixed = np.zeros(1 << q)
    for residue, mass in mass_by_residue.items():
        mixed[residue % (1 << q)] = mass
    cdf = np.cumsum(mixed)
    cdf /= cdf[-1]
    return OutcomeDistribution(q=q, per_eigenstate=mixed[np.newaxis], mixed=mixed, cdf=cdf)


def _draw(dist, rounds, M0, two_K, dark_bins, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return _draw_rounds(rng, dist, rounds, M0, two_K, dark_bins)


def _round_stats(residues, two_K, dark_bins):
    """(anchor, count, sum, dark) of one round, straight from its residues."""
    a = min(residues)
    basket = [r for r in residues if r <= a + two_K]
    dark = sum(a + two_K < r <= a + two_K + dark_bins for r in residues)
    return a, len(basket), sum(basket), dark


# Toy lattice whose windows often cross the seam at +8: an anchor at 7
# reaches residues 8..11, and bins 9..11 hold residues -7..-5.
TOY_Q, TOY_M0, TOY_TWO_K, TOY_DARK = 4, 5, 2, 2
TOY_MASS = {-7: 0.05, -6: 0.05, -1: 0.05, 0: 0.05, 2: 0.05,
            5: 0.15, 6: 0.15, 7: 0.2, 8: 0.25}


def _toy_law() -> Counter:
    """Probability of each (anchor, count, sum, dark) on the toy lattice,
    enumerated over every multiset of M0 draws."""
    law: Counter = Counter()
    for draw in itertools.combinations_with_replacement(sorted(TOY_MASS), TOY_M0):
        mult = Counter(draw)
        weight = math.factorial(TOY_M0)
        for residue, n in mult.items():
            weight = weight / math.factorial(n) * TOY_MASS[residue] ** n
        law[_round_stats(draw, TOY_TWO_K, TOY_DARK)] += weight
    return law


def test_round_sampler_matches_exact_joint_law():
    """Chi-square goodness of fit of (anchor, count, sum, dark) against the
    law enumerated over every multiset of M0 draws; cells expected below
    5 are pooled into one."""
    dist = _lattice_dist(TOY_Q, TOY_MASS)
    law = _toy_law()
    assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)

    rounds = 40_000
    sampled = Counter(zip(*(x.tolist() for x in _draw(
        dist, rounds, TOY_M0, TOY_TWO_K, TOY_DARK, 2024))))
    assert set(sampled) <= set(law), "a sampled round has probability 0"
    big = [cell for cell, p in law.items() if rounds * p >= 5]
    small = [cell for cell in law if cell not in big]
    observed = [sampled[c] for c in big] + [sum(sampled[c] for c in small)]
    expected = [rounds * law[c] for c in big] + [rounds * math.fsum(law[c] for c in small)]
    assert len(big) > 50
    p_value = stats.chisquare(observed, expected).pvalue
    assert p_value >= CHI2_LEVEL, f"chi-square p = {p_value:.2e} over {len(expected)} cells"


def _pooled_table(a: np.ndarray, b: np.ndarray, columns: int) -> np.ndarray:
    """2 x c contingency table of two samples on consecutive value ranges,
    each holding at least 1/columns of the pooled sample."""
    values, pooled = np.unique(np.concatenate([a, b]), return_counts=True)
    total = pooled.sum()
    edges, run = [], 0
    for value, n in zip(values[:-1], pooled[:-1]):
        run += n
        if run * columns >= total:
            edges.append(value)
            run = 0
    if edges and (run + pooled[-1]) * columns < total:
        edges.pop()  # fold a short last range into the one before
    return np.array([np.bincount(np.searchsorted(edges, x), minlength=len(edges) + 1)
                     for x in (a, b)])


SAMPLER_SPECTRA = pytest.mark.parametrize("spectrum", [
    ((-0.2, -0.05, 0.15), (0.5, 0.3, 0.2)),
    ((0.42,), (1.0,)),  # windows cross the seam at +2**(q-1)
], ids=["acceptance", "near-seam"])


@SAMPLER_SPECTRA
def test_round_sampler_matches_sample_stream(acceptance_plan, spectrum):
    """Two-sample chi-square tests of the anchor, basket-count and
    basket-mean histograms against rounds windowed from SampleStream
    draws. Near the seam every draw lands in the basket, so the basket
    count takes the one value M0 on both sides."""
    round_plan = acceptance_plan.round_plan
    dist = mixed_distribution(SpectrumSpec(*spectrum), acceptance_plan)
    rounds = 4000
    stream = SampleStream(dist.mixed, 77)
    oracle = [run_sampling_round(stream, round_plan) for _ in range(rounds)]
    anchors, counts, sums, _ = _draw(
        dist, rounds, round_plan.M0, round_plan.two_K, round_plan.dark_bins, 78
    )
    means = sums / counts
    assert means.max() <= round_plan.n_bins // 2
    for name, ours, theirs in (
        ("anchor", anchors, np.array([b.anchor for b in oracle])),
        ("basket count", counts, np.array([b.size for b in oracle])),
        ("basket mean", means, np.array([b.members.mean() for b in oracle])),
    ):
        table = _pooled_table(ours, theirs, 20)
        if table.shape[1] == 1:
            assert np.unique(np.concatenate([ours, theirs])).size == 1, name
            continue
        assert table.shape[1] >= 3, name
        p_value = stats.chi2_contingency(table).pvalue
        assert p_value >= CHI2_LEVEL, f"{name}: p = {p_value:.2e}"


class TestRoundSamplerExactCases:
    @pytest.mark.parametrize("residue", [-2047, -300, 0, 777, 2048])
    def test_one_bin_spike(self, acceptance_plan, residue):
        round_plan = acceptance_plan.round_plan
        dist = _lattice_dist(round_plan.q, {residue: 1.0})
        est = run_gsee(acceptance_plan, dist, 3)
        assert np.all(est.per_round_means == residue)
        assert est.n_dark == 0 and est.n_left == 0
        assert est.diagnostics == {
            "median_anchor": float(residue),
            "basket_fraction": 1.0,
            "dark_fraction": 0.0,
        }

    def test_two_spikes_in_one_window(self):
        """Every draw lands in the basket; the draws on the right spike
        follow Bin(M0, 0.7), whichever spike anchors the round."""
        M0, left, step = 4, -3, 5
        dist = _lattice_dist(8, {left: 0.3, left + step: 0.7})
        anchors, counts, sums, darks = _draw(dist, 20_000, M0, 2 * step, 3, 5)
        assert np.all(counts == M0) and np.all(darks == 0)
        assert set(anchors.tolist()) == {left, left + step}
        right, rest = np.divmod(sums - M0 * left, step)
        assert np.all(rest == 0)
        observed = np.bincount(right, minlength=M0 + 1)
        expected = stats.binom.pmf(np.arange(M0 + 1), M0, 0.7) * right.size
        assert stats.chisquare(observed, expected).pvalue >= CHI2_LEVEL

    def test_spike_in_dark_segment(self):
        two_K, dark = 6, 4
        dist = _lattice_dist(8, {10: 0.5, 10 + two_K + dark: 0.5})
        anchors, counts, _, darks = _draw(dist, 2000, 6, two_K, dark, 6)
        left = anchors == 10
        np.testing.assert_array_equal(counts[left] + darks[left], 6)
        np.testing.assert_array_equal(darks[~left], 0)

    def test_window_past_seam_is_masked(self):
        """An anchor just left of +2**(q-1) gathers bins that wrap to
        residues left of it; their mass must not enter the round."""
        q, M0 = 4, 3
        half = 1 << (q - 1)
        dist = _lattice_dist(q, {half - 1: 0.6, half: 0.3, -half + 1: 0.1})
        anchors, counts, sums, darks = _draw(dist, 5000, M0, 2, 2, 8)
        right = anchors >= half - 1
        assert 0 < right.sum() < anchors.size
        np.testing.assert_array_equal(counts[right], M0)
        assert np.all((sums[right] >= M0 * anchors[right]) & (sums[right] <= M0 * half))
        np.testing.assert_array_equal(darks, 0)
        np.testing.assert_array_equal(sums[~right], counts[~right] * (-half + 1))


def test_round_chunks_keep_the_exact_cases(monkeypatch):
    """Runs split into 333-round chunks, with a short last chunk, keep the
    exact cases: the toy lattice's 5000 rounds (15 chunks and 5 rounds)
    draw no round of probability 0, and the two-spike (20 000 rounds) and
    past-the-seam (5000) checks hold."""
    chunk, rounds = 333, 5000
    assert rounds // chunk >= 3 and rounds % chunk > 0
    toy = (_lattice_dist(TOY_Q, TOY_MASS), rounds, TOY_M0, TOY_TWO_K, TOY_DARK, 9)
    unchunked = _draw(*toy)
    monkeypatch.setattr(estimation, "_ROUND_CHUNK", chunk)
    chunked = _draw(*toy)
    assert not all(map(np.array_equal, chunked, unchunked)), "the chunk was not read"
    sampled = set(zip(*(x.tolist() for x in chunked)))
    assert sampled <= set(_toy_law()), "a sampled round has probability 0"
    cases = TestRoundSamplerExactCases()
    cases.test_two_spikes_in_one_window()
    cases.test_window_past_seam_is_masked()


@SAMPLER_SPECTRA
def test_multinomial_batching_moves_no_byte(acceptance_plan, spectrum, monkeypatch):
    """numpy draws a multinomial call's rows one after another, so one
    round per call gives the same arrays as the default batching."""
    round_plan = acceptance_plan.round_plan
    dist = mixed_distribution(SpectrumSpec(*spectrum), acceptance_plan)
    args = (dist, 2000, round_plan.M0, round_plan.two_K, round_plan.dark_bins, 41)
    batched = _draw(*args)
    # Some anchor holds more rounds than one call takes.
    assert np.unique(batched[0], return_counts=True)[1].max() > estimation._MULTINOMIAL_ROWS
    monkeypatch.setattr(estimation, "_MULTINOMIAL_ROWS", 1)
    for ours, one_row in zip(batched, _draw(*args)):
        np.testing.assert_array_equal(ours, one_row)
