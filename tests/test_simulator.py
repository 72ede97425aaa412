"""Register distributions, spectra, and the sampling stream.

The three DFT_Q4_* constants are direct 16-point discrete Fourier sums
evaluated in mpmath (tests/make_oracles.py); everything else is checked
through exact distributional symmetries.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussqpe import gaussian
from gaussqpe.planner import plan_gsee, plan_sampling_round
from gaussqpe.simulator import (
    DenseHamiltonian,
    DistributionTooLarge,
    SampleStream,
    SpectrumPlanMismatch,
    SpectrumSpec,
    distribution_from_window,
    eigendecompose,
    eigenstate_distribution,
    gaussian_window,
    mixed_distribution,
    rectangular_window,
)

DFT_Q4_Z2 = 0.3110654943105191800531255
DFT_Q4_Z3 = 0.2407251776266038805671965
DFT_Q4_Z8 = 7.06015000521991564629776e-6


def test_distribution_matches_direct_dft():
    window = gaussian_window(4, 0.08)
    probs = distribution_from_window(window, 0.13)
    assert probs[2] == pytest.approx(DFT_Q4_Z2, rel=1e-13)
    assert probs[3] == pytest.approx(DFT_Q4_Z3, rel=1e-13)
    assert probs[8] == pytest.approx(DFT_Q4_Z8, rel=1e-13)


def test_window_is_unit_norm_and_centered():
    for q in (4, 8, 12):
        window = gaussian_window(q, 2.7573 / (1 << q))
        assert np.sum(window**2) == pytest.approx(1.0, abs=1e-14)
        assert int(np.argmax(window)) == (1 << q) // 2
        assert np.all(window > 0.0) or window.min() >= 0.0


def test_window_validation():
    with pytest.raises(ValueError):
        gaussian_window(0, 0.01)
    with pytest.raises(ValueError):
        gaussian_window(8, -0.5)
    with pytest.raises(ValueError):
        rectangular_window(0)


def test_rectangular_window_is_flat():
    window = rectangular_window(5)
    assert window.shape == (32,)
    np.testing.assert_allclose(window, 1.0 / math.sqrt(32.0))


@pytest.mark.parametrize("q", [8, 12, 16])
@pytest.mark.parametrize("theta", [0.0, 0.1, -0.37, 0.25 + 0.3 / 4096])
def test_distribution_normalized(q, theta):
    window = gaussian_window(q, 2.8 / (1 << q))
    probs = distribution_from_window(window, theta)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert probs.min() >= 0.0


@pytest.mark.parametrize("q", [8, 12])
def test_shift_covariance(q):
    n = 1 << q
    window = gaussian_window(q, 2.8 / n)
    theta = 0.07 + 0.4 / n
    base = distribution_from_window(window, theta)
    for shift in (1, 7, n // 2):
        shifted = distribution_from_window(window, theta + shift / n)
        np.testing.assert_allclose(shifted, np.roll(base, shift), atol=1e-12)


@pytest.mark.parametrize("q", [8, 12])
@pytest.mark.parametrize("theta", [0.11, 0.23 + 0.7 / 256])
def test_reflection_symmetry(q, theta):
    n = 1 << q
    window = gaussian_window(q, 2.8 / n)
    plus = distribution_from_window(window, theta)
    minus = distribution_from_window(window, -theta)
    np.testing.assert_allclose(minus, plus[(-np.arange(n)) % n], atol=1e-12)


def test_peak_and_width_track_the_plan():
    plan = plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)
    n = plan.n_bins
    probs = eigenstate_distribution(0.1, plan)
    center = 0.1 * n
    offsets = gaussian.wrap_mod(np.arange(n, dtype=np.float64), center, plan.q)
    mean = float((probs * offsets).sum())
    std = math.sqrt(float((probs * (offsets - mean) ** 2).sum()))
    assert abs(mean) < 1e-9
    assert std == pytest.approx(plan.sigma_bins, rel=1e-6)
    assert int(np.argmax(probs)) == round(center)


def test_on_grid_distribution_is_wrapped_gaussian():
    """For an eigenphase on the bin grid the law collapses to the
    discretized Gaussian itself; far bins keep only truncation dust."""
    plan = plan_sampling_round(0.01, 0.5, 0.15, 1, 0.005)
    n = plan.n_bins
    z0 = 410
    probs = eigenstate_distribution(z0 / n, plan)
    params = gaussian.GaussianParams(sigma=plan.sigma_bins, q=plan.q, mu=0.0)
    norm = gaussian.normalization_N(params)
    offsets = gaussian.wrap_mod(np.arange(n, dtype=np.float64), float(z0), plan.q)
    reference = gaussian.g0(offsets, 0.0, plan.sigma_bins) / norm
    near = np.abs(offsets) <= 8.0 * plan.sigma_bins
    np.testing.assert_allclose(probs[near], reference[near], rtol=1e-9)
    assert float(np.abs(probs - reference).sum()) < 1e-12


class TestSpectrumSpec:
    def test_sorts_and_exposes_ground_state(self):
        spec = SpectrumSpec(eigenphases=(0.2, -0.1, 0.05),
                            overlaps_sq=(0.2, 0.5, 0.3))
        assert spec.eigenphases == (-0.1, 0.05, 0.2)
        assert spec.overlaps_sq == (0.5, 0.3, 0.2)
        assert spec.ground_phase == -0.1
        assert spec.ground_overlap_sq == 0.5
        assert spec.gap == pytest.approx(0.15)
        assert spec.J == 3

    def test_single_state_gap_is_infinite(self):
        spec = SpectrumSpec(eigenphases=(0.1,), overlaps_sq=(1.0,))
        assert math.isinf(spec.gap)

    def test_rejects_bad_weights_and_phases(self):
        with pytest.raises(ValueError):
            SpectrumSpec(eigenphases=(0.1, 0.2), overlaps_sq=(0.7, 0.2))
        with pytest.raises(ValueError):
            SpectrumSpec(eigenphases=(0.5,), overlaps_sq=(1.0,))
        with pytest.raises(ValueError):
            SpectrumSpec(eigenphases=(0.1, 0.2), overlaps_sq=(1.1, -0.1))

    def test_roundtrip(self):
        spec = SpectrumSpec(eigenphases=(-0.2, 0.15), overlaps_sq=(0.6, 0.4))
        again = SpectrumSpec.from_dict(spec.to_dict())
        assert again.eigenphases == spec.eigenphases
        assert again.overlaps_sq == spec.overlaps_sq

    def test_validate_for_plan(self, acceptance_plan):
        SpectrumSpec(eigenphases=(-0.2, -0.05), overlaps_sq=(0.6, 0.4)
                     ).validate_for_plan(acceptance_plan)
        low_overlap = SpectrumSpec(eigenphases=(-0.2, -0.05),
                                   overlaps_sq=(0.4, 0.6))
        with pytest.raises(SpectrumPlanMismatch):
            low_overlap.validate_for_plan(acceptance_plan)
        narrow_gap = SpectrumSpec(eigenphases=(-0.2, -0.15),
                                  overlaps_sq=(0.6, 0.4))
        with pytest.raises(SpectrumPlanMismatch):
            narrow_gap.validate_for_plan(acceptance_plan)
        near_seam = SpectrumSpec(eigenphases=(-0.49, -0.2),
                                 overlaps_sq=(0.6, 0.4))
        with pytest.raises(SpectrumPlanMismatch):
            near_seam.validate_for_plan(acceptance_plan)


class TestEigendecompose:
    def test_offdiagonal_two_level(self):
        ham = DenseHamiltonian(
            matrix=np.array([[0.0, 0.125], [0.125, 0.0]], dtype=complex),
            initial=np.array([1.0, 0.0], dtype=complex),
        )
        spec = eigendecompose(ham)
        assert spec.eigenphases == pytest.approx((-0.125, 0.125))
        assert spec.overlaps_sq == pytest.approx((0.5, 0.5))

    def test_diagonal_passthrough(self):
        ham = DenseHamiltonian(
            matrix=np.diag([-0.3, 0.1, 0.4]).astype(complex),
            initial=np.array([0.6, 0.8, 0.0], dtype=complex),
        )
        spec = eigendecompose(ham)
        assert spec.eigenphases == pytest.approx((-0.3, 0.1, 0.4))
        assert spec.overlaps_sq == pytest.approx((0.36, 0.64, 0.0), abs=1e-15)

    def test_random_hermitian_overlaps_sum_to_one(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = (a + a.conj().T) / 2.0
        herm *= 0.4 / np.max(np.abs(np.linalg.eigvalsh(herm)))
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        spec = eigendecompose(DenseHamiltonian(matrix=herm, initial=vec))
        assert sum(spec.overlaps_sq) == pytest.approx(1.0, abs=1e-12)
        assert all(-0.5 < t < 0.5 for t in spec.eigenphases)

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            DenseHamiltonian(
                matrix=np.array([[0.0, 1.0], [0.0, 0.0]]),
                initial=np.array([1.0, 0.0]),
            )
        with pytest.raises(ValueError):
            DenseHamiltonian(
                matrix=np.zeros((65, 65)), initial=np.eye(65)[0]
            )
        with pytest.raises(ValueError):
            eigendecompose(
                DenseHamiltonian(
                    matrix=np.diag([0.7, 0.0]).astype(complex),
                    initial=np.array([1.0, 0.0], dtype=complex),
                )
            )


class TestMixedDistribution:
    def test_mixture_is_weighted_sum(self, acceptance_spectrum, acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        weights = np.asarray(acceptance_spectrum.overlaps_sq)
        np.testing.assert_allclose(
            dist.mixed, weights @ dist.per_eigenstate, atol=1e-15
        )
        assert dist.mixed.sum() == pytest.approx(1.0, abs=1e-10)
        assert dist.cdf[-1] == 1.0
        assert np.all(np.diff(dist.cdf) >= 0.0)

    def test_ground_window_mass_beats_analytic_floor(
        self, acceptance_spectrum, acceptance_plan
    ):
        round_plan = acceptance_plan.round_plan
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        n = dist.n_bins
        center = round(acceptance_spectrum.ground_phase * n)
        idx = (center + np.arange(-round_plan.K, round_plan.K + 1)) % n
        mass = float(dist.mixed[idx].sum())
        assert mass >= 0.375 * round_plan.eta

    def test_oversized_register_is_refused_before_allocating(
        self, acceptance_spectrum, acceptance_inputs
    ):
        plan = plan_gsee(replace(acceptance_inputs, alpha=1.0, epsilon=1e-6))
        assert plan.round_plan.q == 30
        with pytest.raises(DistributionTooLarge, match="2\\*\\*30 bins"):
            mixed_distribution(acceptance_spectrum, plan)

    def test_mixed_distribution_rejects_mismatch(self, acceptance_plan):
        bad = SpectrumSpec(eigenphases=(-0.2, -0.19), overlaps_sq=(0.6, 0.4))
        with pytest.raises(SpectrumPlanMismatch):
            mixed_distribution(bad, acceptance_plan)


class TestSampleStream:
    def test_deterministic_and_batch_invariant(self, acceptance_spectrum,
                                               acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        a = SampleStream(dist, 99).draw(1000)
        b = SampleStream(dist, 99).draw(1000)
        np.testing.assert_array_equal(a, b)
        stream = SampleStream(dist, 99)
        chunks = np.concatenate([stream.draw(100) for _ in range(10)])
        np.testing.assert_array_equal(a, chunks)
        assert a.dtype == np.int64

    def test_seed_changes_stream(self, acceptance_spectrum, acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        a = SampleStream(dist, 1).draw(200)
        b = SampleStream(dist, 2).draw(200)
        assert not np.array_equal(a, b)

    def test_frequencies_match_probabilities(self):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        stream = SampleStream(probs, 2024)
        n = 1_000_000
        counts = np.bincount(stream.draw(n), minlength=4)
        for k in range(4):
            sd = math.sqrt(n * probs[k] * (1.0 - probs[k]))
            assert abs(counts[k] - n * probs[k]) < 4.0 * sd

    def test_guide_table_matches_search_on_acceptance_draws(
        self, acceptance_spectrum, acceptance_plan
    ):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        stream = SampleStream(dist, 5)
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(5))).random(
            1_000_000
        )
        expected = np.searchsorted(dist.cdf, u, side="right")
        np.testing.assert_array_equal(stream._bins(u), expected)
        np.testing.assert_array_equal(stream.draw(u.size), expected)
        # The fallback search must have run on some of these draws.
        ambiguous = stream._guide < 0
        assert 0 < ambiguous.sum() < 1000
        assert np.any(ambiguous[(u * 2**16).astype(np.intp)])

    def test_guide_table_matches_search_on_large_register(self):
        q = 20
        window = gaussian_window(q, 2.8 / (1 << q))
        probs = 0.7 * distribution_from_window(window, -0.3) + 0.3 * (
            distribution_from_window(window, 0.2)
        )
        stream = SampleStream(probs, 17)
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(17))).random(
            200_000
        )
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        np.testing.assert_array_equal(
            stream._bins(u), np.searchsorted(cdf, u, side="right")
        )

    def test_guide_table_on_bucket_edges(self):
        stream = SampleStream(np.array([0.5, 0.25, 0.125, 0.125]), 0)
        edges = np.array([0.5, 0.75, 0.875])
        u = np.concatenate(
            [edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]]
        )
        bins = stream._bins(u)
        np.testing.assert_array_equal(bins, [1, 2, 3, 0, 1, 2, 0, 3])
        np.testing.assert_array_equal(
            bins, np.searchsorted(np.array([0.5, 0.75, 0.875, 1.0]), u, side="right")
        )
        assert bins.dtype == np.int64

    def test_guide_table_skips_zero_probability_bins(self):
        probs = np.array([0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0])
        stream = SampleStream(probs, 3)
        cdf = np.cumsum(probs)
        steps = cdf[cdf < 1.0]
        u = np.concatenate(
            [
                steps,
                np.nextafter(steps, 0.0),
                [0.0, np.nextafter(1.0, 0.0)],
                np.random.Generator(np.random.Philox(3)).random(100_000),
            ]
        )
        bins = stream._bins(u)
        np.testing.assert_array_equal(bins, np.searchsorted(cdf, u, side="right"))
        assert set(np.unique(bins).tolist()) == {0, 3, 5}

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_outcomes_in_range(self, seed):
        probs = np.full(8, 0.125)
        draws = SampleStream(probs, seed).draw(64)
        assert draws.min() >= 0
        assert draws.max() <= 7


def test_large_register_is_fast():
    window = gaussian_window(16, 40.0 / 65536.0)
    for theta in np.linspace(-0.4, 0.4, 8):
        probs = distribution_from_window(window, float(theta))
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
