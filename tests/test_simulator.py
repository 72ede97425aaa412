"""Register distributions, spectra, and the sampling stream.

The three DFT_Q4_* constants are direct 16-point discrete Fourier sums
evaluated in mpmath, and TRUNCATED_WINDOW_DFT holds 50-digit direct DFTs
of the truncated Gaussian window for the closed form
(tests/make_oracles.py); everything else is checked through exact
distributional symmetries.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussqpe import gaussian, simulator
from gaussqpe.planner import PlanInfeasible, PlanInputs, plan_gsee, plan_sampling_round
from gaussqpe.simulator import (
    DenseHamiltonian,
    DistributionTooLarge,
    SampleStream,
    SpectrumPlanMismatch,
    SpectrumSpec,
    WindowTruncated,
    distribution_from_window,
    eigendecompose,
    gaussian_window,
    mixed_distribution,
    rectangular_window,
)

DFT_Q4_Z2 = 0.3110654943105191800531255
DFT_Q4_Z3 = 0.2407251776266038805671965
DFT_Q4_Z8 = 7.06015000521991564629776e-6

# label -> (q, the plan's sigma_tilde, eigenphase, {bin: probability}):
# the acceptance round plan, a q = 10 plan near the smallest sigma_bins a
# planner sweep reached (1.77), and a q = 16 plan.
TRUNCATED_WINDOW_DFT = {
    "q12": (12, 0.0006730539066309329, -0.2, {
        3221: 1.7330812974697462519e-69,
        3264: 3.0152797081294411669e-6,
        3265: 0.000015212101805336213324,
        3266: 0.000067283352136021236822,
        3267: 0.00026090523702919723904,
        3268: 0.00088698188812874524305,
        3269: 0.0026436471316341082403,
        3270: 0.0069079470372467983117,
        3271: 0.015825275941118010006,
        3272: 0.031784132511634183888,
        3273: 0.055966250618829470188,
        3274: 0.086397035737336486714,
        3275: 0.11693061946725400485,
        3276: 0.13874407241198047887,
        3277: 0.14433026334819461866,
        3278: 0.13163068742573322148,
        3279: 0.10524795683162044964,
        3280: 0.073778016811368300309,
        3281: 0.045341622763697292848,
        3282: 0.024430025522879993807,
        3283: 0.011540046560304461107,
        3284: 0.0047791204949500080665,
        3285: 0.0017351825791955863829,
        3286: 0.00055233066577050422551,
        3287: 0.00015413806852523202281,
        3288: 0.000037711816158498215753,
        3289: 8.0891290216539389415e-6,
        3304: 1.0521555739006655346e-22,
    }),
    "q10": (10, 0.0017293621083082865, 0.1234567, {
        91: 3.8052073519452735984e-31,
        118: 2.7794899888200750966e-6,
        119: 0.000034733140264996764594,
        120: 0.00031552579242028857534,
        121: 0.0020837113720839899133,
        122: 0.010003503713117135603,
        123: 0.034912310652075726788,
        124: 0.088576176365176003101,
        125: 0.1633680571567989045,
        126: 0.2190429297329702101,
        127: 0.21350262293104817807,
        128: 0.15128263137675946321,
        129: 0.07792679323231384963,
        130: 0.029180747982495339748,
        131: 0.0079436100148095185353,
        132: 0.0015719954670182385773,
        133: 0.00022614997495643886984,
        134: 0.000023651227114892852493,
        135: 1.7981366495552324199e-6,
        144: 8.9429360338208233455e-23,
    }),
    "q16": (16, 4.6382995328986464e-05, -0.3712345, {
        41145: 1.3025784804376220247e-83,
        41193: 4.5531923894886528223e-6,
        41194: 0.000019155430732668215586,
        41195: 0.000072321407184586852397,
        41196: 0.00024504217489368886561,
        41197: 0.00074509874864849064696,
        41198: 0.002033226935942211849,
        41199: 0.0049791693773799406194,
        41200: 0.010942762422755410888,
        41201: 0.021582217539468468495,
        41202: 0.038200072396672230074,
        41203: 0.060678010277032070194,
        41204: 0.086496294224218939429,
        41205: 0.11065287348560121792,
        41206: 0.12703603093617389043,
        41207: 0.13088508557995996755,
        41208: 0.12101868545307629178,
        41209: 0.10041849910866398513,
        41210: 0.074778034486793184347,
        41211: 0.049972766229279963571,
        41212: 0.029970346218906930311,
        41213: 0.016130549213013987596,
        41214: 0.0077912219072545167213,
        41215: 0.0033772329543163779701,
        41216: 0.0013137583450795901053,
        41217: 0.00045863688803839480007,
        41218: 0.00014368833129517661055,
        41219: 0.000040399226064509392704,
        41220: 0.000010193506739802103492,
        41236: 1.1153215936650149125e-21,
    }),
}


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


@pytest.mark.parametrize(
    "q, sigma_bins",
    [(8, 2.8), (12, 2.8), (16, 2.8), (16, 40.0)],
    ids=["8", "12", "16", "16-sigma40"],
)
@pytest.mark.parametrize("theta", [0.0, 0.1, -0.37, 0.25 + 0.3 / 4096])
def test_distribution_normalized(q, sigma_bins, theta):
    window = gaussian_window(q, sigma_bins / (1 << q))
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
    probs = distribution_from_window(gaussian_window(plan.q, plan.sigma_tilde), 0.1)
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
    probs = distribution_from_window(gaussian_window(plan.q, plan.sigma_tilde), z0 / n)
    offsets = gaussian.wrap_mod(np.arange(n, dtype=np.float64), float(z0), plan.q)
    density = gaussian.g0(offsets, 0.0, plan.sigma_bins)
    # Normalized over the register, one term per bin.
    reference = density / float(np.sum(density))
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
        # Bools and strings are not coerced to floats.
        with pytest.raises(ValueError, match="eigenphases entry must be a real number"):
            SpectrumSpec(eigenphases=("-0.2", "0.15"), overlaps_sq=(0.6, 0.4))
        with pytest.raises(ValueError, match="overlaps_sq entry must be a real number"):
            SpectrumSpec(eigenphases=(-0.2, 0.15), overlaps_sq=(True, False))

    def test_roundtrip(self):
        spec = SpectrumSpec(eigenphases=(-0.2, 0.15), overlaps_sq=(0.6, 0.4))
        again = SpectrumSpec.from_dict(spec.to_dict())
        assert again.eigenphases == spec.eigenphases
        assert again.overlaps_sq == spec.overlaps_sq

    def test_validate_for_plan(self, acceptance_plan):
        SpectrumSpec(eigenphases=(-0.2, -0.05), overlaps_sq=(0.6, 0.4)
                     ).validate_for_plan(acceptance_plan.round_plan)
        low_overlap = SpectrumSpec(eigenphases=(-0.2, -0.05),
                                   overlaps_sq=(0.4, 0.6))
        with pytest.raises(SpectrumPlanMismatch):
            low_overlap.validate_for_plan(acceptance_plan.round_plan)
        narrow_gap = SpectrumSpec(eigenphases=(-0.2, -0.15),
                                  overlaps_sq=(0.6, 0.4))
        with pytest.raises(SpectrumPlanMismatch):
            narrow_gap.validate_for_plan(acceptance_plan.round_plan)
        near_seam = SpectrumSpec(eigenphases=(-0.49, -0.2),
                                 overlaps_sq=(0.6, 0.4))
        with pytest.raises(SpectrumPlanMismatch):
            near_seam.validate_for_plan(acceptance_plan.round_plan)

    def test_gap_typed_as_the_working_gap_is_accepted(self):
        # Phases k/1e4 and k/1e4 + 1/8, summed or typed: the float gap may
        # fall an ulp short of 1/8, which is rounding, not a narrower gap.
        plan = plan_sampling_round(0.01, 0.5, 0.125, 1, 0.005)
        for k in range(1, 200):
            theta0 = k / 1e4
            for theta1 in (theta0 + 0.125, float(f"{theta0 + 0.125:.4f}")):
                SpectrumSpec(eigenphases=(theta0, theta1),
                             overlaps_sq=(0.5, 0.5)).validate_for_plan(plan)
        short = SpectrumSpec(eigenphases=(0.01, 0.135 - 1e-12), overlaps_sq=(0.5, 0.5))
        with pytest.raises(SpectrumPlanMismatch, match="below working gap"):
            short.validate_for_plan(plan)


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

    @pytest.mark.parametrize(
        "matrix, initial, name",
        [
            ([["-0.2", 0], [0, "0.15"]], [1.0, 0.0], "matrix"),
            ([[-0.2, 0], [0, 0.15]], [True, 0], "initial vector"),
            (np.array([[-0.2, 0], [0, 0.15]], dtype=object), [1.0, 0.0], "matrix"),
            (np.eye(2, dtype=bool), [1.0, 0.0], "matrix"),
            ([[-0.2, 0], [0, 0.15]], np.array(["1", "0"]), "initial vector"),
        ],
        ids=["str-matrix", "bool-initial", "object-matrix", "bool-matrix", "str-initial"],
    )
    def test_rejects_non_numeric_entries(self, matrix, initial, name):
        # numpy would read these as numbers: "-0.2" -> -0.2, True -> 1.
        with pytest.raises(ValueError, match=f"{name} entries must be numbers"):
            DenseHamiltonian(matrix=matrix, initial=initial)


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

    def test_refusal_counts_the_float64_arrays_built(
        self, acceptance_spectrum, acceptance_plan
    ):
        # One eigenphase on 2**27 bins: (1 + 2) * 2**27 * 8 bytes, above 2 GiB.
        plan = replace(acceptance_plan.round_plan, q=27)
        one = SpectrumSpec(eigenphases=(acceptance_spectrum.ground_phase,),
                           overlaps_sq=(1.0,))
        with pytest.raises(DistributionTooLarge, match=f"need {3 * 8 << 27} bytes"):
            mixed_distribution(one, plan)


class TestClosedForm:
    @pytest.mark.parametrize("label", sorted(TRUNCATED_WINDOW_DFT))
    def test_matches_truncated_window_dft(self, label, acceptance_plan):
        plan = {
            "q12": lambda: acceptance_plan.round_plan,
            "q10": lambda: plan_sampling_round(0.001, 0.5, 0.325, 1, 0.9),
            "q16": lambda: plan_sampling_round(0.01, 1.0, 0.01, 1, 0.05),
        }[label]()
        q, sigma_tilde, theta, truth = TRUNCATED_WINDOW_DFT[label]
        assert (plan.q, plan.sigma_tilde) == (q, sigma_tilde)
        spec = SpectrumSpec(eigenphases=(theta,), overlaps_sq=(1.0,))
        closed = mixed_distribution(spec, plan).per_eigenstate[0]
        fft = distribution_from_window(gaussian_window(q, sigma_tilde), theta)
        bins = np.array(list(truth))
        exact = np.array(list(truth.values()))
        peak = exact.max()
        closed_err = float(np.abs(closed[bins] - exact).max())
        fft_err = float(np.abs(fft[bins] - exact).max())
        # A few ulp of the peak, plus the window's cut at the register ends.
        tol = (4 * np.finfo(np.float64).eps + math.exp(-((math.pi * plan.sigma_bins) ** 2))) * peak
        assert closed_err <= tol
        assert fft_err >= closed_err

    def test_band_is_exact_zero_past_underflow(self, acceptance_plan):
        plan = acceptance_plan.round_plan
        spec = SpectrumSpec(eigenphases=(-0.2,), overlaps_sq=(1.0,))
        row = mixed_distribution(spec, plan).per_eigenstate[0]
        center = -0.2 * plan.n_bins
        offsets = gaussian.wrap_mod(np.arange(plan.n_bins, dtype=np.float64), center, plan.q)
        far = np.abs(offsets) > simulator._BAND_SIGMAS * plan.sigma_bins + 1.0
        assert np.all(row[far] == 0.0)
        assert np.all(row[~far] >= 0.0) and row.sum() == pytest.approx(1.0, abs=1e-15)

    def test_band_wider_than_register_sums_its_aliases(self, acceptance_plan):
        # 2**5 bins at sigma_bins 2: the band spans about five register
        # periods, and the guard still holds (exp(-32) of the peak).
        q, sigma = 5, 2.0
        plan = replace(acceptance_plan.round_plan, q=q, sigma_tilde=sigma / (1 << q))
        spec = SpectrumSpec(eigenphases=(0.1,), overlaps_sq=(1.0,))
        row = mixed_distribution(spec, plan).per_eigenstate[0]
        z = np.arange(1 << q, dtype=np.float64)
        aliases = sum(gaussian.g0(z + k * (1 << q), 0.1 * (1 << q), sigma) for k in range(-6, 7))
        np.testing.assert_allclose(row, aliases, rtol=1e-13)

    @pytest.mark.parametrize(
        "q, sigma_bins",
        [(12, 1.6), (4, 2.0)],
        ids=["cut-by-register-ends", "aliases-overlap"],
    )
    def test_guard_fires_on_hand_built_plan(self, acceptance_plan, q, sigma_bins):
        plan = replace(acceptance_plan.round_plan, q=q, sigma_tilde=sigma_bins / (1 << q))
        spec = SpectrumSpec(eigenphases=(0.0,), overlaps_sq=(1.0,))
        with pytest.raises(WindowTruncated, match="above 1e-12"):
            mixed_distribution(spec, plan)

    def test_no_feasible_plan_reaches_the_guard(self):
        """A seeded planner sweep: every feasible plan passes the guard, so a
        plan the planner calls feasible never makes the simulator raise."""
        rng = np.random.default_rng(20261018)

        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        plans = []
        for _ in range(300):
            try:
                plans.append(
                    plan_sampling_round(
                        log_uniform(1e-8, 0.01),
                        float(rng.uniform(0.05, 1.0)),
                        float(rng.uniform(0.005, 0.6)),
                        int(rng.integers(1, 5)),
                        log_uniform(1e-5, 0.99),
                    )
                )
            except PlanInfeasible:
                pass
        for _ in range(100):
            gap = float(rng.uniform(0.01, 0.6))
            inputs = PlanInputs(
                delta_fail=log_uniform(1e-6, 0.5),
                eta=float(rng.uniform(0.05, 1.0)),
                Delta_true=gap,
                epsilon=gap * log_uniform(1e-3, 0.9),
                alpha=float(rng.uniform(0.0, 1.0)),
                m=int(rng.integers(1, 5)),
            )
            try:
                plans.append(plan_gsee(inputs).round_plan)
            except PlanInfeasible:
                pass
        assert len(plans) >= 350
        for plan in plans:
            simulator._check_closed_form(plan)
        assert min(plan.sigma_bins for plan in plans) > 1.67


class TestSampleStream:
    def test_deterministic_and_batch_invariant(self, acceptance_spectrum,
                                               acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        a = SampleStream(dist.mixed, 99).draw(1000)
        b = SampleStream(dist.mixed, 99).draw(1000)
        np.testing.assert_array_equal(a, b)
        stream = SampleStream(dist.mixed, 99)
        chunks = np.concatenate([stream.draw(100) for _ in range(10)])
        np.testing.assert_array_equal(a, chunks)
        assert a.dtype == np.int64

    def test_seed_changes_stream(self, acceptance_spectrum, acceptance_plan):
        dist = mixed_distribution(acceptance_spectrum, acceptance_plan)
        a = SampleStream(dist.mixed, 1).draw(200)
        b = SampleStream(dist.mixed, 2).draw(200)
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
        stream = SampleStream(dist.mixed, 5)
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(5))).random(
            1_000_000
        )
        expected = np.searchsorted(dist.cdf, u, side="right")
        np.testing.assert_array_equal(stream._bins(u), expected)
        np.testing.assert_array_equal(stream.draw(u.size), expected)
        # The fallback search must have run on some of these draws.
        ambiguous = stream._guide < 0
        assert 0 < ambiguous.sum() < 1000
        assert np.any(ambiguous[(u * stream._guide.size).astype(np.intp)])

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

    @pytest.mark.parametrize(
        "n_bins, buckets", [(1, 1), (5, 8), (128, 128), (129, 256), (1 << 20, 1 << 16)]
    )
    def test_guide_table_sized_to_distribution(self, n_bins, buckets):
        probs = np.random.Generator(np.random.Philox(n_bins)).random(n_bins)
        stream = SampleStream(probs, 4)
        assert stream._guide.size == buckets
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(4))).random(
            10_000
        )
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        expected = np.searchsorted(cdf, u, side="right")
        np.testing.assert_array_equal(stream.draw(u.size), expected)

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

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([0.5, np.nan, 0.5], r"finite; entries \[1\] are \[nan\]"),
            ([0.5, np.inf, 0.5], r"finite; entries \[1\] are \[inf\]"),
            ([0.5, -np.inf, 0.5], r"finite; entries \[1\] are \[-inf\]"),
            ([1e308, 1e308, 1.0], "positive, finite total mass, got inf"),
        ],
    )
    def test_non_finite_probabilities_are_named_error(self, probs, message):
        # A NaN entry slips past a "< 0" check, and so does a total that
        # overflows; either turns the whole CDF into NaN, which used to
        # send every draw to one bin.
        with pytest.raises(ValueError, match=message):
            SampleStream(np.array(probs), 1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_outcomes_in_range(self, seed):
        probs = np.full(8, 0.125)
        draws = SampleStream(probs, seed).draw(64)
        assert draws.min() >= 0
        assert draws.max() <= 7

