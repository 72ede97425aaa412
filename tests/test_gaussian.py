"""Lattice-Gaussian primitives against frozen high-precision references.

The frozen constants come from tests/make_oracles.py, which recomputes
everything from first principles with mpmath (quadrature for the Fourier
moments, explicit dual series for aliasing, brute-force lattice sums).
They check the live mpmath series (``fourier_moment``, ``dual_sums``,
``range_moments``, ``outside_moments``) that plans and the bound
laboratory rest on, against each other through Poisson duality, and
against explicit float64 sums of ``g0``.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaussqpe.gaussian import (
    dual_sums,
    fourier_moment,
    g0,
    outside_moments,
    range_moments,
    wrap_mod,
)
from gaussqpe.simulator import gaussian_window, rectangular_window

G0_DENSITY = 0.54712394277744595922
FOURIER_M0 = complex(1.0080904713553885297e-6, -3.1025834476737206392e-6)
FOURIER_M2 = complex(-0.024428770898587997129, -0.023723040451268879969)
FOURIER_M3 = complex(-0.62549602212297224504, -0.29308392635034963165)
FOURIER_M4 = complex(0.72401528878956824869, 0.11602246978378352298)
ALIAS0_SIGMA1 = 5.3505759821484793625e-9
ALIAS2_SIGNED = 3.4540035985671385821e-14
ALIAS2_ABS = 7.2295702044507510013e-13
NORM_Q12_SIGMA08 = 0.999997983819057289
TAIL_K11 = 3.05610811361783675206505e-5
TAIL_K11_ERFC = 1.400538671645748985555505e-4

# Centers in the central bin [-1/2, 1/2), where every lattice sum is evaluated.
CENTERS = st.floats(min_value=-0.5, max_value=0.5, exclude_max=True)


def test_density_matches_reference():
    assert g0(0.3, 0.1, 0.7) == pytest.approx(G0_DENSITY, rel=1e-15)


def test_density_broadcasts():
    x = np.array([-1.0, 0.0, 2.5])
    out = g0(x, 0.5, 1.2)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(g0(0.0, 0.5, 1.2), rel=1e-15)


@pytest.mark.parametrize(
    "k,m,mu,sigma,expected",
    [
        (1.0, 0, 0.2, 0.8, FOURIER_M0),
        (0.5, 2, -0.3, 1.1, FOURIER_M2),
        (0.25, 3, 0.4, 0.9, FOURIER_M3),
        (-0.4, 4, 0.15, 1.3, FOURIER_M4),
    ],
)
def test_fourier_moments_match_quadrature(k, m, mu, sigma, expected):
    value = complex(fourier_moment(m, k, mu, sigma))
    assert value.real == pytest.approx(expected.real, rel=1e-12, abs=1e-18)
    assert value.imag == pytest.approx(expected.imag, rel=1e-12, abs=1e-18)


def test_moment_zero_frequency_is_raw_moment():
    # At k = 0 the transform reduces to the plain Gaussian moments.
    mu, sigma = 0.6, 1.7
    s2 = sigma**2
    raw = [1.0, mu, mu**2 + s2, mu**3 + 3 * mu * s2, mu**4 + 6 * mu**2 * s2 + 3 * s2**2]
    for m, expected in enumerate(raw):
        value = fourier_moment(m, 0, mu, sigma)
        assert float(value.real) == pytest.approx(expected)
        assert value.imag == 0


def test_moment_order_out_of_range():
    with pytest.raises(ValueError):
        fourier_moment(5, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fourier_moment(-1, 0, 0.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rectangular_window(True),
        lambda: gaussian_window(True, 0.1),
        lambda: wrap_mod(3.0, 0.0, True),
        lambda: fourier_moment(True, 1, 0.0, 1.0),
        lambda: dual_sums(True, 0.0, 1.0),
    ],
    ids=["rectangular_window", "gaussian_window", "wrap_mod", "fourier_moment", "dual_sums"],
)
def test_integer_arguments_refuse_bool(call):
    # True is an int to Python; taken as q = 1 or m = 1 it would pass silently.
    with pytest.raises(ValueError, match="got True"):
        call()


@pytest.mark.parametrize("m", range(5))
def test_negative_frequency_is_the_exact_conjugate(m):
    # dual_sums transforms each frequency once and doubles it, in the
    # planner's 53 bits and the bound lab's 60 digits alike.
    for dps in (15, 60):
        with mpmath.workdps(dps):
            for k in (1, 2, 7):
                for mu, sigma in ((0.0, 0.3), (0.37, 0.21), (-0.5, 1.7)):
                    gk = fourier_moment(m, k, mu, sigma)
                    assert fourier_moment(m, -k, mu, sigma) == mpmath.conj(gk)


class TestWrap:
    def test_examples(self):
        assert wrap_mod(7.0, 0.0, 3) == -1.0
        assert wrap_mod(-9.0, 0.0, 3) == -1.0
        assert wrap_mod(3.0, 3.25, 4) == pytest.approx(-0.25)

    def test_half_point_rounds_to_even(self):
        # Seam ties resolve toward the even multiple of the period, so
        # 4/8 rounds down (stays +4) while 12/8 rounds up (lands on -4).
        assert wrap_mod(4.0, 0.0, 3) == 4.0
        assert wrap_mod(12.0, 0.0, 3) == -4.0

    def test_array_argument(self):
        k = np.arange(16, dtype=np.float64)
        w = wrap_mod(k, 0.0, 4)
        assert w[0] == 0.0
        assert w[15] == -1.0
        np.testing.assert_allclose(w[:8], k[:8])

    @given(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=16),
    )
    def test_period_invariance(self, k, q):
        # Exact equality everywhere except seam ties, where the two
        # representatives still agree modulo the period.
        n = 1 << q
        a = wrap_mod(float(k), 0.0, q)
        b = wrap_mod(float(k + n), 0.0, q)
        assert (a - b) % n == 0.0
        if abs(k % n) != n // 2:
            assert a == b

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-100.0, max_value=100.0),
        st.integers(min_value=1, max_value=16),
    )
    def test_range(self, k, mu, q):
        n = 1 << q
        r = wrap_mod(k, mu, q)
        assert -n / 2 <= r + (mu - mu) <= n / 2
        assert abs((k - mu) - r) % n == pytest.approx(0.0, abs=1e-6 * max(1.0, abs(k)))


def test_normalization_reference():
    norm = range_moments(0.3, 0.8, -2048, 2047, 0)[0]
    assert float(norm) == pytest.approx(NORM_Q12_SIGMA08, rel=1e-15)
    # The same register sum assembled the way the bound laboratory does:
    # 1 + signed aliasing defect - mass outside the register.
    with mpmath.workdps(30):
        signed, _ = dual_sums(0, 0.3, 0.8)
        outside = outside_moments(0.3, 0.8, -2048, 2047, 0)[0]
        assert float(1 + signed - outside) == pytest.approx(NORM_Q12_SIGMA08, rel=1e-15)


def test_normalization_near_one_for_wide_window():
    norm = range_moments(0.3, 2.7573, -2048, 2047, 0)[0]
    assert float(norm) == pytest.approx(1.0, abs=1e-14)


@given(
    st.floats(min_value=0.6, max_value=6.0),
    CENTERS,
)
@settings(max_examples=60)
# At 53 bits the lattice sum read 1 - 1.4e-15 here, below the lower side.
@example(sigma=4.960665448836057, mu=0.4999999999999999)
def test_normalization_sandwich(sigma, mu):
    """1 - tail-aliasing <= lattice sum <= 1 + aliasing, via Poisson duality.
    The series run at 30 digits, so the 1e-15 slack covers only the bounds."""
    half = 1 << 13
    with mpmath.workdps(30):
        norm = range_moments(mu, sigma, -half, half - 1, 0)[0]
        _, alias = dual_sums(0, mu, sigma)
        reg_tail = outside_moments(mu, sigma, -half, half - 1, 0)[0]
        assert norm <= 1.0 + alias + 1e-15
        assert norm >= 1.0 - alias - reg_tail - 1e-15


def test_tail_mass_reference():
    tail = float(outside_moments(0.3, 2.7573, -11, 11, 0)[0])
    assert tail == pytest.approx(TAIL_K11, rel=1e-13)
    assert tail <= TAIL_K11_ERFC


@given(
    st.floats(min_value=0.7, max_value=5.0),
    CENTERS,
    st.integers(min_value=6, max_value=60),
)
@settings(max_examples=60)
def test_tail_chain(sigma, mu, K):
    """Tail <= erfc ceiling everywhere, and erfc <= exp ceiling in regime
    (sigma <= K - 1/2)."""
    tail = outside_moments(mu, sigma, -K, K, 0)[0]
    erfc_bound = mpmath.erfc((K - 0.5) / (math.sqrt(2.0) * sigma))
    exp_bound = mpmath.exp(-((K - 0.5) ** 2) / (2.0 * sigma**2))
    assert tail >= 0
    assert tail <= erfc_bound * (1.0 + 1e-12)
    if sigma <= K - 0.5:
        assert erfc_bound <= exp_bound * (1.0 + 1e-12)


def test_aliasing_reference_mass():
    signed, absolute = dual_sums(0, 0.0, 1.0)
    assert float(signed) == pytest.approx(ALIAS0_SIGMA1, rel=1e-12)
    assert float(absolute) == pytest.approx(ALIAS0_SIGMA1, rel=1e-12)


def test_aliasing_reference_second_moment():
    signed, absolute = dual_sums(2, 0.25, 1.3)
    assert float(signed) == pytest.approx(ALIAS2_SIGNED, rel=1e-9)
    assert float(absolute) == pytest.approx(ALIAS2_ABS, rel=1e-9)


def test_aliasing_closes_poisson_identity():
    """Lattice sum minus continuous moment equals the signed dual series,
    to the caller's working precision even for float arguments."""
    with mpmath.workdps(30):
        lattice = range_moments(0.2, 0.9, None, None, 4)
        for m in range(5):
            continuous = fourier_moment(m, 0, 0.2, 0.9).real
            signed, _ = dual_sums(m, 0.2, 0.9)
            assert abs((lattice[m] - continuous) / signed - 1) <= 1e-20


@given(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.8, max_value=4.0),
    CENTERS,
)
@settings(max_examples=60)
def test_aliasing_bound_dominates(m, sigma, mu):
    signed, absolute = dual_sums(m, mu, sigma)
    assert abs(signed) <= absolute * (1.0 + 1e-12)


def test_window_mass_matches_direct_sum():
    sigma, K, center = 1.9, 7, 3.4
    series = range_moments(center, sigma, -K, K, 2)
    for j in range(3):
        direct = sum(n**j * g0(float(n), center, sigma) for n in range(-K, K + 1))
        assert float(series[j]) == pytest.approx(direct, rel=1e-14)


def test_empty_range_sums_to_zero():
    assert range_moments(0, 1, 3, 2, 0) == [0]
    assert range_moments(0.4, 2.5, 0, -1, 2) == [0, 0, 0]


def _direct_moments(mu, sigma, lo, hi, m_max, dps=80):
    """Term-by-term sums of n**j g0(n) over [lo, hi], each term from its own exp."""
    with mpmath.workdps(dps):
        mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        scale = sigma * mpmath.sqrt(2 * mpmath.pi)
        terms = [(n, mpmath.exp(-((n - mu) ** 2) / (2 * sigma**2)) / scale) for n in range(lo, hi + 1)]
        return [mpmath.fsum(n**j * g for n, g in terms) for j in range(m_max + 1)]


def _assert_rel_close(got, want, rel):
    with mpmath.workdps(80):
        for g, w in zip(got, want, strict=True):
            assert abs(g - w) <= rel * abs(w), (g, w)


@pytest.mark.parametrize("mu", [0.3, -0.41, 0.5])
def test_long_walk_keeps_sixty_digits(mu):
    """At sigma = 3000 the walk covers about 56 000 bins per side. The full
    lattice moments are the continuous ones, 1, mu and mu**2 + sigma**2, up
    to dual terms below exp(-2 pi**2 sigma**2)."""
    with mpmath.workdps(60):
        got = range_moments(mu, 3000, None, None, 2)
        mu_mp = mpmath.mpf(mu)
        _assert_rel_close(got, [1, mu_mp, mu_mp**2 + 3000**2], 1e-55)


@pytest.mark.parametrize("mu", [1e6, -1e6])
def test_peak_far_outside_the_range(mu):
    """The ratio toward a peak a million bins away is exp(+1e6); the walk
    never steps toward it, so the sum is the edge term and returns at once."""
    with mpmath.workdps(60):
        start = time.perf_counter()
        got = range_moments(mu, 1, -3, 3, 4)
        elapsed = time.perf_counter() - start
        _assert_rel_close(got, _direct_moments(mu, 1, -3, 3, 4), 1e-55)
    assert elapsed < 0.25


@pytest.mark.parametrize(
    "mu, sigma, lo, hi",
    [
        (0.3, 0.9, 2, 2),
        (-1.7, 1.4, -2, -2),
        (5.2, 0.8, 1, 1),
        (0.45, 2.5, 1, 2),
        (-0.3, 1.1, -2, -1),
        (-3.6, 0.7, 2, 3),
    ],
)
def test_one_and_two_bin_ranges_match_direct_sums(mu, sigma, lo, hi):
    with mpmath.workdps(60):
        got = range_moments(mu, sigma, lo, hi, 4)
        _assert_rel_close(got, _direct_moments(mu, sigma, lo, hi, 4), 1e-55)
