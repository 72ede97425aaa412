"""Discretized periodic Gaussian windows on a 2**q bin lattice.

Conventions used throughout the package:

* Phases ("energies") live in turns, theta in (-1/2, 1/2).
* Lattice positions ("bins") are integers; sigma and mu below are
  measured in bins. ``wrap_mod`` maps a register outcome in [0, 2**q) to
  a signed residue in (-2**(q-1), 2**(q-1)]: it rounds half to even, so
  the outcome 2**(q-1) wraps to +2**(q-1).
* The Fourier transform convention is
  F(f)(k) = integral of exp(-2*pi*i*x*k) * f(x) dx, so the transform of the
  unit Gaussian centered at mu is exp(-2*pi**2*sigma**2*k**2 - 2*pi*i*mu*k).

All sums over the lattice are truncated once terms drop below
``TERM_FLOOR`` and the index is at least ten standard deviations from the
center; with TERM_FLOOR = 1e-300 the discarded mass is far below float64
resolution of any reported quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TERM_FLOOR",
    "GaussianParams",
    "TailMassResult",
    "AliasingResult",
    "g0",
    "wrap_mod",
    "wrap_unit",
    "normalization_N",
    "tail_mass",
    "continuous_moment_Gm",
    "lattice_moment",
    "window_mass",
    "aliasing_error",
]

# Series terms below this value are dropped (see module docstring).
TERM_FLOOR = 1e-300

# Every series keeps at least this many sigmas around the center so the
# stopping rule "term < TERM_FLOOR and index beyond mu + 10 sigma" holds.
_MIN_RADIUS_SIGMAS = 10.0

# exp(-x**2 / (2 sigma**2)) < TERM_FLOOR requires |x| > sigma * 37.2; one
# extra sigma absorbs the 1/(sigma sqrt(2 pi)) prefactor for small sigma.
_FLOOR_RADIUS_SIGMAS = math.sqrt(-2.0 * math.log(TERM_FLOOR)) + 1.0

_MAX_MOMENT_ORDER = 4


def _series_radius(sigma: float) -> float:
    return max(_MIN_RADIUS_SIGMAS, _FLOOR_RADIUS_SIGMAS) * sigma


def wrap_unit(mu: float) -> float:
    """Signed fractional residue of ``mu`` in [-1/2, 1/2).

    Uses round-half-to-even, with the single boundary case +1/2 (reachable
    when the tie rounds down) folded to -1/2 so the documented interval is
    kept.
    """
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    r = mu - _round_half_even(mu)
    if r == 0.5:
        r = -0.5
    return r


def _round_half_even(x: float) -> float:
    # np.round and Python round both implement half-to-even; use the
    # float-returning numpy form so large values stay exact floats.
    return float(np.round(x))


@dataclass(frozen=True)
class GaussianParams:
    """Width, lattice size, and center of a discretized Gaussian window.

    Parameters
    ----------
    sigma : float
        Standard deviation in bins, > 0.
    q : int
        Number of ancilla qubits; the lattice has 2**q bins.
    mu : float
        Center in bins. May be any finite float; the wrapped residue
        ``mu_wrapped`` in [-1/2, 1/2) is what the lattice sums use.
    """

    sigma: float
    q: int
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.q, int) and self.q >= 1):
            raise ValueError(f"q must be an integer >= 1, got {self.q!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")

    @property
    def n_bins(self) -> int:
        return 1 << self.q

    @property
    def mu_wrapped(self) -> float:
        return wrap_unit(self.mu)


@dataclass(frozen=True)
class TailMassResult:
    """Two-sided lattice tail mass beyond +-K and its analytic ceilings.

    ``exact_sum`` is the brute-force series, ``analytic_bound`` the
    complementary-error-function form, ``exp_bound`` the looser pure
    exponential. The bounds only dominate the series inside the stated
    regime (K >= 1 and sigma <= K - 1/2); ``regime_ok`` reports that
    predicate instead of silently asserting out-of-regime dominance.
    """

    exact_sum: float
    analytic_bound: float
    exp_bound: float
    regime_ok: bool


@dataclass(frozen=True)
class AliasingResult:
    """Aliasing discrepancy of the m-th lattice moment and its bounds.

    ``exact_abs`` is |sum over k != 0 of G_m(-k)|, the true difference
    between the full lattice moment and the continuous moment (Poisson
    summation). ``series_abs`` is the term-wise absolute series, which
    upper-bounds it. ``analytic_bound`` is the closed form evaluated at
    ``delta1``; it dominates ``series_abs`` only when
    ``preconditions_met`` is true.
    """

    exact_abs: float
    series_abs: float
    analytic_bound: float
    delta1: float
    preconditions_met: bool


def g0(x, mu, sigma):
    """Gaussian density with center ``mu`` and width ``sigma``.

    Vectorized over ``x``; total integral over the real line is 1.
    """
    x = np.asarray(x, dtype=float)
    z = (x - mu) / sigma
    out = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if out.ndim == 0:
        return float(out)
    return out


def wrap_mod(k, mu, q: int):
    """Signed residue of ``k - mu`` on the 2**q periodic lattice.

    Computes ``r = (k - mu) - 2**q * round((k - mu) / 2**q)`` with
    round-half-to-even, so r lies in [-2**(q-1), +2**(q-1)] (both endpoints
    reachable on exact-half ties).

    Examples: q=3, k=7, mu=0 -> -1; q=3, k=4, mu=0 -> +4 (tie rounds to the
    even multiple 0); q=4, k=3, mu=3.25 -> -0.25.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"q must be an integer >= 1, got {q!r}")
    n = float(1 << q)
    d = np.asarray(k, dtype=float) - mu
    r = d - n * np.round(d / n)
    if r.ndim == 0:
        return float(r)
    return r


def _clipped_lattice(mu: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    """Integer grid covering [lo, hi] clipped to the series radius."""
    r = _series_radius(sigma)
    a = max(math.ceil(lo), math.ceil(mu - r))
    b = min(math.floor(hi), math.floor(mu + r))
    if a > b:
        return np.empty(0, dtype=float)
    return np.arange(a, b + 1, dtype=float)


def normalization_N(params: GaussianParams) -> float:
    """Window normalizer: sum of g0(k, mu_wrapped) over the 2**q bin grid.

    The grid runs from -2**(q-1) to 2**(q-1) - 1 inclusive. Terms outside
    the series radius are dropped (each is below TERM_FLOOR).
    """
    half = params.n_bins // 2
    mu_t = params.mu_wrapped
    grid = _clipped_lattice(mu_t, params.sigma, -half, half - 1)
    if grid.size == 0:
        return 0.0
    return float(np.sum(g0(grid, mu_t, params.sigma)))


def tail_mass(params: GaussianParams, K: int) -> TailMassResult:
    """Lattice mass beyond the window [-K, K] around the wrapped center.

    Returns the exact two-sided series sum(n > K) + sum(n < -K) of
    g0(n, mu_wrapped), the erfc((K - 1/2) / (sqrt(2) sigma)) ceiling, and
    the exp(-(K - 1/2)**2 / (2 sigma**2)) ceiling above that.

    Raises ``ValueError`` for K <= 0.
    """
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise ValueError(f"K must be a positive integer, got {K!r}")
    sigma = params.sigma
    mu_t = params.mu_wrapped
    r = _series_radius(sigma)
    right = _clipped_lattice(mu_t, sigma, K + 1, max(K + 1, math.floor(mu_t + r)))
    left = _clipped_lattice(mu_t, sigma, min(-K - 1, math.ceil(mu_t - r)), -K - 1)
    total = 0.0
    if right.size:
        total += float(np.sum(g0(right, mu_t, sigma)))
    if left.size:
        total += float(np.sum(g0(left, mu_t, sigma)))
    arg = (K - 0.5) / (math.sqrt(2.0) * sigma)
    analytic = math.erfc(arg)
    log_exp_bound = -((K - 0.5) ** 2) / (2.0 * sigma * sigma)
    exp_bound = math.exp(log_exp_bound) if log_exp_bound > -745.0 else 0.0
    regime_ok = K >= 1 and sigma <= K - 0.5
    return TailMassResult(
        exact_sum=total,
        analytic_bound=analytic,
        exp_bound=exp_bound,
        regime_ok=regime_ok,
    )


def _check_moment_order(m: int) -> None:
    if not (isinstance(m, (int, np.integer)) and m >= 0):
        raise ValueError(f"moment order must be an integer >= 0, got {m!r}")
    if m > _MAX_MOMENT_ORDER:
        raise ValueError(
            f"moment order {m} not supported; closed forms are hard-coded "
            f"for m <= {_MAX_MOMENT_ORDER}"
        )


def continuous_moment_Gm(k: float, m: int, params: GaussianParams) -> complex:
    """Fourier transform of x**m * g0(x, mu) at frequency ``k``.

    Closed forms for m <= 4 in terms of w = mu - 2*pi*i*sigma**2*k:

    m = 0: G0(k) = exp(-2*pi**2*sigma**2*k**2 - 2*pi*i*mu*k)
    m = 1: w * G0
    m = 2: (w**2 + sigma**2) * G0
    m = 3: (w**3 + 3*sigma**2*w) * G0
    m = 4: (w**4 + 6*sigma**2*w**2 + 3*sigma**4) * G0

    At k = 0 these reduce to the raw Gaussian moments, e.g. G1(0) = mu and
    G2(0) = mu**2 + sigma**2. Note ``mu`` is used as stored, not wrapped.
    """
    _check_moment_order(m)
    sigma = params.sigma
    mu = params.mu
    s2 = sigma * sigma
    expo = -2.0 * math.pi * math.pi * s2 * k * k
    base = _cexp(expo, -2.0 * math.pi * mu * k)
    if m == 0:
        return base
    w = complex(mu, -2.0 * math.pi * s2 * k)
    if m == 1:
        poly = w
    elif m == 2:
        poly = w * w + s2
    elif m == 3:
        poly = w * (w * w + 3.0 * s2)
    else:
        w2 = w * w
        poly = w2 * w2 + 6.0 * s2 * w2 + 3.0 * s2 * s2
    return poly * base


def _cexp(re: float, im: float) -> complex:
    """exp(re + i*im) with the magnitude computed in the real domain."""
    mag = math.exp(re) if re > -745.0 else 0.0
    return complex(mag * math.cos(im), mag * math.sin(im))


def lattice_moment(m: int, params: GaussianParams, K: int | None = None) -> float:
    """Brute-force lattice moment sum of n**m * g0(n, mu_wrapped).

    With ``K`` given the sum runs over the window n in [-K, K]; otherwise
    over all integers (truncated at the series radius).
    """
    _check_moment_order(m)
    sigma = params.sigma
    mu_t = params.mu_wrapped
    if K is None:
        r = _series_radius(sigma)
        grid = _clipped_lattice(mu_t, sigma, math.ceil(mu_t - r), math.floor(mu_t + r))
    else:
        if not (isinstance(K, (int, np.integer)) and K >= 0):
            raise ValueError(f"K must be a nonnegative integer, got {K!r}")
        grid = _clipped_lattice(mu_t, sigma, -K, K)
    if grid.size == 0:
        return 0.0
    return float(np.sum(grid**m * g0(grid, mu_t, sigma)))


def window_mass(sigma: float, K: int, center: float) -> float:
    """Mass sum of g0(n, center, sigma) over the window n in [-K, K].

    Used for contamination estimates where ``center`` is the offset of a
    neighboring peak from the window center (typically mu_t + Delta*2**q).
    """
    if not (isinstance(K, (int, np.integer)) and K >= 0):
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    grid = _clipped_lattice(center, sigma, -K, K)
    if grid.size == 0:
        return 0.0
    return float(np.sum(g0(grid, center, sigma)))


def aliasing_error(
    m: int, params: GaussianParams, delta1: float | None = None
) -> AliasingResult:
    """Aliasing discrepancy of the m-th lattice moment, with bounds.

    Poisson summation gives
    sum over n of n**m g0(n, mu) - Gm(0) = sum over k != 0 of Gm(-k),
    so ``exact_abs`` is the modulus of that signed dual series and
    ``series_abs`` = 2 * sum(k >= 1) |Gm(k)| dominates it (|Gm(-k)| equals
    |Gm(k)| because Gm(-k) is the conjugate of Gm(k) for real mu).

    ``analytic_bound`` is

        4 * exp(2*pi*delta1*|mu|) * exp(2*pi**2*(delta1**2 + 2*delta1)*sigma**2)
          * exp(-2*pi**2*sigma**2) * m! / (pi**m * delta1**m)

    valid when exp(-2*pi**2*sigma**2*(1 - 2*delta1)) <= 1/2 and
    0 < delta1 < 1/2; ``preconditions_met`` reports that predicate.
    ``delta1`` defaults to 1/(pi * 2**q).
    """
    _check_moment_order(m)
    if delta1 is None:
        delta1 = 1.0 / (math.pi * params.n_bins)
    if not (0.0 < delta1 < 0.5):
        raise ValueError(f"delta1 must lie in (0, 1/2), got {delta1!r}")
    sigma = params.sigma
    mu = params.mu_wrapped
    wrapped = GaussianParams(sigma=sigma, q=params.q, mu=mu)
    signed = 0.0 + 0.0j
    absolute = 0.0
    k = 1
    while True:
        gk = continuous_moment_Gm(float(k), m, wrapped)
        gmk = continuous_moment_Gm(float(-k), m, wrapped)
        term_abs = abs(gk) + abs(gmk)
        signed += gk + gmk
        absolute += term_abs
        if term_abs < TERM_FLOOR and k > 1 + sigma:
            break
        if k > 10_000:
            break
        k += 1
    s2 = sigma * sigma
    pre = -2.0 * math.pi**2 * s2 * (1.0 - 2.0 * delta1)
    preconditions = pre <= math.log(0.5)
    log_bound = (
        math.log(4.0)
        + 2.0 * math.pi * delta1 * abs(mu)
        + 2.0 * math.pi**2 * (delta1 * delta1 + 2.0 * delta1) * s2
        - 2.0 * math.pi**2 * s2
        + math.lgamma(m + 1)
        - m * math.log(math.pi * delta1)
    )
    bound = math.exp(log_bound) if log_bound > -745.0 else 0.0
    return AliasingResult(
        exact_abs=abs(signed),
        series_abs=absolute,
        analytic_bound=bound,
        delta1=delta1,
        preconditions_met=preconditions,
    )
