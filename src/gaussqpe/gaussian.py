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

``g0`` is the float64 density that ``simulator.gaussian_window`` samples
and that ``simulator.mixed_distribution`` fills each eigenstate's band with.
The lattice series that plans and certificates rest on live here, once,
in mpmath at the caller's working precision: ``range_moments`` and
``outside_moments`` (direct lattice sums over a range and outside it),
``fourier_moment`` (the closed-form dual terms G_m(k)) and ``dual_sums``
(the aliasing defect, summed over k != 0). Each series walks outward
from the peak (or from frequency 1) and stops once a term falls below
``_REL_CUTOFF`` times the largest seen, so no value is formed as
1 + tiny and the truncation error sits far below the working precision
of every caller (53 bits in the planner, 60 digits in the bound lab).
The lattice walk pays no ``exp`` per bin: it holds each term as a
fixed-point integer relative to the peak term and steps it by the exact
Gaussian ratio recurrence, two integer products per bin, with enough
guard bits that its rounding stays below one ulp of the sum over
``_LOOP_CAP`` steps (see ``range_moments``).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

__all__ = [
    "g0",
    "wrap_mod",
    "range_moments",
    "outside_moments",
    "fourier_moment",
    "dual_sums",
]

_MAX_MOMENT_ORDER = 4

# The mpmath series stop once a term falls below this fraction of the
# largest term seen (see module docstring); a series that has not stopped
# after _LOOP_CAP lattice terms per side, or _DUAL_CAP dual frequencies,
# raises instead of returning a truncated sum.
_REL_CUTOFF = "1e-75"
_LOOP_CAP = 100_000
_DUAL_CAP = 1000
# ``range_moments`` walks in fixed point 2**-(prec + _GUARD_BITS) below its
# head and forms its constants at prec + _CONST_BITS (see its docstring).
_GUARD_BITS = 300
_CONST_BITS = 40


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
    if isinstance(q, bool) or not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"q must be an integer >= 1, got {q!r}")
    n = float(1 << q)
    d = np.asarray(k, dtype=float) - mu
    r = d - n * np.round(d / n)
    if r.ndim == 0:
        return float(r)
    return r


def _check_moment_order(m: int) -> None:
    if isinstance(m, bool) or not (isinstance(m, (int, np.integer)) and m >= 0):
        raise ValueError(f"moment order must be an integer >= 0, got {m!r}")
    if m > _MAX_MOMENT_ORDER:
        raise ValueError(
            f"moment order {m} not supported; closed forms are hard-coded "
            f"for m <= {_MAX_MOMENT_ORDER}"
        )


# ---------------------------------------------------------------------------
# High-precision lattice series (mpmath, at the caller's working precision)


def range_moments(mu, sigma, lo, hi, m_max: int) -> list[mpmath.mpf]:
    """Sums of n**j * g0(n, mu, sigma) for j = 0..m_max over integer n in [lo, hi].

    Either bound may be None (unbounded); an empty range sums to zeros.
    The walk starts at the in-range integer n0 nearest the peak and steps
    outward on each side, stopping once a term falls below ``_REL_CUTOFF``
    times the head g(n0), the largest term of the range; polynomial
    weights cannot outrun the Gaussian decay on the scales involved here.

    The terms are fixed-point integers G = g / g(n0) * 2**b with
    b = prec + ``_GUARD_BITS``, stepped by the exact recurrence
    g(n + s) = g(n) * rho and rho <- rho * exp(-1/sigma**2): two integer
    products per bin, each truncated by less than one unit 2**-b. The
    guard bits keep a term at the cutoff (1e-75, about 2**-249) a
    nonzero integer with more than prec bits to spare, so the stop test
    is exact enough and the truncations add up to at most _LOOP_CAP
    units, far below one ulp of the sum. The head, the decay and the
    first ratio are formed once, in mpmath, at prec + ``_CONST_BITS``:
    after k steps the ratio carries k of their relative errors and the
    term about k**2 / 2, below 2**-(prec + 7) up to _LOOP_CAP steps, so
    the walk never re-anchors on a fresh ``exp``. A side's ratio enters
    fixed point only if the range holds a bin past n0 on that side: with
    the peak far outside [lo, hi], the ratio toward it is exp(+large).
    """
    if lo is not None and hi is not None and lo > hi:
        return [mpmath.mpf(0)] * (m_max + 1)
    prec = mpmath.mp.prec
    b = prec + _GUARD_BITS
    with mpmath.workprec(prec + _CONST_BITS):
        mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        n0 = int(mpmath.nint(mu))
        if lo is not None:
            n0 = max(n0, int(lo))
        if hi is not None:
            n0 = min(n0, int(hi))
        two_var = 2 * sigma**2
        d = n0 - mu
        head = mpmath.exp(-(d**2) / two_var) / (sigma * mpmath.sqrt(2 * mpmath.pi))
        decay = mpmath.exp(-2 / two_var)
        # g(n0 + 1) / g(n0) and g(n0 - 1) / g(n0); their product is the decay.
        rho = {+1: mpmath.exp(-(2 * d + 1) / two_var)}
        rho[-1] = decay / rho[+1]
        fixed_decay = int(mpmath.ldexp(decay, b))
        floor = int(mpmath.ldexp(mpmath.mpf(_REL_CUTOFF), b))
        # The head term, G = 2**b at n0; the walks add the rest.
        sums = [n0**j << b for j in range(m_max + 1)]

        def walk(step: int, limit) -> None:
            """Add the terms at n0 + step, n0 + 2 step, ... within ``limit``."""
            n = n0 + step
            if limit is not None and (n - limit) * step > 0:
                return
            r = g = int(mpmath.ldexp(rho[step], b))
            for _ in range(_LOOP_CAP):
                sums[0] += g
                t = g
                for j in range(1, m_max + 1):
                    t *= n
                    sums[j] += t
                if g < floor:
                    return
                n += step
                if limit is not None and (n - limit) * step > 0:
                    return
                r = (r * fixed_decay) >> b
                g = (g * r) >> b
            raise ArithmeticError("lattice sum failed to converge")

        walk(+1, hi)
        walk(-1, lo)
        scaled = [mpmath.ldexp(head * s, -b) for s in sums]
    return [+v for v in scaled]


def outside_moments(mu, sigma, lo: int, hi: int, m_max: int) -> list[mpmath.mpf]:
    """Sums of n**j * g0(n, mu, sigma) for integer n outside [lo, hi], j = 0..m_max."""
    upper = range_moments(mu, sigma, hi + 1, None, m_max)
    lower = range_moments(mu, sigma, None, lo - 1, m_max)
    return [u + l for u, l in zip(upper, lower)]


def fourier_moment(m: int, k, mu, sigma) -> mpmath.mpc:
    """Fourier transform G_m(k) of x**m * g0(x, mu) at frequency ``k``.

    Closed forms for m <= 4 in terms of w = mu - 2*pi*i*sigma**2*k:

    m = 0: G0(k) = exp(-2*pi**2*sigma**2*k**2 - 2*pi*i*mu*k)
    m = 1: w * G0
    m = 2: (w**2 + sigma**2) * G0
    m = 3: (w**3 + 3*sigma**2*w) * G0
    m = 4: (w**4 + 6*sigma**2*w**2 + 3*sigma**4) * G0

    At k = 0 the real part is the continuous moment, e.g. G2(0) =
    mu**2 + sigma**2. ``mu`` is used as given, not wrapped.
    """
    _check_moment_order(m)
    mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
    s2 = sigma**2
    base = mpmath.exp(
        mpmath.mpc(-2 * mpmath.pi**2 * s2 * k * k, -2 * mpmath.pi * mu * k)
    )
    if m == 0:
        return base
    w = mpmath.mpc(mu, -2 * mpmath.pi * s2 * k)
    if m == 1:
        return w * base
    if m == 2:
        return (w**2 + s2) * base
    if m == 3:
        return (w**3 + 3 * s2 * w) * base
    return (w**4 + 6 * s2 * w**2 + 3 * s2**2) * base


def dual_sums(m: int, mu, sigma) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(signed, absolute) sums of G_m(k) over integer k != 0.

    By Poisson summation the signed sum is the exact defect of the full
    lattice moment, sum over n of n**m g0(n, mu) - G_m(0); the absolute
    sum of |G_m(k)| + |G_m(-k)| is its term-wise majorant, which bounds
    the defect at every center. x**m g0 is real, so G_m(-k) is the exact
    conjugate of G_m(k) and one transform per frequency serves both.
    """
    cutoff = mpmath.mpf(_REL_CUTOFF)
    signed = mpmath.mpf(0)
    absolute = mpmath.mpf(0)
    head = mpmath.mpf(0)
    for k in range(1, _DUAL_CAP + 1):
        gk = fourier_moment(m, k, mu, sigma)
        signed += 2 * gk.real
        gain = 2 * abs(gk)
        absolute += gain
        head = max(head, gain)
        if head > 0 and gain < head * cutoff and k >= 2:
            return signed, absolute
    raise ArithmeticError("dual-frequency sum failed to converge")
