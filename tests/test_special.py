"""Lambert branch solver and its sandwich bounds.

Reference W_{-1} values frozen from mpmath.lambertw(. , -1) in
tests/make_oracles.py; scipy provides an independent implementation for
the randomized comparison. References quoted at an argument y of
W_{-1} are checked through the log-domain solver at u = -ln(-y) - 1.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw as scipy_lambertw

from gaussqpe.special import lambert_wm1_exp, wm1_sandwich


def _u_of(y):
    """Log-domain argument u with -exp(-u - 1) = y."""
    return -math.log(-y) - 1.0


WM1_EXP_U1 = -3.1461932206205825852
WM1_Y01 = -3.5771520639572972184
WM1_Y025 = -2.1532923641103496492
WM1_U20 = -24.185764204040805482


def test_branch_values_match_reference():
    assert lambert_wm1_exp(1.0) == pytest.approx(WM1_EXP_U1, rel=1e-12)
    assert lambert_wm1_exp(20.0) == pytest.approx(WM1_U20, rel=1e-12)
    assert lambert_wm1_exp(_u_of(-0.1)) == pytest.approx(WM1_Y01, rel=1e-12)
    assert lambert_wm1_exp(_u_of(-0.25)) == pytest.approx(WM1_Y025, rel=1e-12)


def test_branch_point():
    assert lambert_wm1_exp(_u_of(-1.0 / math.e)) == pytest.approx(-1.0, rel=1e-8)
    assert lambert_wm1_exp(0.0) == pytest.approx(-1.0, rel=1e-6)


def test_rejects_positive_or_subcritical_argument():
    # y < -1/e maps to u < 0; y >= 0 has no real u, so the log-domain
    # form cannot even be called there. A non-finite u is rejected too.
    with pytest.raises(ValueError):
        lambert_wm1_exp(_u_of(-0.5))
    with pytest.raises(ValueError):
        lambert_wm1_exp(-1.0)
    for u in (math.inf, math.nan):
        with pytest.raises(ValueError):
            lambert_wm1_exp(u)


@given(st.floats(min_value=1e-3, max_value=700.0))
@settings(max_examples=200)
def test_agrees_with_scipy(u):
    ours = lambert_wm1_exp(u)
    if u < 36.0:
        # scipy evaluates the branch directly while the argument is
        # representable; beyond that -exp(-u-1) underflows its input.
        ref = scipy_lambertw(-math.exp(-(u + 1.0)), -1).real
        assert ours == pytest.approx(ref, rel=1e-10)
    # The defining equation holds in log form at any scale.
    assert math.log(-ours) + ours == pytest.approx(-(u + 1.0), abs=1e-9)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=300)
def test_sandwich_brackets_solution(u):
    lower, mid, loose = wm1_sandwich(u)
    exact = -lambert_wm1_exp(u)
    assert lower <= exact <= mid
    if u >= 0.5:
        # The loose form only joins the chain past u = 1/2; the planner
        # uses it solely under its u > 1 predicate.
        assert mid <= loose


def test_sandwich_orders_terms():
    lower, mid, upper = wm1_sandwich(2.0)
    assert lower == pytest.approx(1.0 + 2.0 + 4.0 / 3.0)
    assert mid == pytest.approx(1.0 + 2.0 + 2.0)
    assert upper == pytest.approx(7.0)

