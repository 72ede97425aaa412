"""The Lambert W_{-1} branch behind the register-width requirement.

The bound lab takes w = -W_{-1}(-e^(-u-1)) from ``mpmath.lambertw`` at
its working precision and reports it with the sandwich the planner's
ceiling 1 + 3u relies on. Reference W_{-1} values are frozen from
mpmath.lambertw(. , -1) in tests/make_oracles.py; scipy provides an
independent implementation for the randomized comparison. References
quoted at an argument y of W_{-1} are checked at u = -ln(-y) - 1.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw as scipy_lambertw

from gaussqpe import bounds
from gaussqpe.planner import plan_sampling_round


def _u_of(y):
    """Log-domain argument u with -exp(-u - 1) = y."""
    return -math.log(-y) - 1.0


WM1_EXP_U1 = -3.1461932206205825852
WM1_Y01 = -3.5771520639572972184
WM1_Y025 = -2.1532923641103496492
WM1_U20 = -24.185764204040805482

_PLAN = plan_sampling_round(0.01, 0.5, 0.1, 1, bounds.DEFAULT_EPS_REL)


def _lab(u):
    """The bound lab's register_requirement params at log-domain argument u."""
    with mpmath.workdps(bounds._DPS):
        case = bounds._q_requirement_case(dataclasses.replace(_PLAN, u_value=u))[0]
    assert case.kind == "register_requirement"
    return case.params


def test_branch_values_match_reference():
    for u, ref in (
        (1.0, WM1_EXP_U1),
        (20.0, WM1_U20),
        (_u_of(-0.1), WM1_Y01),
        (_u_of(-0.25), WM1_Y025),
    ):
        params = _lab(u)
        assert params["lambert_branch_value"] == pytest.approx(-ref, rel=1e-15)
        assert params["sandwich_ok"]


def test_branch_point():
    # At u = 0 the argument is -1/e; next to it, w = 1 + sqrt(2u) + O(u).
    assert _lab(0.0)["lambert_branch_value"] == pytest.approx(1.0, rel=1e-15)
    assert _lab(1e-20)["lambert_branch_value"] == pytest.approx(1.0 + math.sqrt(2e-20), rel=1e-15)


@given(st.floats(min_value=1e-3, max_value=700.0))
@settings(max_examples=200, deadline=None)
def test_agrees_with_scipy(u):
    ours = -_lab(u)["lambert_branch_value"]
    if u < 36.0:
        # scipy evaluates the branch directly while the argument is
        # representable; beyond that -exp(-u-1) underflows its input.
        ref = scipy_lambertw(-math.exp(-(u + 1.0)), -1).real
        assert ours == pytest.approx(ref, rel=1e-10)
    # The defining equation holds in log form at any scale.
    assert math.log(-ours) + ours == pytest.approx(-(u + 1.0), abs=1e-9)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=300, deadline=None)
def test_sandwich_brackets_solution(u):
    """1 + sqrt(2u) + 2u/3 < w < 1 + sqrt(2u) + u, and the planner's
    ceiling 1 + 3u joins the chain past u = 1/2 (it sizes only under
    its u > 1 predicate)."""
    exact = _lab(u)["lambert_branch_value"]
    s = math.sqrt(2.0 * u)
    lower, mid, loose = 1.0 + s + (2.0 / 3.0) * u, 1.0 + s + u, 1.0 + 3.0 * u
    assert lower <= exact <= mid
    if u >= 0.5:
        assert mid <= loose
