"""Lambert W_{-1} in log-domain form, and its sandwich bounds.

The register-width requirement of the sampling planner inverts through
the lower branch of the Lambert W function. The planner sizes with the
closed-form ceiling 1 + 3u, and the bound laboratory certifies that
ceiling against the solver here. The test suite cross-checks the solver
against an independent library oracle.
"""

from __future__ import annotations

import math

__all__ = [
    "lambert_wm1_exp",
    "wm1_sandwich",
]

_RESIDUAL_TOL = 1e-12
_MAX_ITER = 60


def wm1_sandwich(u: float) -> tuple[float, float, float]:
    """Bracketing bounds for -W_{-1}(-exp(-u - 1)) at u > 0.

    Returns ``(lower, upper, loose_upper)`` with

        1 + sqrt(2u) + (2/3) u  <  -W_{-1}(-e^(-u-1))  <  1 + sqrt(2u) + u

    strict for u > 0 (all coincide at u = 0). The loose form 1 + 3u
    dominates the middle one only for u >= 1/2; the planner guards its
    use with a stricter u > 1 predicate.
    """
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u!r}")
    s = math.sqrt(2.0 * u)
    return 1.0 + s + (2.0 / 3.0) * u, 1.0 + s + u, 1.0 + 3.0 * u


def lambert_wm1_exp(u: float) -> float:
    """W_{-1}(-exp(-u - 1)) for u >= 0, stable for arbitrarily large u.

    Works in the log domain, solving ln(-w) + w = -(u + 1) by Halley
    iteration started from the midpoint of the sandwich bracket, so the
    argument never has to be representable as a float.
    """
    if not (math.isfinite(u) and u >= 0.0):
        raise ValueError(f"u must be finite and >= 0, got {u!r}")
    if u == 0.0:
        return -1.0
    lo, hi, _ = wm1_sandwich(u)
    w = -0.5 * (lo + hi)
    target = -(u + 1.0)
    for _ in range(_MAX_ITER):
        # g(w) = ln(-w) + w - target, g' = 1/w + 1, g'' = -1/w**2
        g = math.log(-w) + w - target
        gp = 1.0 / w + 1.0
        gpp = -1.0 / (w * w)
        step = g / (gp - 0.5 * g * gpp / gp)
        w_next = w - step
        if w_next >= -1.0:
            w_next = 0.5 * (w - 1.0)
        if abs(w_next - w) <= 1e-16 * abs(w_next):
            w = w_next
            break
        w = w_next
    residual = abs(math.log(-w) + w - target)
    if residual > _RESIDUAL_TOL * max(1.0, u + 1.0):
        raise ArithmeticError(
            f"lambert_wm1_exp failed to converge at u={u!r}: residual {residual:.3e}"
        )
    return w
