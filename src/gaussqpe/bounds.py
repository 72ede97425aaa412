"""Numerical laboratory for the analytic error and failure bounds.

Every analytic inequality used to size plans is checked here against
high-precision evaluations of the quantity it bounds, on a coherent
two-state worst-case model: a ground Gaussian of weight eta centered at
mu inside the central bin, plus a contaminant Gaussian of weight 1 - eta
a working gap away, combined with the worst relative phase (both signs
are evaluated and the adverse one reported).

The interesting margins live at scales like exp(-150) down to
exp(-3000), far below float64. All model quantities are therefore
assembled from "tiny" series in mpmath: lattice sums enter through
their duals (exact closed-form terms summed until they stop mattering
at the working precision), tails and cross terms through edge-anchored
loops, and no path ever forms 1 + tiny and subtracts 1 back out.

Orientation convention: every case satisfies ``exact <= bound`` when it
holds. For lower-bound cases (hit rate) the analytic lower bound goes
in ``exact`` and the measured quantity in ``bound``; ``params`` carries
``orientation: "lower"`` so reports stay unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import mpmath
import numpy as np

from . import estimation, simulator
from .planner import PlanParams, compute_C_eta, plan_sampling_round
from .special import lambert_wm1_exp, wm1_sandwich

__all__ = [
    "BoundCase",
    "BoundReport",
    "evaluate_plan_cases",
    "run_default_grid",
    "DEFAULT_ETAS",
    "DEFAULT_DELTAS",
    "DEFAULT_GAPS",
    "DEFAULT_ORDERS",
    "DEFAULT_MU_CENTERS",
    "DEFAULT_EPS_REL",
]

_DPS = 60
_REL_CUTOFF = "1e-75"
_LOOP_CAP = 100_000
_EIGHTH = 0.125

DEFAULT_ETAS = (0.25, 0.5, 1.0)
DEFAULT_DELTAS = (0.01, 0.001)
DEFAULT_GAPS = (0.05, 0.1, 0.2)
DEFAULT_ORDERS = (1, 2)
DEFAULT_MU_CENTERS = (-0.5, -0.25, 0.0, 0.25, 0.49)

# Relative moment target matching the default accuracy split at eps = 0.01.
DEFAULT_EPS_REL = (1.0 - 2.0 * math.sqrt(2.0) / 3.0) * 0.01
_MC_SEED = 20260814


@dataclass(frozen=True)
class BoundCase:
    """One verified inequality instance."""

    kind: str
    params: dict[str, Any] = field(compare=False)
    exact: float
    bound: float
    margin: float
    exact_log10: float
    bound_log10: float
    margin_log10: float
    preconditions_met: bool
    holds: bool


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All cases from one grid run plus aggregate views."""

    cases: tuple[BoundCase, ...]

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def n_violations(self) -> int:
        return sum(1 for c in self.cases if c.preconditions_met and not c.holds)

    @property
    def all_hold(self) -> bool:
        return self.n_violations == 0

    @property
    def worst_margin_log10(self) -> float:
        vals = [c.margin_log10 for c in self.cases if math.isfinite(c.margin_log10)]
        return min(vals) if vals else math.nan

    def to_rows(self) -> list[dict[str, Any]]:
        rows = []
        for c in self.cases:
            row = {
                "kind": c.kind,
                "exact": c.exact,
                "bound": c.bound,
                "margin": c.margin,
                "exact_log10": c.exact_log10,
                "bound_log10": c.bound_log10,
                "margin_log10": c.margin_log10,
                "preconditions_met": c.preconditions_met,
                "holds": c.holds,
                "params": c.params,
            }
            rows.append(row)
        return rows

    def summary(self) -> dict[str, Any]:
        kinds: dict[str, int] = {}
        for c in self.cases:
            kinds[c.kind] = kinds.get(c.kind, 0) + 1
        return {
            "n_cases": self.n_cases,
            "n_violations": self.n_violations,
            "all_hold": self.all_hold,
            "worst_margin_log10": self.worst_margin_log10,
            "kinds": kinds,
        }


def _log10_or(x: mpmath.mpf) -> float:
    if x > 0:
        return float(mpmath.log10(x))
    if x == 0:
        return -math.inf
    return math.nan


def _case(
    kind: str,
    params: dict[str, Any],
    exact: mpmath.mpf,
    bound: mpmath.mpf,
    preconditions_met: bool,
    margin: mpmath.mpf | None = None,
) -> BoundCase:
    if margin is None:
        margin = bound - exact
    return BoundCase(
        kind=kind,
        params=params,
        exact=float(exact),
        bound=float(bound),
        margin=float(margin),
        exact_log10=_log10_or(abs(exact)),
        bound_log10=_log10_or(abs(bound)),
        margin_log10=_log10_or(margin) if margin >= 0 else math.nan,
        preconditions_met=preconditions_met,
        holds=bool(margin >= 0),
    )


# ---------------------------------------------------------------------------
# mpmath primitives


def _gauss(x, mu, sigma) -> mpmath.mpf:
    return mpmath.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (
        sigma * mpmath.sqrt(2 * mpmath.pi)
    )


def _range_moments(mu, sigma, lo, hi, m_max: int) -> list[mpmath.mpf]:
    """Sums of n**j * g(n) for j = 0..m_max over integer n in [lo, hi].

    Either bound may be None (unbounded). The loop starts at the in-range
    integer nearest the peak and walks outward, stopping once density
    values fall below the working-precision cutoff relative to the
    largest seen; polynomial weights cannot outrun the Gaussian decay on
    the scales involved here.
    """
    cutoff = mpmath.mpf(_REL_CUTOFF)
    totals = [mpmath.mpf(0)] * (m_max + 1)
    n0 = int(mpmath.nint(mu))
    if lo is not None:
        n0 = max(n0, int(lo))
    if hi is not None:
        n0 = min(n0, int(hi))
    head = mpmath.mpf(0)

    def walk(start: int, step: int, limit) -> None:
        nonlocal head
        n = start
        for _ in range(_LOOP_CAP):
            if limit is not None and (n - limit) * step > 0:
                return
            g = _gauss(n, mu, sigma)
            head = max(head, g)
            nj = mpmath.mpf(1)
            for j in range(m_max + 1):
                totals[j] += nj * g
                nj *= n
            if head > 0 and g < head * cutoff:
                return
            n += step
        raise ArithmeticError("lattice sum failed to converge")

    walk(n0, +1, hi)
    walk(n0 - 1, -1, lo)
    return totals


def _Gmk(m: int, k: int, mu, sigma) -> mpmath.mpc:
    """Fourier dual of the order-m moment sum at integer frequency k.

    At k = 0 its real part is the continuous moment of the window.
    """
    s2 = sigma**2
    g0 = mpmath.exp(
        mpmath.mpc(-2 * mpmath.pi**2 * s2 * k * k, -2 * mpmath.pi * mu * k)
    )
    if m == 0:
        return g0
    w = mpmath.mpc(mu, -2 * mpmath.pi * s2 * k)
    if m == 1:
        return w * g0
    if m == 2:
        return (w**2 + s2) * g0
    if m == 3:
        return (w**3 + 3 * s2 * w) * g0
    if m == 4:
        return (w**4 + 6 * s2 * w**2 + 3 * s2**2) * g0
    raise ValueError(f"moment order must be 0..4, got {m!r}")


def _alias_sums(m: int, mu, sigma) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(signed, absolute) dual-frequency sums over k != 0.

    The signed sum is the exact lattice-minus-continuous moment defect;
    the absolute sum is its term-wise majorant.
    """
    cutoff = mpmath.mpf(_REL_CUTOFF)
    signed = mpmath.mpf(0)
    absolute = mpmath.mpf(0)
    head = mpmath.mpf(0)
    for k in range(1, 1001):
        gk = _Gmk(m, k, mu, sigma)
        gmk = _Gmk(m, -k, mu, sigma)
        signed += (gk + gmk).real
        gain = abs(gk) + abs(gmk)
        absolute += gain
        head = max(head, gain)
        if head > 0 and gain < head * cutoff and k >= 2:
            return signed, absolute
    raise ArithmeticError("dual-frequency sum failed to converge")


def _outside_moments(mu, sigma, lo: int, hi: int, m_max: int) -> list[mpmath.mpf]:
    """Sums of n**j * g(n) for integer n outside [lo, hi], j = 0..m_max."""
    upper = _range_moments(mu, sigma, hi + 1, None, m_max)
    lower = _range_moments(mu, sigma, None, lo - 1, m_max)
    return [u + l for u, l in zip(upper, lower)]


def _geometry(j: int, K: int) -> mpmath.mpf:
    """Window-functional factor j! (2K+1)^j / (pi delta)^j e^(2 pi delta),
    delta = 1/pi: bounds |sum n^j d_n| by it times |d|_1 on the window."""
    delta2 = 1 / mpmath.pi
    return (
        mpmath.factorial(j)
        * mpmath.mpf(2 * K + 1) ** j
        / (mpmath.pi**j * delta2**j)
        * mpmath.exp(2 * mpmath.pi * delta2)
    )


# ---------------------------------------------------------------------------
# Two-state worst-case model


class _TwoStateModel:
    """High-precision quantities of the coherent two-Gaussian model.

    The ground Gaussian (weight eta) sits at ``mu`` in [-1/2, 1/2); the
    contaminant (weight 1 - eta) sits at ``mu + N * Delta_work``. Sign
    ``s`` selects the relative phase of the contaminant amplitude.
    """

    def __init__(self, plan: PlanParams, mu_center: float) -> None:
        self.plan = plan
        self.m = plan.m
        self.K = plan.K
        self.N = plan.n_bins
        self.sigma = mpmath.mpf(plan.sigma_bins)
        self.mu = mpmath.mpf(mu_center)
        self.ND = mpmath.mpf(plan.Delta_work) * self.N
        self.mu1 = self.mu + self.ND
        self.eta = mpmath.mpf(plan.eta)

        m_max = self.m
        self.alias_signed = []
        self.alias_abs = []
        for j in range(m_max + 1):
            s, a = _alias_sums(j, self.mu, self.sigma)
            self.alias_signed.append(s)
            self.alias_abs.append(a)
        self.G0m = [_Gmk(j, 0, self.mu, self.sigma).real for j in range(m_max + 1)]
        self.tail_mom = _outside_moments(self.mu, self.sigma, -self.K, self.K, m_max)
        self.T = self.tail_mom[0]
        self.A = abs(self.alias_signed[0])
        # Register normalizations, as offsets from 1.
        half = self.N // 2
        self.reg_tail0 = _outside_moments(self.mu, self.sigma, -half, half - 1, 0)[0]
        self.norm0_minus_1 = self.alias_signed[0] - self.reg_tail0
        alias1_signed, _ = _alias_sums(0, self.mu1, self.sigma)
        self.reg_tail1 = _outside_moments(self.mu1, self.sigma, -half, half - 1, 0)[0]
        self.norm1_minus_1 = alias1_signed - self.reg_tail1
        self.N0 = 1 + self.norm0_minus_1
        self.N1 = 1 + self.norm1_minus_1

        # Contaminant and midpoint cross moments on the window.
        self.cont_mom = _range_moments(self.mu1, self.sigma, -self.K, self.K, m_max)
        self.cont_mass_left = _range_moments(
            self.mu - self.ND, self.sigma, -self.K, self.K, 0
        )[0]
        mubar = self.mu + self.ND / 2
        self.xfac = mpmath.exp(-(self.ND**2) / (8 * self.sigma**2))
        mid = _range_moments(mubar, self.sigma, -self.K, self.K, m_max)
        self.cross_mom = [self.xfac * v for v in mid]
        mid_alias, _ = _alias_sums(0, mubar, self.sigma)
        self.cross_lattice = self.xfac * (1 + mid_alias)
        self.mubar = mubar

        self.R = mpmath.sqrt(self.cont_mom[0])
        self.c_mix = (
            mpmath.sqrt((1 - self.eta) / self.eta) * mpmath.sqrt(self.N0 / self.N1)
            if self.eta < 1
            else mpmath.mpf(0)
        )
        self.cross_w = mpmath.sqrt(self.eta * (1 - self.eta) / (self.N0 * self.N1))
        self.root_inv_eta = mpmath.sqrt(1 / self.eta)
        # Shared precondition of the hit-rate and error-component bounds.
        self.eighth_trio = bool(
            self.A <= _EIGHTH
            and self.T <= _EIGHTH
            and self.root_inv_eta * self.R <= _EIGHTH
        )

    # Polluted-vector offsets, per relative sign.

    def poll_mom(self, s: int, j: int) -> mpmath.mpf:
        return 2 * s * self.c_mix * self.cross_mom[j] + self.c_mix**2 * self.cont_mom[j]

    def fpol_sq_minus_1(self, s: int) -> mpmath.mpf:
        return self.alias_signed[0] - self.T + self.poll_mom(s, 0)

    def total_eps(self, s: int, j: int) -> mpmath.mpf:
        """Exact conditional-moment error of order j, in bin units."""
        s0 = self.fpol_sq_minus_1(s)
        d = self.alias_signed[j] - self.tail_mom[j] + self.poll_mom(s, j)
        return abs(self.G0m[j] * s0 - d) / (1 + s0)

    def window_vector_terms(self, m_max: int):
        """Per-bin normalized |h|^2 - |f|^2 data for both signs, in one
        walk over the window: {s: (l1 norm, moment sums)}."""
        F0 = 1 + self.alias_signed[0] - self.T
        signs = (-1, +1)
        s0 = {s: self.fpol_sq_minus_1(s) for s in signs}
        poll0 = {s: self.poll_mom(s, 0) for s in signs}
        l1 = {s: mpmath.mpf(0) for s in signs}
        mom = {s: [mpmath.mpf(0)] * (m_max + 1) for s in signs}
        for n in range(-self.K, self.K + 1):
            g = _gauss(n, self.mu, self.sigma)
            f = mpmath.sqrt(g)
            e = self.c_mix * mpmath.sqrt(_gauss(n, self.mu1, self.sigma))
            for s in signs:
                d = (2 * f * (s * e) + e**2 - g * poll0[s] / F0) / (1 + s0[s])
                l1[s] += abs(d)
                nj = mpmath.mpf(1)
                for j in range(m_max + 1):
                    mom[s][j] += nj * d
                    nj *= n
        return {s: (l1[s], mom[s]) for s in signs}

    # Single-draw probabilities of the coherent mixture.

    def _region_probs(self, lo, hi) -> dict[int, mpmath.mpf]:
        """Probability of one draw landing in [lo, hi], per sign."""
        ground = _range_moments(self.mu, self.sigma, lo, hi, 0)[0]
        cont = _range_moments(self.mu1, self.sigma, lo, hi, 0)[0]
        mid = self.xfac * _range_moments(self.mubar, self.sigma, lo, hi, 0)[0]
        probs = {}
        for s in (-1, +1):
            num = (
                self.eta / self.N0 * ground
                + 2 * s * self.cross_w * mid
                + (1 - self.eta) / self.N1 * cont
            )
            probs[s] = num / (1 + 2 * s * self.cross_w * self.cross_lattice)
        return probs

    def fail_probs(self) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
        """Adverse-sign (p_left, p_gap, p_xleft): a draw left of the
        separation line, in the gap, and in the left half-window."""
        left = self._region_probs(None, int(mpmath.floor(self.mu - self.ND / 3)) - 1)
        gap = self._region_probs(
            int(mpmath.ceil(self.mu + self.ND / 3)),
            int(mpmath.floor(self.mu + 2 * self.ND / 3)),
        )
        xleft = self._region_probs(-self.K, 0)
        return max(left.values()), max(gap.values()), min(xleft.values())

    def p0_tilde(self, s: int) -> mpmath.mpf:
        return self.eta * (1 + self.fpol_sq_minus_1(s)) / self.N0


# ---------------------------------------------------------------------------
# Case builders


def _plan_id(plan: PlanParams) -> str:
    return (
        f"eta{plan.eta:g}_delta{plan.delta_input:g}"
        f"_gap{plan.Delta_input:g}_m{plan.m}"
    )


def _base_params(plan: PlanParams, mu_center: float | None) -> dict[str, Any]:
    params: dict[str, Any] = {
        "plan": _plan_id(plan),
        "eta": plan.eta,
        "delta_round": plan.delta_input,
        "Delta_work": plan.Delta_work,
        "m_plan": plan.m,
        "q": plan.q,
        "K": plan.K,
        "sigma_bins": plan.sigma_bins,
    }
    if mu_center is not None:
        params["mu_center"] = mu_center
    return params


def _norm_cases(model: _TwoStateModel, base: dict[str, Any]) -> list[BoundCase]:
    t0 = model.norm0_minus_1
    A, T = model.A, model.T
    sandwich = A + T
    cases = [
        _case("norm_upper", dict(base), t0, sandwich, True),
        _case("norm_lower", dict(base), -t0, sandwich, True),
    ]
    inv_exact = abs(t0) / model.N0
    inv_bound = sandwich / (1 - sandwich)
    cases.append(
        _case("inv_norm", dict(base), inv_exact, inv_bound, bool(sandwich < 1))
    )
    return cases


def _tail_cases(model: _TwoStateModel, base: dict[str, Any]) -> list[BoundCase]:
    plan = model.plan
    sigma, K = model.sigma, model.K
    erfc_bound = mpmath.erfc((K - mpmath.mpf("0.5")) / (mpmath.sqrt(2) * sigma))
    exp_bound = mpmath.exp(-((K - mpmath.mpf("0.5")) ** 2) / (2 * sigma**2))
    regime = K >= 1 and plan.sigma_bins <= K - 0.5
    cases = [
        _case(
            "tail_window",
            {**base, "exp_form": float(exp_bound)},
            model.T,
            erfc_bound,
            regime,
        ),
        _case("tail_erfc_vs_exp", dict(base), erfc_bound, exp_bound, regime),
    ]

    # Every window lattice point sits on the rising flank of the shifted
    # Gaussian, so each term is dominated by the unit-cell integral one
    # step toward the center; the center itself can sit half a bin closer.
    ND = model.ND
    cont_bound = mpmath.erfc(
        (ND - K - mpmath.mpf("1.5")) / (mpmath.sqrt(2) * sigma)
    ) / 2
    regime_r = bool(ND > K + 1.5)
    cases.append(
        _case("contamination_right", dict(base), model.cont_mom[0], cont_bound, regime_r)
    )
    cases.append(
        _case(
            "contamination_left",
            dict(base),
            model.cont_mass_left,
            cont_bound,
            regime_r,
        )
    )
    loose = mpmath.exp(-((K - mpmath.mpf("0.5")) ** 2) / (4 * sigma**2))
    regime_loose = bool(ND >= 2 * K)
    cases.append(
        _case("contamination_loose", dict(base), model.R, loose, regime_loose)
    )
    return cases


def _hit_rate_cases(model: _TwoStateModel, base: dict[str, Any]) -> list[BoundCase]:
    eta_mp = model.eta
    A, T, R = model.A, model.T, model.R

    v = A + T
    w = A + T + mpmath.mpf("2.25") * model.root_inv_eta * R
    # The measured hit rate, at the adverse (destructive) sign.
    p0_worst = min(model.p0_tilde(-1), model.p0_tilde(+1))
    lower = eta_mp * (1 - w) / (1 + v)
    # Margin assembled in tiny space: both sides are eta * (1 + small).
    s0 = min(model.fpol_sq_minus_1(-1), model.fpol_sq_minus_1(+1))
    t0 = model.norm0_minus_1
    numerator = (1 + s0) * (1 + v) - (1 - w) * (1 + t0)
    margin = eta_mp * numerator / (model.N0 * (1 + v))
    params = {**base, "orientation": "lower"}
    floor = mpmath.mpf("0.375") * eta_mp
    return [
        _case("hit_rate", params, lower, p0_worst, model.eighth_trio, margin=margin),
        _case("hit_rate_floor", dict(params), floor, p0_worst, model.eighth_trio),
    ]


def _moment_cases(model: _TwoStateModel, base: dict[str, Any]) -> list[BoundCase]:
    plan = model.plan
    sigma = model.sigma
    cases: list[BoundCase] = []
    orders = sorted({0, plan.m})

    for j in orders:
        exact = abs(model.alias_signed[j])
        cases.append(
            _case("aliasing_signed_vs_abs", {**base, "m": j}, exact, model.alias_abs[j], True)
        )

    for j in orders:
        delta1 = max(j, 1) / float(4 * math.pi**2 * plan.sigma_bins**2)
        delta1 = min(delta1, 0.4999)
        d1 = mpmath.mpf(delta1)
        precond = mpmath.exp(-2 * mpmath.pi**2 * sigma**2 * (1 - 2 * d1)) <= mpmath.mpf(
            "0.5"
        )
        bound = (
            4
            * mpmath.exp(2 * mpmath.pi * d1 * abs(model.mu))
            * mpmath.exp(2 * mpmath.pi**2 * (d1**2 + 2 * d1) * sigma**2)
            * mpmath.exp(-2 * mpmath.pi**2 * sigma**2)
            * mpmath.factorial(j)
            / (mpmath.pi**j * d1**j)
        )
        cases.append(
            _case(
                "discretization_series",
                {**base, "m": j, "delta1": delta1},
                model.alias_abs[j],
                bound,
                bool(precond),
            )
        )
    return cases


def _window_functional_cases(
    model: _TwoStateModel, base: dict[str, Any]
) -> list[BoundCase]:
    plan = model.plan
    K = model.K
    orders = sorted({0, plan.m})
    m_max = max(orders)
    delta2 = 1 / mpmath.pi

    best: dict[int, tuple[mpmath.mpf, mpmath.mpf]] = {}
    for l1, mom in model.window_vector_terms(m_max).values():
        for j in orders:
            exact = abs(mom[j])
            if j not in best or exact > best[j][0]:
                best[j] = (exact, l1)

    cases = []
    for j in orders:
        exact, l1 = best[j]
        bound = l1 if j == 0 else _geometry(j, K) * l1
        cases.append(
            _case(
                "window_moment_functional",
                {**base, "m": j, "delta2": float(delta2)},
                exact,
                bound,
                True,
            )
        )
    return cases


def _error_component_cases(
    model: _TwoStateModel, base: dict[str, Any]
) -> Iterable[BoundCase]:
    plan = model.plan
    j = plan.m
    sigma = model.sigma
    A, T, R = model.A, model.T, model.R
    root_inv_eta = model.root_inv_eta
    spectral_gap_term = mpmath.sqrt(T) + mpmath.sqrt(mpmath.mpf(5) / 3) * root_inv_eta * R

    # Per sign: truncation/pollution, normalization and total errors.
    trunc, norm, decomposition = {}, {}, []
    for s in (-1, +1):
        s0 = model.fpol_sq_minus_1(s)
        trunc[s] = abs(model.tail_mom[j] - model.poll_mom(s, j)) / (1 + s0)
        norm[s] = abs(s0 / (1 + s0)) * abs(model.G0m[j])
        parts = norm[s] + abs(model.alias_signed[j]) / (1 + s0) + trunc[s]
        decomposition.append((s, model.total_eps(s, j), parts))

    for name, const in (("stated", "2.75"), ("derived", "3.125")):
        yield _case(
            "truncation_pollution",
            {**base, "m": j, "constant": name},
            max(trunc.values()),
            mpmath.mpf(const) * _geometry(j, model.K) * spectral_gap_term,
            model.eighth_trio,
        )

    delta3 = 1 / mpmath.pi
    norm_bound = (
        mpmath.mpf(128) / 45
        * mpmath.exp(2 * mpmath.pi * delta3 * abs(model.mu))
        * mpmath.exp(2 * mpmath.pi**2 * delta3**2 * sigma**2)
        * mpmath.factorial(j)
        / (mpmath.pi**j * delta3**j)
        * (3 * A + 3 * T + mpmath.mpf("2.25") * root_inv_eta * R)
    )
    yield _case(
        "normalization_error",
        {**base, "m": j, "delta3": float(delta3)},
        max(norm.values()),
        norm_bound,
        bool(model.eighth_trio and abs(model.mu) <= model.K),
    )

    # Triangle decomposition: total error vs sum of its three components.
    for s, total, parts in decomposition:
        yield _case("error_decomposition", {**base, "m": j, "sign": s}, total, parts, True)


def _grouped_bound_cases(
    model: _TwoStateModel, base: dict[str, Any]
) -> list[BoundCase]:
    plan = model.plan
    j = plan.m
    sigma = model.sigma
    C = mpmath.mpf(compute_C_eta(plan.eta))
    grouped = (
        mpmath.factorial(j) ** 2
        * mpmath.mpf(model.N) ** j
        * mpmath.exp(-2 * mpmath.pi**2 * sigma**2)
        * C
    )
    exact = max(model.total_eps(-1, j), model.total_eps(+1, j)) / mpmath.mpf(model.N) ** j
    preconds = all(plan.constraint_flags.values())
    cases = [
        _case(
            "total_moment_error",
            {**base, "m": j, "C_eta": float(C)},
            exact,
            grouped,
            preconds,
        ),
        _case(
            "moment_target",
            {**base, "m": j},
            grouped,
            mpmath.mpf(plan.eps_rel_target),
            preconds,
        ),
    ]
    return cases


def _fail_rate_cases(model: _TwoStateModel, base: dict[str, Any]) -> list[BoundCase]:
    plan = model.plan
    sigma = model.sigma
    ND = model.ND
    M0 = plan.M0
    eta_mp = model.eta

    gap_arg = (ND / 3 - mpmath.mpf("1.5")) ** 2 / (2 * sigma**2)
    amp = (
        (1 + mpmath.sqrt(mpmath.mpf(5) / 3) * mpmath.sqrt((1 - eta_mp) / eta_mp)) ** 2
        if plan.eta < 1
        else mpmath.mpf(1)
    )
    left_bound = mpmath.mpf(4) / 3 * mpmath.exp(-gap_arg)
    gap_bound = left_bound * amp

    p_left, p_gap, p_xleft = model.fail_probs()
    p0_worst = min(model.p0_tilde(-1), model.p0_tilde(+1))
    p_zero = mpmath.exp(M0 * mpmath.log1p(-p_xleft))
    zero_bound = mpmath.exp(-3 * eta_mp * M0 / 16)
    delta_work = mpmath.exp(-mpmath.mpf(plan.log_inv_delta_work))

    sigma_gap_ok = bool(plan.constraint_flags.get("sigma_gap", False))
    xleft_half_ok = bool(p_xleft >= p0_worst / 2)
    chernoff_ok = bool(zero_bound <= delta_work / 3)

    cases = [
        _case("fail_left_draw", dict(base), p_left, left_bound, sigma_gap_ok),
        _case("fail_gap_draw", dict(base), p_gap, gap_bound, sigma_gap_ok),
        _case(
            "fail_zero_hits",
            {**base, "xleft_half_ok": xleft_half_ok, "chernoff_third": chernoff_ok},
            p_zero,
            zero_bound,
            xleft_half_ok,
        ),
        _case(
            "fail_round_total",
            {**base, "M0": M0},
            p_zero + M0 * (p_left + p_gap),
            delta_work,
            bool(sigma_gap_ok and xleft_half_ok and chernoff_ok),
        ),
        _case(
            "xleft_at_least_half",
            {**base, "orientation": "lower"},
            p0_worst / 2,
            p_xleft,
            True,
        ),
    ]

    if plan.eta < 1:
        pol_exact = model.c_mix * model.R
        pol_bound = (
            mpmath.sqrt((1 - eta_mp) / eta_mp)
            * mpmath.sqrt(1 + model.A + model.T)
            / mpmath.sqrt(1 - model.A - model.T)
            * model.R
        )
        cases.append(
            _case("pollution_norm", dict(base), pol_exact, pol_bound, True)
        )
    return cases


def _q_requirement_case(plan: PlanParams) -> list[BoundCase]:
    u = plan.u_value
    lo, mid, hi = wm1_sandwich(u)
    w_exact = -lambert_wm1_exp(u)
    lambert_n = math.sqrt(
        plan.m / (4.0 * math.pi**2 * plan.sigma_tilde**2) * w_exact
    )
    params = {
        **_base_params(plan, None),
        "u": u,
        "lambert_branch_value": w_exact,
        "sandwich_ok": bool(lo <= w_exact <= hi),
        "lambert_n_required": lambert_n,
        "orientation": "lower",
    }
    exact = mpmath.mpf(plan.q_lower_bound)
    bound = mpmath.mpf(plan.n_bins)
    case = _case("register_requirement", params, exact, bound, True)
    consistency = _case(
        "register_lambert_vs_sandwich",
        {**_base_params(plan, None), "u": u, "orientation": "lower"},
        mpmath.mpf(lambert_n),
        mpmath.mpf(plan.q_lower_bound),
        True,
    )
    return [case, consistency]


def _check_mu_centers(mu_centers: Sequence[float]) -> None:
    """Raise ``ValueError`` unless every center is finite and in [-1/2, 1/2),
    the central bin the two-state model assumes."""
    for mu_center in mu_centers:
        if not (math.isfinite(mu_center) and -0.5 <= mu_center < 0.5):
            raise ValueError(
                f"mu_centers entries must be finite and in [-1/2, 1/2), got {mu_center!r}"
            )


def evaluate_plan_cases(
    plan: PlanParams,
    mu_centers: Sequence[float] = DEFAULT_MU_CENTERS,
) -> list[BoundCase]:
    """All bound cases for one plan across a panel of wrapped centers,
    each in [-1/2, 1/2)."""
    _check_mu_centers(mu_centers)
    cases: list[BoundCase] = []
    with mpmath.workdps(_DPS):
        cases.extend(_q_requirement_case(plan))
        for mu_center in mu_centers:
            model = _TwoStateModel(plan, mu_center)
            base = _base_params(plan, mu_center)
            cases.extend(_norm_cases(model, base))
            cases.extend(_tail_cases(model, base))
            cases.extend(_hit_rate_cases(model, base))
            cases.extend(_moment_cases(model, base))
            cases.extend(_window_functional_cases(model, base))
            cases.extend(_error_component_cases(model, base))
            cases.extend(_grouped_bound_cases(model, base))
            cases.extend(_fail_rate_cases(model, base))
    return cases


def _mc_case(plan: PlanParams, mu_center: float, rounds: int, seed: int) -> BoundCase:
    """Empirical round-failure frequency against the analytic budget.

    Failure is the operational event |basket mean - center| > 2K bins;
    every analytic failure mode implies it. The analytic rate is so far
    below resolution that any observed failure is a genuine red flag.
    """
    theta0 = mu_center / plan.n_bins
    spec = simulator.SpectrumSpec(
        eigenphases=(theta0, theta0 + plan.Delta_work),
        overlaps_sq=(plan.eta, 1.0 - plan.eta),
    )
    dist = simulator.mixed_distribution(spec, plan)
    stream = simulator.SampleStream(dist, seed)
    failures = 0
    for _ in range(rounds):
        basket = estimation.run_sampling_round(stream, plan)
        mean = float(np.mean(basket.members))
        if abs(mean - mu_center) > 2 * plan.K:
            failures += 1
    with mpmath.workdps(_DPS):
        p_left, _, p_xleft = _TwoStateModel(plan, mu_center).fail_probs()
        analytic = 1 - (
            (1 - p_left) ** plan.M0 - (1 - p_left - p_xleft) ** plan.M0
        )
        exact = mpmath.mpf(failures) / rounds
        bound = analytic + mpmath.mpf(5) / rounds
        return _case(
            "mc_round_failure",
            {
                **_base_params(plan, mu_center),
                "rounds": rounds,
                "failures": failures,
                "analytic_rate": float(analytic),
                "seed": seed,
            },
            exact,
            bound,
            True,
        )


def run_default_grid(
    etas: Sequence[float] = DEFAULT_ETAS,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    gaps: Sequence[float] = DEFAULT_GAPS,
    orders: Sequence[int] = DEFAULT_ORDERS,
    mu_centers: Sequence[float] = DEFAULT_MU_CENTERS,
    eps_rel: float = DEFAULT_EPS_REL,
    mc: bool = True,
    mc_rounds: int = 2000,
    mc_seed: int = _MC_SEED,
) -> BoundReport:
    """Evaluate the full bound suite over the default plan grid.

    Monte Carlo rounds run only on the eta sweep at the middle gap with
    the loosest budget, where a failure would be cheapest to see.
    ``mc_rounds`` must be at least 1 and every center in [-1/2, 1/2).
    """
    if mc_rounds < 1:
        raise ValueError(f"mc_rounds must be at least 1, got {mc_rounds!r}")
    _check_mu_centers(mu_centers)
    cases: list[BoundCase] = []
    plans: list[PlanParams] = []
    for eta in etas:
        for delta in deltas:
            for gap in gaps:
                for m in orders:
                    plan = plan_sampling_round(delta, eta, gap, m, eps_rel)
                    plans.append(plan)
                    cases.extend(evaluate_plan_cases(plan, mu_centers))
    if mc:
        mc_plans = [
            p
            for p in plans
            if p.m == 1 and p.delta_input == max(deltas) and p.Delta_input == 0.1
        ]
        for i, plan in enumerate(mc_plans):
            cases.append(_mc_case(plan, -0.25, mc_rounds, mc_seed + i))
    return BoundReport(cases=tuple(cases))
