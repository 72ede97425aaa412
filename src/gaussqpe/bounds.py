"""Numerical laboratory for the analytic error and failure bounds.

Every analytic inequality used to size plans is checked here against
high-precision evaluations of the quantity it bounds, on a coherent
two-state worst-case model: a ground Gaussian of weight eta centered at
mu inside the central bin, plus a contaminant Gaussian of weight 1 - eta
a working gap away, combined with the worst relative phase (both signs
are evaluated and the adverse one reported). Only models the plan
itself accepts are evaluated: ``SpectrumSpec.validate_for_plan`` keeps
both phases half a working gap clear of the register seam, so with the
ground in the central bin the gap is at most about 1/3.

The interesting margins live at scales like exp(-150) down to
exp(-3000), far below float64. All model quantities are therefore
assembled, at 60 significant digits, from the "tiny" mpmath series of
``gaussian``: lattice sums enter through their duals (exact closed-form
terms summed until they stop mattering at the working precision), tails
and cross terms through edge-anchored loops, and no path ever forms
1 + tiny and subtracts 1 back out.

The window perturbation d_s (the polluted minus the ideal normalized
window, per sign s) needs no walk over the window's bins. It has
moments sum n^j d_s = (pollution moment - P_s * window moment of the
ground) / (1 + s0_s), all held by the model, since the cross term
sqrt(g g1) is a constant times the midpoint Gaussian. Its l1 norm
follows from its sign pattern: d_s / g is a quadratic in
x = c_mix sqrt(g1 / g), and x is exp(linear in n), so d_s changes sign
at most twice on the window and at bins known in closed form; l1 is
the sum of |sum of d_s| over the at most three segments between.

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
from .gaussian import dual_sums, fourier_moment, outside_moments, range_moments
from .planner import (
    _PREDICATE_CEILING,
    DEFAULT_INTERP_COEFF,
    PlanParams,
    _field_values,
    compute_C_eta,
    plan_sampling_round,
)

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

DEFAULT_ETAS = (0.25, 0.5, 1.0)
DEFAULT_DELTAS = (0.01, 0.001)
DEFAULT_GAPS = (0.05, 0.1, 0.2)
DEFAULT_ORDERS = (1, 2)
DEFAULT_MU_CENTERS = (-0.5, -0.25, 0.0, 0.25, 0.49)

# Relative moment target matching the default accuracy split at eps = 0.01.
DEFAULT_EPS_REL = DEFAULT_INTERP_COEFF * 0.01
_MC_SEED = 20260814
_MC_CENTER = -0.25


@dataclass(frozen=True)
class BoundCase:
    """One verified inequality instance."""

    kind: str
    exact: float
    bound: float
    margin: float
    exact_log10: float
    bound_log10: float
    margin_log10: float
    preconditions_met: bool
    holds: bool
    params: dict[str, Any] = field(compare=False)


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
        """One row per case; its keys are the ``BoundCase`` fields, in order."""
        return [_field_values(c) for c in self.cases]

    def summary(self) -> dict[str, Any]:
        """Counts per kind, and the worst finite margin_log10 overall and
        per kind; a kind whose margins are all 0 or negative has no entry
        in ``worst_margin_log10_by_kind``."""
        kinds: dict[str, int] = {}
        worst: dict[str, float] = {}
        for c in self.cases:
            kinds[c.kind] = kinds.get(c.kind, 0) + 1
            if math.isfinite(c.margin_log10):
                worst[c.kind] = min(worst.get(c.kind, math.inf), c.margin_log10)
        return {
            "n_cases": self.n_cases,
            "n_violations": self.n_violations,
            "all_hold": self.all_hold,
            "worst_margin_log10": self.worst_margin_log10,
            "worst_margin_log10_by_kind": worst,
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
        exact=float(exact),
        bound=float(bound),
        margin=float(margin),
        exact_log10=_log10_or(abs(exact)),
        bound_log10=_log10_or(abs(bound)),
        margin_log10=_log10_or(margin) if margin >= 0 else math.nan,
        preconditions_met=preconditions_met,
        holds=bool(margin >= 0),
        params=params,
    )


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
    contaminant (weight 1 - eta) sits at ``mu + N * Delta_input``. Sign
    ``s`` selects the relative phase of the contaminant amplitude.
    """

    def __init__(self, plan: PlanParams, mu_center: float) -> None:
        self.plan = plan
        self.m = plan.m
        self.K = plan.K
        self.N = plan.n_bins
        self.sigma = mpmath.mpf(plan.sigma_bins)
        self.mu = mpmath.mpf(mu_center)
        self.ND = mpmath.mpf(plan.Delta_input) * self.N
        self.mu1 = self.mu + self.ND
        self.eta = mpmath.mpf(plan.eta)

        m_max = self.m
        self.alias_signed = []
        self.alias_abs = []
        for j in range(m_max + 1):
            s, a = dual_sums(j, self.mu, self.sigma)
            self.alias_signed.append(s)
            self.alias_abs.append(a)
        self.G0m = [
            fourier_moment(j, 0, self.mu, self.sigma).real for j in range(m_max + 1)
        ]
        self.tail_mom = outside_moments(self.mu, self.sigma, -self.K, self.K, m_max)
        self.T = self.tail_mom[0]
        self.A = abs(self.alias_signed[0])
        # Register normalizations, as offsets from 1.
        half = self.N // 2
        self.reg_tail0 = outside_moments(self.mu, self.sigma, -half, half - 1, 0)[0]
        self.norm0_minus_1 = self.alias_signed[0] - self.reg_tail0
        alias1_signed, _ = dual_sums(0, self.mu1, self.sigma)
        self.reg_tail1 = outside_moments(self.mu1, self.sigma, -half, half - 1, 0)[0]
        self.norm1_minus_1 = alias1_signed - self.reg_tail1
        self.N0 = 1 + self.norm0_minus_1
        self.N1 = 1 + self.norm1_minus_1

        # Contaminant and midpoint cross moments on the window.
        self.cont_mom = range_moments(self.mu1, self.sigma, -self.K, self.K, m_max)
        self.cont_mass_left = range_moments(
            self.mu - self.ND, self.sigma, -self.K, self.K, 0
        )[0]
        mubar = self.mu + self.ND / 2
        self.xfac = mpmath.exp(-(self.ND**2) / (8 * self.sigma**2))
        mid = range_moments(mubar, self.sigma, -self.K, self.K, m_max)
        self.cross_mom = [self.xfac * v for v in mid]
        mid_alias, _ = dual_sums(0, mubar, self.sigma)
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
            self.A <= _PREDICATE_CEILING
            and self.T <= _PREDICATE_CEILING
            and self.root_inv_eta * self.R <= _PREDICATE_CEILING
        )
        # Adverse-sign single-draw probabilities, read by the failure-rate
        # cases and by the Monte Carlo shadow.
        left = self._region_probs(None, int(mpmath.floor(self.mu - self.ND / 3)) - 1)
        gap = self._region_probs(
            int(mpmath.ceil(self.mu + self.ND / 3)),
            int(mpmath.floor(self.mu + 2 * self.ND / 3)),
        )
        xleft = self._region_probs(-self.K, 0)
        self._fail = (max(left.values()), max(gap.values()), min(xleft.values()))

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

    def window_vector_terms(self):
        """Normalized |h|^2 - |f|^2 on the window, for both signs:
        {s: (l1 norm, [sum of n^j d_s(n) for j = 0..m])}.

        Per bin, d_s = (2 s f e + e^2 - g P_s) / (1 + s0_s) with f = sqrt(g),
        e = c_mix sqrt(g1) and P_s = poll0_s / F0. As sqrt(g g1) is xfac
        times the midpoint Gaussian, each moment is
        (poll_mom(s, j) - P_s W_j) / (1 + s0_s) with W_j the window moments
        of g. The order-0 moment vanishes identically (W_0 = F0), so what
        it holds is rounding. The l1 norm comes from the sign changes of
        d_s: d_s / g = x^2 + 2 s x - P_s with x = c_mix sqrt(g1 / g)
        monotone in n, so at most two cuts split the window into segments
        of one sign each, and l1 sums |segment sum| over them.
        """
        F0 = 1 + self.alias_signed[0] - self.T
        # Window moments of g: full lattice (Poisson) minus the tails.
        W = [g + a - t for g, a, t in zip(self.G0m, self.alias_signed, self.tail_mom)]
        terms = {}
        for s in (-1, +1):
            scale = 1 + self.fpol_sq_minus_1(s)
            P = self.poll_mom(s, 0) / F0
            mom = [(self.poll_mom(s, j) - P * W[j]) / scale for j in range(self.m + 1)]
            # Sums of d_s over [b, K] for each cut b, opened by the total.
            sums = [mom[0]]
            for b in self._sign_cuts(s, P):
                mid = range_moments(self.mubar, self.sigma, b, self.K, 0)[0]
                cont = range_moments(self.mu1, self.sigma, b, self.K, 0)[0]
                ground = range_moments(self.mu, self.sigma, b, self.K, 0)[0]
                sums.append(
                    (2 * s * self.c_mix * self.xfac * mid + self.c_mix**2 * cont - P * ground)
                    / scale
                )
            sums.append(mpmath.mpf(0))
            l1 = mpmath.fsum(abs(hi - lo) for hi, lo in zip(sums, sums[1:]))
            terms[s] = (l1, mom)
        return terms

    def _sign_cuts(self, s: int, P: mpmath.mpf) -> list[int]:
        """Ascending window bins b in (-K, K] where d_s(b - 1) and d_s(b)
        differ in sign: one per positive root of x^2 + 2 s x - P."""
        if self.c_mix == 0:
            return []
        slope = self.ND / (2 * self.sigma**2)  # ln x is linear in n

        def quad(n: int) -> mpmath.mpf:
            x = self.c_mix * mpmath.exp(slope * (n - self.mubar))
            return x * x + 2 * s * x - P

        # The textbook root -s + sqrt(1 + P) rounds to 0 once |P| is below
        # the working precision; s P / (1 + sqrt(1 + P)) does not.
        root = mpmath.sqrt(1 + P)
        cuts = []
        for r in [s * P / (1 + root)] + ([1 + root] if s < 0 else []):
            if r <= 0:
                continue
            b = int(mpmath.floor(self.mubar + mpmath.log(r / self.c_mix) / slope))
            # Bin b sits left of the root unless the root lies within
            # rounding of it; the quadratic's sign there decides. Left of
            # the root it is negative if it rises through r, else positive.
            if (quad(b) < 0) == (r + s > 0):
                b += 1
            if -self.K < b <= self.K:
                cuts.append(b)
        return cuts

    # Single-draw probabilities of the coherent mixture.

    def _region_probs(self, lo, hi) -> dict[int, mpmath.mpf]:
        """Probability of one draw landing in [lo, hi], per sign."""
        ground = range_moments(self.mu, self.sigma, lo, hi, 0)[0]
        cont = range_moments(self.mu1, self.sigma, lo, hi, 0)[0]
        mid = self.xfac * range_moments(self.mubar, self.sigma, lo, hi, 0)[0]
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
        separation line, in the gap, and in the left half-window. Formed
        once, when the model is built."""
        return self._fail

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
    # bound - exact = ((S - |t0|) + S (t0 + |t0|)) / ((1 - S) N0), S = A + T,
    # with the slack S - |t0| formed term by term from t0 = alias - reg_tail
    # (T holds reg_tail's bins), not from two sides equal to 60 digits.
    alias, reg_tail = model.alias_signed[0], model.reg_tail0
    slack = T + reg_tail if t0 >= 0 else (T - reg_tail) + 2 * max(alias, 0)
    margin = (slack + sandwich * (t0 + abs(t0))) / ((1 - sandwich) * model.N0)
    cases.append(
        _case(
            "inv_norm", dict(base), inv_exact, inv_bound, bool(sandwich < 1), margin=margin
        )
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
    # Margin assembled in tiny space: both sides are eta * (1 + small), so
    # (1 + s0)(1 + v) - (1 - w)(1 + t0) is expanded and the 1s cancel
    # exactly instead of in rounding.
    s0 = min(model.fpol_sq_minus_1(-1), model.fpol_sq_minus_1(+1))
    t0 = model.norm0_minus_1
    numerator = s0 + v + s0 * v + w - t0 + w * t0
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
    delta2 = 1 / mpmath.pi

    best: dict[int, tuple[mpmath.mpf, mpmath.mpf]] = {}
    for l1, mom in model.window_vector_terms().values():
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
    # Preconditions: the plan's predicates, which every plan meets.
    return [
        _case(
            "total_moment_error",
            {**base, "m": j, "C_eta": float(C)},
            exact,
            grouped,
            True,
        ),
        _case(
            "moment_target",
            {**base, "m": j},
            grouped,
            mpmath.mpf(plan.eps_rel_target),
            True,
        ),
    ]


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

    # sigma_gap, the two draw bounds' precondition, holds in every plan.
    xleft_half_ok = bool(p_xleft >= p0_worst / 2)
    chernoff_ok = bool(zero_bound <= delta_work / 3)

    cases = [
        _case("fail_left_draw", dict(base), p_left, left_bound, True),
        _case("fail_gap_draw", dict(base), p_gap, gap_bound, True),
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
            bool(xleft_half_ok and chernoff_ok),
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
        cases.append(_pollution_case(model, base))
    return cases


def _pollution_case(model: _TwoStateModel, base: dict[str, Any]) -> BoundCase:
    """c_mix R <= sqrt((1 - eta) / eta) sqrt((1 + A + T) / (1 - A - T)) R.

    c_mix carries sqrt(N0 / N1), and N1's defect sits at the contaminant's
    centre, so A is the aliasing majorant (the planner's A), which bounds
    the defect at every centre; the ground centre's own |signed sum| does
    not (at mu = 1/4 it is ~1e-176 where N1's is ~1e-114). Both sides are
    ratio * R * sqrt(1 + x); the margin expands sqrt(1 + x) - 1 as
    x / (sqrt(1 + x) + 1) on each, with x formed from the tiny terms.
    """
    ratio = mpmath.sqrt((1 - model.eta) / model.eta)
    S = model.alias_abs[0] + model.T
    x_bound = 2 * S / (1 - S)
    x_exact = (model.norm0_minus_1 - model.norm1_minus_1) / model.N1
    margin = (
        ratio
        * model.R
        * (
            x_bound / (mpmath.sqrt(1 + x_bound) + 1)
            - x_exact / (mpmath.sqrt(1 + x_exact) + 1)
        )
    )
    return _case(
        "pollution_norm",
        dict(base),
        model.c_mix * model.R,
        ratio * mpmath.sqrt((1 + S) / (1 - S)) * model.R,
        True,
        margin=margin,
    )


def _q_requirement_case(plan: PlanParams) -> list[BoundCase]:
    """The register width inverts through w = -W_{-1}(-e^(-u-1)), which
    lies above 1 + sqrt(2u) + 2u/3 and, for u >= 1/2, below the planner's
    ceiling 1 + 3u; ``sandwich_ok`` reports both sides."""
    u = plan.u_value
    w_exact = float(-mpmath.lambertw(-mpmath.exp(-mpmath.mpf(u) - 1), -1))
    lambert_n = math.sqrt(
        plan.m / (4.0 * math.pi**2 * plan.sigma_tilde**2) * w_exact
    )
    lower = 1.0 + math.sqrt(2.0 * u) + (2.0 / 3.0) * u
    params = {
        **_base_params(plan, None),
        "u": u,
        "lambert_branch_value": w_exact,
        "sandwich_ok": bool(lower <= w_exact <= 1.0 + 3.0 * u),
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


def _two_state_spectrum(plan: PlanParams, mu_center: float) -> simulator.SpectrumSpec:
    """The two-state model as a spectrum: phases mu_center / N and a working
    gap above it, overlaps eta and 1 - eta. Raise ``ValueError`` naming the
    gap and the center unless ``validate_for_plan`` accepts it; its seam
    rule keeps a gap of about 1/3 or less."""
    theta0 = mu_center / plan.n_bins
    try:
        spec = simulator.SpectrumSpec(
            eigenphases=(theta0, theta0 + plan.Delta_input),
            overlaps_sq=(plan.eta, 1.0 - plan.eta),
        )
        spec.validate_for_plan(plan)
    except ValueError as exc:
        raise ValueError(
            f"bound grid gap {plan.Delta_input!r} at mu_center {mu_center!r} "
            f"gives a two-state model its plan does not accept: {exc}"
        ) from None
    return spec


def evaluate_plan_cases(
    plan: PlanParams,
    mu_centers: Sequence[float] = DEFAULT_MU_CENTERS,
    models: dict[float, _TwoStateModel] | None = None,
) -> list[BoundCase]:
    """All bound cases for one plan across a panel of wrapped centers,
    each in [-1/2, 1/2), whose two-state models the plan accepts.

    A ``models`` dict, when given, receives the model built at each
    center, keyed by center, so a caller can evaluate more at it without
    building it again."""
    _check_mu_centers(mu_centers)
    for mu_center in mu_centers:
        _two_state_spectrum(plan, mu_center)
    cases: list[BoundCase] = []
    with mpmath.workdps(_DPS):
        cases.extend(_q_requirement_case(plan))
        for mu_center in mu_centers:
            model = _TwoStateModel(plan, mu_center)
            if models is not None:
                models[mu_center] = model
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


def _mc_case(
    plan: PlanParams,
    mu_center: float,
    rounds: int,
    seed: int,
    model: _TwoStateModel | None = None,
) -> BoundCase:
    """Empirical round-failure frequency against the analytic budget.

    Failure is the operational event |basket mean - center| > 2K bins;
    every analytic failure mode implies it. The analytic rate is so far
    below resolution that any observed failure is a genuine red flag.
    Rounds are drawn by ``run_gsee``'s own sampler,
    ``estimation._draw_rounds``, from a Philox generator seeded by
    ``seed``, so the shadow checks the estimator that runs. The analytic
    rate reads ``model``, the plan's two-state model at ``mu_center``,
    which is built here when not given.
    """
    dist = simulator.mixed_distribution(_two_state_spectrum(plan, mu_center), plan)
    rng = np.random.Generator(np.random.Philox(seed))
    _, counts, sums, _ = estimation._draw_rounds(
        rng, dist, rounds, plan.M0, plan.two_K, plan.dark_bins
    )
    # The anchor bin holds at least one draw, so no count is 0.
    failures = int(np.count_nonzero(np.abs(sums / counts - mu_center) > 2 * plan.K))
    with mpmath.workdps(_DPS):
        if model is None:
            model = _TwoStateModel(plan, mu_center)
        p_left, _, p_xleft = model.fail_probs()
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
) -> BoundReport:
    """Evaluate the full bound suite over the default plan grid.

    Monte Carlo rounds run only on the eta sweep at the middle gap
    (``sorted(gaps)[len(gaps) // 2]``) with the loosest budget and m = 1,
    where a failure would be cheapest to see, so with ``mc`` true
    ``orders`` must hold 1. Every axis must be nonempty, ``mc_rounds``
    must lie in [1, ``estimation._MAX_ROUNDS``] (the rounds ``run_gsee``
    holds in 2 GiB) and every center in [-1/2, 1/2). Every two-state
    model the grid evaluates, the shadow's at center -1/4 included, must
    pass its plan's ``validate_for_plan``, which bounds the gaps near 1/3;
    a grid that fails is refused before any case is evaluated.
    """
    for name, axis in (
        ("etas", etas),
        ("deltas", deltas),
        ("gaps", gaps),
        ("orders", orders),
        ("mu_centers", mu_centers),
    ):
        if len(axis) == 0:
            raise ValueError(f"bound grid axis {name} is empty")
    if mc and 1 not in orders:
        raise ValueError(
            f"the Monte Carlo shadow runs at m = 1, but orders {tuple(orders)} "
            "has no 1; add 1 to orders or set mc to false"
        )
    if mc_rounds < 1:
        raise ValueError(f"mc_rounds must be at least 1, got {mc_rounds!r}")
    if mc_rounds > estimation._MAX_ROUNDS:
        raise ValueError(
            f"mc_rounds must be at most {estimation._MAX_ROUNDS}, got {mc_rounds!r}"
        )
    _check_mu_centers(mu_centers)
    plans = [
        plan_sampling_round(delta, eta, gap, m, eps_rel)
        for eta in etas
        for delta in deltas
        for gap in gaps
        for m in orders
    ]
    middle_gap = sorted(gaps)[len(gaps) // 2]
    shadow = [
        i
        for i, p in enumerate(plans)
        if mc and p.m == 1 and p.delta_input == max(deltas) and p.Delta_input == middle_gap
    ]
    # Refuse a model its plan does not accept before any case is evaluated.
    for plan in plans:
        for mu_center in mu_centers:
            _two_state_spectrum(plan, mu_center)
    for i in shadow:
        _two_state_spectrum(plans[i], _MC_CENTER)
    # The shadow reuses its plan's model at _MC_CENTER when the panel has it.
    cases: list[BoundCase] = []
    shadow_models = []
    for i, plan in enumerate(plans):
        models: dict[float, _TwoStateModel] = {}
        cases.extend(evaluate_plan_cases(plan, mu_centers, models))
        if i in shadow:
            shadow_models.append(models.get(_MC_CENTER))
    for k, (i, model) in enumerate(zip(shadow, shadow_models)):
        cases.append(_mc_case(plans[i], _MC_CENTER, mc_rounds, _MC_SEED + k, model))
    return BoundReport(cases=tuple(cases))
