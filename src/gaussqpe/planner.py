"""Query and sample planning for Gaussian-window phase estimation.

Three layers are planned here:

* ``plan_sampling_round`` sizes one sampling round: the ancilla register
  width q, the relative Gaussian width sigma_tilde, the window half-width
  K, and the per-round sample count M0, such that the conditional window
  moments of the outcome distribution track the continuous Gaussian
  moments to a requested relative accuracy and a round fails with
  probability at most the round budget delta.
* ``plan_gsee`` wraps that round plan in a Hoeffding mean estimate: M
  rounds at per-round budget delta/(4M), interpolating the working gap
  Delta between the true spectral gap and the target accuracy via the
  exponent alpha.
* ``plan_qpe_baseline`` sizes the textbook rectangular-window baseline
  (majority vote over repeated single-shot phase estimates) for cost
  comparisons.

All failure probabilities are tracked in log space: the round budget
shrinks geometrically until a ratio predicate holds, and its fixed point
sits near exp(-700), at the edge of (or beyond) float64 range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any

from . import gaussian

__all__ = [
    "DEFAULT_INTERP_COEFF",
    "QPE_VOTE_COEFF",
    "PlanInfeasible",
    "PlanInputs",
    "PlanParams",
    "GseePlan",
    "QpeBaseline",
    "compute_C_eta",
    "hoeffding_sample_count",
    "plan_sampling_round",
    "plan_gsee",
    "plan_qpe_baseline",
    "plan_to_text",
    "flatten_record",
]

# Default interpolation coefficient: splits the accuracy budget so the
# Hoeffding layer gets (1 - c) and the per-round moment bias gets c.
DEFAULT_INTERP_COEFF = 1.0 - 2.0 * math.sqrt(2.0) / 3.0

# Repetitions-per-vote coefficient of the rectangular baseline,
# 2 / (sqrt(2) - 1)**2.
QPE_VOTE_COEFF = 2.0 / (math.sqrt(2.0) - 1.0) ** 2

_GAP_SHRINK_FACTOR = 0.9
_GAP_SHRINK_CAP = 200
# The round-budget fixed point needs ~1000 halvings; see module docstring.
_BUDGET_HALVING_CAP = 5000
_REVALIDATION_CAP = 5

_PREDICATE_CEILING = 0.125  # each window-quality predicate must sit below 1/8


class PlanInfeasible(RuntimeError):
    """No feasible plan under the caps; ``predicate`` names the blocker."""

    def __init__(self, message: str, predicate: str) -> None:
        super().__init__(message)
        self.predicate = predicate


def compute_C_eta(eta: float) -> float:
    """Grouped moment-error constant as a function of the overlap floor.

    Monotonically decreasing in eta; the dominant exp(12) factor comes
    from bounding the relative center and width at their planner ceilings.
    """
    _check_eta(eta)
    e12 = math.exp(12.0)
    root = math.sqrt(1.0 / eta)
    return (
        (128.0 / 45.0) * e12 * (15.0 + 2.25 * root)
        + 10.0 * e12
        + (55.0 / 8.0) * math.exp(2.0) * (1.0 + math.sqrt(5.0 / 3.0) * root)
    )


def _check_real(value: float, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_eta(eta: float) -> None:
    _check_real(eta, "eta")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")


def _check_order(m: int) -> None:
    if isinstance(m, bool) or not (isinstance(m, int) and 1 <= m <= 4):
        raise ValueError(f"m must be an integer in [1, 4], got {m!r}")


def hoeffding_sample_count(b: float, epsilon: float, c: float, delta: float) -> int:
    """Samples needed so a mean of values with support width ``b`` lands
    within (1 - c) * epsilon of its expectation except with probability
    ``delta``: ceil(b**2 / (2 * ((1-c) * epsilon)**2) * ln(2/delta))."""
    if not (b > 0.0 and epsilon > 0.0 and 0.0 <= c < 1.0 and 0.0 < delta < 1.0):
        raise ValueError(
            f"need b > 0, epsilon > 0, c in [0, 1), delta in (0, 1); "
            f"got b={b!r}, epsilon={epsilon!r}, c={c!r}, delta={delta!r}"
        )
    accuracy = (1.0 - c) * epsilon
    return math.ceil(b**2 / (2.0 * accuracy**2) * math.log(2.0 / delta))


@dataclass(frozen=True)
class PlanInputs:
    """User-level inputs of the full estimation pipeline.

    Parameters
    ----------
    delta_fail : float
        Total failure budget, in (0, 1). The per-round budget derived
        from it must come out at or below 0.01.
    eta : float
        Lower bound on the ground-state overlap |gamma_0|**2, in (0, 1].
    Delta_true : float
        Lower bound on the spectral gap above the ground state, in turns.
    epsilon : float
        Target accuracy of the energy estimate, in turns; must be smaller
        than Delta_true or the gap interpolation is degenerate.
    alpha : float
        Interpolation exponent in [0, 1]: the working gap is
        Delta_true**(1 - alpha) * epsilon**alpha. alpha = 0 minimizes
        circuit depth, alpha = 1 minimizes the number of rounds.
    m : int
        Moment order the round plan must control, 1 to 4.
    c : float
        Accuracy split coefficient in (0, 1); see DEFAULT_INTERP_COEFF.
    """

    delta_fail: float
    eta: float
    Delta_true: float
    epsilon: float
    alpha: float = 0.0
    m: int = 1
    c: float = DEFAULT_INTERP_COEFF

    def __post_init__(self) -> None:
        for name in ("delta_fail", "eta", "Delta_true", "epsilon", "alpha", "c"):
            _check_real(getattr(self, name), name)
        if not (0.0 < self.delta_fail < 1.0):
            raise ValueError(f"delta_fail must lie in (0, 1), got {self.delta_fail!r}")
        _check_eta(self.eta)
        if not (0.0 < self.Delta_true < 1.0):
            raise ValueError(f"Delta_true must lie in (0, 1), got {self.Delta_true!r}")
        if not (0.0 < self.epsilon < self.Delta_true):
            raise ValueError(
                "epsilon must lie in (0, Delta_true), got "
                f"epsilon={self.epsilon!r}, Delta_true={self.Delta_true!r}"
            )
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        _check_order(self.m)
        if not (0.0 < self.c < 1.0):
            raise ValueError(f"c must lie in (0, 1), got {self.c!r}")


@dataclass(frozen=True)
class PlanParams:
    """Resolved parameters of one sampling round.

    ``delta_work`` is exp(-log_inv_delta_work) and may underflow to 0.0;
    the log field is authoritative. ``M0_nominal`` applies the sample
    count formula at the input budget before any shrinking, which is what
    closed-form cost statements quote. ``constraint_flags`` records every
    feasibility predicate re-evaluated at the final parameters.
    """

    m: int
    eta: float
    eps_rel_target: float
    Delta_input: float
    Delta_work: float
    delta_input: float
    log_inv_delta_work: float
    delta_work: float
    M0: int
    M0_nominal: int
    sigma_tilde: float
    q: int
    K: int
    two_K_plus_1: int
    dark_bins: int
    C_eta: float
    u_value: float
    L_value: float
    q_lower_bound: float
    register_query_bound: float
    constraint_flags: dict[str, bool] = field(compare=False)
    audit: tuple[str, ...] = field(compare=False, default=())

    @property
    def n_bins(self) -> int:
        return 1 << self.q

    @property
    def sigma_bins(self) -> float:
        return self.sigma_tilde * self.n_bins

    @property
    def two_K(self) -> int:
        return self.two_K_plus_1 - 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "eta": self.eta,
            "eps_rel_target": self.eps_rel_target,
            "Delta_input": self.Delta_input,
            "Delta_work": self.Delta_work,
            "delta_input": self.delta_input,
            "log_inv_delta_work": self.log_inv_delta_work,
            "delta_work": self.delta_work,
            "M0": self.M0,
            "M0_nominal": self.M0_nominal,
            "sigma_tilde": self.sigma_tilde,
            "sigma_bins": self.sigma_bins,
            "q": self.q,
            "n_bins": self.n_bins,
            "K": self.K,
            "two_K_plus_1": self.two_K_plus_1,
            "dark_bins": self.dark_bins,
            "C_eta": self.C_eta,
            "u_value": self.u_value,
            "L_value": self.L_value,
            "q_lower_bound": self.q_lower_bound,
            "register_query_bound": self.register_query_bound,
            "constraint_flags": dict(self.constraint_flags),
        }


@dataclass(frozen=True)
class GseePlan:
    """Round plan plus the Hoeffding averaging layer around it."""

    inputs: PlanInputs
    Delta_alpha: float
    M: int
    delta_tilde_1: float
    delta_2: float
    support_bound: float
    round_plan: PlanParams

    @property
    def total_samples(self) -> int:
        return self.M * self.round_plan.M0

    def to_dict(self) -> dict[str, Any]:
        return {
            "delta_fail": self.inputs.delta_fail,
            "eta": self.inputs.eta,
            "Delta_true": self.inputs.Delta_true,
            "epsilon": self.inputs.epsilon,
            "alpha": self.inputs.alpha,
            "m": self.inputs.m,
            "c": self.inputs.c,
            "Delta_alpha": self.Delta_alpha,
            "M": self.M,
            "delta_tilde_1": self.delta_tilde_1,
            "delta_2": self.delta_2,
            "support_bound": self.support_bound,
            "total_samples": self.total_samples,
            "round_plan": self.round_plan.to_dict(),
        }


@dataclass(frozen=True)
class QpeBaseline:
    """Rectangular-window baseline: register width and vote size."""

    epsilon: float
    delta: float
    q: int
    n_samples: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "q": self.q,
            "n_samples": self.n_samples,
        }


def _window_width(q: int, Delta: float) -> int:
    """Largest odd window width at most floor((2/3) * 2**q * Delta)."""
    f = math.floor((2.0 / 3.0) * float(1 << q) * Delta)
    return f if f % 2 == 1 else f - 1


def _predicate_values(
    sigma_bins: float, q: int, K: int, Delta: float
) -> tuple[float, float, float]:
    """Brute-force window-quality quantities at the worst wrapped center.

    Returns (aliasing mass A, tail mass T, contamination norm R). The
    worst center for both tails and contamination is the interval
    boundary -1/2; the aliasing series is evaluated term-wise in absolute
    value, which dominates every center.
    """
    params = gaussian.GaussianParams(sigma=sigma_bins, q=q, mu=-0.5)
    A = gaussian.aliasing_error(0, params).series_abs
    T = gaussian.tail_mass(params, K).exact_sum
    R2 = gaussian.window_mass(sigma_bins, K, -0.5 + Delta * float(1 << q))
    return A, T, math.sqrt(max(R2, 0.0))


def _window_predicates(
    A: float, T: float, R: float, u: float, eta: float
) -> dict[str, bool]:
    """Window-quality predicates, in the order a failing one is reported."""
    return {
        "aliasing_eighth": A <= _PREDICATE_CEILING,
        "tail_eighth": T <= _PREDICATE_CEILING,
        "contamination_eighth": R / math.sqrt(eta) <= _PREDICATE_CEILING,
        "u_floor": u > 1.0,
    }


def plan_sampling_round(
    delta: float, eta: float, Delta_max: float, m: int, eps_rel: float
) -> PlanParams:
    """Size one sampling round.

    Parameters
    ----------
    delta : float
        Per-round failure budget, in (0, 0.01].
    eta : float
        Ground-overlap floor, in (0, 1].
    Delta_max : float
        Largest admissible working gap, in turns.
    m : int
        Controlled moment order, 1 to 4.
    eps_rel : float
        Relative moment accuracy target (turns**m units).

    The working gap shrinks geometrically while any window-quality
    predicate fails, then the budget shrinks (in log space) until the
    headroom ratio predicate holds, re-validating the window predicates
    afterwards. Raises ``PlanInfeasible`` naming the first predicate that
    cannot be satisfied within the iteration caps.
    """
    if not (0.0 < delta <= 0.01):
        raise ValueError(f"round budget delta must lie in (0, 0.01], got {delta!r}")
    _check_eta(eta)
    if not (0.0 < Delta_max < 1.0):
        raise ValueError(f"Delta_max must lie in (0, 1), got {Delta_max!r}")
    _check_order(m)
    if not (0.0 < eps_rel < 1.0):
        raise ValueError(f"eps_rel must lie in (0, 1), got {eps_rel!r}")

    C = compute_C_eta(eta)
    # (2/m) * ln((m!)**2 * C / eps_rel), the eps-dependent part of u.
    moment_log = (2.0 / m) * (2.0 * math.lgamma(m + 1) + math.log(C) - math.log(eps_rel))
    eta_log = (
        2.0 * math.log1p(math.sqrt(5.0 / 3.0) * math.sqrt((1.0 - eta) / eta))
        if eta < 1.0
        else 0.0
    )
    log_inv_delta0 = -math.log(delta)

    def m0_of(log_inv_delta: float) -> int:
        return math.ceil((16.0 / (3.0 * eta)) * (math.log(3.0) + log_inv_delta))

    def derived(Delta: float, log_inv_delta: float):
        M0 = m0_of(log_inv_delta)
        L = math.log(4.0 * M0) + log_inv_delta + eta_log
        sigma_tilde = (Delta / 6.0) / math.sqrt(2.0 * L) / math.sqrt(m)
        u = (
            math.log(m)
            - math.log(4.0 * math.pi**2)
            - 1.0
            - 2.0 * math.log(sigma_tilde)
            + moment_log
        )
        pre_q = (3.0 * m / (math.pi * Delta)) * math.sqrt(1.0 + 3.0 * u) * math.sqrt(2.0 * L)
        q = max(1, math.ceil(math.log2(pre_q)))
        return M0, L, sigma_tilde, u, q

    def window_checks(Delta: float, sigma_tilde: float, u: float, q: int):
        width = _window_width(q, Delta)
        if width < 3:
            return "window_width", None
        K = (width - 1) // 2
        A, T, R = _predicate_values(sigma_tilde * float(1 << q), q, K, Delta)
        passed = _window_predicates(A, T, R, u, eta)
        failing = next((name for name, ok in passed.items() if not ok), None)
        return failing, (width, K, passed)

    Delta = Delta_max
    log_inv_delta = log_inv_delta0
    audit: list[str] = []
    state = None

    for _ in range(_REVALIDATION_CAP):
        # Stage 1: shrink the working gap until the window predicates hold.
        failing = None
        for _ in range(_GAP_SHRINK_CAP + 1):
            M0, L, sigma_tilde, u, q = derived(Delta, log_inv_delta)
            failing, extras = window_checks(Delta, sigma_tilde, u, q)
            if failing is None:
                break
            audit.append(f"shrink Delta {Delta:.6g} -> {Delta * _GAP_SHRINK_FACTOR:.6g} ({failing})")
            Delta *= _GAP_SHRINK_FACTOR
        if failing is not None:
            raise PlanInfeasible(
                f"predicate {failing} still failing after {_GAP_SHRINK_CAP} gap shrinks",
                failing,
            )

        # Stage 2: shrink the round budget until L >= 4 * (1 + 3u).
        halvings = 0
        while L < 4.0 * (1.0 + 3.0 * u):
            if halvings >= _BUDGET_HALVING_CAP:
                raise PlanInfeasible(
                    f"ratio predicate unmet after {_BUDGET_HALVING_CAP} budget halvings",
                    "delta_ratio",
                )
            log_inv_delta += math.log(2.0)
            halvings += 1
            M0, L, sigma_tilde, u, q = derived(Delta, log_inv_delta)
        if halvings:
            audit.append(f"halved round budget {halvings} times (ratio predicate)")

        # Stage 3: the budget shrink moved sigma_tilde and q; re-validate.
        failing, extras = window_checks(Delta, sigma_tilde, u, q)
        if failing is None:
            state = (M0, L, sigma_tilde, u, q, extras)
            break
        audit.append(f"revalidation failed ({failing}); restarting gap shrink")
        Delta *= _GAP_SHRINK_FACTOR
    if state is None:
        raise PlanInfeasible(
            f"no fixed point after {_REVALIDATION_CAP} revalidation passes",
            failing or "revalidation",
        )

    M0, L, sigma_tilde, u, q, (width, K, window_flags) = state
    n_bins = float(1 << q)
    sigma_bins = sigma_tilde * n_bins
    ratio_ok = L >= 4.0 * (1.0 + 3.0 * u)
    q_lower = (math.sqrt(m) / (2.0 * math.pi * sigma_tilde)) * math.sqrt(1.0 + 3.0 * u)
    query_bound = (6.0 * math.sqrt(2.0) * m / (math.pi * Delta)) * math.sqrt(
        (1.0 + 3.0 * u) * L
    )
    flags = {
        **window_flags,
        "delta_ratio": ratio_ok,
        "q_floor_delta_sixth": 1.0 / n_bins <= Delta / 6.0,
        "tail_regime": K >= 1 and sigma_bins <= K - 0.5,
        "contamination_regime": Delta * n_bins > K + 0.5,
        "sigma_gap": sigma_bins
        <= (Delta * n_bins / 3.0 - 1.5) / math.sqrt(2.0 * L),
        "sigma_quarter_root": sigma_bins
        <= 2.0 ** (-0.25) * math.sqrt((K - 0.5) / (2.0 * math.pi)),
        "q_meets_lower_bound": n_bins >= q_lower,
    }
    log_delta = -log_inv_delta
    return PlanParams(
        m=m,
        eta=eta,
        eps_rel_target=eps_rel,
        Delta_input=Delta_max,
        Delta_work=Delta,
        delta_input=delta,
        log_inv_delta_work=log_inv_delta,
        delta_work=math.exp(log_delta) if log_delta > -745.0 else 0.0,
        M0=M0,
        M0_nominal=m0_of(log_inv_delta0),
        sigma_tilde=sigma_tilde,
        q=q,
        K=K,
        two_K_plus_1=width,
        dark_bins=math.floor(Delta * n_bins / 3.0),
        C_eta=C,
        u_value=u,
        L_value=L,
        q_lower_bound=q_lower,
        register_query_bound=query_bound,
        constraint_flags=flags,
        audit=tuple(audit),
    )


def plan_gsee(inputs: PlanInputs) -> GseePlan:
    """Size the full estimation pipeline for the given inputs.

    The number of rounds M follows the Hoeffding count for a mean of
    bounded per-round estimates (support width 4*Delta/3, accuracy share
    (1 - c) * epsilon, budget delta/2), and each round runs at budget
    delta/(4M) with relative moment target c * epsilon.
    """
    Delta = inputs.Delta_true ** (1.0 - inputs.alpha) * inputs.epsilon**inputs.alpha
    delta = inputs.delta_fail
    support_bound = 4.0 * Delta / 3.0
    M = hoeffding_sample_count(support_bound, inputs.epsilon, inputs.c, delta / 2.0)
    delta_tilde_1 = delta / (4.0 * M)
    if delta_tilde_1 > 0.01:
        raise PlanInfeasible(
            f"per-round budget {delta_tilde_1:.4g} exceeds 0.01; lower delta_fail",
            "round_budget",
        )
    round_plan = plan_sampling_round(
        delta_tilde_1, inputs.eta, Delta, inputs.m, inputs.c * inputs.epsilon
    )
    return GseePlan(
        inputs=inputs,
        Delta_alpha=Delta,
        M=M,
        delta_tilde_1=delta_tilde_1,
        delta_2=delta / 2.0,
        support_bound=support_bound,
        round_plan=round_plan,
    )


def plan_qpe_baseline(epsilon: float, delta: float) -> QpeBaseline:
    """Size the rectangular-window majority-vote baseline.

    q = ceil(log2(1/epsilon)) register qubits and
    n = ceil(QPE_VOTE_COEFF * ln(1/delta)) repetitions.
    """
    if not (0.0 < epsilon <= 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    q = max(1, math.ceil(math.log2(1.0 / epsilon)))
    n = max(1, math.ceil(QPE_VOTE_COEFF * math.log(1.0 / delta)))
    return QpeBaseline(epsilon=epsilon, delta=delta, q=q, n_samples=n)


def flatten_record(record: dict[str, Any]) -> dict[str, Any]:
    """Nested record as one level of dotted keys, sorted at every level."""
    out: dict[str, Any] = {}
    for key in sorted(record):
        value = record[key]
        if isinstance(value, dict):
            for name, leaf in flatten_record(value).items():
                out[f"{key}.{name}"] = leaf
        else:
            out[key] = value
    return out


def plan_to_text(plan: PlanParams | GseePlan | QpeBaseline) -> str:
    """Flat ``key = value`` rendering of a plan record."""
    lines = [
        f"{name} = {value!r}" if isinstance(value, float) else f"{name} = {value}"
        for name, value in flatten_record(plan.to_dict()).items()
    ]
    return "\n".join(lines) + "\n"
