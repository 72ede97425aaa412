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
halves until a ratio predicate holds, and its fixed point sits near
exp(-700), at the edge of (or beyond) float64 range, so a plan records
it only as ln(1/delta) and the number of halvings. Nothing else shrinks:
the working gap is the input gap.

The window-quality predicates (aliasing mass, tail mass, contamination
norm) are evaluated on the mpmath lattice series of ``gaussian``, the
same series the bound laboratory certifies with, at a fixed 53-bit
precision. Every predicate is checked once, and a failing one is refused
by name: a returned plan meets them all, so none is recorded in it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Any

import mpmath

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

# The round-budget fixed point needs ~1000 halvings; see module docstring.
_BUDGET_HALVING_CAP = 5000

_PREDICATE_CEILING = 0.125  # each window-quality predicate must sit below 1/8
# The window series run at float64's 53 bits whatever the caller's mpmath
# context, so a plan never depends on it.
_PREDICATE_PREC = 53


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
    ``delta``: ceil(b**2 / (2 * ((1-c) * epsilon)**2) * ln(2/delta)).
    Raises ``PlanInfeasible`` (``round_count``) past float64 range."""
    if not (b > 0.0 and epsilon > 0.0 and 0.0 <= c < 1.0 and 0.0 < delta < 1.0):
        raise ValueError(
            f"need b > 0, epsilon > 0, c in [0, 1), delta in (0, 1); "
            f"got b={b!r}, epsilon={epsilon!r}, c={c!r}, delta={delta!r}"
        )
    accuracy = (1.0 - c) * epsilon
    try:
        return math.ceil(b**2 / (2.0 * accuracy**2) * math.log(2.0 / delta))
    except (ZeroDivisionError, OverflowError):
        message = f"round count overflows at accuracy {accuracy:.3g}, delta {delta:.3g}"
        raise PlanInfeasible(message, "round_count") from None


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

    The working round budget is held only as ``log_inv_delta_work``,
    ln(1/delta): it sits near exp(-700) and may lie past float64 range.
    It is the input budget ``delta_input`` halved ``halvings`` times, by
    the ratio predicate L >= 4(1+3u), the only thing the planner shrinks;
    the round runs at the input gap ``Delta_input``. ``M0_nominal``
    applies the sample count formula at the input budget, which is what
    closed-form cost statements quote. A returned plan meets every
    feasibility predicate: the planner refuses a failing one by name.
    """

    m: int
    eta: float
    eps_rel_target: float
    Delta_input: float
    delta_input: float
    log_inv_delta_work: float
    halvings: int
    M0: int
    M0_nominal: int
    sigma_tilde: float
    q: int
    K: int
    dark_bins: int
    C_eta: float
    u_value: float
    L_value: float
    q_lower_bound: float

    @property
    def n_bins(self) -> int:
        return 1 << self.q

    @property
    def sigma_bins(self) -> float:
        return self.sigma_tilde * self.n_bins

    @property
    def two_K(self) -> int:
        return 2 * self.K

    def to_dict(self) -> dict[str, Any]:
        return {
            **_field_values(self),
            "sigma_bins": self.sigma_bins,
            "n_bins": self.n_bins,
        }


@dataclass(frozen=True)
class GseePlan:
    """Round plan plus the Hoeffding averaging layer around it. The working
    gap and the per-round budget delta_fail / (4M) are the round plan's
    ``Delta_input`` and ``delta_input``; it meets every predicate. The
    Hoeffding support width that sized M is 4/3 of the working gap."""

    inputs: PlanInputs
    M: int
    round_plan: PlanParams

    @property
    def total_samples(self) -> int:
        return self.M * self.round_plan.M0

    def to_dict(self) -> dict[str, Any]:
        return {
            **_field_values(self.inputs),
            **_field_values(self, "inputs"),
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
        return _field_values(self)


def _check_register(q: int) -> None:
    """The window and its predicates need 2**q as a float64."""
    if q >= sys.float_info.max_exp:
        raise PlanInfeasible(f"register width q={q} past float64 range", "register_width")


def _window_width(q: int, Delta: float) -> int:
    """Largest odd window width at most floor((2/3) * 2**q * Delta)."""
    f = math.floor((2.0 / 3.0) * float(1 << q) * Delta)
    return f if f % 2 == 1 else f - 1


def _predicate_values(
    sigma_bins: float, q: int, K: int, Delta: float
) -> tuple[float, float, float]:
    """Window-quality quantities at the worst wrapped center.

    Returns (aliasing mass A, tail mass T, contamination norm R). The
    worst center for both tails and contamination is the interval
    boundary -1/2; the aliasing series is evaluated term-wise in absolute
    value, which dominates every center.
    """
    with mpmath.workprec(_PREDICATE_PREC):
        _, A = gaussian.dual_sums(0, -0.5, sigma_bins)
        T = gaussian.outside_moments(-0.5, sigma_bins, -K, K, 0)[0]
        R2 = gaussian.range_moments(-0.5 + Delta * float(1 << q), sigma_bins, -K, K, 0)[0]
        return float(A), float(T), float(mpmath.sqrt(R2))


def plan_sampling_round(
    delta: float, eta: float, Delta: float, m: int, eps_rel: float
) -> PlanParams:
    """Size one sampling round.

    Parameters
    ----------
    delta : float
        Per-round failure budget, in (0, 0.01].
    eta : float
        Ground-overlap floor, in (0, 1].
    Delta : float
        Working gap, in turns; the plan keeps it.
    m : int
        Controlled moment order, 1 to 4.
    eps_rel : float
        Relative moment accuracy target (turns**m units).

    One pass: the budget halves (in log space) until the headroom ratio
    predicate holds, and every other predicate is checked once, at the
    sized window. Raises ``PlanInfeasible`` naming the predicate that
    fails: ``delta_ratio`` past the halving cap, ``register_width`` when
    2**q would pass float64 range or sigma_tilde underflows to 0,
    ``round_count`` when M0 would (a subnormal eta), or ``window_width``
    or one of the ten predicates checked at the sized window (no valid
    input fails those last two).
    """
    if not (0.0 < delta <= 0.01):
        raise ValueError(f"round budget delta must lie in (0, 0.01], got {delta!r}")
    _check_eta(eta)
    if not (0.0 < Delta < 1.0):
        raise ValueError(f"Delta must lie in (0, 1), got {Delta!r}")
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
        count = (16.0 / (3.0 * eta)) * (math.log(3.0) + log_inv_delta)
        if count == math.inf:
            raise PlanInfeasible(f"per-round sample count overflows at eta {eta:.3g}", "round_count")
        return math.ceil(count)

    def derived(log_inv_delta: float):
        M0 = m0_of(log_inv_delta)
        L = math.log(4.0 * M0) + log_inv_delta + eta_log
        sigma_tilde = (Delta / 6.0) / math.sqrt(2.0 * L) / math.sqrt(m)
        if not sigma_tilde > 0.0:
            raise PlanInfeasible("window width sigma_tilde underflows float64", "register_width")
        u = (
            math.log(m)
            - math.log(4.0 * math.pi**2)
            - 1.0
            - 2.0 * math.log(sigma_tilde)
            + moment_log
        )
        pre_q = (3.0 * m / (math.pi * Delta)) * math.sqrt(1.0 + 3.0 * u) * math.sqrt(2.0 * L)
        if pre_q == math.inf:
            raise PlanInfeasible("register span overflows float64", "register_width")
        q = max(1, math.ceil(math.log2(pre_q)))
        return M0, L, sigma_tilde, u, q

    # Shrink the round budget until L >= 4 * (1 + 3u). A register already
    # past float64 range is refused first: halving only widens it.
    log_inv_delta = log_inv_delta0
    M0, L, sigma_tilde, u, q = derived(log_inv_delta)
    _check_register(q)
    halvings = 0
    while L < 4.0 * (1.0 + 3.0 * u):
        if halvings >= _BUDGET_HALVING_CAP:
            raise PlanInfeasible(
                f"ratio predicate unmet after {_BUDGET_HALVING_CAP} budget halvings",
                "delta_ratio",
            )
        log_inv_delta += math.log(2.0)
        halvings += 1
        M0, L, sigma_tilde, u, q = derived(log_inv_delta)
    _check_register(q)

    # The other predicates, once, at the sized window.
    width = _window_width(q, Delta)
    if width < 3:
        raise PlanInfeasible(f"window width {width} below 3 bins at q={q}", "window_width")
    K = (width - 1) // 2
    n_bins = float(1 << q)
    sigma_bins = sigma_tilde * n_bins
    A, T, R = _predicate_values(sigma_bins, q, K, Delta)
    q_lower = (math.sqrt(m) / (2.0 * math.pi * sigma_tilde)) * math.sqrt(1.0 + 3.0 * u)
    # Every predicate but delta_ratio, which the halving loop's exit holds,
    # in the order a failing one is reported.
    predicates = {
        "aliasing_eighth": A <= _PREDICATE_CEILING,
        "tail_eighth": T <= _PREDICATE_CEILING,
        "contamination_eighth": R / math.sqrt(eta) <= _PREDICATE_CEILING,
        "u_floor": u > 1.0,
        "q_floor_delta_sixth": 1.0 / n_bins <= Delta / 6.0,
        "tail_regime": K >= 1 and sigma_bins <= K - 0.5,
        "contamination_regime": Delta * n_bins > K + 0.5,
        "sigma_gap": sigma_bins <= (Delta * n_bins / 3.0 - 1.5) / math.sqrt(2.0 * L),
        "sigma_quarter_root": sigma_bins
        <= 2.0 ** (-0.25) * math.sqrt((K - 0.5) / (2.0 * math.pi)),
        "q_meets_lower_bound": n_bins >= q_lower,
    }
    failing = next((name for name, ok in predicates.items() if not ok), None)
    if failing is not None:
        raise PlanInfeasible(f"predicate {failing} fails at q={q}, K={K}", failing)

    return PlanParams(
        m=m,
        eta=eta,
        eps_rel_target=eps_rel,
        Delta_input=Delta,
        delta_input=delta,
        log_inv_delta_work=log_inv_delta,
        halvings=halvings,
        M0=M0,
        M0_nominal=m0_of(log_inv_delta0),
        sigma_tilde=sigma_tilde,
        q=q,
        K=K,
        dark_bins=math.floor(Delta * n_bins / 3.0),
        C_eta=C,
        u_value=u,
        L_value=L,
        q_lower_bound=q_lower,
    )


def plan_gsee(inputs: PlanInputs) -> GseePlan:
    """Size the full estimation pipeline for the given inputs.

    The number of rounds M follows the Hoeffding count for a mean of
    bounded per-round estimates (support width 4*Delta/3, accuracy share
    (1 - c) * epsilon, budget delta/2), and each round runs at budget
    delta/(4M) with relative moment target c * epsilon. A budget delta/(4M)
    above 0.01, or underflowed to 0, is refused as ``round_budget``.
    """
    Delta = inputs.Delta_true ** (1.0 - inputs.alpha) * inputs.epsilon**inputs.alpha
    delta = inputs.delta_fail
    support_bound = 4.0 * Delta / 3.0
    M = hoeffding_sample_count(support_bound, inputs.epsilon, inputs.c, delta / 2.0)
    delta_tilde_1 = delta / (4.0 * M)
    if not delta_tilde_1 > 0.0:
        raise PlanInfeasible(f"per-round budget underflows float64 at M={M:.4g}", "round_budget")
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
        M=M,
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


def _field_values(record: Any, *skip: str) -> dict[str, Any]:
    """A dataclass's fields, shallow, in declaration order, less ``skip``."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


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
