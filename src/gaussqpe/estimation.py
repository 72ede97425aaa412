"""Estimators that consume sampled register outcomes.

A sampling round draws M0 outcomes, wraps them to signed residues, and
keeps the basket of samples within 2K bins of the leftmost residue seen.
The basket mean (or a higher moment of the basket) is the round's
estimate; rounds are averaged by an outer Hoeffding layer. The leftmost
anchor rule is what makes the round robust to excited-state mass: any
contaminant sits at least a working gap to the right of the ground bin,
so a basket anchored on the left edge never reaches it.

The rectangular-window majority-vote baseline lives here too, sized by
``planner.plan_qpe_baseline``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planner import (
    GseePlan,
    PlanInputs,
    PlanParams,
    QpeBaseline,
    _check_order,
    plan_gsee,
    plan_qpe_baseline,
)
from .simulator import (
    OutcomeDistribution,
    SampleStream,
    SpectrumSpec,
    distribution_from_window,
    mixed_distribution,
    rectangular_window,
)

__all__ = [
    "Basket",
    "MomentSample",
    "EnergyEstimate",
    "QpeEstimate",
    "basket_from_outcomes",
    "run_sampling_round",
    "moment_from_basket",
    "run_gsee",
    "run_qpe_baseline",
]

_OVERLAP_ONE_TOL = 1e-12
# Draws per vectorized batch; keeps peak memory near 8 MB of int64.
_BATCH_DRAWS = 1 << 20


@dataclass(frozen=True, eq=False)
class Basket:
    """One round's windowed samples, in signed bin residues."""

    anchor: int
    members: np.ndarray
    round_samples: int
    n_dark: int

    @property
    def size(self) -> int:
        return int(self.members.size)


@dataclass(frozen=True)
class MomentSample:
    """Basket moment in raw bin units and in relative (turns**m) units."""

    m: int
    value_bins: float
    value_rel: float


@dataclass(frozen=True, eq=False)
class EnergyEstimate:
    """Mean of per-round basket means, reported in turns."""

    mu_hat: float
    per_round_means: np.ndarray
    M_used: int
    q: int
    n_dark: int
    n_left: int
    diagnostics: dict[str, float]


@dataclass(frozen=True)
class QpeEstimate:
    """Majority-vote result of the rectangular baseline, in turns."""

    theta_hat: float
    mode_residue: int
    q: int
    n_samples: int


def _residues(outcomes: np.ndarray, q: int) -> np.ndarray:
    """Signed int64 residues of register outcomes on the 2**q lattice.

    ``outcomes`` must be integers in [0, 2**q). The result equals
    ``gaussian.wrap_mod(outcomes, 0, q)``: bins above 2**(q-1) wrap down
    by 2**q, and the tie bin 2**(q-1) stays at +2**(q-1).
    """
    return outcomes - (1 << q) * (outcomes > (1 << (q - 1)))


def _window_rounds(residues: np.ndarray, two_K: int, dark_bins: int):
    """Window each row of a (rows, M0) residue block on its leftmost residue.

    Returns the per-row anchors, the basket mask, basket counts and sums,
    and the total dark count: samples in the ``dark_bins``-wide segment
    just right of the window, a diagnostic for mass that a correctly
    sized plan keeps empty.
    """
    anchors = residues.min(axis=1)
    edge = (anchors + two_K)[:, np.newaxis]
    mask = residues <= edge
    counts = mask.sum(axis=1)
    sums = np.where(mask, residues, 0).sum(axis=1)
    n_dark = int(np.count_nonzero(~mask & (residues <= edge + dark_bins)))
    return anchors, mask, counts, sums, n_dark


def basket_from_outcomes(outcomes: np.ndarray, plan: PlanParams) -> Basket:
    """Wrap raw register outcomes and anchor the window on the leftmost
    residue. Outcomes must be integers in [0, 2**q)."""
    outcomes = np.asarray(outcomes)
    if outcomes.ndim != 1 or outcomes.size == 0:
        raise ValueError("outcomes must be a nonempty 1-d array")
    if not np.issubdtype(outcomes.dtype, np.integer):
        raise ValueError(f"outcomes must be integers, got dtype {outcomes.dtype}")
    if outcomes.min() < 0 or outcomes.max() >= plan.n_bins:
        raise ValueError(f"outcomes must lie in [0, {plan.n_bins})")
    outcomes = outcomes.astype(np.int64, copy=False)
    residues = _residues(outcomes, plan.q)
    anchors, mask, _, _, n_dark = _window_rounds(
        residues[np.newaxis, :], plan.two_K, plan.dark_bins
    )
    return Basket(
        anchor=int(anchors[0]),
        members=residues[mask[0]],
        round_samples=int(residues.size),
        n_dark=n_dark,
    )


def run_sampling_round(stream: SampleStream, plan: PlanParams) -> Basket:
    """Draw one round of M0 outcomes and window them."""
    return basket_from_outcomes(stream.draw(plan.M0), plan)


def moment_from_basket(
    basket: Basket, plan: PlanParams, m: int | None = None
) -> MomentSample:
    """Basket moment of order ``m`` (default: the plan's order)."""
    if m is None:
        m = plan.m
    _check_order(m)
    values = basket.members.astype(np.float64)
    value_bins = float(np.mean(values**m))
    return MomentSample(
        m=m,
        value_bins=value_bins,
        value_rel=value_bins / float(plan.n_bins) ** m,
    )


def run_gsee(
    spec: SpectrumSpec,
    inputs: PlanInputs | None,
    seed: int | np.random.SeedSequence,
    plan: GseePlan | None = None,
    dist: OutcomeDistribution | None = None,
) -> EnergyEstimate:
    """Run the full pipeline: M rounds of M0 draws, basket mean each
    round, grand mean over rounds.

    Rounds are consecutive M0-sized blocks of a single sample stream, so
    results are bit-identical however the draws are batched internally.
    ``n_left`` counts rounds whose anchor fell more than K bins left of
    the median anchor, the signature of a left-outlier round.
    """
    if plan is None:
        if inputs is None:
            raise ValueError("either inputs or a precomputed plan is required")
        plan = plan_gsee(inputs)
    round_plan = plan.round_plan
    if dist is None:
        dist = mixed_distribution(spec, plan)
    stream = SampleStream(dist, seed)

    M, M0 = plan.M, round_plan.M0
    rows_per_batch = max(1, _BATCH_DRAWS // M0)
    means = np.empty(M, dtype=np.float64)
    anchors = np.empty(M, dtype=np.int64)
    n_dark = 0
    basket_total = 0
    done = 0
    while done < M:
        rows = min(rows_per_batch, M - done)
        residues = _residues(stream.draw(rows * M0), round_plan.q).reshape(rows, M0)
        batch_anchors, _, counts, sums, batch_dark = _window_rounds(
            residues, round_plan.two_K, round_plan.dark_bins
        )
        means[done : done + rows] = sums / counts
        anchors[done : done + rows] = batch_anchors
        n_dark += batch_dark
        basket_total += int(counts.sum())
        done += rows

    median_anchor = float(np.median(anchors))
    n_left = int(np.count_nonzero(anchors < median_anchor - round_plan.K))
    total_draws = M * M0
    mu_hat = float(np.mean(means)) / float(round_plan.n_bins)
    means.flags.writeable = False
    return EnergyEstimate(
        mu_hat=mu_hat,
        per_round_means=means,
        M_used=M,
        q=round_plan.q,
        n_dark=n_dark,
        n_left=n_left,
        diagnostics={
            "median_anchor": median_anchor,
            "basket_fraction": basket_total / total_draws,
            "dark_fraction": n_dark / total_draws,
        },
    )


def run_qpe_baseline(
    spec: SpectrumSpec,
    epsilon: float,
    delta: float,
    seed: int | np.random.SeedSequence,
    baseline: QpeBaseline | None = None,
) -> QpeEstimate:
    """Majority vote over repeated rectangular-window estimates.

    Only supports an initial state that is the ground eigenstate; the
    vote has no defense against excited-state contamination.
    """
    if spec.ground_overlap_sq < 1.0 - _OVERLAP_ONE_TOL:
        raise ValueError(
            "baseline requires the initial state to be the ground eigenstate; "
            f"got squared overlap {spec.ground_overlap_sq!r}"
        )
    if baseline is None:
        baseline = plan_qpe_baseline(epsilon, delta)
    window = rectangular_window(baseline.q)
    probs = distribution_from_window(window, spec.ground_phase)
    stream = SampleStream(probs, seed)
    residues = _residues(stream.draw(baseline.n_samples), baseline.q)
    values, counts = np.unique(residues, return_counts=True)
    # np.unique sorts ascending and argmax takes the first maximum, so
    # vote ties resolve toward the lower residue.
    mode = int(values[np.argmax(counts)])
    return QpeEstimate(
        theta_hat=mode / float(1 << baseline.q),
        mode_residue=mode,
        q=baseline.q,
        n_samples=baseline.n_samples,
    )
