"""Estimators that consume sampled register outcomes.

A sampling round draws M0 outcomes, wraps them to signed residues, and
keeps the basket of samples within 2K bins of the leftmost residue seen.
The basket mean is the round's estimate; rounds are averaged by an outer
Hoeffding layer sized for that mean, so ``run_gsee`` runs only plans of
moment order m = 1. The leftmost anchor rule is what makes the round
robust to excited-state mass: any contaminant sits at least a working
gap to the right of the ground bin, so a basket anchored on the left
edge never reaches it.

``run_gsee`` never draws the M0 outcomes. The round mean reads four
numbers only: the anchor a, the basket count and sum, and the dark count
(draws in the ``dark_bins`` just right of the window). ``_draw_rounds``
samples them exactly, in residue order, with C(r) the mass at residues
<= r:

1. The anchor is the minimum of M0 draws: P(a >= r) = (1 - C(r-1))**M0,
   inverted with one search of the CDF.
2. Given a, every draw lies at a residue >= a and at least one lies on
   a, so the anchor bin's count is Bin(M0, p_a / (1 - C(a-1))) given
   >= 1. It is drawn as the index J of the first hit (a geometric
   truncated at M0) plus Bin(M0 - J, p_a / (1 - C(a-1))) for the rest.
3. The other draws are independent on the residues > a, with
   probabilities p_r / (1 - C(a)); one multinomial over the window and
   dark bins, plus a remainder cell, gives their counts (the
   conditional-binomial method; Devroye, Non-Uniform Random Variate
   Generation, 1986). Residues past the seam at +2**(q-1) do not exist,
   so their cells are empty. These probabilities depend on a alone, so
   all the rounds with one anchor share one cell vector: the remainder
   cell first, then the walked bins with nonzero mass in residue order.
   numpy's multinomial stops once every draw is placed, so a round walks
   the remainder and the live bins up to its rightmost draw.

The cost is O(M * cells walked) plus O(2K + dark_bins) per distinct
anchor, instead of O(M * M0): on the acceptance plan a round walks a
median of 21 of the 211 live cells, and a run's 830 rounds share about
6 anchors. Rounds are drawn in chunks of ``_ROUND_CHUNK``, and the chunk
fixes the order in which a run consumes its Philox generator: results
are deterministic in (plan, distribution, seed), and changing the chunk
changes the bytes of every run longer than one chunk. The bound lab's
Monte Carlo shadow runs ``_draw_rounds`` too, so rounds are simulated in
this one place. ``basket_from_outcomes`` and ``run_sampling_round``
still window raw outcomes, as the tests' oracle for the law of
``_draw_rounds``; the baseline draws raw outcomes from ``SampleStream``.

The rectangular-window majority-vote baseline lives here too, sized by
``planner.plan_qpe_baseline``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planner import GseePlan, PlanParams, QpeBaseline
from .simulator import (
    _MAX_DISTRIBUTION_BYTES,
    OutcomeDistribution,
    SampleStream,
    SpectrumSpec,
    distribution_from_window,
    rectangular_window,
)

__all__ = [
    "Basket",
    "EnergyEstimate",
    "QpeEstimate",
    "RoundBudgetTooLarge",
    "basket_from_outcomes",
    "run_sampling_round",
    "run_gsee",
    "run_qpe_baseline",
]

_OVERLAP_ONE_TOL = 1e-12
# Rounds per chunk of the round sampler. The chunk fixes the order in
# which a run consumes its generator, so changing it changes the bytes of
# every run longer than one chunk. It bounds the per-round temporaries of
# a chunk at 512 kB each.
_ROUND_CHUNK = 1 << 16
# Rounds per Generator.multinomial call. numpy draws a call's rows one
# after another, so this bounds the (rounds, live cells) output of an
# anchor with many rounds without changing a byte.
_MULTINOMIAL_ROWS = 64
# Bytes held per round by run_gsee: the four int64 statistics of
# _draw_rounds and the float64 round means. Rounds are capped so that
# these stay within the limit mixed_distribution puts on a distribution;
# the sampler's other temporaries are bounded by _ROUND_CHUNK, not by M.
_ROUND_BYTES = 5 * 8
_MAX_ROUNDS = _MAX_DISTRIBUTION_BYTES // _ROUND_BYTES


class RoundBudgetTooLarge(ValueError):
    """The plan has too many rounds to hold their per-round arrays in memory."""


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
    anchor = int(residues.min())
    edge = anchor + plan.two_K
    mask = residues <= edge
    return Basket(
        anchor=anchor,
        members=residues[mask],
        round_samples=int(residues.size),
        # Samples in the dark_bins-wide segment just right of the window,
        # a diagnostic for mass that a correctly sized plan keeps empty.
        n_dark=int(np.count_nonzero(~mask & (residues <= edge + plan.dark_bins))),
    )


def run_sampling_round(stream: SampleStream, plan: PlanParams) -> Basket:
    """Draw one round of M0 outcomes and window them."""
    return basket_from_outcomes(stream.draw(plan.M0), plan)


def _draw_rounds(
    rng: np.random.Generator,
    dist: OutcomeDistribution,
    rounds: int,
    M0: int,
    two_K: int,
    dark_bins: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw the sufficient statistics of ``rounds`` rounds of ``M0`` draws.

    Returns int64 arrays of per-round anchors, basket counts, basket sums
    and dark counts, with the joint law of windowing M0 independent draws
    from ``dist`` (see the module docstring). Rounds are drawn in chunks
    of ``_ROUND_CHUNK``; each chunk takes its anchor uniforms, its
    first-hit uniforms and its binomials from ``rng`` in that order, then
    the multinomials of its rounds, anchor by anchor in ascending order
    and each anchor's rounds in round order.
    """
    cdf, mixed = dist.cdf, dist.mixed
    n_bins = dist.n_bins
    half = n_bins >> 1
    # Residue order runs through bins half+1..N-1, then 0..half; C(r) is
    # the mass at residues <= r. Negative residues carry 1 - cdf[half].
    c_half = float(cdf[half])
    neg_mass = 1.0 - c_half
    # Clamps for a threshold that rounds past the last bin with mass in
    # either half; both bins carry mass whenever their branch is taken.
    last_pos = int(np.searchsorted(cdf, c_half, side="left"))
    last_neg = int(np.searchsorted(cdf, 1.0, side="left"))
    offsets = np.arange(1, two_K + dark_bins + 1, dtype=np.int64)

    anchors = np.empty(rounds, dtype=np.int64)
    counts = np.empty(rounds, dtype=np.int64)
    sums = np.empty(rounds, dtype=np.int64)
    darks = np.empty(rounds, dtype=np.int64)
    for start in range(0, rounds, _ROUND_CHUNK):
        rows = min(_ROUND_CHUNK, rounds - start)

        # Anchor: P(min <= r) = 1 - (1 - C(r))**M0 exceeds u exactly when
        # C(r) exceeds t, so the anchor is the first residue with C(r) > t.
        t = -np.expm1(np.log1p(-rng.random(rows)) / M0)
        left = t < neg_mass
        bins = np.searchsorted(cdf, np.where(left, c_half + t, t - neg_mass), side="right")
        bins = np.minimum(bins, np.where(left, last_neg, last_pos))
        a = _residues(bins, dist.q)
        # Mass strictly right of the anchor, 1 - C(a).
        above = np.where(left, (1.0 - cdf[bins]) + c_half, c_half - cdf[bins])
        p_anchor = mixed[bins]
        pi = p_anchor / (p_anchor + above)

        # Anchor-bin count: Bin(M0, pi) given >= 1, as the index J of the
        # first hit (a geometric truncated at M0) plus the hits after it.
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-pi)  # -inf for a bin holding all the mass left
        hit = -np.expm1(M0 * log_miss)
        first = np.ceil(np.log1p(-rng.random(rows) * hit) / log_miss)
        k = 1 + rng.binomial(M0 - np.clip(first, 1, M0).astype(np.int64), pi)

        # The other M0 - k draws fall right of the anchor with probabilities
        # mixed / (1 - C(a)), which depend on the anchor alone: one cell
        # vector serves all the rounds with that anchor.
        order = np.argsort(a, kind="stable")
        distinct, firsts = np.unique(a[order], return_index=True)
        ends = np.append(firsts[1:], rows)
        for anchor, lo, hi in zip(distinct.tolist(), firsts.tolist(), ends.tolist()):
            rest = above[order[lo]]
            # Residues past the seam at +N/2 do not exist; their bins wrap
            # to residues left of the anchor and are masked.
            residues = anchor + offsets
            p = np.zeros(offsets.size)
            np.divide(
                mixed[residues & (n_bins - 1)],
                rest,
                out=p,
                where=(residues <= half) & (rest > 0.0),
            )
            # Rounding can push the total past 1 when little mass is left.
            total = p.sum()
            if total > 1.0:
                p /= total
            # The remainder cell, the draws past the dark segment, comes
            # first, so that the walk stops once the draws near the anchor
            # are placed; a remainder of 0 draws nothing from the stream.
            # Bins of exactly 0 are dropped: they would hold no draw.
            # numpy gives the last cell what the others leave, so that
            # cell is a live bin, or the remainder when no bin is live.
            live = np.flatnonzero(p)
            cells = np.concatenate(([1.0 - min(total, 1.0)], p[live]))
            n_window = int(np.count_nonzero(live < two_K))
            window_offsets = offsets[live[:n_window]]
            for sub in range(lo, hi, _MULTINOMIAL_ROWS):
                batch = order[sub : min(sub + _MULTINOMIAL_ROWS, hi)]
                walk = rng.multinomial(M0 - k[batch], cells)
                window = walk[:, 1 : 1 + n_window]
                count = k[batch] + window.sum(axis=1)
                at = batch + start
                counts[at] = count
                sums[at] = anchor * count + window @ window_offsets
                darks[at] = walk[:, 1 + n_window :].sum(axis=1)
        anchors[start : start + rows] = a
    return anchors, counts, sums, darks


def run_gsee(
    plan: GseePlan,
    dist: OutcomeDistribution,
    seed: int | np.random.SeedSequence,
) -> EnergyEstimate:
    """Run the full pipeline on ``dist``, the register distribution of
    ``plan`` (see ``simulator.mixed_distribution``): M rounds of M0
    draws, basket mean each round, grand mean over rounds.

    Each round's anchor, basket count, basket sum and dark count are
    drawn directly (``_draw_rounds``) from a Philox generator seeded by
    ``seed``, so results depend on (plan, dist, seed) and
    ``_ROUND_CHUNK`` only. ``n_left`` counts rounds whose anchor fell
    more than K bins left of the median anchor, the signature of a
    left-outlier round. Raises ``ValueError`` unless the round is sized
    for the basket mean (moment order m = 1), the estimate the Hoeffding
    layer covers, and ``RoundBudgetTooLarge`` before allocating when the
    plan's M rounds would hold more than 2 GiB of per-round arrays
    (40 bytes a round).
    """
    round_plan = plan.round_plan
    if round_plan.m != 1:
        raise ValueError(
            f"run_gsee estimates the basket mean; a round planned for moment "
            f"order m={round_plan.m} is not covered by its guarantee"
        )
    if dist.q != round_plan.q:
        raise ValueError(
            f"distribution is on 2**{dist.q} bins but the plan's register "
            f"has 2**{round_plan.q}; build it with mixed_distribution(spec, plan)"
        )
    M, M0 = plan.M, round_plan.M0
    if M > _MAX_ROUNDS:
        raise RoundBudgetTooLarge(
            f"{M} rounds need {M * _ROUND_BYTES} bytes of per-round arrays, "
            f"above the {_MAX_DISTRIBUTION_BYTES}-byte limit"
        )
    anchors, counts, sums, darks = _draw_rounds(
        np.random.Generator(np.random.Philox(seed)),
        dist,
        M,
        M0,
        round_plan.two_K,
        round_plan.dark_bins,
    )
    means = sums / counts
    n_dark = int(darks.sum())

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
            "basket_fraction": int(counts.sum()) / total_draws,
            "dark_fraction": n_dark / total_draws,
        },
    )


def run_qpe_baseline(
    spec: SpectrumSpec,
    baseline: QpeBaseline,
    seed: int | np.random.SeedSequence,
) -> QpeEstimate:
    """Majority vote over repeated rectangular-window estimates, sized by
    ``baseline`` (see ``planner.plan_qpe_baseline``).

    Only supports an initial state that is the ground eigenstate; the
    vote has no defense against excited-state contamination.
    """
    if spec.ground_overlap_sq < 1.0 - _OVERLAP_ONE_TOL:
        raise ValueError(
            "baseline requires the initial state to be the ground eigenstate; "
            f"got squared overlap {spec.ground_overlap_sq!r}"
        )
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
