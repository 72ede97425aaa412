"""Outcome distributions for windowed phase estimation.

The measured register holds q qubits, so outcomes live on the N = 2**q
bins z = 0..N-1. For an eigenphase theta (in turns, inside (-1/2, 1/2))
and a real window a_t on t = 0..N-1, the outcome probability is

    P(z) = | (1/sqrt(N)) * sum_t a_t * exp(2*pi*i*t*(theta - z/N)) |**2,

computed here in one FFT per eigenphase. Mixed initial states are
handled classically: the register distribution is the overlap-weighted
sum of the per-eigenstate distributions.

Everything in this module is float64, so the probabilities are accurate
in absolute terms only: each bin is off by at most about 1e-16 times the
peak probability. Far tails are not resolved; there the computed values
sit on a rounding floor near 1e-31 where the analytic tail is near 1e-91.

Sampling inverts the CDF of uniforms from a counter-based generator, so
identical seeds reproduce identical byte streams regardless of draw
batching. The inversion is a guide table (Chen & Asau 1974; Devroye 1986,
section III.2): the unit interval is cut into 2**16 equal buckets, and a
bucket whose two edges fall into the same bin maps straight to it; only
uniforms in the few buckets that straddle a CDF step are searched. Every
draw is bit-identical to ``np.searchsorted(cdf, u, side="right")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import gaussian
from .planner import GseePlan, PlanParams

__all__ = [
    "SpectrumSpec",
    "SpectrumPlanMismatch",
    "DistributionTooLarge",
    "DenseHamiltonian",
    "eigendecompose",
    "gaussian_window",
    "rectangular_window",
    "distribution_from_window",
    "eigenstate_distribution",
    "mixed_distribution",
    "OutcomeDistribution",
    "SampleStream",
]

_SUM_TOL = 1e-12
_HERMITICITY_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
_MAX_DENSE_DIM = 64
# Largest distribution mixed_distribution builds, counted as one complex128
# FFT array per eigenphase (J * 2**q * 16 bytes).
_MAX_DISTRIBUTION_BYTES = 2 << 30
# Guide-table buckets. A power of two, so u * _GUIDE_BUCKETS is exact for
# every double u and its integer part is the bucket u lies in.
_GUIDE_BUCKETS = 1 << 16


class SpectrumPlanMismatch(ValueError):
    """Spectrum violates an assumption the plan was sized under."""


class DistributionTooLarge(ValueError):
    """The plan's register is too large to hold its distribution in memory."""


@dataclass(frozen=True)
class SpectrumSpec:
    """Point spectrum with squared overlaps of the initial state.

    Phases are in turns and must lie strictly inside (-1/2, 1/2) so that
    no eigenphase sits on the wrap-around seam. Entries are sorted by
    phase on construction; overlaps must be nonnegative and sum to 1.
    """

    eigenphases: tuple[float, ...]
    overlaps_sq: tuple[float, ...]

    def __post_init__(self) -> None:
        phases = tuple(float(p) for p in self.eigenphases)
        weights = tuple(float(w) for w in self.overlaps_sq)
        if len(phases) == 0:
            raise ValueError("spectrum needs at least one eigenphase")
        if len(phases) != len(weights):
            raise ValueError(
                f"{len(phases)} eigenphases but {len(weights)} overlaps"
            )
        if any(not math.isfinite(p) or abs(p) >= 0.5 for p in phases):
            raise ValueError("eigenphases must lie strictly inside (-1/2, 1/2)")
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise ValueError("squared overlaps must be finite and nonnegative")
        total = math.fsum(weights)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"squared overlaps must sum to 1, got {total!r}")
        order = sorted(range(len(phases)), key=phases.__getitem__)
        object.__setattr__(self, "eigenphases", tuple(phases[i] for i in order))
        object.__setattr__(self, "overlaps_sq", tuple(weights[i] for i in order))

    @property
    def J(self) -> int:
        return len(self.eigenphases)

    @property
    def ground_phase(self) -> float:
        return self.eigenphases[0]

    @property
    def ground_overlap_sq(self) -> float:
        return self.overlaps_sq[0]

    @property
    def gap(self) -> float:
        if self.J < 2:
            return math.inf
        return self.eigenphases[1] - self.eigenphases[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "eigenphases": list(self.eigenphases),
            "overlaps_sq": list(self.overlaps_sq),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpectrumSpec":
        return cls(
            eigenphases=tuple(data["eigenphases"]),
            overlaps_sq=tuple(data["overlaps_sq"]),
        )

    def validate_for_plan(self, plan: PlanParams | GseePlan) -> None:
        """Raise ``SpectrumPlanMismatch`` unless this spectrum satisfies
        the gap, range, and overlap assumptions of ``plan``."""
        if isinstance(plan, GseePlan):
            round_plan = plan.round_plan
        else:
            round_plan = plan
        Delta = round_plan.Delta_work
        eta = round_plan.eta
        if self.ground_overlap_sq < eta - _SUM_TOL:
            raise SpectrumPlanMismatch(
                f"ground overlap {self.ground_overlap_sq!r} below floor {eta!r}"
            )
        if self.gap < Delta:
            raise SpectrumPlanMismatch(
                f"spectral gap {self.gap!r} below working gap {Delta!r}"
            )
        bound = 0.5 - Delta / 2.0
        worst = max(abs(self.eigenphases[0]), abs(self.eigenphases[-1]))
        if worst > bound:
            raise SpectrumPlanMismatch(
                f"eigenphase magnitude {worst!r} exceeds {bound!r} "
                "(phases must keep half a working gap clear of the seam)"
            )


@dataclass(frozen=True, eq=False)
class DenseHamiltonian:
    """Hermitian matrix (phases as eigenvalues, in turns) plus a unit
    initial vector. Dimension is capped; this path exists to exercise the
    pipeline end to end, not to scale."""

    matrix: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        H = np.array(self.matrix, dtype=np.complex128)
        v = np.array(self.initial, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"matrix must be square, got shape {H.shape}")
        dim = H.shape[0]
        if not (1 <= dim <= _MAX_DENSE_DIM):
            raise ValueError(f"dimension must lie in [1, {_MAX_DENSE_DIM}], got {dim}")
        if not np.all(np.isfinite(H.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(H - H.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if v.shape != (dim,):
            raise ValueError(f"initial vector must have shape ({dim},), got {v.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("initial vector entries must be finite")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > _SUM_TOL:
            raise ValueError(f"initial vector must be unit norm, got {norm!r}")
        H.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "matrix", H)
        object.__setattr__(self, "initial", v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def eigendecompose(ham: DenseHamiltonian) -> SpectrumSpec:
    """Diagonalize and project the initial state onto the eigenbasis.

    Eigenvalues must lie strictly inside (-1/2, 1/2); each eigenpair is
    verified against a residual tolerance before being trusted.
    """
    w, V = np.linalg.eigh(ham.matrix)
    if np.max(np.abs(w)) >= 0.5:
        raise ValueError(
            f"eigenvalue magnitude {np.max(np.abs(w))!r} reaches 1/2; "
            "rescale the matrix so phases avoid the seam"
        )
    residual = np.max(np.abs(ham.matrix @ V - V * w[np.newaxis, :]))
    if residual > _RESIDUAL_TOL:
        raise ArithmeticError(f"eigenpair residual {residual!r} above tolerance")
    overlaps = np.abs(V.conj().T @ ham.initial) ** 2
    return SpectrumSpec(eigenphases=tuple(w), overlaps_sq=tuple(overlaps))


def gaussian_window(q: int, sigma_tilde: float) -> np.ndarray:
    """Unit-norm Gaussian window on t = 0..2**q - 1, centered at t = 2**(q-1).

    ``sigma_tilde`` is the relative width the measured register should
    end up with; the window in the time register is accordingly wide,
    with standard deviation 1 / (4*pi*sigma_tilde) samples. The center
    must sit mid-range: the sequence is only circularly smooth up to a
    constant phase exp(2*pi*i*N*theta) across the t = N-1 -> 0 seam, so
    the amplitude there has to be negligible for every eigenphase, not
    just for integer N*theta.
    """
    if not (isinstance(q, int) and q >= 1):
        raise ValueError(f"q must be a positive integer, got {q!r}")
    if not (0.0 < sigma_tilde < math.inf):
        raise ValueError(f"sigma_tilde must be positive, got {sigma_tilde!r}")
    sigma_time = 1.0 / (4.0 * math.pi * sigma_tilde)
    t = np.arange(1 << q, dtype=np.float64)
    amps = np.sqrt(gaussian.g0(t - float(1 << (q - 1)), 0.0, sigma_time))
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("window underflowed to zero; sigma_tilde is too large")
    return amps / norm


def rectangular_window(q: int) -> np.ndarray:
    """Unit-norm flat window, the textbook phase-estimation choice."""
    if not (isinstance(q, int) and q >= 1):
        raise ValueError(f"q must be a positive integer, got {q!r}")
    n = 1 << q
    return np.full(n, 1.0 / math.sqrt(n))


def distribution_from_window(window: np.ndarray, theta: float) -> np.ndarray:
    """Outcome distribution over bins z = 0..N-1 for one eigenphase."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or window.size < 2:
        raise ValueError("window must be a 1-d array with at least 2 entries")
    n = window.size
    t = np.arange(n, dtype=np.float64)
    c = window * np.exp(2j * np.pi * theta * t)
    b = np.fft.fft(c) / math.sqrt(n)
    return np.abs(b) ** 2


def eigenstate_distribution(theta: float, plan: PlanParams) -> np.ndarray:
    """Gaussian-window outcome distribution for a single eigenphase."""
    return distribution_from_window(
        gaussian_window(plan.q, plan.sigma_tilde), theta
    )


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Register distribution for a spectrum under one plan.

    ``per_eigenstate`` has shape (J, N) with one row per eigenphase;
    ``mixed`` is the overlap-weighted row sum; ``cdf`` is its cumulative
    sum with the final entry pinned to exactly 1.0.
    """

    q: int
    thetas: tuple[float, ...]
    weights: tuple[float, ...]
    per_eigenstate: np.ndarray
    mixed: np.ndarray
    cdf: np.ndarray

    @property
    def n_bins(self) -> int:
        return 1 << self.q


def mixed_distribution(
    spec: SpectrumSpec, plan: PlanParams | GseePlan
) -> OutcomeDistribution:
    """Build the outcome distribution of one sampling round; raises
    ``SpectrumPlanMismatch`` unless ``spec`` fits the plan, and
    ``DistributionTooLarge`` before allocating when its J * 2**q complex128
    FFT arrays would exceed 2 GiB."""
    round_plan = plan.round_plan if isinstance(plan, GseePlan) else plan
    spec.validate_for_plan(round_plan)
    n_bytes = spec.J * (1 << round_plan.q) * np.dtype(np.complex128).itemsize
    if n_bytes > _MAX_DISTRIBUTION_BYTES:
        raise DistributionTooLarge(
            f"{spec.J} eigenphases on 2**{round_plan.q} bins need {n_bytes} bytes "
            f"of complex128, above the {_MAX_DISTRIBUTION_BYTES}-byte limit"
        )
    window = gaussian_window(round_plan.q, round_plan.sigma_tilde)
    per = np.stack(
        [distribution_from_window(window, theta) for theta in spec.eigenphases]
    )
    weights = np.array(spec.overlaps_sq, dtype=np.float64)
    mixed = weights @ per
    cdf = np.cumsum(mixed)
    cdf /= cdf[-1]
    for arr in (per, mixed, cdf):
        arr.flags.writeable = False
    return OutcomeDistribution(
        q=round_plan.q,
        thetas=spec.eigenphases,
        weights=spec.overlaps_sq,
        per_eigenstate=per,
        mixed=mixed,
        cdf=cdf,
    )


class SampleStream:
    """Deterministic bin sampler: guide-table inverse-CDF lookups against a
    private counter-based generator, so draw batching never changes the
    stream."""

    def __init__(
        self,
        dist: OutcomeDistribution | np.ndarray,
        seed: int | np.random.SeedSequence,
    ) -> None:
        if isinstance(dist, OutcomeDistribution):
            cdf = dist.cdf
        else:
            probs = np.asarray(dist, dtype=np.float64)
            if probs.ndim != 1 or probs.size == 0 or np.any(probs < 0.0):
                raise ValueError("probabilities must be a nonnegative 1-d array")
            cdf = np.cumsum(probs)
            if cdf[-1] <= 0.0:
                raise ValueError("probabilities must have positive total mass")
            cdf = cdf / cdf[-1]
        self._cdf = cdf
        # The bin of every u in bucket j lies between the bins of its edges
        # j/B and (j+1)/B; where those agree the bucket resolves to it,
        # otherwise it is marked -1 and searched.
        edges = np.searchsorted(
            cdf, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side="right"
        ).astype(np.int64, copy=False)
        guide = edges[:-1]
        guide[guide != edges[1:]] = -1
        self._guide = guide
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self._rng = np.random.Generator(np.random.Philox(seed))

    def _bins(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to int64 bins, equal bin for bin to
        ``np.searchsorted(cdf, u, side="right")``."""
        bins = self._guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
        miss = bins < 0
        bins[miss] = np.searchsorted(self._cdf, u[miss], side="right")
        return bins

    def draw(self, n: int) -> np.ndarray:
        """Draw ``n`` outcome bins as int64 values in [0, N)."""
        if not (isinstance(n, int) and n >= 0):
            raise ValueError(f"draw count must be a nonnegative integer, got {n!r}")
        return self._bins(self._rng.random(n))
