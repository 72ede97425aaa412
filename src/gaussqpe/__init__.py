"""Numerical laboratory for Gaussian-window quantum phase estimation.

The package sizes sampling plans for ground-state energy estimation with
a Gaussian ancilla window, computes the outcome distributions in float64
(absolute accuracy about 1e-16 of the peak probability in every bin),
runs the windowed-basket estimator against them, and audits every
analytic error and failure bound the sizing relies on.
"""

from .estimation import (
    EnergyEstimate,
    QpeEstimate,
    run_gsee,
    run_qpe_baseline,
    run_sampling_round,
)
from .gaussian import GaussianParams, g0, normalization_N, tail_mass, wrap_mod
from .planner import (
    GseePlan,
    PlanInfeasible,
    PlanInputs,
    PlanParams,
    QpeBaseline,
    compute_C_eta,
    hoeffding_sample_count,
    plan_gsee,
    plan_qpe_baseline,
    plan_sampling_round,
)
from .simulator import (
    DenseHamiltonian,
    DistributionTooLarge,
    OutcomeDistribution,
    SampleStream,
    SpectrumPlanMismatch,
    SpectrumSpec,
    eigendecompose,
    gaussian_window,
    mixed_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GaussianParams",
    "g0",
    "wrap_mod",
    "normalization_N",
    "tail_mass",
    "PlanInputs",
    "PlanParams",
    "GseePlan",
    "QpeBaseline",
    "PlanInfeasible",
    "compute_C_eta",
    "plan_sampling_round",
    "plan_gsee",
    "plan_qpe_baseline",
    "SpectrumSpec",
    "SpectrumPlanMismatch",
    "DistributionTooLarge",
    "DenseHamiltonian",
    "eigendecompose",
    "gaussian_window",
    "mixed_distribution",
    "OutcomeDistribution",
    "SampleStream",
    "EnergyEstimate",
    "QpeEstimate",
    "hoeffding_sample_count",
    "run_sampling_round",
    "run_gsee",
    "run_qpe_baseline",
]
