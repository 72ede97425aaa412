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
    RoundBudgetTooLarge,
    run_gsee,
    run_qpe_baseline,
    run_sampling_round,
)
from .gaussian import g0
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
    WindowTruncated,
    eigendecompose,
    gaussian_window,
    mixed_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "g0",
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
    "WindowTruncated",
    "DenseHamiltonian",
    "eigendecompose",
    "gaussian_window",
    "mixed_distribution",
    "OutcomeDistribution",
    "SampleStream",
    "EnergyEstimate",
    "QpeEstimate",
    "RoundBudgetTooLarge",
    "hoeffding_sample_count",
    "run_sampling_round",
    "run_gsee",
    "run_qpe_baseline",
]
