"""Balancing-weight estimators for causal effects under clustered interference."""

__version__ = "0.1.0"

from .core import (
    ClusterSample,
    Dataset,
    Gate,
    BernoulliIntervention,
    DeterministicTarget,
    DirectEffect,
    IndependentBernoulli,
    JointTable,
    RandomSelection,
    SparseTable,
    UnknownPropensity,
    enumerate_patterns,
    eval_propensity,
    uniform_intervention,
)
from .diagnostics import ImbalanceReport, imbalance_report
from .estimators import (
    EstimateReport,
    WeightSet,
    balancing_fit,
    exposure_collapsed_ipw,
    ipw_fit,
    ols_plugin,
    projection_fit,
    weighted_projection_fit,
)
from .inference import (
    SelectionReport,
    VarianceReport,
    iid_cluster_variance,
    sandwich_variance,
    select_structure,
    sigma_noise_hat,
    structure_test,
)
from .numerics import SolveReport, project_colspace
from .simulate import (
    DGPConfig,
    MCResult,
    calibrate_snr,
    gen_dataset,
    monte_carlo,
    sweep,
    true_mu,
)
from .structures import (
    AdditiveTypes,
    CoarsenedCount,
    Compose,
    FromExposureMapping,
    KnnPattern,
    LowRankStructure,
    NeighborGraph,
    NoInterference,
    StratifiedCount,
    TensorWithCovariates,
    build_structure,
    design_matrix,
    knn_graph,
    nested_rank_check,
    target_vector,
)
