"""Design engine for platform trials of combination therapies.

Computes correlation-aware multiplicity thresholds (generalized Dunnett
procedure), power-optimal allocation ratios under a synergy model, minimal
sample sizes via Monte Carlo search, and parameter estimates from preclinical
paired-endpoint data.
"""

from . import errors
from .allocation import (
    Allocation,
    DesignScenario,
    SoftmaxParams,
    closed_form_allocation,
    optimize_allocation,
    softmax_to_allocation,
    wald_noncentrality,
)
from .correlation import (
    ArmCorrelations,
    PlatformArms,
    alternative_mean_covariance,
    arm_mean_covariance,
    classical_dunnett_correlation,
    platform_z_correlation_matrix,
    test_stat_correlation,
)
from .estimation import (
    PairedEndpointTable,
    Table1Result,
    TrialEstimates,
    estimate_trial,
    ingest_csv,
    pooled_sd,
    table1_pipeline,
)
from .multiplicity import (
    ErrorMetric,
    ErrorRates,
    ThresholdResult,
    bonferroni_threshold,
    classical_dunnett_threshold,
    empirical_error_rates,
    holm_reject,
    platform_threshold,
)
from .mvnorm import (
    CorrelationMatrix,
    MvnSampler,
    RectangleSpec,
    bvn_rectangle,
    cholesky,
    mvn_rectangle,
    mvn_sample,
    std_normal_cdf,
    std_normal_quantile,
)
from .power import (
    PowerRequest,
    SampleSizeResult,
    find_sample_size,
    marginal_power_oracle,
    mc_power,
    mc_power_summary,
)
from .studies import (
    GridSpec,
    ResultTable,
    run_adjustment_comparison,
    run_design_surface,
    run_error_curves,
    run_threshold_curves,
)

__version__ = "0.1.0"
