"""Design engine for platform trials of combination therapies.

Computes correlation-aware multiplicity thresholds (generalized Dunnett
procedure), power-optimal allocation ratios under a synergy model, minimal
sample sizes from exact power at integer designs, and parameter estimates
from preclinical paired-endpoint data.
"""

from . import errors
from .allocation import (
    Allocation,
    DesignScenario,
    closed_form_allocation,
    optimize_allocation,
    wald_noncentrality,
)
from .correlation import (
    ArmCorrelations,
    PlatformArms,
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
    ThresholdResult,
    bivariate_error_rates,
    classical_dunnett_threshold,
    platform_threshold,
)
from .mvnorm import (
    CorrelationMatrix,
    QmcLattice,
    cholesky,
    std_normal_cdf,
    std_normal_quantile,
)
from .power import (
    DesignResult,
    SampleSizeResult,
    design,
    find_sample_size,
    marginal_power_oracle,
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
