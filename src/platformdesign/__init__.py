"""Design engine for platform trials of combination therapies.

Computes correlation-aware multiplicity thresholds (generalized Dunnett
procedure), power-optimal allocation ratios under a synergy model, minimal
sample sizes from exact power at integer designs, and parameter estimates
from preclinical paired-endpoint data.

Each public name is imported from its home module on first access, so
``import platformdesign`` loads no module (nor numpy) until a name is used.
"""

import importlib

# the public names of each module; ``errors`` is public as a module
_EXPORTS = {
    "errors": (),
    "allocation": ("Allocation", "DesignScenario", "optimize_allocation"),
    "correlation": ("ArmCorrelations", "PlatformArms", "classical_dunnett_correlation",
                    "platform_z_correlation_matrix"),
    "estimation": ("PairedEndpointTable", "Table1Result", "TrialEstimates", "estimate_trial",
                   "ingest_csv", "table1_pipeline"),
    "multiplicity": ("ErrorMetric", "ThresholdResult", "bivariate_error_rates",
                     "platform_threshold"),
    "mvnorm": ("CorrelationMatrix",),
    "power": ("DesignResult", "SampleSizeResult", "design", "find_sample_size"),
    "studies": ("GridSpec", "ResultTable", "run_adjustment_comparison", "run_design_surface",
                "run_error_curves", "run_threshold_curves"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of a public name, or a module, on first access."""
    home = _HOME.get(name)
    if home is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{home or name}")
    if home is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
