"""Simulation-study harness: parameter grids in, tidy result tables out.

Four studies mirror the main questions a designer asks: how arm correlations
move the error rates, how conventional adjustments behave, what thresholds
the generalized procedure sets, and what allocation/sample size the full
pipeline recommends.  Every row is computed, not simulated: error rates of
two statistics are exact bivariate normal probabilities and N* is searched on
exact power, so ``mc_stderr`` is 0 and tables are the same byte for byte
whatever the grid's seed.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .allocation import Allocation, DesignScenario, optimize_allocation
from .correlation import PlatformArms, platform_z_correlation_matrix
from .errors import DomainError
from .multiplicity import (
    ErrorMetric,
    bivariate_error_rates,
    classical_dunnett_threshold,
    platform_threshold,
)
from .mvnorm import CorrelationMatrix, bvn_rectangle, std_normal_quantile
from .power import find_sample_size

__all__ = [
    "GridSpec",
    "ResultTable",
    "BASELINES",
    "DEFAULT_ALLOCATIONS",
    "error_curves_grid",
    "adjustment_grid",
    "threshold_grid",
    "design_surface_grid",
    "run_error_curves",
    "run_adjustment_comparison",
    "run_threshold_curves",
    "run_design_surface",
]

# Independent-trial baselines at alpha = 0.05: 1 - 0.95^2, 0.05^2, 0.025^2.
BASELINES = {"fwer": 0.0975, "fmer": 0.0025, "msfp": 0.000625}

# The correlation studies compare four allocation shapes: equal, and one arm
# holding half the sample.  Order is (control, monotherapy, combination).
DEFAULT_ALLOCATIONS = (
    (1 / 3, 1 / 3, 1 / 3),
    (0.5, 0.25, 0.25),
    (0.25, 0.5, 0.25),
    (0.25, 0.25, 0.5),
)

_SWEEPABLE = ("rho_ab_b", "rho_ab_a", "synergy")
_TARGETS = (
    ErrorMetric.fwer(0.05),
    ErrorMetric.fmer(0.0025),
    ErrorMetric.msfp(0.000625),
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """One swept parameter plus everything held fixed.

    Every study is exact, so none reads ``replications`` or ``seed``; they
    are kept for callers that set them.
    """

    swept: str
    start: float
    stop: float
    step: float
    fixed: dict = field(default_factory=dict)
    allocations: tuple = (DEFAULT_ALLOCATIONS[0],)
    replications: int = 100_000
    seed: int = 0
    rho_levels: tuple = (0.1, 0.3, 0.5, 0.7)

    def __post_init__(self) -> None:
        if self.swept not in _SWEEPABLE:
            raise DomainError(f"swept must be one of {_SWEEPABLE}, got {self.swept!r}")
        if self.step <= 0:
            raise DomainError("step must be positive")
        if self.stop < self.start:
            raise DomainError("stop must not precede start")
        if self.replications < 1:
            raise DomainError("replications must be positive")
        for alloc in self.allocations:
            Allocation(tuple(alloc))
        for rho in self.rho_levels:
            if not -1.0 <= rho <= 1.0:
                raise DomainError(f"rho level {rho} outside [-1, 1]")

    def sweep_values(self) -> np.ndarray:
        count = int(round((self.stop - self.start) / self.step)) + 1
        return np.round(self.start + self.step * np.arange(count), 12)


# Default sweep of the correlation studies: 0.05 to 0.95 in steps of 0.01.
_RHO_START, _RHO_STOP, _RHO_STEP = 0.05, 0.95, 0.01


def _rho_sweep(swept: str, fixed_rho: float, fixed: dict | None = None, **spec) -> GridSpec:
    """Sweep one arm correlation with the other held at ``fixed_rho``."""
    other = "rho_ab_a" if swept == "rho_ab_b" else "rho_ab_b"
    return GridSpec(swept=swept, fixed={other: fixed_rho, **(fixed or {})}, **spec)


def error_curves_grid(
    swept: str = "rho_ab_b",
    fixed_rho: float = 0.3,
    replications: int = 100_000,
    seed: int = 0,
    start: float = _RHO_START,
    stop: float = _RHO_STOP,
    step: float = _RHO_STEP,
) -> GridSpec:
    return _rho_sweep(
        swept, fixed_rho, start=start, stop=stop, step=step,
        allocations=DEFAULT_ALLOCATIONS, replications=replications, seed=seed,
    )


def adjustment_grid(
    swept: str = "rho_ab_b",
    fixed_rho: float = 0.3,
    replications: int = 100_000,
    seed: int = 0,
    start: float = _RHO_START,
    stop: float = _RHO_STOP,
    step: float = _RHO_STEP,
) -> GridSpec:
    return _rho_sweep(
        swept, fixed_rho, {"alpha": 0.05}, start=start, stop=stop, step=step,
        replications=replications, seed=seed,
    )


def threshold_grid(
    swept: str = "rho_ab_b",
    fixed_rho: float = 0.3,
    seed: int = 0,
    start: float = _RHO_START,
    stop: float = _RHO_STOP,
    step: float = _RHO_STEP,
) -> GridSpec:
    return _rho_sweep(
        swept, fixed_rho, start=start, stop=stop, step=step, replications=1, seed=seed
    )


def design_surface_grid(
    seed: int = 0,
    start: float = 0.7,
    stop: float = 1.3,
    step: float = 0.1,
    rho_levels: tuple = (0.1, 0.3, 0.5, 0.7),
) -> GridSpec:
    return GridSpec(
        swept="synergy",
        start=start,
        stop=stop,
        step=step,
        fixed={"delta": 0.3, "sigma2": 1.0, "target_power": 0.8},
        replications=10_000,
        seed=seed,
        rho_levels=rho_levels,
    )


@dataclass(frozen=True)
class ResultTable:
    """Fixed-schema rows; writes CSV or JSON-lines deterministically."""

    columns: tuple
    rows: tuple

    def to_csv(self, path: str | None = None) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_render(v) for v in row])
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_json_lines(self, path: str | None = None) -> str:
        lines = [
            json.dumps(dict(zip(self.columns, row)), allow_nan=False)
            for row in self.rows
        ]
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str, **match) -> list:
        idx = self.columns.index(name)
        picks = [(self.columns.index(k), v) for k, v in match.items()]
        return [r[idx] for r in self.rows if all(r[i] == v for i, v in picks)]


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rhos(grid: GridSpec, value: float) -> tuple[float, float]:
    if grid.swept == "rho_ab_a":
        return value, float(grid.fixed["rho_ab_b"])
    return float(grid.fixed["rho_ab_a"]), value


def _z_corr(alloc: tuple, rho_ab_a: float, rho_ab_b: float) -> tuple[float, CorrelationMatrix]:
    """The two statistics' correlation, as a number and as a matrix."""
    # the statistic correlation depends on counts only through ratios
    arms = PlatformArms.single(
        1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2],
        rho_ab_a=rho_ab_a, rho_ab_b=rho_ab_b,
    )
    z_corr = platform_z_correlation_matrix(arms)
    return float(z_corr.entries[0, 1]), z_corr


def run_error_curves(grid: GridSpec) -> ResultTable:
    """Unadjusted error rates at the conventional critical value (study 1)."""
    columns = (
        "swept", "swept_value", "rho_ab_a", "rho_ab_b",
        "p_control", "p_mono", "p_combo", "z_rho",
        "metric", "value", "mc_stderr", "baseline",
    )
    c_nominal = std_normal_quantile(0.975)
    rows = []
    for alloc in grid.allocations:
        for value in grid.sweep_values():
            rho_ab_a, rho_ab_b = _rhos(grid, float(value))
            z_rho, _ = _z_corr(alloc, rho_ab_a, rho_ab_b)
            rates = bivariate_error_rates(z_rho, c_nominal)
            for metric in ("fwer", "fmer", "msfp"):
                rows.append((
                    grid.swept, float(value), rho_ab_a, rho_ab_b,
                    alloc[0], alloc[1], alloc[2], z_rho,
                    metric, rates[metric], 0.0, BASELINES[metric],
                ))
    return ResultTable(columns, tuple(rows))


def _holm_rates(z_rho: float, first_cut: float, last_cut: float) -> dict[str, float]:
    """Exact error rates of the two-test Holm step-down.

    Holm rejects a test iff max|Z| > b (``first_cut``, level alpha/2 per
    test), and both iff also min|Z| > a (``last_cut``, level alpha).  So its
    fwer is the fwer at b.  Its fmer is the fmer at a less the chance that
    both |Z| lie in (a, b]: two same-sign and two opposite-sign boxes, equal
    in pairs by symmetry.  Its msfp is the msfp at a less the box (a, b]^2.
    """
    a, b = last_cut, first_cut
    at_a = bivariate_error_rates(z_rho, a)
    same_sign = bvn_rectangle((a, a), (b, b), z_rho)
    opposite_sign = bvn_rectangle((a, -b), (b, -a), z_rho)
    return {
        "fwer": bivariate_error_rates(z_rho, b)["fwer"],
        "fmer": at_a["fmer"] - 2.0 * same_sign - 2.0 * opposite_sign,
        "msfp": at_a["msfp"] - same_sign,
    }


def run_adjustment_comparison(grid: GridSpec) -> ResultTable:
    """Error rates of the conventional adjustments per grid point (study 2)."""
    columns = (
        "swept", "swept_value", "rho_ab_a", "rho_ab_b",
        "p_control", "p_mono", "p_combo", "z_rho",
        "method", "metric", "value", "mc_stderr", "baseline",
    )
    alpha = float(grid.fixed.get("alpha", 0.05))
    c_nominal = std_normal_quantile(0.975)
    c_bonf = std_normal_quantile(1.0 - alpha / 4.0)
    c_holm_last = std_normal_quantile(1.0 - alpha / 2.0)
    rows = []
    for alloc in grid.allocations:
        arms = PlatformArms.single(1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2])
        c_dunnett = classical_dunnett_threshold(arms, alpha).critical_value
        for value in grid.sweep_values():
            rho_ab_a, rho_ab_b = _rhos(grid, float(value))
            z_rho, _ = _z_corr(alloc, rho_ab_a, rho_ab_b)
            per_method = {
                "noadj": bivariate_error_rates(z_rho, c_nominal),
                "bonferroni": bivariate_error_rates(z_rho, c_bonf),
                "holm": _holm_rates(z_rho, c_bonf, c_holm_last),
                "dunnett": bivariate_error_rates(z_rho, c_dunnett),
            }
            for method, rates in per_method.items():
                for metric in ("fwer", "fmer", "msfp"):
                    rows.append((
                        grid.swept, float(value), rho_ab_a, rho_ab_b,
                        alloc[0], alloc[1], alloc[2], z_rho,
                        method, metric, rates[metric], 0.0, BASELINES[metric],
                    ))
    return ResultTable(columns, tuple(rows))


def run_threshold_curves(grid: GridSpec) -> ResultTable:
    """Adjusted p-value thresholds per metric across the sweep (study 3)."""
    columns = (
        "swept", "swept_value", "rho_ab_a", "rho_ab_b", "z_rho",
        "metric", "c_star", "value", "mc_stderr",
    )
    alloc = grid.allocations[0]
    rows = []
    for value in grid.sweep_values():
        rho_ab_a, rho_ab_b = _rhos(grid, float(value))
        z_rho, z_corr = _z_corr(alloc, rho_ab_a, rho_ab_b)
        for metric in _TARGETS:
            result = platform_threshold(z_corr, metric)
            rows.append((
                grid.swept, float(value), rho_ab_a, rho_ab_b, z_rho,
                metric.kind, result.critical_value, result.p_threshold, 0.0,
            ))
    return ResultTable(columns, tuple(rows))


def run_design_surface(grid: GridSpec) -> ResultTable:
    """Optimal allocation and minimal N per (synergy, rho, metric) (study 4).

    N* and its achieved power are exact, so ``mc_stderr`` is 0.  Each
    finished point is logged at INFO level.
    """
    columns = (
        "synergy", "rho", "p_control", "p_mono", "p_combo", "z_rho",
        "metric", "c_star", "p_threshold", "achieved_power",
        "value", "mc_stderr",
    )
    delta = float(grid.fixed.get("delta", 0.3))
    sigma2 = float(grid.fixed.get("sigma2", 1.0))
    target = float(grid.fixed.get("target_power", 0.8))
    sweep = grid.sweep_values()
    total = len(sweep) * len(grid.rho_levels) * len(_TARGETS)
    done = 0
    rows = []
    for s in sweep:
        for rho in grid.rho_levels:
            scenario = DesignScenario.single(
                delta, float(s), sigma2, rho_ab_a=float(rho), rho_ab_b=float(rho)
            )
            alloc = optimize_allocation(scenario)
            z_rho, z_corr = _z_corr(alloc.ratios, float(rho), float(rho))
            for metric in _TARGETS:
                threshold = platform_threshold(z_corr, metric)
                result = find_sample_size(scenario, alloc, threshold, target)
                rows.append((
                    float(s), float(rho),
                    alloc.ratios[0], alloc.ratios[1], alloc.ratios[2], z_rho,
                    metric.kind, threshold.critical_value, threshold.p_threshold,
                    result.achieved_power, result.n_star, 0.0,
                ))
                done += 1
                logger.info(
                    "design-surface %d/%d: s=%s rho=%s %s N*=%d",
                    done, total, s, rho, metric.kind, result.n_star,
                )
    return ResultTable(columns, tuple(rows))
