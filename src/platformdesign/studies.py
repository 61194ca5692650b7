"""Simulation-study harness: parameter grids in, tidy result tables out.

Four studies mirror the main questions a designer asks: how arm correlations
move the error rates, how conventional adjustments behave, what thresholds
the generalized procedure sets, and what allocation/sample size the full
pipeline recommends.  Each grid point gets its own derived seed, so tables
are reproducible byte-for-byte and points can run in any order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .allocation import Allocation, DesignScenario, optimize_allocation, wald_noncentrality
from .correlation import SingleStudyArms, test_stat_correlation
from .errors import DomainError
from .multiplicity import (
    ErrorMetric,
    classical_dunnett_threshold,
    empirical_error_rates,
    generalized_dunnett_threshold,
)
from .mvnorm import CorrelationMatrix, MvnSampler, std_normal_quantile
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
_C_NOMINAL = std_normal_quantile(0.975)


@dataclass(frozen=True)
class GridSpec:
    """One swept parameter plus everything held fixed."""

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
    n_sim: int = 10_000,
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
        fixed={"delta": 0.3, "sigma2": 1.0, "target_power": 0.8, "n0": 20},
        replications=n_sim,
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


def _point_seed(base: int, *indices: int) -> int:
    seq = np.random.SeedSequence([base & 0xFFFFFFFFFFFFFFFF, *indices])
    return int(seq.generate_state(1, np.uint64)[0])


def _rhos(grid: GridSpec, value: float) -> tuple[float, float]:
    if grid.swept == "rho_ab_a":
        return value, float(grid.fixed["rho_ab_b"])
    return float(grid.fixed["rho_ab_a"]), value


def _z_rho(alloc: tuple, rho_ab_a: float, rho_ab_b: float) -> float:
    # the statistic correlation depends on counts only through ratios
    arms = SingleStudyArms(
        n_a=1000 * alloc[0],
        n_b=1000 * alloc[1],
        n_ab=1000 * alloc[2],
        rho_ab_a=rho_ab_a,
        rho_ab_b=rho_ab_b,
    )
    return test_stat_correlation(arms)


def run_error_curves(grid: GridSpec) -> ResultTable:
    """Unadjusted error rates at the conventional critical value (study 1)."""
    columns = (
        "swept", "swept_value", "rho_ab_a", "rho_ab_b",
        "p_control", "p_mono", "p_combo", "z_rho",
        "metric", "value", "mc_stderr", "baseline",
    )
    rows = []
    for a_idx, alloc in enumerate(grid.allocations):
        for v_idx, value in enumerate(grid.sweep_values()):
            rho_ab_a, rho_ab_b = _rhos(grid, float(value))
            z_rho = _z_rho(alloc, rho_ab_a, rho_ab_b)
            rates = empirical_error_rates(
                CorrelationMatrix.bivariate(z_rho),
                _C_NOMINAL,
                grid.replications,
                _point_seed(grid.seed, a_idx, v_idx),
            )
            for metric in ("fwer", "fmer", "msfp"):
                rows.append((
                    grid.swept, float(value), rho_ab_a, rho_ab_b,
                    alloc[0], alloc[1], alloc[2], z_rho,
                    metric, getattr(rates, metric), rates.stderr(metric),
                    BASELINES[metric],
                ))
    return ResultTable(columns, tuple(rows))


def _holm_rejections(p: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized two-test step-down: (any rejection, both rejected)."""
    ordered = np.sort(p, axis=1)
    first = ordered[:, 0] <= alpha / 2.0
    both = first & (ordered[:, 1] <= alpha)
    return first, both


def run_adjustment_comparison(grid: GridSpec) -> ResultTable:
    """Error rates of the conventional adjustments per grid point (study 2)."""
    columns = (
        "swept", "swept_value", "rho_ab_a", "rho_ab_b",
        "p_control", "p_mono", "p_combo", "z_rho",
        "method", "metric", "value", "mc_stderr", "baseline",
    )
    alpha = float(grid.fixed.get("alpha", 0.05))
    c_bonf = std_normal_quantile(1.0 - alpha / 4.0)
    rows = []
    for a_idx, alloc in enumerate(grid.allocations):
        arms = SingleStudyArms(1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2])
        c_dunnett = classical_dunnett_threshold(arms, alpha).critical_value
        for v_idx, value in enumerate(grid.sweep_values()):
            rho_ab_a, rho_ab_b = _rhos(grid, float(value))
            z_rho = _z_rho(alloc, rho_ab_a, rho_ab_b)
            draws = MvnSampler(
                np.zeros(2),
                CorrelationMatrix.bivariate(z_rho).entries,
                _point_seed(grid.seed, a_idx, v_idx),
                stream=4,
            ).sample(grid.replications)
            abs_z = np.abs(draws)
            positive = (draws > 0).all(axis=1)
            p_values = 2.0 * (1.0 - ndtr(abs_z))
            per_method = {
                "noadj": _fixed_cut(abs_z, _C_NOMINAL, positive),
                "bonferroni": _fixed_cut(abs_z, c_bonf, positive),
                "holm": _holm_metrics(p_values, alpha, positive),
                "dunnett": _fixed_cut(abs_z, c_dunnett, positive),
            }
            n = grid.replications
            for method, metrics in per_method.items():
                for metric in ("fwer", "fmer", "msfp"):
                    rate = metrics[metric]
                    rows.append((
                        grid.swept, float(value), rho_ab_a, rho_ab_b,
                        alloc[0], alloc[1], alloc[2], z_rho,
                        method, metric, rate,
                        math.sqrt(rate * (1.0 - rate) / n),
                        BASELINES[metric],
                    ))
    return ResultTable(columns, tuple(rows))


def _fixed_cut(abs_z, cut, positive) -> dict:
    rejected = abs_z > cut
    return {
        "fwer": float(rejected.any(axis=1).mean()),
        "fmer": float(rejected.all(axis=1).mean()),
        "msfp": float((rejected.all(axis=1) & positive).mean()),
    }


def _holm_metrics(p_values, alpha, positive) -> dict:
    any_rej, both_rej = _holm_rejections(p_values, alpha)
    return {
        "fwer": float(any_rej.mean()),
        "fmer": float(both_rej.mean()),
        "msfp": float((both_rej & positive).mean()),
    }


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
        z_rho = _z_rho(alloc, rho_ab_a, rho_ab_b)
        for metric in _TARGETS:
            result = generalized_dunnett_threshold(z_rho, metric)
            rows.append((
                grid.swept, float(value), rho_ab_a, rho_ab_b, z_rho,
                metric.kind, result.critical_value, result.p_threshold, 0.0,
            ))
    return ResultTable(columns, tuple(rows))


def run_design_surface(grid: GridSpec, progress: bool = False) -> ResultTable:
    """Optimal allocation and minimal N per (synergy, rho, metric) (study 4).

    ``mc_stderr`` is a delta-method standard error for N*: the power
    standard error divided by the local slope of the power curve in N.
    """
    columns = (
        "synergy", "rho", "p_control", "p_mono", "p_combo", "z_rho",
        "metric", "c_star", "p_threshold", "achieved_power",
        "value", "mc_stderr",
    )
    delta = float(grid.fixed.get("delta", 0.3))
    sigma2 = float(grid.fixed.get("sigma2", 1.0))
    target = float(grid.fixed.get("target_power", 0.8))
    n0 = int(grid.fixed.get("n0", 20))
    n_sim = grid.replications
    sweep = grid.sweep_values()
    total = len(sweep) * len(grid.rho_levels) * len(_TARGETS)
    done = 0
    rows = []
    for s_idx, s in enumerate(sweep):
        for r_idx, rho in enumerate(grid.rho_levels):
            scenario = DesignScenario.single(
                delta, float(s), sigma2, rho_ab_a=float(rho), rho_ab_b=float(rho)
            )
            alloc = optimize_allocation(scenario)
            z_rho = _z_rho(alloc.ratios, float(rho), float(rho))
            for metric in _TARGETS:
                threshold = generalized_dunnett_threshold(z_rho, metric)
                result = find_sample_size(
                    scenario,
                    alloc,
                    threshold,
                    target,
                    N0=n0,
                    n_sim=n_sim,
                    seed=_point_seed(grid.seed, s_idx, r_idx),
                )
                rows.append((
                    float(s), float(rho),
                    alloc.ratios[0], alloc.ratios[1], alloc.ratios[2], z_rho,
                    metric.kind, threshold.critical_value, threshold.p_threshold,
                    result.achieved_power, result.n_star,
                    _n_star_stderr(
                        scenario, alloc, threshold.critical_value,
                        result.n_star, target, n_sim,
                    ),
                ))
                done += 1
                if progress:
                    print(
                        f"design-surface {done}/{total}: s={s} rho={rho} "
                        f"{metric.kind} N*={result.n_star}",
                        file=sys.stderr,
                    )
    return ResultTable(columns, tuple(rows))


def _n_star_stderr(
    scenario: DesignScenario,
    alloc: Allocation,
    critical_value: float,
    n_star: int,
    target: float,
    n_sim: int,
) -> float:
    """Delta-method N* error: power noise over the power-in-N slope."""
    w = wald_noncentrality(scenario, alloc, n_star).min()
    slope = (
        math.exp(-((critical_value - math.sqrt(w)) ** 2) / 2.0)
        / math.sqrt(2.0 * math.pi)
        * math.sqrt(w)
        / (2.0 * n_star)
    )
    power_se = math.sqrt(target * (1.0 - target) / n_sim)
    return power_se / max(slope, 1e-12)
