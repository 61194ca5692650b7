"""Simulation-study harness: parameter grids in, tidy result tables out.

Four studies mirror the main questions a designer asks: how arm correlations
move the error rates, how conventional adjustments behave, what thresholds
the generalized procedure sets, and what allocation/sample size the full
pipeline recommends.  Every row is computed, not simulated: error rates of
two statistics are exact bivariate normal probabilities and N* is searched on
exact power, so tables are the same byte for byte whatever the grid's seed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import Allocation, _arm_correlation_matrix, _check_arm_correlations
from .correlation import (
    _NOMINAL_TOTAL, PlatformArms, _z_correlations, classical_dunnett_correlation,
)
from .errors import DomainError
from .multiplicity import (
    DEFAULT_TARGETS,
    ErrorMetric,
    _bivariate_critical_values,
    _p_threshold,
    bivariate_error_rates,
)
from .mvnorm import _unequal_orthant, std_normal_quantile
from .power import design

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
_METRICS = tuple(metric.kind for metric in DEFAULT_TARGETS)

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
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step <= 0:
            raise DomainError("step must be positive")
        if self.stop < self.start:
            raise DomainError("stop must not precede start")
        if self.replications < 1:
            raise DomainError("replications must be positive")
        if not self.allocations:
            raise DomainError("allocations must hold at least one allocation")
        for alloc in self.allocations:
            if Allocation(tuple(alloc)).K != 1:
                raise DomainError(
                    f"each allocation has three shares (control, monotherapy, "
                    f"combination), got {len(alloc)}"
                )

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


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Fixed-schema table stored by column: one numpy array per column
    (float, int or str), its rows read in C order.  A value repeated on
    consecutive rows is a broadcast view that stores it once.  Rows are
    built on demand; CSV and JSON lines are written deterministically."""

    columns: tuple
    data: tuple

    def __post_init__(self) -> None:
        data = tuple(np.asarray(values) for values in self.data)
        if len(data) != len(self.columns):
            raise DomainError(f"{len(self.columns)} columns but {len(data)} data columns")
        if len({values.size for values in data}) > 1:
            raise DomainError("table columns differ in length")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_columns(cls, **columns) -> "ResultTable":
        """A table with the keyword order as column order."""
        return cls(tuple(columns), tuple(columns.values()))

    def _values(self, name: str) -> list:
        return self.data[self.columns.index(name)].ravel().tolist()

    @property
    def rows(self) -> tuple:
        """The rows as tuples of Python floats, ints and strs."""
        return tuple(zip(*(self._values(name) for name in self.columns)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_render(v) for v in row])
        return buffer.getvalue()

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(dict(zip(self.columns, row)), allow_nan=False)
            for row in self.rows
        ]
        return "\n".join(lines) + "\n"

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str, **match) -> list:
        values = self._values(name)
        picks = [(self._values(key), value) for key, value in match.items()]
        return [v for i, v in enumerate(values) if all(col[i] == want for col, want in picks)]


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sweep(grid: GridSpec, allocations: tuple, **labels) -> tuple[np.ndarray, dict]:
    """The Z correlation at each (allocation, sweep point), and the columns
    that open every row of a correlation study: the sweep, the arm
    correlations, the allocation shares, the Z correlation and one column
    per label axis, each a view on the rows' grid (allocation, sweep point,
    *labels)."""
    other = {"rho_ab_a": "rho_ab_b", "rho_ab_b": "rho_ab_a"}.get(grid.swept)
    if other not in grid.fixed:
        raise DomainError(f"a correlation study sweeps rho_ab_a or rho_ab_b and holds the "
                          f"other in fixed, not {grid.swept} with fixed {sorted(grid.fixed)}")
    values = grid.sweep_values()
    held = np.full(values.shape, float(grid.fixed[other]))
    rho_ab_a, rho_ab_b = (values, held) if grid.swept == "rho_ab_a" else (held, values)
    arm_rho = _check_arm_correlations(_arm_correlation_matrix(rho_ab_a[:, None], rho_ab_b[:, None]))
    allocs = np.array(allocations, dtype=float)
    z_rho = _z_correlations(_NOMINAL_TOTAL * allocs[:, None], arm_rho)[..., 0, 1]
    shape = (*z_rho.shape, *(len(axis) for axis in labels.values()))

    def spread(column, axis: int) -> np.ndarray:
        """``column``, whose last axis is the rows' grid axis ``axis``."""
        index = (..., *(None,) * (len(shape) - 1 - axis))
        return np.broadcast_to(np.asarray(column)[index], shape)

    return z_rho, {
        "swept": np.broadcast_to(grid.swept, shape),
        "swept_value": spread(values, 1),
        "rho_ab_a": spread(rho_ab_a, 1),
        "rho_ab_b": spread(rho_ab_b, 1),
        "p_control": spread(allocs[:, 0], 0),
        "p_mono": spread(allocs[:, 1], 0),
        "p_combo": spread(allocs[:, 2], 0),
        "z_rho": spread(z_rho, 1),
        **{name: spread(axis, 2 + i) for i, (name, axis) in enumerate(labels.items())},
    }


_BASELINE = [BASELINES[metric] for metric in _METRICS]


def run_error_curves(grid: GridSpec) -> ResultTable:
    """Unadjusted error rates at the conventional critical value (study 1)."""
    # rows by (allocation, sweep point, metric)
    z_rho, leading = _sweep(grid, grid.allocations, metric=_METRICS)
    rates = bivariate_error_rates(z_rho, std_normal_quantile(0.975))
    return ResultTable.from_columns(
        **leading,
        value=np.stack([rates[metric] for metric in _METRICS], axis=-1),
        baseline=np.broadcast_to(_BASELINE, leading["metric"].shape),
    )


def _holm_rates(z_rho, first_cut: float, last_cut: float, at_first: dict) -> dict:
    """Exact error rates of the two-test Holm step-down, from the rates at
    its first cut and the upper orthants U(a, b, r) = P(Z1 > a, Z2 > b).

    Holm rejects a test iff max|Z| > b (``first_cut``, level alpha/2 per
    test), and both iff also min|Z| > a (``last_cut``, level alpha).  So its
    fwer is the fwer at b.  Both are rejected iff one |Z| exceeds b and the
    other a: P(|Z1| > b, |Z2| > a) + P(|Z1| > a, |Z2| > b) less P(both |Z| >
    b), where each of the first two is 2 U(a, b, rho) + 2 U(a, b, -rho) by
    sign symmetry.  So Holm fmer = 4 [U(a, b, rho) + U(a, b, -rho)] - fmer(b),
    and likewise Holm msfp = 2 U(a, b, rho) - msfp(b).  Both orthants come
    from one call of the unequal-bound kernel :func:`_unequal_orthant`
    (Owen's T integral), relatively precise however small they are.
    """
    a, b = last_cut, first_cut
    same_sign, opposite_sign = _unequal_orthant(a, b, np.stack((z_rho, -z_rho)))
    return {
        "fwer": at_first["fwer"],
        "fmer": 4.0 * (same_sign + opposite_sign) - at_first["fmer"],
        "msfp": 2.0 * same_sign - at_first["msfp"],
    }


_METHODS = ("noadj", "bonferroni", "holm", "dunnett")


def run_adjustment_comparison(grid: GridSpec) -> ResultTable:
    """Error rates of the conventional adjustments per grid point (study 2)."""
    alpha = float(grid.fixed.get("alpha", 0.05))
    c_nominal = std_normal_quantile(0.975)
    c_bonf = std_normal_quantile(1.0 - alpha / 4.0)
    c_holm_last = std_normal_quantile(1.0 - alpha / 2.0)
    # rows by (allocation, sweep point, method, metric)
    z_rho, leading = _sweep(grid, grid.allocations, method=_METHODS, metric=_METRICS)
    # the classical comparator's critical value per allocation, in one search
    rho_star = [
        classical_dunnett_correlation(PlatformArms.single(*(_NOMINAL_TOTAL * p for p in alloc)))
        for alloc in grid.allocations
    ]
    c_dunnett = _bivariate_critical_values(rho_star, (ErrorMetric.fwer(alpha),))[0][:, 0]
    # the rates at every cut in one call: cuts by allocation by point
    cuts = np.broadcast_arrays(c_nominal, c_bonf, c_dunnett[:, None], z_rho)[:-1]
    rates = bivariate_error_rates(z_rho, np.stack(cuts))
    noadj, bonferroni, dunnett = (
        {metric: rates[metric][i] for metric in _METRICS} for i in range(len(cuts))
    )
    per_method = {
        "noadj": noadj,
        "bonferroni": bonferroni,
        "holm": _holm_rates(z_rho, c_bonf, c_holm_last, bonferroni),
        "dunnett": dunnett,
    }
    return ResultTable.from_columns(
        **leading,
        value=np.stack(
            [np.stack([per_method[m][metric] for metric in _METRICS], axis=-1) for m in _METHODS],
            axis=-2,
        ),
        baseline=np.broadcast_to(_BASELINE, leading["metric"].shape),
    )


def run_threshold_curves(grid: GridSpec) -> ResultTable:
    """Adjusted p-value thresholds per metric across the sweep (study 3)."""
    # rows by (sweep point, metric), at the grid's first allocation
    z_rho, leading = _sweep(grid, grid.allocations[:1], metric=_METRICS)
    for share in ("p_control", "p_mono", "p_combo"):
        del leading[share]
    c_star, _ = _bivariate_critical_values(z_rho[0], DEFAULT_TARGETS)
    return ResultTable.from_columns(**leading, c_star=c_star, value=_p_threshold(c_star))


def run_design_surface(grid: GridSpec) -> ResultTable:
    """Optimal allocation and minimal N per (synergy, rho, metric) (study 4).

    Each point is the K = 1 scenario (delta, s, sigma2, rho, rho), and all
    points and metrics are one :func:`design` call.  N* and its achieved
    power are exact.  Each finished point is logged at INFO level.
    """
    if grid.swept != "synergy":
        raise DomainError(f"the design surface sweeps synergy, not {grid.swept}")
    delta = float(grid.fixed.get("delta", 0.3))
    sigma2 = float(grid.fixed.get("sigma2", 1.0))
    target = float(grid.fixed.get("target_power", 0.8))
    points = [(float(s), float(rho)) for s in grid.sweep_values() for rho in grid.rho_levels]
    synergy, rho = np.array(points).T[:, :, None]
    result = design(
        np.full(synergy.shape, delta), synergy, rho, rho, DEFAULT_TARGETS, target, sigma2=sigma2
    )
    c_star, n_star, ratios = result.critical_value, result.n_star, result.ratios
    for i, (point, metric) in enumerate(itertools.product(points, _METRICS)):
        logger.info(
            "design-surface %d/%d: s=%s rho=%s %s N*=%d",
            i + 1, c_star.size, *point, metric, n_star.flat[i],
        )
    # rows by (point, metric)
    shape = c_star.shape
    return ResultTable.from_columns(
        synergy=np.broadcast_to(synergy, shape),
        rho=np.broadcast_to(rho, shape),
        p_control=np.broadcast_to(ratios[:, 0, None], shape),
        p_mono=np.broadcast_to(ratios[:, 1, None], shape),
        p_combo=np.broadcast_to(ratios[:, 2, None], shape),
        z_rho=np.broadcast_to(result.z_correlation[:, 0, 1, None], shape),
        metric=np.broadcast_to(_METRICS, shape),
        c_star=c_star,
        p_threshold=_p_threshold(c_star),
        achieved_power=result.achieved_power,
        value=n_star,
    )
