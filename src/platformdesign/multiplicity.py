"""False-positive metrics and critical-value solvers.

Conventional adjustments (Bonferroni, Holm, the classical shared-control
procedure) are provided as comparators.  The generalized procedure solves for
a common critical value under the exact joint normal law of the test
statistics, so that a chosen error metric (any false rejection, multiple
false rejections, multiple superiority claims, or at-least-m rejections)
lands exactly on its target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .correlation import PlatformArms, classical_dunnett_correlation
from .errors import DomainError, RootBracketError
from .mvnorm import (
    CorrelationMatrix,
    QmcLattice,
    RectangleEstimate,
    _bvn_upper,
    bvn_rectangle,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "ErrorMetric",
    "DEFAULT_TARGETS",
    "ThresholdResult",
    "bonferroni_threshold",
    "holm_reject",
    "classical_dunnett_threshold",
    "platform_threshold",
    "bivariate_error_rates",
]

_KINDS = ("fwer", "fmer", "msfp", "mfwer")
_PROB_TOL = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ErrorMetric:
    """Which false-positive quantity is controlled, and at what level.

    ``m`` only applies to the at-least-m metric.  ``sided`` selects the
    exceedance convention for that metric ("two" counts |Z| > c, "one" counts
    Z > c); the other metrics have a fixed convention: two-sided for
    fwer/fmer, upper one-sided for msfp.
    """

    kind: str
    alpha: float
    m: int = 1
    sided: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"metric kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.m < 1:
            raise DomainError("m must be a positive integer")
        if self.kind != "mfwer" and self.m != 1:
            raise DomainError("m is only configurable for the mfwer metric")
        if self.sided is not None:
            if self.sided not in ("one", "two"):
                raise DomainError("sided must be 'one' or 'two'")
            fixed = {"fwer": "two", "fmer": "two", "msfp": "one"}
            if self.kind in fixed and self.sided != fixed[self.kind]:
                raise DomainError(f"{self.kind} is {fixed[self.kind]}-sided by definition")

    @property
    def effective_sided(self) -> str:
        if self.kind == "msfp":
            return "one"
        if self.kind == "mfwer":
            return self.sided or "two"
        return "two"

    @property
    def exceedance_count(self) -> int:
        """How many exceedances constitute the error event."""
        return {"fwer": 1, "fmer": 2, "msfp": 2, "mfwer": self.m}[self.kind]

    @classmethod
    def fwer(cls, alpha: float = 0.05) -> "ErrorMetric":
        return cls("fwer", alpha)

    @classmethod
    def fmer(cls, alpha: float = 0.0025) -> "ErrorMetric":
        return cls("fmer", alpha)

    @classmethod
    def msfp(cls, alpha: float = 0.000625) -> "ErrorMetric":
        return cls("msfp", alpha)

    @classmethod
    def mfwer(cls, m: int, alpha: float, sided: str = "two") -> "ErrorMetric":
        return cls("mfwer", alpha, m, sided)


# The default target of each metric: fwer 0.05, and for fmer and msfp the
# rates of two independent tests at that level (0.05^2 and 0.025^2).
DEFAULT_TARGETS = (ErrorMetric.fwer(), ErrorMetric.fmer(), ErrorMetric.msfp())


@dataclass(frozen=True)
class ThresholdResult:
    """Solved critical value with its two-sided p-value threshold."""

    critical_value: float
    p_threshold: float
    metric: ErrorMetric
    z_correlation: CorrelationMatrix
    achieved: float
    achieved_stderr: float = 0.0


def _p_threshold(c: float) -> float:
    return 2.0 * (1.0 - std_normal_cdf(c))


def bonferroni_threshold(num_tests: int, alpha: float) -> float:
    """Equal split of the significance level across tests."""
    if num_tests < 1:
        raise DomainError("num_tests must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha / num_tests


def holm_reject(p_values: Sequence[float], alpha: float) -> list[bool]:
    """Step-down decisions in the input order.

    The i-th smallest p-value is compared against alpha/(n-i+1); the first
    failure stops the procedure and everything at or beyond it is retained.
    """
    p = list(p_values)
    if any(not 0.0 <= v <= 1.0 for v in p):
        raise DomainError("p-values must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    n = len(p)
    decisions = [False] * n
    for rank, idx in enumerate(sorted(range(n), key=lambda i: p[i])):
        if p[idx] <= alpha / (n - rank):
            decisions[idx] = True
        else:
            break
    return decisions


def _solve_decreasing(
    level: Callable[[np.ndarray, np.ndarray], np.ndarray],
    target: float,
    low: np.ndarray,
    high: np.ndarray,
    x_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of nonincreasing ``level(c) - target``, one per bracket
    [low[i], high[i]] of the 1-d arrays ``low`` and ``high``, with the level
    at each.

    Brent's method (Brent 1973, ch. 4) in the form of scipy's ``brentq``,
    run elementwise: every element takes the inverse-interpolation or
    bisection step its own scalar search would take and stops on its own
    test, so its iterates are those of the scalar method.
    ``level(c, active)`` gets the trial points of the elements still
    searching and their indices, and returns their levels.  Where the level
    does not cross the target inside a bracket the nearer endpoint is
    returned and the caller's level check decides.
    """
    everyone = np.arange(low.size)
    f_low, f_high = level(low, everyone) - target, level(high, everyone) - target
    below = f_low <= 0.0
    x_out, f_out = np.where(below, low, high), np.where(below, f_low, f_high)
    active = np.flatnonzero(~below & (f_high < 0.0))
    x_pre, f_pre, x_cur, f_cur = low[active], f_low[active], high[active], f_high[active]
    x_blk, f_blk = x_pre, f_pre
    s_pre = s_cur = np.zeros(active.size)
    while active.size:
        flip = (f_pre < 0.0) != (f_cur < 0.0)
        x_blk, f_blk = np.where(flip, x_pre, x_blk), np.where(flip, f_pre, f_blk)
        step = x_cur - x_pre
        s_pre, s_cur = np.where(flip, step, s_pre), np.where(flip, step, s_cur)
        swap = np.abs(f_blk) < np.abs(f_cur)
        x_pre, x_cur, x_blk = (
            np.where(swap, x_cur, x_pre), np.where(swap, x_blk, x_cur), np.where(swap, x_cur, x_blk)
        )
        f_pre, f_cur, f_blk = (
            np.where(swap, f_cur, f_pre), np.where(swap, f_blk, f_cur), np.where(swap, f_cur, f_blk)
        )
        tol = (x_tol + 4.0 * _EPS * np.abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        done = (f_cur == 0.0) | (np.abs(s_bis) < tol)
        if done.any():
            x_out[active[done]], f_out[active[done]] = x_cur[done], f_cur[done]
            going = ~done
            active = active[going]
            x_pre, f_pre, x_cur, f_cur = x_pre[going], f_pre[going], x_cur[going], f_cur[going]
            x_blk, f_blk, s_pre, s_cur = x_blk[going], f_blk[going], s_pre[going], s_cur[going]
            tol, s_bis = tol[going], s_bis[going]
            if not active.size:
                break
        interpolate = (np.abs(s_pre) > tol) & (np.abs(f_cur) < np.abs(f_pre))
        s_try = np.zeros(active.size)
        secant = interpolate & (x_pre == x_blk)
        i = np.flatnonzero(secant)
        s_try[i] = -f_cur[i] * (x_cur[i] - x_pre[i]) / (f_cur[i] - f_pre[i])
        # inverse quadratic interpolation through three points
        i = np.flatnonzero(interpolate & ~secant)
        d_pre = (f_pre[i] - f_cur[i]) / (x_pre[i] - x_cur[i])
        d_blk = (f_blk[i] - f_cur[i]) / (x_blk[i] - x_cur[i])
        s_try[i] = -f_cur[i] * (f_blk[i] * d_blk - f_pre[i] * d_pre) / (
            d_blk * d_pre * (f_blk[i] - f_pre[i])
        )
        interpolate &= 2.0 * np.abs(s_try) < np.minimum(np.abs(s_pre), 3.0 * np.abs(s_bis) - tol)
        s_pre, s_cur = np.where(interpolate, s_cur, s_bis), np.where(interpolate, s_try, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur = x_cur + np.where(np.abs(s_cur) > tol, s_cur, np.copysign(tol, s_bis))
        f_cur = level(x_cur, active) - target
    return x_out, f_out + target


def _bivariate_exceedance(rho, c, count: int, sided: str) -> np.ndarray:
    """Exact P(at least ``count`` of two correlated statistics exceed c),
    elementwise over the broadcast arrays ``rho`` and ``c``.

    * count 1, two-sided (fwer): 1 - P(|Z1| <= c, |Z2| <= c)
    * count 2, two-sided (fmer): P(|Z1| > c, |Z2| > c), as four exact orthants
    * count 1, one-sided: 1 - P(Z1 <= c, Z2 <= c)
    * count 2, one-sided (msfp): P(Z1 > c, Z2 > c)

    A two-sided level is 1 at c <= 0.
    """
    rho, c = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(c, dtype=float))
    if sided == "one":
        if count == 1:
            box = np.stack((c, c), axis=-1)
            return 1.0 - bvn_rectangle(np.full(box.shape, -math.inf), box, rho)
        return _bvn_upper(c, c, rho)
    level = np.ones(c.shape)
    pos = c > 0.0
    c, rho = c[pos], rho[pos]
    if count == 1:
        box = np.stack((c, c), axis=-1)
        level[pos] = 1.0 - bvn_rectangle(-box, box, rho)
    else:
        # same-sign and opposite-sign orthants, equal in pairs by symmetry
        same, opposite = _bvn_upper(c, c, np.stack((rho, -rho)))
        level[pos] = 2.0 * same + 2.0 * opposite
    return level


def _as_float(values):
    """A float for a number or a 0-d array, an array as it is."""
    return float(values) if np.ndim(values) == 0 else values


def bivariate_error_rates(rho, critical_value) -> dict:
    """Exact fwer, fmer and msfp of two statistics with correlation ``rho``
    at one common critical value; elementwise (a dict of arrays) when either
    is an array."""
    return {
        kind: _as_float(_bivariate_exceedance(rho, critical_value, count, sided))
        for kind, count, sided in (("fwer", 1, "two"), ("fmer", 2, "two"), ("msfp", 2, "one"))
    }


def classical_dunnett_threshold(arms: PlatformArms, alpha: float) -> ThresholdResult:
    """Single shared-control critical value at the comparator correlation.

    Assumes independent treatment arms; provided as the conventional
    comparison point rather than as the recommended procedure.  ``arms``
    must describe one substudy (K=1).
    """
    rho_star = classical_dunnett_correlation(arms)
    return platform_threshold(CorrelationMatrix.bivariate(rho_star), ErrorMetric.fwer(alpha))


def _tail_count_statistic(
    z_corr: CorrelationMatrix, m: int, sided: str, replications: int, seed: int
) -> np.ndarray:
    """Per-replication m-th largest exceedance statistic under the null."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 1])
    values = rng.standard_normal((replications, z_corr.dim)) @ z_corr.factor.T
    if sided == "two":
        np.abs(values, out=values)
    # count(values > c) >= m  <=>  m-th largest value > c
    column = values.shape[1] - m
    values.partition(column, axis=1)
    return values[:, column].copy()


def _bracket(metric: ErrorMetric, dim: int, rho) -> tuple[np.ndarray, np.ndarray]:
    """Intervals [low, high] within [0, inf) that hold the critical value,
    one per entry of ``rho``.

    With t(c) one statistic's exceedance probability, P(any of ``dim``
    exceeds c) lies between t(c) and dim * t(c) (the union bound).  P(both of
    two exceed c) is at most t(c).  It is at least t(c)^2 when the two are
    positively associated: always for their absolute values, and for the
    statistics themselves when rho >= 0.  When rho < 0 it is at most t(c)^2
    (Slepian's inequality).
    """
    tail = 2.0 if metric.effective_sided == "two" else 1.0

    def quantile(t: float) -> float:  # the c at which t(c) = t
        return -std_normal_quantile(t / tail)

    rho = np.asarray(rho, dtype=float)
    alpha = metric.alpha
    if metric.exceedance_count == 1:
        low, high = np.full(rho.shape, quantile(alpha)), np.full(rho.shape, quantile(alpha / dim))
    else:
        product = quantile(math.sqrt(alpha))
        associated = (rho >= 0.0) | (metric.effective_sided == "two")
        low = np.where(associated, product, 0.0)
        high = np.where(associated, quantile(alpha), product)
    low = np.maximum(low, 0.0)
    return low, np.maximum(high, low)


def _check_level(metric: ErrorMetric, c_star, achieved, tolerance: float) -> None:
    """:class:`RootBracketError` unless every achieved level is within
    ``tolerance`` of the target."""
    c_star, achieved = np.atleast_1d(c_star), np.atleast_1d(achieved)
    miss = np.flatnonzero(np.abs(achieved - metric.alpha) > tolerance)
    if miss.size:
        i = miss[0]
        raise RootBracketError(
            f"no critical value c >= 0 reaches level {metric.alpha:.6g}: the level at "
            f"c = {c_star[i]:.6g} is {achieved[i]:.6g}, more than {tolerance:.2g} away"
        )


def _bivariate_critical_values(rho, metric: ErrorMetric) -> tuple[np.ndarray, np.ndarray]:
    """Critical values of two statistics with correlation ``rho`` under the
    exact bivariate law, and the levels they reach: one elementwise Brent
    search for every entry of ``rho``."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    count, sided = metric.exceedance_count, metric.effective_sided

    def level(c: np.ndarray, active: np.ndarray) -> np.ndarray:
        return _bivariate_exceedance(rho[active], c, count, sided)

    low, high = _bracket(metric, 2, rho)
    c_star, achieved = _solve_decreasing(level, metric.alpha, low, high, x_tol=1e-12)
    _check_level(metric, c_star, achieved, _PROB_TOL)
    return c_star, achieved


def platform_threshold(
    z_corr: CorrelationMatrix,
    metric: ErrorMetric,
    precision: float = 1e-4,
    seed: int = 0,
    replications: int = 200_000,
) -> ThresholdResult:
    """Common critical value for correlated Z statistics (2K for a
    K-substudy platform trial) under the chosen error metric.

    Metrics counting any exceedance, and every metric with two statistics
    (K=1), are solved by one Brent root search on an analytic bracket: one
    statistic's level against the union bound, or for two exceedances of two
    statistics their product against one statistic's level.  With two
    statistics the level is the exact bivariate normal law, so
    ``achieved_stderr`` is 0 and ``precision``, ``seed`` and ``replications``
    are validated but unused.  With more, the level is a randomized quasi-Monte Carlo
    rectangle probability on one :class:`QmcLattice` per solve.  Its points
    grow at the bracket's upper end until the level's standard error is at
    most ``precision``, then stay fixed, so the search sees a smooth
    deterministic function of c.  Should the standard error at the root still
    exceed ``precision``, the lattice grows there and the search runs again.
    Count-based metrics (at least m >= 2 of more than two statistics exceed
    c) use a common pool of ``replications`` null draws: the pool's level is
    a step function of c, and its root, an order statistic of the draws'
    m-th largest exceedance, is read off directly.
    """
    dim = z_corr.dim
    if dim < 2:
        raise DomainError("platform threshold needs at least two test statistics")
    if not 0.0 < precision < math.inf:
        raise DomainError(f"precision must be positive and finite, got {precision}")
    if replications < 1:
        raise DomainError(f"replications must be at least 1, got {replications}")
    if metric.kind == "mfwer" and not 1 <= metric.m <= dim:
        raise DomainError(f"m must lie in [1, {dim}], got {metric.m}")

    rho = float(z_corr.entries[0, 1])
    two_sided = metric.effective_sided == "two"
    if dim == 2:
        c_values, levels = _bivariate_critical_values(rho, metric)
        c_star, achieved, stderr = float(c_values[0]), float(levels[0]), 0.0
    elif metric.exceedance_count == 1:
        lattice = QmcLattice(z_corr, seed)
        # estimates on the lattice at its current size, by c
        estimates: dict[float, RectangleEstimate] = {}

        def box(c: float) -> tuple[np.ndarray, np.ndarray]:
            return np.full(dim, -c if two_sided else -math.inf), np.full(dim, c)

        def level(c: np.ndarray, active: np.ndarray) -> np.ndarray:
            key = float(c[0])
            if key not in estimates:
                estimates[key] = lattice.estimate(*box(key))
            return np.array([1.0 - estimates[key].value])

        low, high = _bracket(metric, dim, [rho])
        c_star = float(high[0])
        while True:
            estimates.clear()
            estimates[c_star] = lattice.refine(*box(c_star), precision)
            c_values, levels = _solve_decreasing(level, metric.alpha, low, high, x_tol=1e-8)
            c_star, achieved = float(c_values[0]), float(levels[0])
            stderr = estimates[c_star].stderr
            if stderr <= precision:
                break
    else:
        stat = _tail_count_statistic(
            z_corr, metric.exceedance_count, metric.effective_sided, replications, seed
        )
        # the smallest c with at most alpha * replications draws above it
        rank = replications - 1 - int(metric.alpha * replications)
        c_star = max(float(np.partition(stat, rank)[rank]), 0.0)
        achieved = np.count_nonzero(stat > c_star) / replications
        stderr = math.sqrt(max(achieved * (1.0 - achieved), 1e-12) / replications)

    if dim > 2:  # the bivariate solve checks its own level
        tolerance = max(1e-4, 3.0 * stderr) if stderr > 0.0 else _PROB_TOL
        _check_level(metric, c_star, achieved, tolerance)
    return ThresholdResult(
        critical_value=c_star,
        p_threshold=_p_threshold(c_star),
        metric=metric,
        z_correlation=z_corr,
        achieved=achieved,
        achieved_stderr=stderr,
    )
