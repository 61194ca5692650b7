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
    bvn_rectangle,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "ErrorMetric",
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
    level: Callable[[float], float], target: float, low: float, high: float, x_tol: float
) -> tuple[float, float]:
    """Root of a nonincreasing ``level(c) - target`` on [low, high], with the
    level there.

    Brent's method (Brent 1973, ch. 4) in the form of scipy's ``brentq``:
    inverse interpolation steps, bisection whenever they are too slow.  When
    the level does not cross the target inside the bracket the nearer
    endpoint is returned and the caller's level check decides.
    """
    f_low, f_high = level(low) - target, level(high) - target
    if f_low <= 0.0 or f_high >= 0.0:
        return (low, f_low + target) if f_low <= 0.0 else (high, f_high + target)
    x_pre, f_pre, x_cur, f_cur = low, f_low, high, f_high
    x_blk, f_blk, s_pre, s_cur = low, f_low, 0.0, 0.0
    while True:
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = (x_tol + 4.0 * _EPS * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if f_cur == 0.0 or abs(s_bis) < tol:
            return x_cur, f_cur + target
        interpolate = abs(s_pre) > tol and abs(f_cur) < abs(f_pre)
        if interpolate:
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation through three points
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre)
                s_try /= d_blk * d_pre * (f_blk - f_pre)
            interpolate = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - tol)
        s_pre, s_cur = (s_cur, s_try) if interpolate else (s_bis, s_bis)
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        f_cur = level(x_cur) - target


def _bivariate_exceedance(rho: float, count: int, sided: str) -> Callable[[float], float]:
    """Exact P(at least ``count`` of two correlated statistics exceed c).

    * count 1, two-sided (fwer): 1 - P(|Z1| <= c, |Z2| <= c)
    * count 2, two-sided (fmer): P(|Z1| > c, |Z2| > c), as four exact orthants
    * count 1, one-sided: 1 - P(Z1 <= c, Z2 <= c)
    * count 2, one-sided (msfp): P(Z1 > c, Z2 > c)
    """
    inf = math.inf
    if sided == "two" and count == 1:
        return lambda c: 1.0 - bvn_rectangle((-c, -c), (c, c), rho) if c > 0 else 1.0
    if sided == "two":
        return lambda c: (
            2.0 * bvn_rectangle((c, c), (inf, inf), rho)
            + 2.0 * bvn_rectangle((c, c), (inf, inf), -rho)
            if c > 0 else 1.0
        )
    if count == 1:
        return lambda c: 1.0 - bvn_rectangle((-inf, -inf), (c, c), rho)
    return lambda c: bvn_rectangle((c, c), (inf, inf), rho)


def bivariate_error_rates(rho: float, critical_value: float) -> dict[str, float]:
    """Exact fwer, fmer and msfp of two statistics with correlation ``rho``
    at one common critical value."""
    return {
        kind: _bivariate_exceedance(rho, count, sided)(critical_value)
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


def _bracket(metric: ErrorMetric, dim: int, rho: float) -> tuple[float, float]:
    """Interval [low, high] within [0, inf) that holds the critical value.

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

    alpha = metric.alpha
    if metric.exceedance_count == 1:
        low, high = quantile(alpha), quantile(alpha / dim)
    else:
        product = quantile(math.sqrt(alpha))
        if metric.effective_sided == "two" or rho >= 0.0:
            low, high = product, quantile(alpha)
        else:
            low, high = 0.0, product
    low = max(low, 0.0)
    return low, max(high, low)


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
        level = _bivariate_exceedance(rho, metric.exceedance_count, metric.effective_sided)
        low, high = _bracket(metric, dim, rho)
        c_star, achieved = _solve_decreasing(level, metric.alpha, low, high, x_tol=1e-12)
        stderr = 0.0
    elif metric.exceedance_count == 1:
        lattice = QmcLattice(z_corr, seed)
        # estimates on the lattice at its current size, by c
        estimates: dict[float, RectangleEstimate] = {}

        def box(c: float) -> tuple[np.ndarray, np.ndarray]:
            return np.full(dim, -c if two_sided else -math.inf), np.full(dim, c)

        def level(c: float) -> float:
            if c not in estimates:
                estimates[c] = lattice.estimate(*box(c))
            return 1.0 - estimates[c].value

        low, high = _bracket(metric, dim, rho)
        c_star = high
        while True:
            estimates.clear()
            estimates[c_star] = lattice.refine(*box(c_star), precision)
            c_star, achieved = _solve_decreasing(level, metric.alpha, low, high, x_tol=1e-8)
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

    tolerance = max(1e-4, 3.0 * stderr) if stderr > 0.0 else _PROB_TOL
    if abs(achieved - metric.alpha) > tolerance:
        raise RootBracketError(
            f"no critical value c >= 0 reaches level {metric.alpha:.6g}: the level at "
            f"c = {c_star:.6g} is {achieved:.6g}, more than {tolerance:.2g} away"
        )
    return ThresholdResult(
        critical_value=c_star,
        p_threshold=_p_threshold(c_star),
        metric=metric,
        z_correlation=z_corr,
        achieved=achieved,
        achieved_stderr=stderr,
    )
