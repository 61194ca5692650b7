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
    MvnSampler,
    RectangleSpec,
    bvn_rectangle,
    mvn_rectangle,
    std_normal_cdf,
)

__all__ = [
    "ErrorMetric",
    "ThresholdResult",
    "ErrorRates",
    "bonferroni_threshold",
    "holm_reject",
    "classical_dunnett_threshold",
    "platform_threshold",
    "empirical_error_rates",
]

_KINDS = ("fwer", "fmer", "msfp", "mfwer")
_BRACKET_HIGH = 10.0
_PROB_TOL = 1e-6


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


def _bisect_decreasing(
    objective: Callable[[float], float],
    target: float,
    prob_tol: float,
    x_tol: float = 1e-10,
    low: float = 0.0,
    high: float = _BRACKET_HIGH,
) -> float:
    """Root of a nonincreasing probability-valued objective on [low, high]."""
    f_low = objective(low)
    f_high = objective(high)
    if f_low < target - prob_tol or f_high > target + prob_tol:
        raise RootBracketError(
            f"no critical value in ({low}, {high}] reaches level {target} "
            f"(endpoint values {f_low:.6g}, {f_high:.6g})"
        )
    while high - low > x_tol:
        mid = (low + high) / 2.0
        if objective(mid) > target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


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
    draws = MvnSampler(
        np.zeros(z_corr.dim), z_corr.entries, seed, stream=1
    ).sample(replications)
    values = np.abs(draws) if sided == "two" else draws
    # count(values > c) >= m  <=>  m-th largest value > c
    return np.partition(values, values.shape[1] - m, axis=1)[:, values.shape[1] - m]


def platform_threshold(
    z_corr: CorrelationMatrix,
    metric: ErrorMetric,
    precision: float = 1e-4,
    seed: int = 0,
    replications: int = 200_000,
) -> ThresholdResult:
    """Common critical value for correlated Z statistics (2K for a
    K-substudy platform trial) under the chosen error metric.

    With two statistics (K=1) every metric is solved by bisection on the
    exact bivariate normal law, so ``achieved_stderr`` is 0 and ``precision``,
    ``seed`` and ``replications`` are unused.  With more, the any-rejection
    metric is solved by root finding on the randomized rectangle-probability
    estimate (one fixed seed, so every candidate c sees the same integration
    lattice).  Count-based metrics (at least m exceedances) are solved on a
    common pool of null draws: the same replications are re-thresholded at
    every candidate c, which keeps the Monte Carlo objective monotone in c.
    """
    dim = z_corr.dim
    if dim < 2:
        raise DomainError("platform threshold needs at least two test statistics")
    if metric.kind == "mfwer" and not 1 <= metric.m <= dim:
        raise DomainError(f"m must lie in [1, {dim}], got {metric.m}")

    if dim == 2:
        objective = _bivariate_exceedance(
            float(z_corr.entries[0, 1]), metric.exceedance_count, metric.effective_sided
        )
        c_star = _bisect_decreasing(objective, metric.alpha, _PROB_TOL)
        achieved = objective(c_star)
        stderr = 0.0
    elif metric.exceedance_count == 1:
        sided = metric.effective_sided
        last: dict[str, float] = {}

        def objective(c: float) -> float:
            if c <= 0.0:
                last["stderr"] = 0.0
                return 1.0
            lower = np.full(dim, -c if sided == "two" else -math.inf)
            est = mvn_rectangle(
                RectangleSpec(lower, np.full(dim, c), z_corr), precision, seed
            )
            last["stderr"] = est.stderr
            return 1.0 - est.value

        c_star = _bisect_decreasing(objective, metric.alpha, _PROB_TOL, x_tol=1e-8)
        achieved = objective(c_star)
        stderr = last["stderr"]
    else:
        stat = _tail_count_statistic(
            z_corr, metric.exceedance_count, metric.effective_sided, replications, seed
        )

        def objective(c: float) -> float:
            return float(np.mean(stat > c))

        c_star = _bisect_decreasing(objective, metric.alpha, _PROB_TOL, x_tol=1e-9)
        achieved = objective(c_star)
        stderr = math.sqrt(max(achieved * (1.0 - achieved), 1e-12) / replications)

    if abs(achieved - metric.alpha) > max(1e-4, 3.0 * stderr):
        raise RootBracketError(
            f"achieved level {achieved:.6g} misses target {metric.alpha:.6g} "
            f"beyond max(1e-4, 3 x stderr {stderr:.2g})"
        )
    return ThresholdResult(
        critical_value=c_star,
        p_threshold=_p_threshold(c_star),
        metric=metric,
        z_correlation=z_corr,
        achieved=achieved,
        achieved_stderr=stderr,
    )


@dataclass(frozen=True)
class ErrorRates:
    """Empirical false-positive proportions over simulated null trials."""

    fwer: float
    fmer: float
    msfp: float
    replications: int

    def stderr(self, which: str) -> float:
        rate = getattr(self, which)
        return math.sqrt(rate * (1.0 - rate) / self.replications)


def empirical_error_rates(
    z_corr: CorrelationMatrix,
    critical_value: float,
    replications: int,
    seed: int,
) -> ErrorRates:
    """Simulate null trials and report the three error-rate proportions.

    fwer: any |Z| exceeds c; fmer: at least two |Z| exceed c; msfp: at least
    two Z exceed c in the upper tail.
    """
    if replications < 1:
        raise DomainError("replications must be at least 1")
    draws = MvnSampler(
        np.zeros(z_corr.dim), z_corr.entries, seed, stream=2
    ).sample(replications)
    two_sided = np.abs(draws) > critical_value
    upper = draws > critical_value
    return ErrorRates(
        fwer=float(np.mean(two_sided.any(axis=1))),
        fmer=float(np.mean(two_sided.sum(axis=1) >= 2)),
        msfp=float(np.mean(upper.sum(axis=1) >= 2)),
        replications=replications,
    )
