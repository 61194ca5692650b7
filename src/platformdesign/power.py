"""Exact power and the minimal sample-size search.

Under the alternative each test statistic is normal with unit variance and
mean mu / sd, where mu is its contrast's mean difference and sd the
contrast's standard deviation at the arm counts.  So the power of one
comparison is an exact two-sided normal tail.  The power of a design is the
minimum over its 2K comparisons; the tail grows with |mu / sd|, so that is the
tail at the smallest one.  The sample-size search returns the smallest total
N whose largest-remainder integer design reaches the target.  Power at
integer counts is not monotone in N, so the search scans N upward instead of
bisecting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, DesignScenario, _contrast_variance
from .errors import BudgetExceeded, DomainError
from .multiplicity import ThresholdResult
from .mvnorm import std_normal_cdf

__all__ = [
    "SampleSizeResult",
    "marginal_power_oracle",
    "find_sample_size",
]


def marginal_power_oracle(W: float, c: float) -> float:
    """Exact two-sided rejection probability for one comparison.

    Under the alternative the statistic is normal with unit variance and mean
    sqrt(W), so the rejection probability is 1 - cdf(c - sqrt(W)) +
    cdf(-c - sqrt(W)).  :func:`find_sample_size` evaluates it at every total
    it scans.
    """
    if W < 0:
        raise DomainError("noncentrality must be nonnegative")
    if c <= 0:
        raise DomainError("critical value must be positive")
    shift = math.sqrt(W)
    return 1.0 - std_normal_cdf(c - shift) + std_normal_cdf(-c - shift)


_marginal_power = np.vectorize(marginal_power_oracle, otypes=[float])


def _design_power(
    scenario: DesignScenario, alloc: Allocation, critical_value: float, totals: np.ndarray
) -> np.ndarray:
    """Exact minimum per-comparison power of the integer design at each total."""
    counts = alloc.arm_counts_table(totals)
    delta = np.asarray(scenario.delta)
    # comparisons in arm order: mono_1, combo_1, mono_2, combo_2, ...
    mu = np.column_stack((delta, np.asarray(scenario.synergy) * delta)).ravel()
    rho = np.column_stack((np.zeros(scenario.K), scenario.rho_combo_control)).ravel()
    var = scenario.sigma2 * _contrast_variance(counts[:, 1:], counts[:, :1], rho)
    if np.any(var <= 0.0):
        raise DomainError("a contrast variance is not positive")
    noncentrality = np.min(mu * mu / var, axis=1)
    return _marginal_power(noncentrality, critical_value)


@dataclass(frozen=True)
class SampleSizeResult:
    """N*, the exact power of its integer design, its arm counts, and the
    power at every total scanned, from 2K+1 to N*."""

    n_star: int
    achieved_power: float
    search_trace: tuple[tuple[int, float], ...]
    arm_counts: tuple[int, ...]


_BLOCK = 1024


def find_sample_size(
    scenario: DesignScenario,
    alloc: Allocation,
    threshold: ThresholdResult,
    target_power: float,
    seed: int = 0,
    n_cap: int = 1_000_000,
) -> SampleSizeResult:
    """Smallest total N whose integer design reaches ``target_power``.

    The design at N is ``alloc.arm_counts(N)`` and its power the exact
    minimum per-comparison power at those counts, at the critical value of
    ``threshold``.  Totals are scanned upward from 2K+1 in blocks, because
    power at integer counts is not monotone in N.  ``seed`` has no effect;
    it is kept for callers that pass one.  Raises :class:`BudgetExceeded`
    when no N <= ``n_cap`` reaches the target.
    """
    if not 0.0 < target_power < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power}")
    min_n = 2 * scenario.K + 1
    scanned: list[np.ndarray] = []
    for start in range(min_n, n_cap + 1, _BLOCK):
        totals = np.arange(start, min(start + _BLOCK, n_cap + 1))
        power = _design_power(scenario, alloc, threshold.critical_value, totals)
        scanned.append(power)
        passing = np.flatnonzero(power >= target_power)
        if passing.size:
            n_star = int(totals[passing[0]])
            powers = np.concatenate(scanned)[: n_star - min_n + 1].tolist()
            return SampleSizeResult(
                n_star=n_star,
                achieved_power=powers[-1],
                search_trace=tuple(zip(range(min_n, n_star + 1), powers)),
                arm_counts=alloc.arm_counts(n_star),
            )
    raise BudgetExceeded(f"no N in [{min_n}, {n_cap}] reaches power {target_power}")
