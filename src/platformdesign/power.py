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


def marginal_power_oracle(W, c):
    """Exact two-sided rejection probability for one comparison;
    elementwise over arrays of noncentralities and critical values.

    Under the alternative the statistic is normal with unit variance and mean
    sqrt(W), so the rejection probability is 1 - cdf(c - sqrt(W)) +
    cdf(-c - sqrt(W)).  :func:`find_sample_size` evaluates it at every total
    it scans.
    """
    if np.any(np.asarray(W) < 0):
        raise DomainError("noncentrality must be nonnegative")
    if np.any(np.asarray(c) <= 0):
        raise DomainError("critical value must be positive")
    shift = np.sqrt(W)
    return 1.0 - std_normal_cdf(c - shift) + std_normal_cdf(-c - shift)


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
    return marginal_power_oracle(noncentrality, critical_value)


@dataclass(frozen=True)
class SampleSizeResult:
    """N*, the exact power of its integer design, its arm counts, and the
    power at every total scanned, from 2K+1 to N*."""

    n_star: int
    achieved_power: float
    search_trace: tuple[tuple[int, float], ...]
    arm_counts: tuple[int, ...]


_BLOCK = 1024


def _scan_totals(
    scenario: DesignScenario,
    alloc: Allocation,
    critical_values,
    target_power: float,
    n_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """N* for each critical value of one design, and the power at every
    total scanned: row i from 2K+1 up to at least its N*.

    Totals are scanned upward in blocks, because power at integer counts is
    not monotone in N; each block's arm counts serve every critical value.
    """
    if not 0.0 < target_power < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power}")
    c = np.asarray(critical_values, dtype=float)[:, None]
    min_n = 2 * scenario.K + 1
    if n_cap < min_n:
        raise DomainError(f"n_cap must be at least 2K+1 = {min_n}, got {n_cap}")
    n_star = np.zeros(c.shape[0], dtype=np.int64)  # 0 until found
    scanned: list[np.ndarray] = []
    for start in range(min_n, n_cap + 1, _BLOCK):
        totals = np.arange(start, min(start + _BLOCK, n_cap + 1))
        power = _design_power(scenario, alloc, c, totals)
        scanned.append(power)
        passing = power >= target_power
        found = (n_star == 0) & passing.any(axis=1)
        n_star[found] = totals[np.argmax(passing[found], axis=1)]
        if n_star.all():
            return n_star, np.concatenate(scanned, axis=1)
    raise BudgetExceeded(f"no N in [{min_n}, {n_cap}] reaches power {target_power}")


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
    n_star, power = _scan_totals(
        scenario, alloc, [threshold.critical_value], target_power, n_cap
    )
    n = int(n_star[0])
    min_n = 2 * scenario.K + 1
    powers = power[0, : n - min_n + 1].tolist()
    return SampleSizeResult(
        n_star=n,
        achieved_power=powers[-1],
        search_trace=tuple(zip(range(min_n, n + 1), powers)),
        arm_counts=alloc.arm_counts(n),
    )
