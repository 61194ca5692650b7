"""Exact power and the minimal sample-size search.

Under the alternative each test statistic is normal with unit variance and
mean mu / sd, where mu is its contrast's mean difference and sd the
contrast's standard deviation at the arm counts.  So the power of one
comparison is an exact two-sided normal tail.  The power of a design is the
minimum over its 2K comparisons; the tail grows with |mu / sd|, so that is the
tail at the smallest one.  The sample-size search returns the smallest total
N whose largest-remainder integer design reaches the target.  Power is
increasing in the noncentrality, so the target is met exactly where the
smallest noncentrality reaches one value W*, solved once per critical value.
The smallest noncentrality at integer counts is not monotone in N, so the
search scans N upward on noncentralities alone, and evaluates the power only
at the few totals that reach W*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, DesignScenario, _noncentralities
from .errors import BudgetExceeded, DomainError
from .multiplicity import ThresholdResult
from .mvnorm import _SQRT_2PI, std_normal_cdf, std_normal_quantile

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
    cdf(-c - sqrt(W)).  Every power the sample-size search reports is this
    function of a design's smallest noncentrality.
    """
    if np.any(np.asarray(W) < 0):
        raise DomainError("noncentrality must be nonnegative")
    if np.any(np.asarray(c) <= 0):
        raise DomainError("critical value must be positive")
    shift = np.sqrt(W)
    return 1.0 - std_normal_cdf(c - shift) + std_normal_cdf(-c - shift)


@dataclass(frozen=True)
class SampleSizeResult:
    """N*, the exact power of its integer design, its arm counts, and the
    power at every total scanned, from 2K+1 to N*."""

    n_star: int
    achieved_power: float
    search_trace: tuple[tuple[int, float], ...]
    arm_counts: tuple[int, ...]


# The floor lies this far below W*, relatively, and its power must lie at
# least _POWER_MARGIN below the target.  The margin is far above the rounding
# of a computed power (a few 1e-16), so no noncentrality under the floor can
# compute to a power at the target.
_FLOOR_SHRINK = 1e-6
_POWER_MARGIN = 1e-12
_NEWTON_STEPS = 30
_BLOCK = 1024


def _noncentrality_floor(critical_values, target_power: float) -> np.ndarray:
    """A noncentrality floor for each critical value c: every W under it has
    ``marginal_power_oracle(W, c)`` below ``target_power``.

    The floor is W*(c) (1 - 1e-6), where W* is the noncentrality whose power
    is the target.  Power is increasing in s = sqrt(W), with slope
    phi(c - s) - phi(c + s).  Newton steps on s start at c + z_target, where
    the upper tail alone already gives the target, and take one batched cdf
    call each for all critical values.  Where the target is at or below the
    power at W = 0, 2 Phi(-c), there is nothing to solve (the slope is 0
    there) and the floor is 0.  The power at every solved floor is checked
    against the target; a floor that fails the check also gives 0, which
    leaves the scan exact and only makes it evaluate more powers.  A critical
    value that is not finite is a :class:`DomainError`: no total reaches its
    target, and the scan would evaluate a power at every total up to its cap.
    """
    if not 0.0 < target_power < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power}")
    c = np.asarray(critical_values, dtype=float)
    if np.any(c <= 0):
        raise DomainError("critical value must be positive")
    if not np.isfinite(c).all():
        raise DomainError("critical value must be finite")
    floor = np.zeros(c.shape)
    solve = target_power > 2.0 * std_normal_cdf(-c)
    c = c[solve]
    s = c + std_normal_quantile(target_power)
    for _ in range(_NEWTON_STEPS):
        tails = std_normal_cdf(np.stack((c - s, -c - s)))
        slope = (np.exp(-0.5 * (c - s) ** 2) - np.exp(-0.5 * (c + s) ** 2)) / _SQRT_2PI
        step = (1.0 - tails[0] + tails[1] - target_power) / slope
        # never more than halve s, so it stays positive
        s = np.maximum(s - step, 0.5 * s)
        if np.all(np.abs(step) <= 1e-10 * s):
            break
    w_floor = (1.0 - _FLOOR_SHRINK) * s * s
    below = marginal_power_oracle(w_floor, c) < target_power - _POWER_MARGIN
    floor[solve] = np.where(below, w_floor, 0.0)
    return floor


def _scan_totals(
    scenario: DesignScenario,
    alloc: Allocation,
    critical_values,
    floor,
    target_power: float,
    n_cap: int,
) -> tuple[list[int], list[float], np.ndarray]:
    """N* for each critical value of one design, the power at each N*, and
    the smallest noncentrality of every total scanned, from 2K+1 to the end
    of the block that holds the largest N*.

    ``floor`` is :func:`_noncentrality_floor` of the critical values.  Totals
    are scanned upward in blocks, because the smallest noncentrality at
    integer counts is not monotone in N; each block's arm counts serve every
    critical value.  A total below a critical value's floor misses the
    target, so for each critical value still open the power is evaluated at
    the totals at or above its floor, one at a time and in order; the first
    that reaches the target is N*.  A power depends on nothing but the
    smallest noncentrality, so N* is the smallest total whose power reaches
    the target.
    """
    min_n = len(alloc.ratios)  # the noncentralities refuse a K unlike the scenario's
    if n_cap < min_n:
        raise DomainError(f"n_cap must be at least 2K+1 = {min_n}, got {n_cap}")
    n_star = [0] * len(critical_values)  # 0 until found
    powers = [0.0] * len(critical_values)
    scanned: list[np.ndarray] = []
    for start in range(min_n, n_cap + 1, _BLOCK):
        totals = np.arange(start, min(start + _BLOCK, n_cap + 1))
        w = np.min(_noncentralities(scenario, alloc.arm_counts_table(totals)), axis=1)
        scanned.append(w)
        for i, c in enumerate(critical_values):
            if n_star[i]:
                continue
            for j in np.flatnonzero(w >= floor[i]):
                power = marginal_power_oracle(w[j], c)
                if power >= target_power:
                    n_star[i], powers[i] = start + int(j), power
                    break
        if all(n_star):
            return n_star, powers, np.concatenate(scanned)
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
    ``threshold``.  N* is found on noncentralities: the totals are scanned
    upward from 2K+1 for the first whose smallest noncentrality reaches the
    one where the power meets the target (:func:`_scan_totals`).  The powers
    of ``search_trace`` are then evaluated in one call on those same
    noncentralities.  ``seed`` has no effect; it is kept for callers that
    pass one.  Raises :class:`BudgetExceeded` when no N <= ``n_cap``
    reaches the target, and :class:`DomainError` when the K differ or the
    critical value is not finite.
    """
    c = threshold.critical_value
    floor = _noncentrality_floor([c], target_power)
    (n,), _, w = _scan_totals(scenario, alloc, [c], floor, target_power, n_cap)
    min_n = 2 * scenario.K + 1
    powers = marginal_power_oracle(w[: n - min_n + 1], c).tolist()
    return SampleSizeResult(
        n_star=n,
        achieved_power=powers[-1],
        search_trace=tuple(zip(range(min_n, n + 1), powers)),
        arm_counts=alloc.arm_counts(n),
    )
