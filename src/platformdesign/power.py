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
search scans N upward on noncentralities alone, for many designs of one K at
once.  A bound on the noncentralities of each sub-block of totals, from the
range of its arm counts, rules out most totals before any arm counts are
computed; the power is evaluated only at the few totals that reach W*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import (
    Allocation, DesignScenario, _contrasts, _largest_remainder, _noncentralities,
)
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
# the scan bounds _WINDOW sub-blocks of _SUB_BLOCK totals per design and round,
# and evaluates the first _TAKE of them that its bound does not rule out
_SUB_BLOCK = 16
_WINDOW = 128
_TAKE = 2


def _smallest_noncentrality(counts, mu, rho, sigma2) -> np.ndarray:
    """The smallest of each row's noncentralities (:func:`_noncentralities`),
    on which its power depends.  The minimum is taken over the leading axis
    of a contiguous transposed copy: numpy reduces along a short last axis
    row by row, many times slower."""
    w = _noncentralities(counts, mu, rho, sigma2)
    return np.ascontiguousarray(np.moveaxis(w, -1, 0)).min(axis=0)


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


def _noncentrality_bound(ratios, mu, rho, sigma2, first, last) -> np.ndarray:
    """For each design and each range of totals [first, last], a bound on
    the smallest noncentrality at every total in it, or inf where no bound
    is proven.

    ``ratios`` has shape (designs, 2K+1), ``mu`` and ``rho`` (designs, 2K)
    (:func:`_contrasts`), ``sigma2`` (designs,), and ``first`` and ``last``
    (designs, ranges).  The largest-remainder count of an arm of share p at
    a total N is floor(p N) or one more, so over the range it lies in [L, H]
    = [floor(p first), floor(p last) + 1], the floors taken of the same
    products as the counts' own.  An arm left empty takes one subject from
    the largest arm, so with E arms whose L is 0 every arm keeps at least
    max(L - E, 1).  Each term of a contrast's variance 1/n_a + 1/n_0 - 2 rho
    / sqrt(n_a n_0) is then smallest at one end, and mu^2 over sigma2 times
    the sum of those ends bounds the contrast's noncentrality from above; the
    smallest noncentrality is at most the smallest of these.  A contrast
    whose variance bound is not positive bounds nothing.
    """
    # arms (and contrasts) first, so each reduction over them is elementwise
    share = ratios.T[:, :, None]
    low, high = np.floor(first * share), np.floor(last * share) + 1.0
    low = np.maximum(low - (low < 1.0).sum(axis=0), 1.0)
    rho = rho.T[:, :, None]
    # -2 rho / sqrt(n_a n_0) is smallest at the low counts for rho > 0 and
    # at the high ones for rho < 0
    ends = np.where(rho > 0.0, low[1:] * low[:1], high[1:] * high[:1])
    var = 1.0 / high[1:] + 1.0 / high[:1] - 2.0 * rho / np.sqrt(ends)
    with np.errstate(divide="ignore"):
        bound = (mu * mu).T[:, :, None] / (sigma2[:, None] * var)
    return np.where(var > 0.0, bound, np.inf).min(axis=0)


def _scan_totals(
    ratios, mu, rho, sigma2, critical_values, floor, target_power: float, n_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """N* for each (design, critical value) and the power at each N*, shape
    (designs, critical values) each.

    A design is a row of ``ratios`` (its 2K+1 shares), ``mu`` and ``rho``
    (:func:`_contrasts`) and ``sigma2``; every design has the same K.
    ``floor`` is :func:`_noncentrality_floor` of ``critical_values``.  Each
    design's totals are scanned upward from 2K+1 in rounds, every round for
    all designs at once.  A round bounds the noncentralities of the next
    2,048 totals in sub-blocks of 16 (:func:`_noncentrality_bound`).  A
    sub-block whose bound is below the floor of an open (design, critical
    value) pair holds no N* of it.  Each open pair takes its own first two
    sub-blocks that its floor does not rule out; the sub-blocks any pair of
    a design took get their exact integer counts and smallest
    noncentralities.  Then each open pair walks its totals at or above its
    floor in order, up to its frontier (its third such sub-block, or the
    end of the 2,048 totals), one power per step, all pairs in one call
    per step; the first whose power reaches the target is N*.
    A design's next round starts at the earliest frontier still open.  A
    power depends on nothing but the smallest noncentrality, so N* is the
    smallest total whose power reaches the target, as if every total were
    evaluated.
    """
    ratios, mu, rho, sigma2, c, floor = (
        np.asarray(a, dtype=float) for a in (ratios, mu, rho, sigma2, critical_values, floor)
    )
    min_n = ratios.shape[1]
    if n_cap < min_n:
        raise DomainError(f"n_cap must be at least 2K+1 = {min_n}, got {n_cap}")
    n_star = np.zeros(c.shape, dtype=np.int64)  # 0 until found
    powers = np.zeros(c.shape)
    # every total of a design below its start misses every target still open
    start = np.full(len(ratios), min_n)
    offsets, within = _SUB_BLOCK * np.arange(_WINDOW), np.arange(_SUB_BLOCK)
    while True:
        still_open = n_star == 0
        rows = np.flatnonzero(still_open.any(axis=1))
        if not rows.size:
            return n_star, powers
        if start[rows].max() > n_cap:
            raise BudgetExceeded(f"no N in [{min_n}, {n_cap}] reaches power {target_power}")
        first = start[rows, None] + offsets
        bound = _noncentrality_bound(
            ratios[rows], mu[rows], rho[rows], sigma2[rows], first, first + _SUB_BLOCK - 1
        )
        # by (design, critical value, sub-block): each open pair takes its
        # own first _TAKE sub-blocks whose bound reaches its floor
        open_pairs = still_open[rows, :, None]
        kept = (bound[:, None] >= floor[rows, :, None]) & (first <= n_cap)[:, None] & open_pairs
        rank = np.cumsum(kept, axis=2)
        taken = kept & (rank <= _TAKE)
        # a pair has covered every total before its frontier: its next kept
        # sub-block, or the end of the window
        after = first[:, -1:, None] + _SUB_BLOCK
        frontier = np.where(kept & (rank == _TAKE + 1), first[:, None], after).min(axis=2)
        # the totals of the sub-blocks any pair of a design took, in order
        # (0 where a design took fewer)
        taken = taken.any(axis=1)
        order = np.cumsum(taken, axis=1)
        totals = np.zeros((rows.size, order[:, -1].max(), _SUB_BLOCK), dtype=np.int64)
        row, block = np.nonzero(taken)
        totals[row, order[row, block] - 1] = first[row, block, None] + within
        totals = totals.reshape(rows.size, -1)
        scanned = (totals > 0) & (totals <= n_cap)
        w = np.full(totals.shape, -np.inf)
        if scanned.any():
            design = np.broadcast_to(rows[:, None], totals.shape)[scanned]
            w[scanned] = _smallest_noncentrality(
                _largest_remainder(ratios[design], totals[scanned]),
                mu[design], rho[design], sigma2[design, None],
            )
        # the walk: each step takes every open pair's next candidate before
        # its frontier
        candidate = (w[:, None] >= floor[rows, :, None]) & open_pairs
        candidate &= totals[:, None] < frontier[..., None]
        while True:
            r, m = np.nonzero(candidate.any(axis=2))
            if not r.size:
                break
            j = candidate[r, m].argmax(axis=1)
            power = marginal_power_oracle(w[r, j], c[rows[r], m])
            hit = power >= target_power
            n_star[rows[r[hit]], m[hit]] = totals[r[hit], j[hit]]
            powers[rows[r[hit]], m[hit]] = power[hit]
            if hit.all():
                break
            candidate[r, m, j] = False
            candidate[r[hit], m[hit]] = False
        # the next round starts at the earliest frontier of a pair still open
        start[rows] = np.min(frontier, axis=1, where=n_star[rows] == 0, initial=n_cap + 1)


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
    ``threshold``.  N* is found on noncentralities, by :func:`_scan_totals`
    for this one design: it skips the totals whose noncentrality bound
    rules them out and walks the rest upward for the first whose smallest
    noncentrality reaches the one where the power meets the target.  The
    powers of ``search_trace`` are then evaluated in one call on the exact
    noncentralities of every total from 2K+1 to N*.  ``seed`` has no
    effect; it is kept for callers that pass one.  Raises
    :class:`BudgetExceeded` when no N <= ``n_cap`` reaches the target, and
    :class:`DomainError` when the K differ or the critical value is not
    finite.
    """
    c = threshold.critical_value
    floor = _noncentrality_floor([[c]], target_power)
    mu, rho = _contrasts(
        scenario.delta, scenario.synergy, scenario.rho_combo_control, len(alloc.ratios)
    )
    ratios = np.array([alloc.ratios])
    n_star, _ = _scan_totals(
        ratios, mu[None], rho[None], [scenario.sigma2], [[c]], floor, target_power, n_cap
    )
    n = int(n_star[0, 0])
    totals = np.arange(ratios.shape[1], n + 1)
    counts = _largest_remainder(ratios, totals)
    w = _smallest_noncentrality(counts, mu, rho, scenario.sigma2)
    powers = marginal_power_oracle(w, c).tolist()
    return SampleSizeResult(
        n_star=n,
        achieved_power=powers[-1],
        search_trace=tuple(zip(totals.tolist(), powers)),
        arm_counts=tuple(counts[-1].tolist()),
    )
