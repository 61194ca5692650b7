"""Exact power, the minimal sample-size search, and the design pipeline.

Under the alternative each test statistic is normal with unit variance and
mean mu / sd, so a comparison's power is an exact two-sided normal tail and
a design's power, the smallest over its 2K comparisons, is that tail at its
smallest noncentrality.  N* is the smallest total whose largest-remainder
integer design reaches the target power, that is, whose smallest
noncentrality reaches W*.  That noncentrality is not monotone in N at
integer counts, so N* is the first such total in order; for many designs at
once, bounds on ranges of totals bracket each N* and only a few totals get
exact counts.  :func:`design` is the design pipeline for many designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import (
    Allocation, DesignScenario, _check_scenarios, _contrasts, _largest_remainder,
    _max_min_shares, _noncentralities,
)
from .correlation import _NOMINAL_TOTAL, _arm_correlation_matrix, _z_correlations
from .errors import BudgetExceeded, DomainError
from .multiplicity import (
    ThresholdResult, _bivariate_critical_values, _check_solver_settings, platform_threshold,
)
from .mvnorm import _SQRT_2PI, CorrelationMatrix, _std_normal_cdf, _std_normal_quantile

__all__ = [
    "SampleSizeResult",
    "DesignResult",
    "find_sample_size",
    "design",
]


def _power(W, c):
    """Exact two-sided rejection probability for one comparison;
    elementwise over arrays of noncentralities and critical values.

    Under the alternative the statistic is normal with unit variance and mean
    sqrt(W), so the rejection probability is 1 - cdf(c - sqrt(W)) +
    cdf(-c - sqrt(W)).  Every power the sample-size search reports is this
    function of a design's smallest noncentrality.
    """
    shift = np.sqrt(W)
    return 1.0 - _std_normal_cdf(c - shift) + _std_normal_cdf(-c - shift)


@dataclass(frozen=True)
class SampleSizeResult:
    """N*, the exact power of its integer design, its arm counts, and the
    power at every total from 2K+1 to N*."""

    n_star: int
    achieved_power: float
    search_trace: tuple[tuple[int, float], ...]
    arm_counts: tuple[int, ...]


# The floor and ceiling lie this far below and above W*, relatively, and
# their powers at least _POWER_MARGIN below and above the target: far more
# than a computed power's rounding (a few 1e-16), so no W under the floor
# computes to a power at the target, nor one over the ceiling to one below.
_RELATIVE_GAP = 1e-6
_POWER_MARGIN = 1e-12
_NEWTON_STEPS = 30
# noncentralities are bounded over ranges of this many totals
_SUB_BLOCK = 16


def _smallest_noncentrality(counts, mu, rho, sigma2) -> np.ndarray:
    """The smallest of each row's noncentralities (:func:`_noncentralities`),
    on which its power depends.  The minimum is taken over the leading axis
    of a contiguous transposed copy: numpy reduces along a short last axis
    row by row, many times slower."""
    w = _noncentralities(counts, mu, rho, sigma2)
    return np.ascontiguousarray(np.moveaxis(w, -1, 0)).min(axis=0)


def _noncentrality_floor(critical_values, target_power: float) -> tuple[np.ndarray, np.ndarray]:
    """A noncentrality floor and ceiling for each critical value c: every W
    under the floor has ``_power(W, c)`` below ``target_power``, and every
    W at or over the ceiling has it at or above.

    They are W*(c) (1 -+ 1e-6), where W* has power exactly the target.
    Power is increasing in s = sqrt(W), with slope phi(c - s) - phi(c + s);
    Newton steps on s, each on ``_power(s^2, c)``, start at c + z_target,
    where the upper tail alone gives the target.  Where the target is at
    most the power at W = 0, 2 Phi(-c), W* is 0.  A floor whose power fails
    its check gives 0 and such a ceiling inf, which leave the search exact,
    only slower.  A critical value that is not finite is a
    :class:`DomainError`: no total reaches its target, and the search would
    evaluate every total up to its cap.
    """
    if not 0.0 < target_power < 1.0:
        raise DomainError(f"target power must lie in (0, 1), got {target_power}")
    critical = np.asarray(critical_values, dtype=float)
    if np.any(critical <= 0):
        raise DomainError("critical value must be positive")
    if not np.isfinite(critical).all():
        raise DomainError("critical value must be finite")
    root = np.zeros(critical.shape)  # sqrt(W*)
    solve = target_power > 2.0 * _std_normal_cdf(-critical)
    c = critical[solve]
    s = c + _std_normal_quantile(target_power)
    for _ in range(_NEWTON_STEPS):
        slope = (np.exp(-0.5 * (c - s) ** 2) - np.exp(-0.5 * (c + s) ** 2)) / _SQRT_2PI
        step = (_power(s * s, c) - target_power) / slope
        # never more than halve s, so it stays positive
        s = np.maximum(s - step, 0.5 * s)
        if np.all(np.abs(step) <= 1e-10 * s):
            break
    root[solve] = s
    floor, ceiling = (1.0 - _RELATIVE_GAP) * root * root, (1.0 + _RELATIVE_GAP) * root * root
    power = _power(np.stack((floor, ceiling)), critical)
    floor = np.where(power[0] < target_power - _POWER_MARGIN, floor, 0.0)
    return floor, np.where(power[1] >= target_power + _POWER_MARGIN, ceiling, np.inf)


def _noncentrality_bound(ratios, mu, rho, sigma2, design, first, last) -> tuple:
    """For each range of totals [first, last] of a design, a lower and an
    upper bound on the smallest noncentrality at every total in it; the
    upper bound is inf where none is proven.

    ``ratios`` has shape (designs, 2K+1), ``mu`` and ``rho`` (designs, 2K)
    (:func:`_noncentralities`) and ``sigma2`` (designs,); ``design`` (each range's
    row, or one row for all), ``first`` and ``last`` have shape (ranges,).
    The largest-remainder count of an arm of share p at a total N is
    floor(p N) or one more, so over the range it lies in [L, H] =
    [floor(p first), floor(p last) + 1], the floors taken of the same
    products as the counts' own.  An arm left empty takes one subject from
    the largest arm, so with E arms whose L is 0 every arm keeps at least
    max(L - E, 1).  On that box a contrast's variance 1/n_a + 1/n_0 - 2 rho
    / sqrt(n_a n_0) is at least the sum of its terms' smallest values and,
    being convex in (1/sqrt(n_a), 1/sqrt(n_0)), at most its value at a
    corner; mu^2 / sigma2 over these bounds the noncentrality, from above
    only where the smallest variance is positive.
    """
    # arms (and contrasts) first, taken contiguous, so each reduction over
    # them is elementwise
    share, rho, scale = (np.take(a.T, design, axis=1) for a in (ratios, rho, mu * mu))
    low, high = np.floor(first * share), np.floor(last * share) + 1.0
    low = np.maximum(low - (low < 1.0).sum(axis=0), 1.0)
    # the terms at each corner (end of n_a, end of n_0), low end first
    ends = np.stack((low, high))
    inverse = 1.0 / ends
    cross = -2.0 * rho / np.sqrt(ends[:, None, 1:] * ends[None, :, :1])
    var_max = (inverse[:, None, 1:] + inverse[None, :, :1] + cross).max(axis=(0, 1))
    var_min = inverse[1, 1:] + inverse[1, :1] + np.minimum(cross[0, 0], cross[1, 1])
    scale /= np.take(sigma2, design)
    with np.errstate(divide="ignore"):
        upper = np.where(var_min > 0.0, scale / var_min, np.inf)
    return (scale / var_max).min(axis=0), upper.min(axis=0)


def _window_end(ratios, mu, rho, sigma2, floor, n_cap: int) -> np.ndarray:
    """The last total the search first covers, per design: the largest over
    its critical values of ceil(1.05 W / w1) + 64, W the floor just under
    W*, at most ``n_cap``, which must hold 2K+1.  N w1 is the design's
    smallest noncentrality at N before its counts are rounded, which puts N*
    past this only where an arm holds a few subjects, and a w1 of 0 (an
    effect underflowing next to sigma) puts the end at ``n_cap``."""
    if n_cap < ratios.shape[1]:
        raise DomainError(f"n_cap must be at least 2K+1 = {ratios.shape[1]}, got {n_cap}")
    w1 = _smallest_noncentrality(ratios, mu, rho, sigma2[:, None])[:, None]
    reach = np.divide(1.05 * floor, w1, out=np.full(floor.shape, np.inf), where=w1 > 0)
    return np.minimum(np.ceil(reach).max(axis=1) + 64, n_cap).astype(int)


def _scan_totals(
    ratios, mu, rho, sigma2, critical_values, floor, ceiling, target_power: float, n_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """N* for each (design, critical value) and the power at each N*, shape
    (designs, critical values) each.

    A design is a row of ``ratios`` (its 2K+1 shares), ``mu`` and ``rho``
    (:func:`_noncentralities`) and ``sigma2``; every design has the same K.
    ``floor`` and ``ceiling`` are :func:`_noncentrality_floor` of
    ``critical_values``.  One :func:`_noncentrality_bound` call covers each
    design's ranges of 16 totals from 2K+1 to its :func:`_window_end`.  A
    pair's bracket runs from its first range whose upper bound reaches its
    floor to the first total of its first range whose lower bound reaches
    its ceiling.  Only brackets get exact counts; each pair walks its totals
    at or above its floor in order, one power per step, all pairs in one
    call per step, and the first reaching the target is N*.  A pair with no
    N* in the window searches the next, twice as long.
    """
    ratios, mu, rho, sigma2, c, floor, ceiling = (
        np.asarray(a, dtype=float)
        for a in (ratios, mu, rho, sigma2, critical_values, floor, ceiling)
    )
    min_n = ratios.shape[1]
    n_star = np.zeros(c.shape, dtype=np.int64)  # 0 until found
    powers = np.zeros(c.shape)
    end = _window_end(ratios, mu, rho, sigma2, floor, n_cap)
    start = np.full(end.shape, min_n)
    while True:
        still_open = n_star == 0
        rows = np.flatnonzero(still_open.any(axis=1))
        if not rows.size:
            return n_star, powers
        if start[rows].max() > n_cap:
            raise BudgetExceeded(f"no N in [{min_n}, {n_cap}] reaches power {target_power}")
        # each open design's ranges of 16 totals up to its window's end, in turn
        count = (end[rows] - start[rows]) // _SUB_BLOCK + 1
        cell = np.repeat(np.arange(rows.size), count)
        offset = np.cumsum(count) - count
        first = start[rows][cell] + _SUB_BLOCK * (np.arange(cell.size) - offset[cell])
        owner = rows[cell]
        last = first + _SUB_BLOCK - 1
        lower, upper = _noncentrality_bound(ratios, mu, rho, sigma2, owner, first, last)
        # by (critical value, range): the leading totals a pair's bracket
        # takes; critical values first, so the reductions are elementwise
        closed = np.where(lower >= ceiling.T[:, owner], first, n_cap)
        limit = np.minimum.reduceat(closed, offset, axis=1)
        take = np.clip(limit[:, cell] - first + 1, 0, _SUB_BLOCK)
        take = np.where((upper >= floor.T[:, owner]) & still_open.T[:, owner], take, 0).max(axis=0)
        # the totals any pair of a design takes, in order, padded with 0
        kept = np.flatnonzero(take)
        index, at = np.nonzero(np.arange(_SUB_BLOCK) < take[kept, None])
        kept = kept[index]
        row, size = cell[kept], np.add.reduceat(take, offset)
        totals = np.zeros((rows.size, size.max()), dtype=np.int64)
        totals[row, np.arange(row.size) - (np.cumsum(size) - size)[row]] = first[kept] + at
        scanned = totals > 0
        w = np.full(totals.shape, -np.inf)
        if scanned.any():
            design = rows[row]
            w[scanned] = _smallest_noncentrality(
                _largest_remainder(ratios[design], totals[scanned]),
                mu[design], rho[design], sigma2[design, None],
            )
        # the walk: each step takes every open pair's next candidate in its bracket
        candidate = (w[:, None] >= floor[rows, :, None]) & still_open[rows, :, None]
        candidate &= totals[:, None] <= limit.T[..., None]
        while candidate.any():
            r, m = np.nonzero(candidate.any(axis=2))
            j = candidate[r, m].argmax(axis=1)
            power = _power(w[r, j], c[rows[r], m])
            hit = power >= target_power
            n_star[rows[r[hit]], m[hit]] = totals[r[hit], j[hit]]
            powers[rows[r[hit]], m[hit]] = power[hit]
            candidate[r, m, j] = False
            candidate[r[hit], m[hit]] = False
        start[rows] += _SUB_BLOCK * count
        end[rows] = np.minimum(2 * end[rows], n_cap)


def find_sample_size(
    scenario: DesignScenario,
    alloc: Allocation,
    threshold: ThresholdResult,
    target_power: float,
    seed: int = 0,
    n_cap: int = 1_000_000,
) -> SampleSizeResult:
    """Smallest total N whose integer design reaches ``target_power``.

    The design at N is ``alloc``'s shares of N rounded by
    :func:`_largest_remainder`, and its power the exact
    minimum per-comparison power at those counts, at the critical value of
    ``threshold``.  The powers at every total from 2K+1 to
    :func:`_window_end` are evaluated in one call; N* is the first reaching
    the target, and the window doubles only when none does.  ``seed`` has
    no effect; it is kept for callers that pass one.  Raises
    :class:`BudgetExceeded` when no N <= ``n_cap`` reaches the target, and
    :class:`DomainError` when the K differ or the critical value is not
    finite.
    """
    c = threshold.critical_value
    floor, _ = _noncentrality_floor([[c]], target_power)
    mu = _contrasts(scenario.delta, scenario.synergy, len(alloc.ratios))
    rho = _arm_correlation_matrix(scenario.rho_combo_control, scenario.rho_combo_mono)[1:, 0]
    ratios = np.array([alloc.ratios])
    min_n = ratios.shape[1]
    sigma2 = np.array([scenario.sigma2])
    end = int(_window_end(ratios, mu[None], rho[None], sigma2, floor, n_cap)[0])
    while True:
        totals = np.arange(min_n, end + 1)
        counts = _largest_remainder(ratios, totals)
        powers = _power(_smallest_noncentrality(counts, mu, rho, sigma2), c)
        hits = np.flatnonzero(powers >= target_power)
        if hits.size:
            break
        if end == n_cap:
            raise BudgetExceeded(f"no N in [{min_n}, {n_cap}] reaches power {target_power}")
        end = min(2 * end, n_cap)
    n = hits[0] + 1
    return SampleSizeResult(
        n_star=int(totals[n - 1]),
        achieved_power=float(powers[n - 1]),
        search_trace=tuple(zip(totals[:n].tolist(), powers[:n].tolist())),
        arm_counts=tuple(counts[n - 1].tolist()),
    )


@dataclass(frozen=True)
class DesignResult:
    """The designs of :func:`design`: per design its allocation ``ratios``
    (designs, 2K+1) and ``z_correlation`` (designs, 2K, 2K); per (design,
    metric) ``critical_value``, ``n_star`` and ``achieved_power`` (designs,
    metrics) and the integer ``arm_counts`` at N* (designs, metrics, 2K+1)."""

    ratios: np.ndarray
    z_correlation: np.ndarray
    critical_value: np.ndarray
    n_star: np.ndarray
    achieved_power: np.ndarray
    arm_counts: np.ndarray


def design(
    delta, synergy, rho_combo_control, rho_combo_mono, metrics, target_power: float, *,
    sigma2: float = 1.0, precision: float = 1e-4, seed: int = 0, replications: int = 65_536,
    n_cap: int = 1_000_000,
) -> DesignResult:
    """Max-min allocation, Z correlation, threshold and N* of many designs
    of one K, each for every one of ``metrics``.

    A design is a row of the four per-substudy inputs, shape (designs, K)
    each, with variance ``sigma2``; every input is checked before any work.
    At K = 1 all thresholds come from one exact search, at K > 1 each from
    :func:`platform_threshold`, and all N* from one bracketed pass, which
    raises :class:`BudgetExceeded` past ``n_cap``.  Each result is bit for
    bit what its design gives alone.
    """
    delta, synergy, rho_cc, rho_cm = arrays = [
        np.asarray(a, dtype=float) for a in (delta, synergy, rho_combo_control, rho_combo_mono)
    ]
    if delta.ndim != 2 or not delta.size or len({a.shape for a in arrays}) > 1 or not metrics:
        raise DomainError("need a metric, and one shape (designs, K >= 1) of the four inputs")
    arm_rho = _check_scenarios(delta, synergy, sigma2, rho_cc, rho_cm)
    dim = 2 * delta.shape[1]
    for metric in metrics:
        _check_solver_settings(metric, dim, precision, replications)
    rows = zip(delta.tolist(), synergy.tolist(), rho_cc.tolist())
    ratios = np.array([_max_min_shares(*row) for row in rows])
    mu, rho = _contrasts(delta, synergy, dim + 1), arm_rho[:, 1:, 0]
    z = _z_correlations(_NOMINAL_TOTAL * ratios, arm_rho)
    if dim == 2:
        c_star = _bivariate_critical_values(z[:, 0, 1], metrics)
    else:
        c_star = np.array([[
            platform_threshold(corr, m, precision, seed, replications).critical_value
            for m in metrics
        ] for corr in map(CorrelationMatrix, z)])
    n_star, achieved = _scan_totals(
        ratios, mu, rho, np.full(len(z), sigma2), c_star,
        *_noncentrality_floor(c_star, target_power), target_power, n_cap,
    )
    counts = _largest_remainder(np.repeat(ratios, len(metrics), axis=0), n_star.ravel())
    return DesignResult(ratios, z, c_star, n_star, achieved, counts.reshape(*n_star.shape, -1))
