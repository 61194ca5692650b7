"""False-positive metrics and critical-value solvers.

The classical shared-control procedure is provided as the comparator.  The
generalized procedure solves for a common critical value under the exact
joint normal law of the test statistics, so that a chosen error metric (any
false rejection, multiple false rejections, multiple superiority claims, or
at-least-m rejections) lands exactly on its target level.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correlation import PlatformArms, classical_dunnett_correlation
from .errors import DomainError, RootBracketError
from .mvnorm import (
    _SQRT_2PI,
    CorrelationMatrix,
    QmcLattice,
    RectangleEstimate,
    _bvn_upper,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "ErrorMetric",
    "DEFAULT_TARGETS",
    "ThresholdResult",
    "classical_dunnett_threshold",
    "platform_threshold",
    "bivariate_error_rates",
]

# each fixed metric's law: (exceedances that make the error, sidedness)
_LAWS = {"fwer": (1, "two"), "fmer": (2, "two"), "msfp": (2, "one")}
_KINDS = (*_LAWS, "mfwer")
# how close to alpha, relative to alpha, an exact level must come
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
            if self.kind in _LAWS and self.sided != self.effective_sided:
                raise DomainError(f"{self.kind} is {self.effective_sided}-sided by definition")

    @property
    def effective_sided(self) -> str:
        return _LAWS[self.kind][1] if self.kind in _LAWS else self.sided or "two"

    @property
    def exceedance_count(self) -> int:
        """How many exceedances constitute the error event."""
        return _LAWS[self.kind][0] if self.kind in _LAWS else self.m

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


def _solve_decreasing(
    level: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    target: float,
    low: np.ndarray,
    high: np.ndarray,
    start: np.ndarray,
    x_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of nonincreasing ``level(c) - target``, one per bracket
    [low[i], high[i]] of the 1-d arrays ``low`` and ``high``, with the level
    at each; the search for element i starts at ``start[i]``.

    Safeguarded Newton, elementwise, on h(c) = sqrt(-2 log level(c)), which
    is nearly linear in c for Gaussian tails.  ``level(c, active)`` gets the
    trial points of the elements still searching and their indices, and
    returns their levels and the levels' derivatives in c.  Each element
    keeps a bracket by the sign of level - target.  A Newton step past a
    bracket end that has not been evaluated goes to that end, since the root
    may lie on it; any other step that leaves the bracket, or that h cannot
    give, is replaced by bisection.  An element stops at the point just
    evaluated once its next step is at most ``x_tol``.  Where the level does
    not cross the target inside a bracket, the search ends on the bracket's
    end and the caller's level check decides.
    """
    h_target = math.sqrt(-2.0 * math.log(target))
    x, lo, hi = (np.array(a, dtype=float, ndmin=1) for a in (start, low, high))
    # whether each bracket end is still the unevaluated bound it started as
    open_lo, open_hi = np.ones(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    x_out, f_out = np.empty(x.size), np.empty(x.size)
    active = np.arange(x.size)
    while active.size:
        f, slope = level(x, active)
        above = f > target
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        open_lo, open_hi = open_lo & ~above, open_hi & above
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.sqrt(-2.0 * np.log(f))
            # -(h - h_target) / h', with h' = -slope / (f * h)
            newton = x + (h_target - h) * f * h / -slope
        newton[~((0.0 < f) & (f < 1.0) & (slope < 0.0))] = math.nan
        newton = np.where(open_lo & (newton < lo), lo, newton)
        newton = np.where(open_hi & (newton > hi), hi, newton)
        following = np.where((lo <= newton) & (newton <= hi), newton, (lo + hi) / 2.0)
        done = np.abs(following - x) <= x_tol
        x_out[active[done]], f_out[active[done]] = x[done], f[done]
        going = ~done
        active, x, lo, hi = active[going], following[going], lo[going], hi[going]
        open_lo, open_hi = open_lo[going], open_hi[going]
    return x_out, f_out


def _bivariate_levels(rho, c, laws) -> tuple[list, list]:
    """Exact P(at least ``count`` of two statistics with correlation ``rho``
    exceed c), |Z| > c two-sided and Z > c one-sided, and its slope in c:
    a level and a slope per (count, sided) in ``laws``, elementwise over the
    broadcast arrays ``rho`` and ``c``.

    Every level comes from the tail t = Phi(-c) and one kernel call for the
    upper orthants U(r) = P(Z1 > c, Z2 > c) at r = rho, and at r = -rho if a
    law is two-sided (Genz 2004):

    * both exceed: U(rho) one-sided (msfp); two-sided (fmer) the same-sign
      and opposite-sign orthants 2 U(rho) + 2 U(-rho), for c > 0;
    * at least one exceeds: 2 t - both one-sided, 4 t - both two-sided
      (fwer), which keeps its relative precision far in the tail, where
      1 - P(box) loses it;
    * slopes: dt/dc = -phi(c) and dU(r)/dc = -2 phi(c) Phi(-c sqrt((1 - r)
      / (1 + r))).

    A two-sided level is 1, with slope 0, at c <= 0.
    """
    rho, c = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(c, dtype=float))
    if np.isnan(c).any():
        raise DomainError("critical value must not be NaN")
    outside = ~(np.abs(rho) <= 1.0)
    if outside.any():
        raise DomainError(f"correlation must lie in [-1, 1], got {rho[outside].flat[0]}")
    if any(sided == "two" for _, sided in laws):
        h, r = np.stack((c, c)), np.stack((rho, -rho))
    else:
        h, r = c[None], rho[None]
    orthant = _bvn_upper(h, h, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        # infinite at r = -1, but 0 at c = 0, and 0 at r = 1 whatever c
        shift = np.where((c == 0.0) | (r == 1.0), 0.0, c * np.sqrt((1.0 - r) / (1.0 + r)))
    density = np.exp(-0.5 * c * c) / _SQRT_2PI
    orthant_slope = -2.0 * density * std_normal_cdf(-shift)
    levels, slopes = [], []
    for count, sided in laws:
        sides = 2 if sided == "two" else 1
        level, slope = (sides * u[:sides].sum(axis=0) for u in (orthant, orthant_slope))
        if count == 1:
            level, slope = 2 * sides * std_normal_cdf(-c) - level, -2 * sides * density - slope
        if sides == 2:
            level, slope = np.where(c > 0.0, level, 1.0), np.where(c > 0.0, slope, 0.0)
        levels.append(level)
        slopes.append(slope)
    return levels, slopes


def _as_float(values):
    """A float for a number or a 0-d array, an array as it is."""
    return float(values) if np.ndim(values) == 0 else values


def bivariate_error_rates(rho, critical_value) -> dict:
    """Exact fwer, fmer and msfp of two statistics with correlation ``rho``
    at one common critical value; elementwise (a dict of arrays) when either
    is an array.  A NaN critical value, or a correlation outside [-1, 1], is
    a :class:`DomainError`."""
    levels, _ = _bivariate_levels(rho, critical_value, tuple(_LAWS.values()))
    return {kind: _as_float(level) for kind, level in zip(_LAWS, levels)}


def classical_dunnett_threshold(arms: PlatformArms, alpha: float) -> ThresholdResult:
    """Single shared-control critical value at the comparator correlation.

    Assumes independent treatment arms; provided as the conventional
    comparison point rather than as the recommended procedure.  ``arms``
    must describe one substudy (K=1).
    """
    rho_star = classical_dunnett_correlation(arms)
    return platform_threshold(CorrelationMatrix.bivariate(rho_star), ErrorMetric.fwer(alpha))


# null draws per block of the m-FWER pool; block b has its own seeded stream
_POOL_BLOCK = 16_384


def _usable_cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tail_count_statistic(
    z_corr: CorrelationMatrix, m: int, sided: str, replications: int, seed: int
) -> np.ndarray:
    """Per-replication m-th largest exceedance statistic under the null.

    The draws come in blocks of ``_POOL_BLOCK``.  Block b is standard
    normals from the stream (seed, 1, b), turned into statistics one row at
    a time by the Cholesky factor's nonzero part (einsum, not BLAS, whose own
    threads would compete with the workers), and a running top-m pass over
    the rows keeps each draw's m largest.  numpy releases the GIL in every
    step, so the blocks are reduced on one thread per usable core; each
    block's statistics are the same on any thread, so the pool is a pure
    function of the arguments whatever the core count.
    """
    factor, dim = z_corr.factor, z_corr.dim
    key = seed & 0xFFFFFFFFFFFFFFFF
    stat = np.empty(replications)

    def reduce(block: int) -> None:
        start = block * _POOL_BLOCK
        size = min(_POOL_BLOCK, replications - start)
        draws = np.random.default_rng([key, 1, block]).standard_normal((dim, size))
        # top[0] >= ... >= top[m - 1], the m largest of the rows so far
        top = [np.full(size, -np.inf) for _ in range(m)]
        row, spare = np.empty(size), np.empty(size)
        for j in range(dim):
            np.einsum("k,kn->n", factor[j, : j + 1], draws[: j + 1], out=row)
            if sided == "two":
                np.abs(row, out=row)
            # insert the row: each rank keeps the larger, the smaller moves down
            for i in range(min(j + 1, m)):
                np.maximum(top[i], row, out=spare)
                np.minimum(top[i], row, out=row)
                top[i], spare = spare, top[i]
        # count(statistics > c) >= m  <=>  m-th largest statistic > c
        stat[start : start + size] = top[m - 1]

    # imported here: only the pool path runs threads
    from concurrent.futures import ThreadPoolExecutor

    n_blocks = -(-replications // _POOL_BLOCK)
    with ThreadPoolExecutor(min(n_blocks, _usable_cores())) as pool:
        list(pool.map(reduce, range(n_blocks)))
    return stat


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
    exact bivariate law, and the levels they reach: one elementwise search
    (:func:`_solve_decreasing`) for every entry of ``rho``, from the upper end
    of its bracket, on the level and its closed-form slope."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    count, sided = metric.exceedance_count, metric.effective_sided

    def level(c: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        (value,), (slope,) = _bivariate_levels(rho[active], c, ((count, sided),))
        return value, slope

    low, high = _bracket(metric, 2, rho)
    c_star, achieved = _solve_decreasing(level, metric.alpha, low, high, high, x_tol=1e-12)
    _check_level(metric, c_star, achieved, _PROB_TOL * metric.alpha)
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
    (K=1), are solved by one root search, :func:`_solve_decreasing`, on an
    analytic bracket: one statistic's level against the union bound, or for
    two exceedances of two statistics their product against one statistic's
    level.  The search is a safeguarded Newton on h(c) = sqrt(-2 log
    level(c)), nearly linear in c, from the bracket's upper end; each law
    gives its level and its slope.  With two statistics the law is the exact
    bivariate normal, whose slope is closed form, so ``achieved_stderr`` is
    0 and ``precision``, ``seed`` and ``replications`` are validated but
    unused.  With more, the level is a randomized quasi-Monte Carlo
    rectangle probability on one :class:`QmcLattice` per solve, which takes
    the statistics in an order fixed by ``z_corr`` (smallest residual
    variance first).  Its points grow at the bracket's upper end until the
    level's standard error is at most ``precision``, then stay fixed, so the
    level is a smooth deterministic function of c whose slope each lattice
    pass also returns; the search takes about three passes and stops once
    its next step is at most 1e-8.  Should the standard error at the root
    still exceed ``precision``, the lattice grows there and the search goes
    on from that root.
    Count-based metrics (at least m >= 2 of more than two statistics exceed
    c) use a common pool of ``replications`` null draws: the pool's level is
    a step function of c, and its root, an order statistic of the draws'
    m-th largest exceedance, is read off directly.  The pool is drawn in
    seeded blocks reduced on every usable core
    (:func:`_tail_count_statistic`); it depends only on the arguments, not
    on the core count.
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
        lattice, (low, high) = QmcLattice(z_corr, seed), _bracket(metric, dim, rho)
        estimates: list[RectangleEstimate] = []

        def level(c: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            upper = np.full(dim, float(c[0]))
            lower = -upper if two_sided else np.full(dim, -math.inf)
            # a search's first box grows the lattice to the precision
            if estimates:
                estimates.append(lattice.estimate(lower, upper))
            else:
                estimates.append(lattice.refine(lower, upper, precision))
            return np.array([1.0 - estimates[-1].value]), np.array([-estimates[-1].slope])

        start = high
        while True:
            c_values, levels = _solve_decreasing(level, metric.alpha, low, high, start, 1e-8)
            stderr = estimates[-1].stderr
            if stderr <= precision:
                break
            # grow at the root before refining there, so the root is not
            # evaluated twice on the same points, and search on from it
            lattice.grow()
            start = c_values
            estimates.clear()
        c_star, achieved = float(c_values[0]), float(levels[0])
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
        tolerance = max(1e-4, 3.0 * stderr) if stderr > 0.0 else _PROB_TOL * metric.alpha
        _check_level(metric, c_star, achieved, tolerance)
    return ThresholdResult(
        critical_value=c_star,
        p_threshold=_p_threshold(c_star),
        metric=metric,
        z_correlation=z_corr,
        achieved=achieved,
        achieved_stderr=stderr,
    )
