"""False-positive metrics and critical-value solvers.

The classical shared-control procedure is provided as the comparator.  The
generalized procedure solves for a common critical value under the exact
joint normal law of the test statistics, so that a chosen error metric (any
false rejection, multiple false rejections, multiple superiority claims, or
at-least-m rejections) lands exactly on its target level.
"""

from __future__ import annotations

import math
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
    _equal_orthant,
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
    # the exact tail 2 Phi(-c); 1 - Phi(c) would cancel away a small p's digits
    return 2.0 * std_normal_cdf(-c)


def _solve_decreasing(
    level: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    target: float | np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    start: np.ndarray,
    x_tol: float,
    predicted_stop: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of nonincreasing ``level(c) - target``, one per bracket
    [low[i], high[i]] of the 1-d arrays ``low`` and ``high``, with the level
    at each; the search for element i starts at ``start[i]``, and ``target``
    is one level for every element or one per element.

    Safeguarded Newton, elementwise, on h(c) = sqrt(-2 log level(c)), which
    is nearly linear in c for Gaussian tails.  ``level(c, active)`` gets the
    trial points of the elements still searching and their indices, and
    returns their levels and the levels' derivatives in c.  Each element
    keeps a bracket by the sign of level - target.  A Newton step past a
    bracket end that has not been evaluated goes to that end, since the root
    may lie on it; any other step that leaves the bracket, or that h cannot
    give, is replaced by bisection, and so is a step inside the bracket
    longer than half the element's step before its last (the safeguard of
    Numerical Recipes' rtsafe), as a slope too small by half or more would
    alternate across the root.  An element stops at the point just evaluated
    once its next step is at most ``x_tol``; with ``predicted_stop``, also
    on that step, unevaluated, if it and the last are Newton steps (not
    bisected or clamped), it the shorter, and the one after it is predicted
    at |step|^3 / |last|^2 <= ``x_tol`` / 10, at the level's second-order
    Taylor value (curvature from the last two slopes).
    Where the level does not cross the target inside a bracket, the search
    ends on the bracket's end and the caller's level check decides.
    """
    x, lo, hi = (np.array(a, dtype=float, ndmin=1) for a in (start, low, high))
    target = np.broadcast_to(np.asarray(target, dtype=float), x.shape)
    h_target = np.array([math.sqrt(-2.0 * math.log(t)) for t in target.tolist()])
    # whether each bracket end is still the unevaluated bound it started as
    open_lo, open_hi = np.ones(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    x_out, f_out = np.empty(x.size), np.empty(x.size)
    # each element's last step if a Newton step, else NaN, and the slope before it
    last_step, last_slope = np.full(x.size, math.nan), np.full(x.size, math.nan)
    # each element's last two steps of any kind, the earlier one first
    earlier, latest = np.full(x.size, math.inf), np.full(x.size, math.inf)
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
        # an in-bracket Newton step longer than half the step before the
        # last is not converging; bisection replaces it
        newton[(lo <= newton) & (newton <= hi) & (np.abs(newton - x) > earlier / 2.0)] = math.nan
        raw = newton  # the Newton point before any clamp to a bracket end
        newton = np.where(open_lo & (newton < lo), lo, newton)
        newton = np.where(open_hi & (newton > hi), hi, newton)
        following = np.where((lo <= newton) & (newton <= hi), newton, (lo + hi) / 2.0)
        done = np.abs(following - x) <= x_tol
        x_out[active[done]], f_out[active[done]] = x[done], f[done]
        going = ~done
        if predicted_stop:
            step = np.where((lo <= raw) & (raw <= hi) & going, following - x, math.nan)
            size, last = np.abs(step), np.abs(last_step)
            ends = (size < last) & (size**3 <= x_tol / 10 * last**2)
            taylor = f + step * (slope + 0.5 * step * (slope - last_slope) / last_step)
            x_out[active[ends]], f_out[active[ends]] = following[ends], taylor[ends]
            going &= ~ends
            last_step, last_slope = step[going], slope[going]
        earlier, latest = latest[going], np.abs(following - x)[going]
        active, x, lo, hi = active[going], following[going], lo[going], hi[going]
        target, h_target = target[going], h_target[going]
        open_lo, open_hi = open_lo[going], open_hi[going]
    return x_out, f_out


def _bivariate_levels(rho, c, laws) -> tuple[list, list]:
    """Exact P(at least ``count`` of two statistics with correlation ``rho``
    exceed c), |Z| > c two-sided and Z > c one-sided, and its slope in c:
    a level and a slope per (count, sided) in ``laws``, elementwise over the
    broadcast arrays ``rho`` and ``c``.

    Every level comes from the tail t = Phi(-c) and one call of the
    equal-bound kernel :func:`_equal_orthant` (Owen's T integral; Owen
    1956) for the upper orthants U(r) = P(Z1 > c, Z2 > c) at r = rho, and at
    r = -rho if a law is two-sided.  The kernel takes t and the conditional
    tail Phi(-c a), a = sqrt((1 - r) / (1 + r)), that the slope needs
    anyway, and is accurate to 5e-14 relative wherever U >= 1e-20:

    * both exceed: U(rho) one-sided (msfp); two-sided (fmer) the same-sign
      and opposite-sign orthants 2 U(rho) + 2 U(-rho), for c > 0;
    * at least one exceeds: 2 t - both one-sided, 4 t - both two-sided
      (fwer), which keeps its relative precision far in the tail, where
      1 - P(box) loses it;
    * slopes: dt/dc = -phi(c) and dU(r)/dc = -2 phi(c) Phi(-c a).

    The kernel takes c >= 0; below 0, U(c) = 1 - 2 Phi(c) + U(-c).  A
    two-sided level is 1, with slope 0, at c <= 0.
    """
    rho, c = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(c, dtype=float))
    if np.isnan(c).any():
        raise DomainError("critical value must not be NaN")
    outside = ~(np.abs(rho) <= 1.0)
    if outside.any():
        raise DomainError(f"correlation must lie in [-1, 1], got {rho[outside].flat[0]}")
    two_sided = any(sided == "two" for _, sided in laws)
    r = np.multiply.outer((1.0, -1.0), rho) if two_sided else rho[None]
    size = np.abs(c)
    tail = std_normal_cdf(-size)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((1.0 - r) / (1.0 + r))
        # c a: infinite at r = -1, but 0 at c = 0, and 0 at r = 1 whatever c
        shift = np.where((size == 0.0) | (r == 1.0), 0.0, size * a)
    conditional = std_normal_cdf(-shift)
    orthant = _equal_orthant(size, a, tail, conditional)
    negative = c < 0.0
    if negative.any():
        orthant = orthant + np.where(negative, 1.0 - 2.0 * tail, 0.0)
        tail = np.where(negative, 1.0 - tail, tail)
        conditional = np.where(negative, 1.0 - conditional, conditional)
    density = np.exp(-0.5 * c * c) / _SQRT_2PI
    orthant_slope = -2.0 * density * conditional
    positive = c > 0.0
    levels, slopes = [], []
    for count, sided in laws:
        sides = 2 if sided == "two" else 1
        level, slope = (sides * u[:sides].sum(axis=0) for u in (orthant, orthant_slope))
        if count == 1:
            level, slope = 2 * sides * tail - level, -2 * sides * density - slope
        if sides == 2:
            level, slope = np.where(positive, level, 1.0), np.where(positive, slope, 0.0)
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


# null directions per block of the m-FWER pool; block b has its own seeded stream
_POOL_BLOCK = 16_384
# The pool's normals of one seed, kept for the life of the process: (seed,
# block) -> that block's normals, read-only.  The generator fills a draw row
# by row, so the first d rows of a taller draw are the draw of dim d, and one
# entry serves every dim up to its own; one of another size, or too few
# rows, is drawn again and replaced.  Only blocks of the default K = 6 pool
# are kept, at most 12 x 65,536 doubles (6.3 MB); later blocks, and pools of
# more statistics, are drawn each call.
_KEPT_DIM, _KEPT_BLOCKS = 12, 4
_kept_normals: dict[tuple[int, int], np.ndarray] = {}


def _block_normals(key: int, block: int, dim: int, size: int) -> np.ndarray:
    """Block ``block``'s (dim, size) standard normals from the stream (key,
    1, block), from the kept draws where they hold them."""
    normals = _kept_normals.get((key, block))
    if normals is None or normals.shape[0] < dim or normals.shape[1] != size:
        normals = np.random.default_rng([key, 1, block]).standard_normal((dim, size))
        if dim <= _KEPT_DIM and block < _KEPT_BLOCKS:
            normals.flags.writeable = False
            _kept_normals[key, block] = normals
    return normals[:dim]


def _tail_count_statistic(
    z_corr: CorrelationMatrix, m: int, sided: str, replications: int, seed: int
) -> np.ndarray:
    """T(u) of :func:`platform_threshold`'s radial integration for
    ``replications`` null directions u: the m-th largest exceedance
    statistic of a draw over the norm of the draw's normals.

    The draws come in blocks of ``_POOL_BLOCK``.  Block b is standard
    normals from the stream (seed, 1, b), drawn once per process while they
    fit the kept bound (:func:`_block_normals`).  They are turned into
    statistics one row at a time by the Cholesky factor's nonzero part
    (einsum, not BLAS, whose threads would spin on the cores), and a running
    top-m pass over the rows keeps each draw's m largest; a value pushed
    past the m-th is dropped, not computed.  The blocks are
    reduced in turn on the calling thread.  The pool is a pure function of
    the arguments, whatever was drawn before it.
    """
    factor, dim = z_corr.factor, z_corr.dim
    key = seed & 0xFFFFFFFFFFFFFFFF
    if _kept_normals and next(iter(_kept_normals))[0] != key:
        _kept_normals.clear()  # hold one seed at a time
    stat = np.empty(replications)
    for start in range(0, replications, _POOL_BLOCK):
        size = min(_POOL_BLOCK, replications - start)
        draws = _block_normals(key, start // _POOL_BLOCK, dim, size)
        # top[0] >= ... >= top[m - 1], the m largest of the rows so far
        top = [np.full(size, -np.inf) for _ in range(m)]
        row, spare = np.empty(size), np.empty(size)
        for j in range(dim):
            np.einsum("k,kn->n", factor[j, : j + 1], draws[: j + 1], out=row)
            if sided == "two":
                np.abs(row, out=row)
            # insert the row: each rank keeps the larger, the smaller moves
            # down, and what falls past the last rank is dropped
            ranks = min(j + 1, m)
            for i in range(ranks):
                np.maximum(top[i], row, out=spare)
                if i + 1 < ranks:
                    np.minimum(top[i], row, out=row)
                top[i], spare = spare, top[i]
        np.sqrt(np.einsum("kn,kn->n", draws, draws, out=row), out=row)
        np.divide(top[m - 1], row, out=stat[start : start + size])
    return stat


def _radial_level(stat: np.ndarray, dim: int) -> Callable:
    """The pool's level at c >= 0, the mean over directions of P(chi_dim >
    c / T), 0 where T <= 0, as ``law(c)``, which returns it and its slope in
    c; ``law(c, spread=True)`` returns the mean squared term instead.

    With s = 1 / T, y = s^2, w = c^2 / 2 and E = e^(-w y), the tail is E
    sum_a (w y)^a / Gamma(a + 1) over a = 0, 1, ... up to dim/2 - 1; for odd
    dim over a = 1/2, 3/2, ..., where (w y)^(1/2) = sqrt(w) s, plus 2 Phi(-c
    s) = E erfcx(c s / sqrt(2)) (Genz & Bretz 2009, ch. 4).  So the level
    sums over directions first: one exponential each, then the moments sum_i
    y_i^a E_i (s_i y_i^a E_i for odd dim) weighted by w^a / Gamma(a + 1),
    and the slope, the mean of -c^(dim-1) s^dim E / (2^(dim/2-1)
    Gamma(dim/2)), is the next moment.  T is raised to 2^(-960/dim) so that
    the moments stay finite, which moves no term at c > 4e-23 for dim <= 12;
    c is cut to 1000, past which every term is 0.
    """
    size, base = stat.size, 0.5 * (dim % 2)
    s = np.reciprocal(np.maximum(stat[stat > 0.0], 2.0 ** -(960 // dim)))
    y, power = s * s, np.empty(s.size)
    constant = 2.0 ** (0.5 * dim - 1.0) * math.gamma(0.5 * dim)

    def law(c: float, spread: bool = False):
        c = min(c, 1000.0)
        w, level = 0.5 * c * c, 0.0
        terms = np.zeros(s.size) if spread else None
        np.exp(np.multiply(y, -w, out=power), out=power)
        if base:
            # imported here: a platform's dim 2K is even, and scipy.special
            # is most of a CLI call's import time
            from scipy.special import erfcx

            terms = erfcx(s * (c * math.sqrt(0.5))) * power
            level = float(terms.sum())
            np.multiply(power, s, out=power)
        for a in range(dim // 2):
            if a:
                np.multiply(power, y, out=power)
            weight = w ** (a + base) / math.gamma(a + base + 1.0)
            if spread:
                terms += weight * power
            else:
                level += weight * float(power.sum())
        # einsum, not BLAS, whose threads would spin on the cores
        if spread:
            return float(np.einsum("i,i->", terms, terms)) / size
        slope = -float(np.einsum("i,i->", power, y)) * c ** (dim - 1) / constant
        return level / size, slope / size

    return law


def _bracket(metric: ErrorMetric, dim: int, rho) -> tuple[np.ndarray, np.ndarray]:
    """Intervals [low, high] within [0, inf) that hold the critical value,
    one per entry of ``rho``, the correlation of the first two statistics.

    With t(c) one statistic's exceedance probability and N the number of
    ``dim`` statistics that exceed c, P(N >= m) is at most E N / m = dim *
    t(c) / m (Markov's inequality; for m = 1 the union bound), and P(N >=
    1) is at least t(c).  P(N >= 2) is at least the probability that the
    first two both exceed c, which is at least t(c)^2 when the two are
    positively associated: always for their absolute values, and for the
    statistics themselves when rho >= 0.  Of two statistics with rho < 0,
    P(both exceed c) is at most t(c)^2 (Slepian's inequality).
    """
    tail = 2.0 if metric.effective_sided == "two" else 1.0

    def quantile(t: float) -> float:  # the c at which t(c) = t
        return -std_normal_quantile(t / tail)

    rho = np.asarray(rho, dtype=float)
    alpha, m = metric.alpha, metric.exceedance_count
    high = np.full(rho.shape, quantile(m * alpha / dim))
    if m == 1:
        low = np.full(rho.shape, quantile(alpha))
    else:
        product = quantile(math.sqrt(alpha))
        associated = (rho >= 0.0) | (metric.effective_sided == "two")
        low = np.where(associated & (m == 2), product, 0.0)
        if dim == 2:
            high = np.where(associated, high, product)
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


def _bivariate_critical_values(rho, metrics) -> tuple[np.ndarray, np.ndarray]:
    """Critical values of two statistics with correlation ``rho`` under the
    exact bivariate law, and the levels they reach, shape (correlations,
    metrics) each: one elementwise search (:func:`_solve_decreasing`) over
    every (correlation, metric), each toward its metric's alpha from the
    upper end of its bracket, on the level and its closed-form slope."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    # the elements run metric by metric, each over every correlation
    metric_laws = [(m.exceedance_count, m.effective_sided) for m in metrics]
    laws = tuple(dict.fromkeys(metric_laws))
    law = np.repeat([laws.index(each) for each in metric_laws], rho.size)
    rhos = np.tile(rho, len(metrics))

    def level(c: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, slopes = _bivariate_levels(rhos[active], c, laws)
        return np.choose(law[active], values), np.choose(law[active], slopes)

    low, high = (np.concatenate(ends) for ends in zip(*(_bracket(m, 2, rho) for m in metrics)))
    alpha = np.repeat([m.alpha for m in metrics], rho.size)
    c_star, achieved = _solve_decreasing(level, alpha, low, high, high, x_tol=1e-12)
    c_star, achieved = (a.reshape(len(metrics), rho.size).T for a in (c_star, achieved))
    for j, metric in enumerate(metrics):
        _check_level(metric, c_star[:, j], achieved[:, j], _PROB_TOL * metric.alpha)
    return c_star, achieved


def _check_solver_settings(metric: ErrorMetric, dim: int, precision, replications) -> None:
    """Refuse settings :func:`platform_threshold` cannot use on ``dim`` statistics."""
    if not 0.0 < precision < math.inf:
        raise DomainError(f"precision must be positive and finite, got {precision}")
    if replications < 1:
        raise DomainError(f"replications must be at least 1, got {replications}")
    if metric.kind == "mfwer" and not 1 <= metric.m <= dim:
        raise DomainError(f"m must lie in [1, {dim}], got {metric.m}")


def platform_threshold(
    z_corr: CorrelationMatrix,
    metric: ErrorMetric,
    precision: float = 1e-4,
    seed: int = 0,
    replications: int = 65_536,
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
    pass also returns; the search takes about three passes.  It ends on a
    Newton step predicted to leave its successor under 1e-9 without a pass
    at it, so ``achieved`` is the last pass's second-order Taylor value at
    the root, and ``achieved_stderr`` that pass's standard error.  Should
    that exceed ``precision``, the lattice grows at the root and the search
    goes on from it.
    Count-based metrics (at least m >= 2 of more than two statistics exceed
    c) integrate the radius exactly over a common pool of ``replications``
    null directions (spherical-radial integration: Deak 1980; Genz & Bretz
    2009, ch. 4).  With Z = R L u, where R ~ chi_dim is independent of the
    direction u, at least m statistics exceed c exactly when R > c / T(u), T
    the direction's m-th largest statistic over its norm
    (:func:`_tail_count_statistic`).  So the level is the mean over
    directions of P(chi_dim > c / T), and 0 where T <= 0: a smooth
    deterministic function of c with a closed-form slope, summed over the
    directions as power moments (:func:`_radial_level`), one exponential per
    direction per evaluation, and solved by the same search from the Markov
    bound on the count, to steps of 1e-9.  ``achieved`` is the level at the
    root, and ``achieved_stderr`` the standard deviation of the directions'
    terms there over sqrt(``replications``), from one more pass that keeps
    each term; ``precision`` is validated but unused.  The
    directions are drawn in seeded blocks, kept for the life of the process
    up to the default K = 6 pool, and reduced on the calling thread; they
    depend only on the arguments, not on earlier calls.
    """
    dim = z_corr.dim
    if dim < 2:
        raise DomainError("platform threshold needs at least two test statistics")
    _check_solver_settings(metric, dim, precision, replications)

    rho = float(z_corr.entries[0, 1])
    two_sided = metric.effective_sided == "two"
    if dim == 2:
        c_values, levels = _bivariate_critical_values(rho, (metric,))
        c_star, achieved, stderr = float(c_values[0, 0]), float(levels[0, 0]), 0.0
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
            c_values, levels = _solve_decreasing(
                level, metric.alpha, low, high, start, 1e-8, predicted_stop=True
            )
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
        count, sided = metric.exceedance_count, metric.effective_sided
        law = _radial_level(_tail_count_statistic(z_corr, count, sided, replications, seed), dim)

        def level(c: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return tuple(np.array([value]) for value in law(float(c[0])))

        low, high = _bracket(metric, dim, rho)
        c_values, levels = _solve_decreasing(level, metric.alpha, low, high, high, 1e-9)
        c_star, achieved = float(c_values[0]), float(levels[0])
        stderr = math.sqrt(max(law(c_star, spread=True) - achieved**2, 0.0) / replications)

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
