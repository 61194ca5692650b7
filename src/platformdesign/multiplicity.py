"""False-positive metrics and critical-value solvers.

The generalized procedure solves for a common critical value under the exact
joint normal law of the test statistics, so that a chosen error metric (any
false rejection, multiple false rejections, multiple superiority claims, or
at-least-m rejections) lands exactly on its target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PrecisionUnreachable, RootBracketError
from .mvnorm import (
    _SQRT_2PI,
    CorrelationMatrix,
    _equal_orthant,
    _std_normal_cdf,
    _std_normal_quantile,
)

__all__ = [
    "ErrorMetric",
    "DEFAULT_TARGETS",
    "ThresholdResult",
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
    return 2.0 * _std_normal_cdf(-c)


def _solve_decreasing(
    level: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
    target: float | np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    start: np.ndarray,
    x_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of nonincreasing ``level(c) - target``, one per bracket
    [low[i], high[i]] of the 1-d arrays ``low`` and ``high``, with the level
    at each; the search for element i starts at ``start[i]``, and ``target``
    is one level for every element or one per element.

    Safeguarded search, elementwise, on h(c) = sqrt(-2 log level(c)),
    which is nearly linear in c for Gaussian tails: Halley where the law
    gives its curvature, Newton on the laws over null directions.
    ``level(c, active)`` gets the trial points of the elements still
    searching and their indices, and returns their levels and the levels'
    derivatives in c, and may return the levels' second derivatives as a
    third array.  Then each step is Halley's, -2 g h' / (2 h'^2 - g h'') with
    g = h - h(target) (Traub 1964), or Newton's where that denominator is
    not positive.  Each element keeps a bracket by the sign of level -
    target.  A step past a bracket end that has not been evaluated goes to
    that end, since the root may lie on it; any other step that leaves the
    bracket, or that h cannot give, is replaced by bisection, and so is a
    step inside the bracket longer than half the element's step before its
    last (the safeguard of Numerical Recipes' rtsafe), as a slope too small
    by half or more would alternate across the root.  An element stops on
    its next step, unevaluated, if it and the last are steps of its kind
    (Halley's where the curvature is given, else Newton's; not bisected or
    clamped), it the shorter, and the one after it is predicted within
    ``x_tol`` / 10: at |step|^4 / |last|^3 by Halley's cubic convergence,
    at |step|^3 / |last|^2 by Newton's quadratic one.  It ends there at the
    level's second-order Taylor value, with the given curvature or one from
    the last two slopes: a pass there would only confirm it.  Otherwise it
    stops at the point just evaluated once its next step is at most
    ``x_tol``.
    Where the level does not cross the target inside a bracket, the search
    ends on the bracket's end and the caller's level check decides.
    """
    x, lo, hi = (np.array(a, dtype=float, ndmin=1) for a in (start, low, high))
    target = np.broadcast_to(np.asarray(target, dtype=float), x.shape)
    targets, each = np.unique(target, return_inverse=True)
    h_target = np.array([math.sqrt(-2.0 * math.log(t)) for t in targets.tolist()])[each]
    # whether each bracket end is still the unevaluated bound it started as
    open_lo, open_hi = np.ones(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    x_out, f_out = np.empty(x.size), np.empty(x.size)
    # each element's last step if a Halley (or, with no curvature, Newton) step,
    # else NaN, and the slope before it
    last_step, last_slope = np.full(x.size, math.nan), np.full(x.size, math.nan)
    # each element's last two steps of any kind, the earlier one first
    earlier, latest = np.full(x.size, math.inf), np.full(x.size, math.inf)
    active = np.arange(x.size)
    while active.size:
        f, slope, *curvature = level(x, active)
        above = f > target
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        open_lo, open_hi = open_lo & ~above, open_hi & above
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.sqrt(-2.0 * np.log(f))
            # -(h - h_target) / h', with h' = -slope / (f * h)
            newton = x + (h_target - h) * f * h / -slope
            if curvature:
                # Halley's -2 g h' / (2 h'^2 - g h''), g = h - h_target and
                # h'' = (h'^2 (h^2 - 1) - level'' / level) / h; Newton's
                # step where the denominator is not positive
                gap, dh = h - h_target, -slope / (f * h)
                d2h = (dh * dh * (h * h - 1.0) - curvature[0] / f) / h
                denominator = 2.0 * dh * dh - gap * d2h
                cubic = denominator > 0.0
                newton = np.where(cubic, x - 2.0 * gap * dh / denominator, newton)
        newton[~((0.0 < f) & (f < 1.0) & (slope < 0.0))] = math.nan
        # an in-bracket step longer than half the step before the last
        # is not converging; bisection replaces it
        newton[(lo <= newton) & (newton <= hi) & (np.abs(newton - x) > earlier / 2.0)] = math.nan
        raw = newton  # the step's point before any clamp to a bracket end
        newton = np.where(open_lo & (newton < lo), lo, newton)
        newton = np.where(open_hi & (newton > hi), hi, newton)
        following = np.where((lo <= newton) & (newton <= hi), newton, (lo + hi) / 2.0)
        done = np.abs(following - x) <= x_tol
        x_out[active[done]], f_out[active[done]] = x[done], f[done]
        taken = (lo <= raw) & (raw <= hi) & ~done
        step = np.where(taken & cubic if curvature else taken, following - x, math.nan)
        size, last = np.abs(step), np.abs(last_step)
        if curvature:
            ends = (size < last) & (size**4 <= x_tol / 10 * last**3)
            taylor = f + step * (slope + 0.5 * step * curvature[0])
        else:
            ends = (size < last) & (size**3 <= x_tol / 10 * last**2)
            taylor = f + step * (slope + 0.5 * step * (slope - last_slope) / last_step)
        x_out[active[ends]], f_out[active[ends]] = following[ends], taylor[ends]
        going = ~done & ~ends
        last_step, last_slope = step[going], slope[going]
        earlier, latest = latest[going], np.abs(following - x)[going]
        active, x, lo, hi = active[going], following[going], lo[going], hi[going]
        target, h_target = target[going], h_target[going]
        open_lo, open_hi = open_lo[going], open_hi[going]
    return x_out, f_out


def _bivariate_levels(rho, c, count, two_sided) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact P(at least ``count`` of two statistics with correlation ``rho``
    exceed c), |Z| > c where ``two_sided`` and Z > c elsewhere, and its slope
    and curvature in c, elementwise over the four broadcast arrays, each
    element on its own law.  The curvature lets :func:`_solve_decreasing`
    take Halley steps here, where the laws over null directions take Newton's.

    Every level comes from the tail t = Phi(-c) and one call of the
    equal-bound kernel :func:`_equal_orthant` (Owen's T integral; Owen 1956)
    for the upper orthants U(r) = P(Z1 > c, Z2 > c) at r = rho, and at r =
    -rho if any element is two-sided, on the shape of ``rho`` and ``c``
    alone, which laws on a trailing axis share.  The kernel takes t and the
    conditional tail Phi(-c a), a = sqrt((1 - r) / (1 + r)), that the slope
    needs anyway, and is accurate to 5e-14 relative wherever U >= 1e-20:

    * both exceed: U(rho) one-sided (msfp); two-sided (fmer) the same-sign
      and opposite-sign orthants 2 U(rho) + 2 U(-rho), for c > 0;
    * at least one exceeds: 2 t - both one-sided, 4 t - both two-sided
      (fwer), which keeps its relative precision far in the tail, where
      1 - P(box) loses it;
    * slopes: dt/dc = -phi(c) and dU(r)/dc = -2 phi(c) Phi(-c a);
    * curvatures, from the same terms: t'' = c phi(c) and U''(r) = 2 c
      phi(c) Phi(-c a) + (a / pi) e^(-c^2 (1 + a^2) / 2), which is 0 at
      r = -1.

    The kernel takes c >= 0; below 0, U(c) = 1 - 2 Phi(c) + U(-c), and the
    slopes and curvatures hold as written with Phi(-c a) taken at the
    signed c.  A two-sided level is 1, with slope and curvature 0, at c <= 0.
    """
    rho, c = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(c, dtype=float))
    if np.isnan(c).any():
        raise DomainError("critical value must not be NaN")
    outside = ~(np.abs(rho) <= 1.0)
    if outside.any():
        raise DomainError(f"correlation must lie in [-1, 1], got {rho[outside].flat[0]}")
    one, two_sided = np.equal(count, 1), np.asarray(two_sided, dtype=bool)
    r = np.multiply.outer((1.0, -1.0), rho) if two_sided.any() else rho[None]
    size = np.abs(c)
    tail = _std_normal_cdf(-size)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((1.0 - r) / (1.0 + r))
        # c a: infinite at r = -1, but 0 at c = 0, and 0 at r = 1 whatever c
        shift = np.where((size == 0.0) | (r == 1.0), 0.0, size * a)
    conditional = _std_normal_cdf(-shift)
    orthant = _equal_orthant(size, a, tail, conditional)
    negative = c < 0.0
    if negative.any():
        orthant = orthant + np.where(negative, 1.0 - 2.0 * tail, 0.0)
        tail = np.where(negative, 1.0 - tail, tail)
        conditional = np.where(negative, 1.0 - conditional, conditional)
    density = np.exp(-0.5 * c * c) / _SQRT_2PI
    orthant_slope = -2.0 * density * conditional
    with np.errstate(invalid="ignore", over="ignore"):
        # (a / pi) e^(-c^2 (1 + a^2) / 2), which is 0 at r = -1
        bend = np.where(r == -1.0, 0.0, a / math.pi * np.exp(-0.5 * (c * c + shift * shift)))
    orthant_curvature = 2.0 * c * density * conditional + bend
    sides, at_most_zero = np.where(two_sided, 2, 1), two_sided & (c <= 0.0)
    level, slope, curvature = (  # both exceed; u[-1] is U(rho) if none is two-sided
        np.where(two_sided, 2.0 * (u[0] + u[-1]), u[0])
        for u in (orthant, orthant_slope, orthant_curvature)
    )
    level = np.where(at_most_zero, 1.0, np.where(one, 2 * sides * tail - level, level))
    slope = np.where(at_most_zero, 0.0, np.where(one, -2 * sides * density - slope, slope))
    curvature = np.where(one, 2 * sides * c * density - curvature, curvature)
    return level, slope, np.where(at_most_zero, 0.0, curvature)


def _metric_levels(rho, c) -> np.ndarray:
    """Exact fwer, fmer and msfp of two statistics with correlation ``rho``
    at the critical value ``c``, on a last axis of the broadcast shape in the
    order of ``DEFAULT_TARGETS``: one :func:`_bivariate_levels` call with the
    three laws on that axis."""
    count, two_sided = zip(*((m.exceedance_count, m.effective_sided == "two")
                             for m in DEFAULT_TARGETS))
    rho, c = (np.expand_dims(a, -1) for a in (rho, c))
    return _bivariate_levels(rho, c, count, two_sided)[0]


def _as_float(values):
    """A float for a number or a 0-d array, an array as it is."""
    return float(values) if np.ndim(values) == 0 else values


def bivariate_error_rates(rho, critical_value) -> dict:
    """Exact fwer, fmer and msfp of two statistics with correlation ``rho``
    at one common critical value, a dict view of :func:`_metric_levels`;
    elementwise (a dict of arrays) when either is an array.  A NaN critical
    value, or a correlation outside [-1, 1], is a :class:`DomainError`."""
    levels = _metric_levels(rho, critical_value)
    return {m.kind: _as_float(levels[..., i]) for i, m in enumerate(DEFAULT_TARGETS)}


# null directions per block of the pool; block b has its own seeded stream
_POOL_BLOCK = 16_384
# The pool's normals of one seed, kept for the life of the process: (seed,
# block) -> that block's normals, read-only and single precision.  The
# generator fills a draw row by row, so the first d rows of a taller draw are
# the draw of dim d, and one entry serves every dim up to its own; one of
# another size, or too few rows, is drawn again and replaced.  Only blocks of
# the default K = 6 pool are kept, at most 12 x 65,536 float32 (3.1 MB);
# later blocks, and pools of more statistics, are drawn each call.
_KEPT_DIM, _KEPT_BLOCKS = 12, 4
_kept_normals: dict[tuple[int, int], np.ndarray] = {}
# The null directions an any-exceedance solve starts on, the first columns
# of block 0, and the most statistics (directions x dim) it may hold: 32 MB
# of doubles.  A term Q(c / T) of a statistic with (low / T)^2 / 2 above
# _NEGLIGIBLE is below 1e-22 at every c >= low, for dim <= 40.
_FIRST_DIRECTIONS, _MAX_STATISTICS, _NEGLIGIBLE = 2_048, 1 << 22, 100.0


def _block_normals(key: int, block: int, dim: int, size: int) -> np.ndarray:
    """Block ``block``'s (dim, size) standard normals from the stream (key,
    1, block), drawn in double and rounded to float32 (6e-8 relative), from
    the kept draws where they hold them; the store holds one key at a time."""
    if _kept_normals and next(iter(_kept_normals))[0] != key:
        _kept_normals.clear()
    normals = _kept_normals.get((key, block))
    if normals is None or normals.shape[0] < dim or normals.shape[1] != size:
        rng = np.random.default_rng([key, 1, block])
        normals = rng.standard_normal((dim, size)).astype(np.float32)
        if dim <= _KEPT_DIM and block < _KEPT_BLOCKS:
            normals.flags.writeable = False
            _kept_normals[key, block] = normals
    return normals[:dim]


def _statistic_row(factor, draws, j: int, two_sided: bool, out: np.ndarray) -> np.ndarray:
    """Statistic j of each draw (a column of ``draws``) into ``out``: the
    Cholesky factor's row j over the draw's first j + 1 normals (einsum, not
    BLAS, whose threads would spin on the cores), absolute if two-sided; in
    the pool a float32 sum of at most 12 float32 products."""
    np.einsum("k,kn->n", factor[j, : j + 1], draws[: j + 1], out=out)
    return np.abs(out, out=out) if two_sided else out


def _draw_norms(draws: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The norm of each draw's normals, into ``out``, in its precision."""
    return np.sqrt(np.einsum("kn,kn->n", draws, draws, out=out), out=out)


def _tail_count_statistic(
    z_corr: CorrelationMatrix, m: int, sided: str, replications: int, seed: int
) -> np.ndarray:
    """T(u) of :func:`platform_threshold`'s radial integration for
    ``replications`` null directions u: the m-th largest exceedance
    statistic of a draw over the norm of the draw's normals, which for an
    odd dim are dim + 1, the last in the norm only.

    The draws come in blocks of ``_POOL_BLOCK``.  Block b is standard
    normals from the stream (seed, 1, b), drawn once per process while they
    fit the kept bound (:func:`_block_normals`).  They are turned into
    statistics one row at a time (:func:`_statistic_row`), and a running
    top-m pass over the rows keeps each draw's m largest; a value pushed
    past the m-th is dropped, not computed.  The blocks are reduced in turn
    on the calling thread, in work arrays allocated once per call.  The pool
    is a pure function of the arguments, whatever was drawn before it.  The
    rows, top-m pass and norms are float32, T is stored in double and all
    after it is double: T is within (3 + 3 dim / 2) 2^-24 max_j sum_k |L_jk
    x_k| / |x| of the double T of the same normals x (Higham 2002, 3.1).
    """
    factor, dim, key = z_corr.factor.astype(np.float32), z_corr.dim, seed & 0xFFFFFFFFFFFFFFFF
    stat = np.empty(replications)
    work = np.empty((m + 2, min(_POOL_BLOCK, replications)), np.float32)
    for start in range(0, replications, _POOL_BLOCK):
        size = min(_POOL_BLOCK, replications - start)
        draws = _block_normals(key, start // _POOL_BLOCK, dim + dim % 2, size)
        # top[0] >= ... >= top[m - 1], the m largest of the rows so far
        work[:m, :size] = -np.inf
        *top, row, spare = work[:, :size]
        for j in range(dim):
            _statistic_row(factor, draws, j, sided == "two", row)
            # insert the row: each rank keeps the larger, the smaller moves
            # down, and what falls past the last rank is dropped
            ranks = min(j + 1, m)
            for i in range(ranks):
                np.maximum(top[i], row, out=spare)
                if i + 1 < ranks:
                    np.minimum(top[i], row, out=row)
                top[i], spare = spare, top[i]
        np.divide(top[m - 1], _draw_norms(draws, row), out=stat[start : start + size])
    return stat


def _ranked_statistics(
    z_corr: CorrelationMatrix, two_sided: bool, directions: int, seed: int
) -> np.ndarray:
    """The first ``directions`` null directions of the pool's stream (every
    block drawn whole, and read from its first column), each a column of
    its draw's statistics over the draw's norm, largest first: (dim,
    directions), float64 from float32 rows and norms as in
    :func:`_tail_count_statistic`."""
    factor, dim, key = z_corr.factor.astype(np.float32), z_corr.dim, seed & 0xFFFFFFFFFFFFFFFF
    stat = np.empty((dim, directions))
    work = np.empty((dim + 1, min(_POOL_BLOCK, directions)), np.float32)
    for start in range(0, directions, _POOL_BLOCK):
        size = min(_POOL_BLOCK, directions - start)
        draws = _block_normals(key, start // _POOL_BLOCK, dim + dim % 2, _POOL_BLOCK)[:, :size]
        rows, norms = work[:dim, :size], work[dim, :size]
        for j in range(dim):
            _statistic_row(factor, draws, j, two_sided, rows[j])
        np.divide(rows, _draw_norms(draws, norms), out=stat[:, start : start + size])
    stat.sort(axis=0)
    return stat[::-1]


def _radial_level(stat: np.ndarray, dim: int) -> Callable:
    """The pool's level at c >= 0, the mean over directions of P(chi_dim >
    c / T) for an even ``dim``, 0 where T <= 0, as ``law(c)``, which returns
    it and its slope in c; ``law(c, spread=True)`` returns it, bit for bit,
    and the mean squared term.  A 2-d ``stat`` holds one rank per row and
    one direction per column, and ``law`` returns each row's level and
    slope, or each row's level and the (rows, rows) mean products of the
    directions' terms.

    With y = 1 / T^2, w = c^2 / 2 and E = e^(-w y), the tail is the Poisson
    sum E sum_a (w y)^a / a! over a = 0, 1, ..., dim/2 - 1 (Genz & Bretz
    2009, ch. 4).  So the level sums over directions first: one exponential
    each, then the moments sum_i y_i^a E_i weighted by w^a / a!, and the
    slope, the mean of -c^(dim-1) y^(dim/2) E / (2^(dim/2-1) (dim/2 - 1)!),
    is the next moment.  T is raised to 2^(-960/dim) so that the moments
    stay finite, which moves no term at c > 4e-23 for dim <= 12; c is cut to
    1000, past which every term is 0.  y is built in place in one new
    array, the compacted positive T of a pool, and the whole of a 2-d
    ``stat``, whose terms where T <= 0 a mask zeroes, so ``stat`` is left as
    it is and need not be held by the caller.
    """
    size, positive, ranked = stat.shape[-1], stat > 0.0, stat.ndim == 2
    y = np.where(positive, stat, 1.0) if ranked else stat[positive]
    np.square(np.reciprocal(np.maximum(y, 2.0 ** -(960 // dim), out=y), out=y), out=y)
    power = np.empty(y.shape)
    constant = 2.0 ** (0.5 * dim - 1.0) * math.gamma(0.5 * dim)

    def law(c: float, spread: bool = False):
        c = min(c, 1000.0)
        w, level = 0.5 * c * c, 0.0
        terms = np.zeros(y.shape) if spread else None
        np.exp(np.multiply(y, -w, out=power), out=power)
        if ranked:
            np.multiply(power, positive, out=power)
        for a in range(dim // 2):
            if a:
                np.multiply(power, y, out=power)
            weight = w ** a / math.gamma(a + 1.0)
            level += weight * (power.sum(axis=1) if ranked else float(power.sum()))
            if spread:
                terms += weight * power
        # einsum, not BLAS, whose threads would spin on the cores
        if spread and ranked:
            return level / size, np.einsum("in,jn->ij", terms, terms) / size
        if spread:
            return level / size, float(np.einsum("i,i->", terms, terms)) / size
        if ranked:
            slope = -np.einsum("in,in->i", power, y) * c ** (dim - 1) / constant
        else:
            slope = -float(np.einsum("i,i->", power, y)) * c ** (dim - 1) / constant
        return level / size, slope / size

    return law


def _exceedance_law(
    z_corr: CorrelationMatrix, two_sided: bool, directions: int, seed: int, low: float,
    high: float,
) -> Callable:
    """P(at least one of the statistics exceeds c), |Z| > c where
    ``two_sided`` and Z > c elsewhere, on ``directions`` null directions, as
    ``law(c)``, which returns it and its slope in c for c in [low, high],
    and ``law(c, spread=True)``, which returns it and its standard error.

    With N the exceedance count, S1 = E N = dim t(c) (t one statistic's
    tail) and S2 = E C(N, 2), the sum over pairs of P(both exceed)
    (:func:`_bivariate_levels`), are exact.  Given a direction u (Z = R L
    u, R ~ chi_d as in :func:`platform_threshold`), N >= r exactly when R >
    c / T_r(u), T_r the r-th largest statistic over the norm, so P(N >= 1 |
    u) = Q(c / T_1), E[N | u] = sum_r Q(c / T_r) and E[C(N, 2) | u] = sum_r
    (r - 1) Q(c / T_r), with Q(x) = P(chi_d > x) and Q = 0 where T <= 0.
    The law is beta1 S1 + beta2 S2 + mean_u sum_r gamma_r Q(c / T_r(u)),
    gamma_r = [r = 1] - beta1 - beta2 (r - 1): unbiased for any beta, the
    two sums serving as control variates.  With beta = (1, -1) it is S1 -
    S2 plus the triple-and-higher remainder, from 1{N >= 1} = N - C(N, 2) +
    C(N - 1, 2).  beta is instead (1, -1) plus the least-squares fit of
    that remainder on the two sums over the directions at ``high``, which
    keeps the variance small on strongly correlated statistics too.  The
    standard error is the standard deviation of the directions' values over
    sqrt(directions).  Terms below 1e-22 at every c >= ``low`` are dropped
    first, which also keeps numpy's exp out of its slow subnormal band.
    """
    dim, sides = z_corr.dim, 2.0 if two_sided else 1.0
    stat = _ranked_statistics(z_corr, two_sided, directions, seed)
    stat[stat < low / math.sqrt(2.0 * _NEGLIGIBLE)] = 0.0
    # each column is sorted, so the ranks that keep a term are the first;
    # the law builds its own arrays, and the statistic is freed
    radial = _radial_level(stat[: np.count_nonzero(stat.max(axis=1) > 0.0)], dim + dim % 2)
    del stat
    rho = z_corr.entries[np.triu_indices(dim, 1)]
    means, products = radial(high, spread=True)
    rank = np.arange(means.size)
    # per rank: the weights of N and C(N, 2), and of the remainder
    controls, remainder = np.stack([np.ones(rank.size), rank]), (rank == 0) - 1.0 + rank
    covariance = controls @ (products - np.outer(means, means))
    shift = np.linalg.lstsq(covariance @ controls.T, covariance @ remainder, rcond=None)[0]
    beta, gamma = np.array([1.0, -1.0]) + shift, remainder - shift @ controls

    def law(c: float, spread: bool = False):
        pair, pair_slope, _ = _bivariate_levels(rho, c, 2, two_sided)
        levels, moments = radial(c, spread)
        level = float(beta @ (dim * sides * _std_normal_cdf(-c), pair.sum()) + gamma @ levels)
        if spread:
            variance = gamma @ (moments - np.outer(levels, levels)) @ gamma
            return level, math.sqrt(max(variance, 0.0) / directions)
        density = math.exp(-0.5 * c * c) / _SQRT_2PI
        return level, float(beta @ (-dim * sides * density, pair_slope.sum()) + gamma @ moments)

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
        return -_std_normal_quantile(t / tail)

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


def _check_level(alpha, c_star, achieved, tolerance) -> None:
    """:class:`RootBracketError` unless every achieved level is within
    ``tolerance`` of its own target ``alpha``, elementwise over the broadcast
    numbers or 1-d arrays; the message names the first element that misses."""
    alpha, c_star, achieved, tolerance = np.broadcast_arrays(
        *np.atleast_1d(alpha, c_star, achieved, tolerance))
    miss = np.flatnonzero(np.abs(achieved - alpha) > tolerance)
    if miss.size:
        i = miss[0]
        raise RootBracketError(
            f"no critical value c >= 0 reaches level {alpha[i]:.6g}: the level at "
            f"c = {c_star[i]:.6g} is {achieved[i]:.6g}, more than {tolerance[i]:.2g} away"
        )


def _bivariate_critical_values(rho, metrics) -> np.ndarray:
    """Critical values of two statistics with correlation ``rho`` under the
    exact bivariate law, shape (correlations, metrics): one elementwise
    search (:func:`_solve_decreasing`) over every (correlation, metric), each
    element on its metric's law toward its alpha, Halley steps on the level
    and its closed-form slope and curvature, and one :func:`_check_level`
    call.  Each element starts inside its bracket, interpolated by |rho|
    toward the end that is exact at |rho| = 1: the lower end (one
    statistic's tail) for one exceedance, the upper end for two.  The
    default thresholds study and design surface take two batched
    evaluations."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    # the elements run metric by metric, each over every correlation
    count, two_sided, alpha = (np.repeat(law, rho.size) for law in zip(*(
        (m.exceedance_count, m.effective_sided == "two", m.alpha) for m in metrics)))
    rhos = np.tile(rho, len(metrics))

    def level(c: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, ...]:
        return _bivariate_levels(rhos[active], c, count[active], two_sided[active])

    low, high = (np.concatenate(ends) for ends in zip(*(_bracket(m, 2, rho) for m in metrics)))
    # the end that is exact at |rho| = 1, and the other one
    near, far = np.where(count == 1, low, high), np.where(count == 1, high, low)
    weight = np.abs(rhos)
    start = (1.0 - weight) * far + weight * near
    c_star, achieved = _solve_decreasing(level, alpha, low, high, start, x_tol=1e-12)
    _check_level(alpha, c_star, achieved, _PROB_TOL * alpha)
    return c_star.reshape(len(metrics), rho.size).T


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

    Every law is solved by one root search, :func:`_solve_decreasing`, on
    an analytic bracket: for any exceedance one statistic's level against
    the union bound, for two exceedances of two statistics their product
    against one statistic's level, and for at least m the Markov bound on
    the count.  The search is safeguarded on h(c) = sqrt(-2 log level(c)),
    nearly linear in c: Halley where the law gives its curvature, Newton on
    the laws over null directions.  Each law gives its level and its slope.
    Every search ends on a step predicted to leave its successor under a
    tenth of its tolerance, without the pass at that step that would only
    confirm it.  With two statistics (K=1) the law is the exact bivariate
    normal, whose slope and curvature are closed form, solved to 1e-12 from
    a start between the bracket's ends that |rho| predicts; ``achieved`` is
    its level at c*, from one evaluation there, ``achieved_stderr`` is 0,
    and ``precision``, ``seed`` and ``replications`` are validated but
    unused.  With more, each search starts at the bracket's upper end.  An
    any-exceedance level (fwer, or m-FWER at m = 1) is
    :func:`_exceedance_law`: the first two inclusion-exclusion terms, exact
    from one statistic's tail and the pairs' orthants, and a remainder over
    the first 2,048 null directions of the count pool's seeded stream below,
    its control-variate weights fitted at the bracket's upper end.  It is a
    smooth deterministic function of c with a closed-form slope, solved to
    1e-8 in about two passes.  ``achieved`` is the search's level at the
    root, and ``achieved_stderr`` the standard deviation of the directions'
    values there over sqrt(directions), from one pass at the root.  Should
    that exceed ``precision``, the directions double as often as the
    stderr's fall with 1 / sqrt(directions) predicts the precision needs (up
    to 2^22 statistics in all, past which the solve raises
    :class:`PrecisionUnreachable`), and the search goes on from the root.
    Count-based metrics (at least m >= 2 of more than two statistics exceed
    c) integrate the radius exactly over a common pool of ``replications``
    null directions (spherical-radial integration: Deak 1980; Genz & Bretz
    2009, ch. 4).  With Z = R L u, where R ~ chi_dim is independent of the
    direction u, at least m statistics exceed c exactly when R > c / T(u), T
    the direction's m-th largest statistic over its norm
    (:func:`_tail_count_statistic`).  So the level is the mean over
    directions of P(chi_dim > c / T), and 0 where T <= 0.  An odd dim draws
    one more normal W per direction, into the norm only: with Z = L X, |(X,
    W)| ~ chi_(dim+1) is independent of the direction of (X, W), so the level
    is exactly the mean of P(chi_(dim+1) > c / T).  It is a smooth
    deterministic function of c with a closed-form slope, summed over the
    directions as power moments (:func:`_radial_level`), one exponential per
    direction per evaluation, and solved to 1e-9.  ``achieved`` is the level
    at the root, and ``achieved_stderr`` the standard deviation of the
    directions' terms there over sqrt(``replications``), both from one pass
    at the root that keeps each term; ``precision`` is validated but
    unused.  The directions are drawn in seeded blocks, kept for the life of
    the process up to the default K = 6 pool (12 x 65,536 float32 normals),
    and reduced on the calling thread; they depend only on the arguments,
    not on earlier calls.  Each direction's statistics are float32 and every
    probability from them on double, which moved c* by at most 1.5e-8
    relative over 200 K = 2-6 solves.
    """
    dim = z_corr.dim
    if dim < 2:
        raise DomainError("platform threshold needs at least two test statistics")
    _check_solver_settings(metric, dim, precision, replications)

    rho = float(z_corr.entries[0, 1])
    two_sided = metric.effective_sided == "two"

    # the one-element search's level and slope on the law a branch below builds
    def level(c: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.array([value]) for value in law(float(c[0])))

    if dim == 2:
        c_star, stderr = float(_bivariate_critical_values(rho, (metric,))[0, 0]), 0.0
        achieved = float(_bivariate_levels(rho, np.array([c_star]), metric.exceedance_count,
                                           two_sided)[0][0])
    elif metric.exceedance_count == 1:
        low, high = _bracket(metric, dim, rho)
        directions, start = _FIRST_DIRECTIONS, high
        while True:
            law = _exceedance_law(z_corr, two_sided, directions, seed, float(low), float(high))
            c_values, levels = _solve_decreasing(level, metric.alpha, low, high, start, 1e-8)
            c_star, achieved = float(c_values[0]), float(levels[0])
            stderr = law(c_star, spread=True)[1]
            if stderr <= precision:
                break
            # the stderr falls as 1 / sqrt(directions): double them about as
            # often as that predicts the precision needs, within the cap, and
            # search on from the root
            room = int(math.log2(_MAX_STATISTICS / (dim * directions)))
            if room < 1:
                raise PrecisionUnreachable(
                    f"standard error {stderr:.2e} > {precision:.2e} on {directions} null "
                    f"directions, the most a solve of {dim} statistics draws"
                )
            directions <<= min(room, max(1, round(2.0 * math.log2(stderr / precision))))
            start = c_values
    else:
        count, sided = metric.exceedance_count, metric.effective_sided
        # a temporary: nothing holds the statistic through the search
        law = _radial_level(_tail_count_statistic(z_corr, count, sided, replications, seed),
                            dim + dim % 2)
        low, high = _bracket(metric, dim, rho)
        c_star = float(_solve_decreasing(level, metric.alpha, low, high, high, 1e-9)[0][0])
        achieved, mean_square = law(c_star, spread=True)
        stderr = math.sqrt(max(mean_square - achieved**2, 0.0) / replications)

    if dim > 2:  # the bivariate solve checks its own level
        tolerance = max(1e-4, 3.0 * stderr) if stderr > 0.0 else _PROB_TOL * metric.alpha
        _check_level(metric.alpha, c_star, achieved, tolerance)
    return ThresholdResult(
        critical_value=c_star,
        p_threshold=_p_threshold(c_star),
        metric=metric,
        z_correlation=z_corr,
        achieved=achieved,
        achieved_stderr=stderr,
    )
