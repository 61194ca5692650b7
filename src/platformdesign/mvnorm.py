"""Multivariate normal kernel.

Univariate normal cdf/quantile (``math.erfc``, no scipy), Cholesky
factorization with diagonal jitter, and rectangle probabilities:

* in dimension 2, the upper orthant P(X > h, Y > k), from which every box
  follows, by a deterministic Gauss-Legendre scheme (Drezner-Wesolowsky
  integral representation, accurate to ~1e-15), so root finders see a
  smooth noise-free objective; it is elementwise over arrays of bounds and
  correlations, as is the normal cdf.  The equal-bound orthant P(X > c,
  Y > c) has its own kernel on Owen's T integral, which keeps its relative
  precision at every correlation;
* higher dimensions use a randomized separation-of-variables estimate
  (shifted Richtmyer lattices after the sequential-conditioning transform)
  with a reported standard error.  A :class:`QmcLattice` holds its points
  for one correlation matrix, so every box evaluated on it sees the same
  points: a root finder over box bounds then sees a smooth, deterministic
  objective, and each evaluation also returns that objective's derivative
  as the box widens, carried through the same pass.  The lattice takes the
  variables in one order per matrix, each next the one with the smallest
  residual variance given those before it (variable prioritisation, Genz
  1992); on the Z correlations of optimised platform designs this lowers
  the estimate's variance about twofold at four and six substudies.  Each
  pass writes every per-point step into one work array the lattice keeps
  and resizes as it grows, so repeated evaluations allocate nothing per
  point.

The lattice shifts are the module's only random numbers; every estimate is
a pure function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotPositiveDefinite, PrecisionUnreachable

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "cholesky",
    "CholeskyResult",
    "CorrelationMatrix",
    "QmcLattice",
    "RectangleEstimate",
]

_SYMMETRY_TOL = 1e-10
# the largest diagonal jitter cholesky adds
_MAX_JITTER = 1e-8


_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x):
    """Standard normal cdf via the complementary error function: a float for
    a number, and for an array the array of ``math.erfc`` values entry by
    entry, so both agree to the last bit."""
    if isinstance(x, np.ndarray):
        if np.isnan(x).any():
            raise DomainError("std_normal_cdf requires a finite argument")
        args = (-x / _SQRT2).ravel().tolist()
        return 0.5 * np.fromiter(map(math.erfc, args), float, x.size).reshape(x.shape)
    if math.isnan(x):
        raise DomainError("std_normal_cdf requires a finite argument")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` on (0, 1), to ~1e-15 relative error.

    Halley steps from the Abramowitz-Stegun 26.2.23 guess (or the linear one
    near the median) solve for the upper-tail quantile x of q = min(p, 1 - p),
    on ``math.erf`` when q >= 1/4 and on ``math.erfc`` below.  Both 1 - p and
    1/2 - q are exact there, so neither the centre nor the tails lose digits.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile probability must lie in (0, 1), got {p}")
    q = min(p, 1.0 - p)
    central = q >= 0.25
    if central:
        x = (0.5 - q) * math.sqrt(2.0 * math.pi)
    else:
        t = math.sqrt(-2.0 * math.log(q))
        x = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
            1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
        )
    for _ in range(8):
        # residual of the upper tail, 1 - cdf(x) - q
        if central:
            residual = (0.5 - q) - 0.5 * math.erf(x / math.sqrt(2.0))
        else:
            residual = 0.5 * math.erfc(x / math.sqrt(2.0)) - q
        u = residual / (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        step = u / (1.0 - 0.5 * x * u)
        x += step
        if abs(step) <= 1e-15 * abs(x):
            break
    return x if p >= 0.5 else -x


class CholeskyResult(NamedTuple):
    factor: np.ndarray
    jitter: float


def cholesky(matrix: np.ndarray) -> CholeskyResult:
    """Lower-triangular Cholesky factor, adding diagonal jitter if needed.

    Jitter escalates geometrically and never exceeds 1e-8; the amount
    actually added is reported so callers can decide whether to trust the
    factorization.  Raises :class:`NotPositiveDefinite` when even the maximum
    jitter does not make the matrix factorizable.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    if np.max(np.abs(m - m.T), initial=0.0) > _SYMMETRY_TOL:
        raise DomainError("matrix is not symmetric within 1e-10")

    sym = (m + m.T) / 2.0
    eye = np.eye(sym.shape[0])
    jitter = 0.0
    while True:
        try:
            factor = np.linalg.cholesky(sym + jitter * eye)
            return CholeskyResult(factor, jitter)
        except np.linalg.LinAlgError:
            if jitter >= _MAX_JITTER:
                raise NotPositiveDefinite(
                    f"Cholesky failed even with jitter {_MAX_JITTER:g}"
                ) from None
            jitter = min(_MAX_JITTER, 1e-14 if jitter == 0.0 else jitter * 100.0)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Validated correlation matrix with a cached Cholesky factor.

    Validation is eager: symmetry, unit diagonal, off-diagonal range, and
    positive semi-definiteness (after at most 1e-8 of diagonal jitter) are
    all checked at construction.
    """

    entries: np.ndarray
    _chol: CholeskyResult = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"correlation matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.T), initial=0.0) > _SYMMETRY_TOL:
            raise DomainError("correlation matrix is not symmetric")
        if np.max(np.abs(np.diag(m) - 1.0), initial=0.0) > 1e-12:
            raise DomainError("correlation matrix diagonal must be 1")
        off = m - np.diag(np.diag(m))
        if np.max(np.abs(off), initial=0.0) > 1.0 + 1e-12:
            raise DomainError("correlations must lie in [-1, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_chol", cholesky(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def factor(self) -> np.ndarray:
        return self._chol.factor

    @property
    def jitter(self) -> float:
        return self._chol.jitter

    @classmethod
    def bivariate(cls, rho: float) -> "CorrelationMatrix":
        return cls(np.array([[1.0, rho], [rho, 1.0]]))


# ---------------------------------------------------------------------------
# Bivariate upper orthant (deterministic quadrature)
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes/weights used by the Drezner-Wesolowsky scheme; the
# order grows with |rho| to keep the absolute error near machine precision.
_GL6_W = np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])
_GL6_X = np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])
_GL12_W = np.array(
    [0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
     0.2031674267230659, 0.2334925365383547, 0.2491470458134029]
)
_GL12_X = np.array(
    [0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
     0.5873179542866171, 0.3678314989981802, 0.1252334085114692]
)
_GL20_W = np.array(
    [0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259]
)
_GL20_X = np.array(
    [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733]
)


# Each rule as weights and nodes on [0, 2]: the rule on [-1, 1] shifted by one.
_GL_RULES = tuple(
    (np.concatenate([w, w]), np.concatenate([1.0 - x, 1.0 + x]))
    for w, x in ((_GL6_W, _GL6_X), (_GL12_W, _GL12_X), (_GL20_W, _GL20_X))
)
# |r| below which each rule is used; from the last one on, the expansion
# about |r| = 1
_GL_BANDS = np.array([0.3, 0.75, 0.925])


def _bvn_quadrature(h, k, r, weights, nodes):
    """P(X > h, Y > k) for 0 < |r| < 0.925: the tails' product plus the
    Drezner-Wesolowsky integral over asin(r), one (elements x nodes) product."""
    hk = (h * k)[:, None]
    hs = ((h * h + k * k) / 2.0)[:, None]
    asr = np.arcsin(r) / 2.0
    sn = np.sin(asr[:, None] * nodes)
    integral = (np.exp((sn * hk - hs) / (1.0 - sn * sn)) * weights).sum(axis=1)
    return integral * asr / (2.0 * math.pi) + std_normal_cdf(-h) * std_normal_cdf(-k)


def _bvn_near_singular(h, k, r, weights, nodes):
    """P(X > h, Y > k) for |r| >= 0.925: Genz's expansion about the singular
    law at r = +-1, with its Gauss-Legendre correction term.

    Lanes whose terms are negligible (exponent below -100) are masked to 0,
    and the exponentials see a harmless argument there.
    """
    tp = 2.0 * math.pi
    negative = r < 0.0
    k = np.where(negative, -k, k)
    hk = h * k
    bvn = np.zeros(h.size)
    inner = np.flatnonzero(np.abs(r) < 1.0)
    if inner.size:
        h_i, k_i, hk_i, r_i = h[inner], k[inner], hk[inner], r[inner]
        as_ = (1.0 - r_i) * (1.0 + r_i)
        a = np.sqrt(as_)
        bs = (h_i - k_i) ** 2
        c = (4.0 - hk_i) / 8.0
        d = (12.0 - hk_i) / 16.0
        asr = -(bs / as_ + hk_i) / 2.0
        part = np.where(
            asr > -100.0,
            a * np.exp(asr)
            * (1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0 + c * d * as_ * as_ / 5.0),
            0.0,
        )
        near = -hk_i < 100.0
        b = np.sqrt(bs)
        sp = math.sqrt(tp) * std_normal_cdf(-b / a)
        tail = np.exp(np.where(near, -hk_i, 0.0) / 2.0) * sp * b * (
            1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
        )
        part -= np.where(near, tail, 0.0)
        a /= 2.0
        xs = (a[:, None] * nodes) ** 2
        asr_v = -(bs[:, None] / xs + hk_i[:, None]) / 2.0
        keep = asr_v > -100.0
        rs = np.sqrt(1.0 - xs)
        sp_v = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
        ep = np.exp(np.where(keep, -hk_i[:, None] * (1.0 - rs) / (2.0 * (1.0 + rs)), 0.0)) / rs
        terms = np.where(keep, np.exp(asr_v) * (ep - sp_v), 0.0)
        part += a * (terms * weights).sum(axis=1)
        bvn[inner] = -part / tp
    positive = bvn + std_normal_cdf(-np.maximum(h, k))
    negative_law = -bvn + np.maximum(0.0, std_normal_cdf(-h) - std_normal_cdf(-k))
    return np.where(negative, negative_law, positive)


# Branch labels of _bvn_upper beyond the quadrature rules' 0, 1, 2
_NEAR_SINGULAR, _INFINITE = 3, 4
# A bound this many standard deviations out is infinite to double precision
# (the normal tail underflows), and larger ones would overflow h * h.
_FAR = 40.0


def _bvn_upper(h, k, r) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normals with correlation r,
    elementwise over the broadcast arrays.

    Each element takes the branch of Genz's scheme (Genz 2004) for its |r|:
    Gauss-Legendre quadrature below 0.925 (6, 12 or 20 nodes as |r| grows;
    at r = 0 the integral vanishes and the tails' product is left) and the
    expansion about |r| = 1 above.
    Only the branches some element needs are computed; bounds beyond +-40,
    infinite ones included, give 0 or a univariate tail.
    """
    h, k, r = np.asarray(h, dtype=float), np.asarray(k, dtype=float), np.asarray(r, dtype=float)
    if not h.shape == k.shape == r.shape:
        h, k, r = np.broadcast_arrays(h, k, r)
    shape = h.shape
    h, k, r = h.ravel(), k.ravel(), r.ravel()
    out = np.zeros(h.size)
    branch = np.searchsorted(_GL_BANDS, np.abs(r), side="right")
    finite = (np.abs(h) < _FAR) & (np.abs(k) < _FAR)
    if not finite.all():
        branch[~finite] = _INFINITE
        tail_k = (h <= -_FAR) & (k < _FAR)
        tail_h = (k <= -_FAR) & (h < _FAR) & ~tail_k
        for tail, bound in ((tail_k, k), (tail_h, h)):
            if tail.any():
                out[tail] = std_normal_cdf(-bound[tail])
    counts = np.bincount(branch, minlength=_INFINITE)
    for label in np.flatnonzero(counts[:_INFINITE]).tolist():
        pick = slice(None) if counts[label] == h.size else np.flatnonzero(branch == label)
        bounds = (h[pick], k[pick], r[pick])
        if label == _NEAR_SINGULAR:
            out[pick] = _bvn_near_singular(*bounds, *_GL_RULES[-1])
        else:
            out[pick] = _bvn_quadrature(*bounds, *_GL_RULES[label])
    return np.minimum(1.0, np.maximum(0.0, out)).reshape(shape)


# The 20-point Gauss-Legendre rule on [0, 1]
_GL20_UNIT_W, _GL20_UNIT_X = _GL_RULES[-1][0] / 2.0, _GL_RULES[-1][1] / 2.0
# _equal_orthant integrates a tail only while its Gaussian factor falls by
# e^-_CUT (4e-18), and turns to Owen's identity beyond a = _OWEN_A while
# (c a)^2 is below _OWEN_CA2
_CUT, _OWEN_A, _OWEN_CA2 = 40.0, 2.0, 8.0


def _equal_orthant(c, a, tail, tail_ca) -> np.ndarray:
    """U = P(X > c, Y > c) for standard bivariate normals with correlation r
    and c >= 0, given a = sqrt((1 - r) / (1 + r)) (infinite at r = -1), tail
    = Phi(-c) and tail_ca = Phi(-c a) (1/2 at c = 0), elementwise over the
    broadcast arrays.

    Owen (1956): U = (1/pi) int_a^inf g(u) du, with g(u) = exp(-c^2 (1 +
    u^2) / 2) / (1 + u^2), and the part beyond u = 1 is tail^2.  Each
    element is one 20-point Gauss-Legendre sum of exponentials, with no
    trigonometric function, on an interval where g is smooth on the scale
    of the rule:

    * the tail's own interval [a, a + d], at whose end g's Gaussian factor
      has fallen by e^-40, so that the rest is negligible: for a <= 1 while
      a + d < 1, and for a > 1 where (c a)^2 >= 8;
    * otherwise tail^2 + (1/pi) int_a^1 g: for a <= 1, and for 1 < a <= 2,
      where the integral is negative, the complement of the tail;
    * beyond a = 2 with (c a)^2 < 8, Owen's identity T(h, a) + T(a h, 1/a)
      = (Phi(h) + Phi(a h)) / 2 - Phi(h) Phi(a h), h >= 0, which turns the
      tail into (1/pi) int_0^(1/a) exp(-(c a)^2 (1 + x^2) / 2) / (1 + x^2) dx
      - tail_ca (1 - 2 tail) and keeps the absolute precision as r -> -1.

    Against a 40-digit mpmath quadrature of Owen's integral the relative
    error is at most 5e-14 wherever U >= 1e-20, and the absolute error at
    most 2e-16 everywhere.  c is clipped to [1e-150, 40], which leaves U
    unchanged to double precision and keeps 1 / c and every lane finite, so
    that no lane warns.
    """
    c = np.minimum(np.maximum(c, 1e-150), _FAR)
    ca = c * a
    ca2 = ca * ca
    near = ca2 < _OWEN_CA2
    owen = near & (a > _OWEN_A)
    cut = 2.0 * _CUT / (c * (np.sqrt(ca2 + 2.0 * _CUT) + ca))
    before_one = 1.0 - a
    # from a to 1 after tail^2: for a <= 1 unless the tail's own interval
    # ends first, and for 1 < a <= 2 while (c a)^2 < 8
    anchored = (a <= np.where(near, _OWEN_A, 1.0)) & (cut >= before_one)
    low = np.where(owen, 0.0, a)
    span = np.where(owen, 1.0 / np.maximum(a, _OWEN_A), np.where(anchored, before_one, cut))
    # 1 + x^2 at the nodes x of [low, low + span], and the terms g(x)
    x = np.multiply(span[..., None], _GL20_UNIT_X)
    x += low[..., None]
    x *= x
    x += 1.0
    terms = np.multiply(x, -0.5 * np.where(owen, ca2, c * c)[..., None])
    np.exp(terms, out=terms)
    terms /= x
    start = np.where(owen, tail_ca * (2.0 * tail - 1.0), np.where(anchored, tail * tail, 0.0))
    return np.einsum("...j,j->...", terms, _GL20_UNIT_W) * span / math.pi + start


# ---------------------------------------------------------------------------
# General rectangle probability (randomized quasi-Monte Carlo)
# ---------------------------------------------------------------------------


class RectangleEstimate(NamedTuple):
    """A box probability; ``n_points`` counts every point its lattice has drawn,
    and ``slope`` is d value / dt for the box pushed outward by t."""

    value: float
    stderr: float
    n_points: int
    slope: float


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


_NDTRI_CLIP = 1e-15
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# independently shifted copies of the lattice; their spread is the stderr
_N_BATCHES = 12
# points per batch of a new lattice, per dimension; refine() doubles them
_START_POINTS = 32
# the most points refine() spends on one box
_MAX_POINTS = 1 << 22


def _cdf_and_slope(ndtr, bound: float, s, d_bound, ct: float, cdf, slope) -> None:
    """Write Phi((bound - s) / ct) into ``cdf`` and its derivative into
    ``slope``, given the derivative ``d_bound`` of bound - s; an infinite
    bound gives 0 or 1 and slope 0."""
    if math.isinf(bound):
        cdf.fill(0.0 if bound < 0.0 else 1.0)
        slope.fill(0.0)
        return
    x = np.divide(np.subtract(bound, s, out=cdf), ct, out=cdf)
    # beyond |x| ~ 1e154 the square overflows to inf, and the density is 0
    with np.errstate(over="ignore"):
        np.square(x, out=slope)
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= d_bound
    slope /= ct * _SQRT_2PI
    ndtr(x, out=cdf)


def _smallest_residual_order(matrix: np.ndarray) -> np.ndarray:
    """The order in which a Cholesky pivoting on the smallest remaining
    residual variance takes the variables of ``matrix``; ties go to the
    lowest index.

    Each pivot is the variable best determined by those before it, so the
    conditional intervals of the separation-of-variables transform narrow
    early and the lattice's estimate varies less.
    """
    schur = np.array(matrix, dtype=float)
    remaining = np.arange(schur.shape[0])
    order = []
    while remaining.size:
        j = remaining[np.argmin(np.diag(schur)[remaining])]
        order.append(j)
        remaining = remaining[remaining != j]
        if schur[j, j] > 0.0:
            schur -= np.outer(schur[:, j], schur[j]) / schur[j, j]
    return np.array(order)


class QmcLattice:
    """Randomly shifted Richtmyer lattices for one correlation matrix.

    Twelve shifted copies of one lattice are drawn, tent-periodized and
    kept, so :meth:`estimate` evaluates any box on the same points: it is a
    deterministic, smooth function of the box bounds.  :meth:`grow` doubles
    the points per batch (from 32 x dim) with the next shifts of one seeded
    stream, so the k-th size always holds the same points.

    The variables are integrated in ``order``, that of a Cholesky pivoting
    on the smallest remaining residual variance, chosen once from the
    matrix; ``factor`` is the Cholesky factor of the matrix in that order,
    and :meth:`estimate` permutes the bounds to match.  :meth:`estimate`
    runs in a work array the lattice keeps, so a lattice serves one thread
    at a time.
    """

    def __init__(self, correlation: CorrelationMatrix, seed: int = 0):
        dim = correlation.dim
        if dim < 2:
            raise DomainError("a lattice needs at least two dimensions")
        self.order = _smallest_residual_order(correlation.entries)
        self.factor = cholesky(correlation.entries[np.ix_(self.order, self.order)]).factor
        self.n_points = _START_POINTS * dim // 2  # points per batch; grow() doubles it
        self.total_points = 0
        self._generators = np.sqrt(np.array(_first_primes(dim - 1), dtype=float))
        self._rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, dim])
        self._work = np.empty((0, 0))
        self.grow()

    def grow(self) -> None:
        """Double the points per batch and draw fresh shifts for them;
        :class:`PrecisionUnreachable` when that would pass 2^22 points."""
        if self.total_points + 2 * _N_BATCHES * self.n_points > _MAX_POINTS:
            raise PrecisionUnreachable(
                f"the lattice may not grow past {_MAX_POINTS} points "
                f"(it holds {self.total_points})"
            )
        self.n_points *= 2
        self.total_points += _N_BATCHES * self.n_points
        shifts = self._rng.random((_N_BATCHES, self._generators.size))
        j = np.arange(1, self.n_points + 1, dtype=float)
        # (dim - 1, batch, point)
        z = self._generators[:, None, None] * j + shifts.T[:, :, None]
        z -= np.floor(z)
        # tent periodization
        self._points = np.abs(2.0 * z - 1.0).reshape(self._generators.size, -1)

    def estimate(self, lower: np.ndarray, upper: np.ndarray) -> RectangleEstimate:
        """P(lower <= Z <= upper) on the current points, all batches at once,
        with its slope: the derivative in t of the box (lower - t, upper + t)
        at t = 0, infinite bounds held fixed.

        Bounds must have shape (dim,) and no NaN (:class:`DomainError`).
        The slope is carried through the same pass in forward mode: each
        bound's cdf contributes its density times the bound's derivative,
        and each transformed point y = Phi^-1(u) the derivative du / phi(y),
        0 where u is clipped, so the pass adds exponentials and
        multiply-adds but no ``ndtr`` or ``ndtri`` call.  An infinite bound
        gives a cdf of exactly 0 or 1 without calling ``ndtr``.
        """
        # scipy.special is most of the package's import time, so only the
        # paths that use it import it
        from scipy.special import ndtr, ndtri

        factor, points = self.factor, self._points
        dim = factor.shape[0]
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        if lower.shape != (dim,) or upper.shape != (dim,):
            raise DomainError(
                f"box bounds must have shape ({dim},), got {lower.shape} and {upper.shape}"
            )
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise DomainError("box bounds must not be NaN")
        lower, upper = lower[self.order], upper[self.order]
        n = points.shape[1]
        if self._work.shape[1] != n:  # new points since the last call
            # y = Phi^-1(u) and dy per earlier variable, seven per-point
            # rows, and the lower and upper bounds' cdfs with their slopes
            self._work = np.empty((2 * (dim - 1) + 7 + 4, n))
            self._clipped = np.empty(n, dtype=bool)
        work, clipped = self._work, self._clipped
        y, dy = work[: dim - 1], work[dim - 1 : 2 * dim - 2]
        prob, slope, u, du, tmp, s, ds = work[2 * dim - 2 : 2 * dim + 5]
        cdfs = work[2 * dim + 5 :]
        prob.fill(1.0)
        slope.fill(0.0)
        for i in range(dim):
            if i:
                # u = d + x (e - d) at the previous variable's cdfs, and du
                np.subtract(e_cur, d_cur, out=u)
                u *= points[i - 1]
                u += d_cur
                np.subtract(de_cur, dd_cur, out=du)
                du *= points[i - 1]
                du += dd_cur
                # y = Phi^-1(u) and dy = du / phi(y), 0 where u is clipped
                np.clip(u, _NDTRI_CLIP, 1.0 - _NDTRI_CLIP, out=tmp)
                np.not_equal(tmp, u, out=clipped)
                ndtri(tmp, out=y[i - 1])
                np.copyto(du, 0.0, where=clipped)
                np.square(y[i - 1], out=tmp)
                tmp *= 0.5
                np.exp(tmp, out=tmp)
                tmp *= _SQRT_2PI
                np.multiply(du, tmp, out=dy[i - 1])
                # einsum, not @: OpenBLAS's threaded gemv can be many
                # times slower on a loaded host
                np.einsum("k,kn->n", factor[i, :i], y[:i], out=s)
                np.einsum("k,kn->n", factor[i, :i], dy[:i], out=ds)
            # the first variable's bounds are the same at every point, so
            # its cdfs are one element each
            cols, s_i, ds_i = (slice(None), s, ds) if i else (slice(1), 0.0, 0.0)
            d_cur, dd_cur, e_cur, de_cur = cdfs[:, cols]
            ct = max(factor[i, i], 1e-12)
            d_bound = du[cols]
            _cdf_and_slope(ndtr, lower[i], s_i, np.subtract(-1.0, ds_i, out=d_bound), ct,
                           d_cur, dd_cur)
            _cdf_and_slope(ndtr, upper[i], s_i, np.subtract(1.0, ds_i, out=d_bound), ct,
                           e_cur, de_cur)
            width = np.maximum(np.subtract(e_cur, d_cur, out=u[cols]), 0.0, out=u[cols])
            # slope = slope * width + prob * (de_cur - dd_cur)
            np.multiply(prob, np.subtract(de_cur, dd_cur, out=d_bound), out=tmp)
            slope *= width
            slope += tmp
            prob *= width
        means = prob.reshape(_N_BATCHES, -1).mean(axis=1)
        value = float(means.mean())
        stderr = float(means.std(ddof=1) / math.sqrt(_N_BATCHES))
        return RectangleEstimate(
            min(1.0, max(0.0, value)), stderr, self.total_points, float(slope.mean())
        )

    def refine(self, lower: np.ndarray, upper: np.ndarray, precision: float) -> RectangleEstimate:
        """Grow until the estimate of this box has standard error at most
        ``precision``; :class:`PrecisionUnreachable` beyond 2^22 points."""
        while True:
            estimate = self.estimate(lower, upper)
            if estimate.stderr <= precision:
                return estimate
            try:
                self.grow()
            except PrecisionUnreachable as full:
                raise PrecisionUnreachable(
                    f"standard error {estimate.stderr:.2e} > {precision:.2e}: {full}"
                ) from None
