"""Multivariate normal kernel.

Univariate normal cdf/quantile (``math.erfc``, no scipy), Cholesky
factorization with diagonal jitter, and rectangle probabilities:

* dimension 2 uses a deterministic Gauss-Legendre scheme (Drezner-Wesolowsky
  integral representation, accurate to ~1e-15), so root finders see a smooth
  noise-free objective; it is elementwise over arrays of boxes and
  correlations, as is the normal cdf;
* higher dimensions use a randomized separation-of-variables estimate
  (shifted Richtmyer lattices after the sequential-conditioning transform)
  with a reported standard error.  A :class:`QmcLattice` holds its points
  for one correlation matrix, so every box evaluated on it sees the same
  points: a root finder over box bounds then sees a smooth, deterministic
  objective.

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
    "bvn_rectangle",
    "RectangleEstimate",
]

_SYMMETRY_TOL = 1e-10
# the largest diagonal jitter cholesky adds
_MAX_JITTER = 1e-8


_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def std_normal_cdf(x):
    """Standard normal cdf via the complementary error function: a float for
    a number, and for an array the array of ``math.erfc`` values entry by
    entry, so both agree to the last bit."""
    if isinstance(x, np.ndarray):
        if np.isnan(x).any():
            raise DomainError("std_normal_cdf requires a finite argument")
        return 0.5 * np.asarray(_erfc(-x / _SQRT2), dtype=float)
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
    def identity(cls, dim: int) -> "CorrelationMatrix":
        return cls(np.eye(dim))

    @classmethod
    def bivariate(cls, rho: float) -> "CorrelationMatrix":
        return cls(np.array([[1.0, rho], [rho, 1.0]]))


# ---------------------------------------------------------------------------
# Bivariate rectangle probability (deterministic quadrature)
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
        if label == _NEAR_SINGULAR:
            out[pick] = _bvn_near_singular(h[pick], k[pick], r[pick], *_GL_RULES[-1])
        else:
            out[pick] = _bvn_quadrature(h[pick], k[pick], r[pick], *_GL_RULES[label])
    return np.minimum(1.0, np.maximum(0.0, out)).reshape(shape)


def bvn_rectangle(lower, upper, rho):
    """P(lower <= (X, Y) <= upper) for standard bivariate normals with
    correlation rho.

    Elementwise over boxes: ``lower`` and ``upper`` have shape (..., 2) and
    broadcast with ``rho``.  One box gives a float, several an array of
    their broadcast shape; the four corners of every box are one kernel call.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rho = np.asarray(rho, dtype=float)
    outside = ~(np.abs(rho) <= 1.0)
    if outside.any():
        raise DomainError(f"correlation must lie in [-1, 1], got {rho[outside].flat[0]}")
    if lower.shape[-1:] != (2,) or upper.shape[-1:] != (2,):
        raise DomainError("rectangle bounds need two coordinates")
    a1, a2, b1, b2, rho = np.broadcast_arrays(
        lower[..., 0], lower[..., 1], upper[..., 0], upper[..., 1], rho
    )
    if not ((a1 < b1) & (a2 < b2)).all():
        raise DomainError("rectangle bounds must satisfy lower < upper")
    corner = _bvn_upper(
        np.concatenate((a1, a1, b1, b1), axis=None),
        np.concatenate((a2, b2, a2, b2), axis=None),
        np.concatenate((rho, rho, rho, rho), axis=None),
    ).reshape(4, *rho.shape)
    p = np.minimum(1.0, np.maximum(0.0, corner[0] - corner[1] - corner[2] + corner[3]))
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# General rectangle probability (randomized quasi-Monte Carlo)
# ---------------------------------------------------------------------------


class RectangleEstimate(NamedTuple):
    value: float
    stderr: float
    n_points: int

    def __float__(self) -> float:
        return self.value


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


_NDTRI_CLIP = 1e-15
# independently shifted copies of the lattice; their spread is the stderr
_N_BATCHES = 12
# the most points refine() spends on one box
_MAX_POINTS = 1 << 22


class QmcLattice:
    """Randomly shifted Richtmyer lattices for one correlation matrix.

    Twelve shifted copies of one lattice are drawn, tent-periodized and
    kept, so :meth:`estimate` evaluates any box on the same points: it is a
    deterministic, smooth function of the box bounds.  :meth:`grow` doubles
    the points per batch (from 128 x dim) with the next shifts of one seeded
    stream, so the k-th size always holds the same points.
    """

    def __init__(self, correlation: CorrelationMatrix, seed: int = 0):
        dim = correlation.dim
        if dim < 2:
            raise DomainError("a lattice needs at least two dimensions")
        self.factor = correlation.factor
        self.n_points = 64 * dim  # points per batch; grow() doubles it
        self.total_points = 0
        self._generators = np.sqrt(np.array(_first_primes(dim - 1), dtype=float))
        self._rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, dim])
        self.grow()

    def grow(self) -> None:
        """Double the points per batch and draw fresh shifts for them."""
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
        """P(lower <= Z <= upper) on the current points, all batches at once."""
        # scipy.special is most of the package's import time, so only the
        # paths that use it import it
        from scipy.special import ndtr, ndtri

        factor = self.factor
        d_cur = ndtr(lower[0] / factor[0, 0])
        e_cur = ndtr(upper[0] / factor[0, 0])
        prob = np.full(self._points.shape[1], e_cur - d_cur)
        y = np.empty_like(self._points)
        for i in range(1, factor.shape[0]):
            u = d_cur + self._points[i - 1] * (e_cur - d_cur)
            y[i - 1] = ndtri(np.clip(u, _NDTRI_CLIP, 1.0 - _NDTRI_CLIP))
            s = factor[i, :i] @ y[:i]
            ct = max(factor[i, i], 1e-12)
            d_cur = ndtr((lower[i] - s) / ct)
            e_cur = ndtr((upper[i] - s) / ct)
            prob *= np.maximum(e_cur - d_cur, 0.0)
        means = prob.reshape(_N_BATCHES, -1).mean(axis=1)
        value = float(means.mean())
        stderr = float(means.std(ddof=1) / math.sqrt(_N_BATCHES))
        return RectangleEstimate(min(1.0, max(0.0, value)), stderr, self.total_points)

    def refine(self, lower: np.ndarray, upper: np.ndarray, precision: float) -> RectangleEstimate:
        """Grow until the estimate of this box has standard error at most
        ``precision``; :class:`PrecisionUnreachable` beyond 2^22 points."""
        while True:
            estimate = self.estimate(lower, upper)
            if estimate.stderr <= precision:
                return estimate
            if self.total_points + 2 * _N_BATCHES * self.n_points > _MAX_POINTS:
                raise PrecisionUnreachable(
                    f"standard error {estimate.stderr:.2e} > {precision:.2e} "
                    f"after {self.total_points} points"
                )
            self.grow()

