"""Multivariate normal kernel.

Univariate normal cdf/quantile (``math.erfc``, no scipy), Cholesky
factorization with diagonal jitter, and rectangle probabilities:

* dimension 2 uses a deterministic Gauss-Legendre scheme (Drezner-Wesolowsky
  integral representation, accurate to ~1e-15), so root finders see a smooth
  noise-free objective;
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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NotPositiveDefinite, PrecisionUnreachable

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "cholesky",
    "CholeskyResult",
    "CorrelationMatrix",
    "RectangleSpec",
    "QmcLattice",
    "bvn_rectangle",
    "mvn_rectangle",
    "RectangleEstimate",
]

_SYMMETRY_TOL = 1e-10
_DEFAULT_JITTER_TOL = 1e-8


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf via the complementary error function."""
    if math.isnan(x):
        raise DomainError("std_normal_cdf requires a finite argument")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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


def cholesky(matrix: np.ndarray, jitter_tol: float = _DEFAULT_JITTER_TOL) -> CholeskyResult:
    """Lower-triangular Cholesky factor, adding diagonal jitter if needed.

    Jitter escalates geometrically and never exceeds ``jitter_tol``; the amount
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
    if jitter_tol < 0:
        raise DomainError("jitter_tol must be nonnegative")

    sym = (m + m.T) / 2.0
    eye = np.eye(sym.shape[0])
    jitter = 0.0
    while True:
        try:
            factor = np.linalg.cholesky(sym + jitter * eye)
            return CholeskyResult(factor, jitter)
        except np.linalg.LinAlgError:
            if jitter >= jitter_tol or jitter_tol == 0.0:
                raise NotPositiveDefinite(
                    f"Cholesky failed even with jitter {jitter_tol:g}"
                ) from None
            jitter = min(jitter_tol, 1e-14 if jitter == 0.0 else jitter * 100.0)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Validated correlation matrix with a cached Cholesky factor.

    Validation is eager: symmetry, unit diagonal, off-diagonal range, and
    positive semi-definiteness (after at most ``jitter_tol`` of diagonal
    jitter) are all checked at construction.
    """

    entries: np.ndarray
    jitter_tol: float = _DEFAULT_JITTER_TOL
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
        object.__setattr__(self, "_chol", cholesky(m, self.jitter_tol))

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


def _bvn_upper(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal with correlation r."""
    if dh == math.inf or dk == math.inf:
        return 0.0
    if dh == -math.inf:
        return 1.0 if dk == -math.inf else std_normal_cdf(-dk)
    if dk == -math.inf:
        return std_normal_cdf(-dh)
    if r == 0.0:
        return std_normal_cdf(-dh) * std_normal_cdf(-dk)

    tp = 2.0 * math.pi
    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.3:
        w, x = _GL6_W, _GL6_X
    elif abs(r) < 0.75:
        w, x = _GL12_W, _GL12_X
    else:
        w, x = _GL20_W, _GL20_X
    w = np.concatenate([w, w])
    x = np.concatenate([1.0 - x, 1.0 + x])

    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r) / 2.0
        sn = np.sin(asr * x)
        bvn = float(np.exp((sn * hk - hs) / (1.0 - sn * sn)) @ w)
        bvn = bvn * asr / tp + std_normal_cdf(-h) * std_normal_cdf(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if abs(r) < 1.0:
            as_ = (1.0 - r) * (1.0 + r)
            a = math.sqrt(as_)
            bs = (h - k) ** 2
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 16.0
            asr = -(bs / as_ + hk) / 2.0
            if asr > -100.0:
                bvn = (
                    a * math.exp(asr)
                    * (1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0
                       + c * d * as_ * as_ / 5.0)
                )
            if -hk < 100.0:
                b = math.sqrt(bs)
                sp = math.sqrt(tp) * std_normal_cdf(-b / a)
                bvn -= math.exp(-hk / 2.0) * sp * b * (
                    1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
                )
            a /= 2.0
            xs = (a * x) ** 2
            asr_v = -(bs / xs + hk) / 2.0
            keep = asr_v > -100.0
            if np.any(keep):
                xs_k = xs[keep]
                rs = np.sqrt(1.0 - xs_k)
                sp_v = 1.0 + c * xs_k * (1.0 + d * xs_k)
                ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                bvn += a * float((np.exp(asr_v[keep]) * (ep - sp_v)) @ w[keep])
            bvn = -bvn / tp
        if r > 0.0:
            bvn += std_normal_cdf(-max(h, k))
        else:
            bvn = -bvn + max(0.0, std_normal_cdf(-h) - std_normal_cdf(-k))
    return min(1.0, max(0.0, bvn))


def bvn_rectangle(
    lower: Sequence[float], upper: Sequence[float], rho: float
) -> float:
    """P(lower <= (X, Y) <= upper) for standard bivariate normal correlation rho."""
    if abs(rho) > 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    a1, a2 = float(lower[0]), float(lower[1])
    b1, b2 = float(upper[0]), float(upper[1])
    if not (a1 < b1 and a2 < b2):
        raise DomainError("rectangle bounds must satisfy lower < upper")
    p = (
        _bvn_upper(a1, a2, rho)
        - _bvn_upper(a1, b2, rho)
        - _bvn_upper(b1, a2, rho)
        + _bvn_upper(b1, b2, rho)
    )
    return min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# General rectangle probability (randomized quasi-Monte Carlo)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RectangleSpec:
    """Integration box for a zero-mean MVN with the given correlation."""

    lower: np.ndarray
    upper: np.ndarray
    correlation: CorrelationMatrix

    def __post_init__(self) -> None:
        lo = np.array(self.lower, dtype=float).reshape(-1)
        hi = np.array(self.upper, dtype=float).reshape(-1)
        if lo.size != self.correlation.dim or hi.size != self.correlation.dim:
            raise DomainError(
                "bound lengths must equal the correlation dimension "
                f"({lo.size}, {hi.size} vs {self.correlation.dim})"
            )
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise DomainError("rectangle bounds must not be NaN")
        if not np.all(lo < hi):
            raise DomainError("rectangle bounds must satisfy lower < upper")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.correlation.dim


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


class QmcLattice:
    """Randomly shifted Richtmyer lattices for one correlation matrix.

    ``n_batches`` shifted copies of one lattice are drawn, tent-periodized and
    kept, so :meth:`estimate` evaluates any box on the same points: it is a
    deterministic, smooth function of the box bounds.  :meth:`grow` doubles
    the points per batch (from 128 x dim) with the next shifts of one seeded
    stream, so the k-th size always holds the same points.
    """

    def __init__(self, correlation: CorrelationMatrix, seed: int = 0, n_batches: int = 12):
        dim = correlation.dim
        if dim < 2:
            raise DomainError("a lattice needs at least two dimensions")
        self.factor = correlation.factor
        self.n_batches = n_batches
        self.n_points = 64 * dim  # points per batch; grow() doubles it
        self.total_points = 0
        self._generators = np.sqrt(np.array(_first_primes(dim - 1), dtype=float))
        self._rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, dim])
        self.grow()

    def grow(self) -> None:
        """Double the points per batch and draw fresh shifts for them."""
        self.n_points *= 2
        self.total_points += self.n_batches * self.n_points
        shifts = self._rng.random((self.n_batches, self._generators.size))
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
        means = prob.reshape(self.n_batches, -1).mean(axis=1)
        value = float(means.mean())
        stderr = float(means.std(ddof=1) / math.sqrt(self.n_batches))
        return RectangleEstimate(min(1.0, max(0.0, value)), stderr, self.total_points)

    def refine(
        self, lower: np.ndarray, upper: np.ndarray, precision: float, max_points: int = 1 << 22
    ) -> RectangleEstimate:
        """Grow until the estimate of this box has standard error at most
        ``precision``; :class:`PrecisionUnreachable` beyond ``max_points``."""
        while True:
            estimate = self.estimate(lower, upper)
            if estimate.stderr <= precision:
                return estimate
            if self.total_points + 2 * self.n_batches * self.n_points > max_points:
                raise PrecisionUnreachable(
                    f"standard error {estimate.stderr:.2e} > {precision:.2e} "
                    f"after {self.total_points} points"
                )
            self.grow()


def mvn_rectangle(
    spec: RectangleSpec,
    precision: float = 1e-4,
    seed: int = 0,
    max_points: int = 1 << 22,
    n_batches: int = 12,
) -> RectangleEstimate:
    """Estimate P(lower <= Z <= upper) for Z ~ N(0, correlation).

    Randomized separation-of-variables estimate: the sequential-conditioning
    transform maps the box probability onto the unit cube, which is sampled
    with ``n_batches`` independently shifted Richtmyer lattices
    (:class:`QmcLattice`).  Batches grow until the standard error of the
    batch means is at most ``precision`` or the point budget ``max_points``
    is exhausted (:class:`PrecisionUnreachable`).  Deterministic given
    ``seed``.
    """
    if precision <= 0.0:
        raise DomainError("precision must be positive")
    if spec.dim == 1:
        p = std_normal_cdf(spec.upper[0]) - std_normal_cdf(spec.lower[0])
        return RectangleEstimate(min(1.0, max(0.0, p)), 0.0, 0)
    lattice = QmcLattice(spec.correlation, seed, n_batches)
    return lattice.refine(spec.lower, spec.upper, precision, max_points)
