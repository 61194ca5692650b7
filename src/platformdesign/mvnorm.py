"""Multivariate normal kernel.

Univariate normal cdf/quantile (``math.erfc``), correlation matrices
validated and factored with diagonal jitter, and the bivariate upper
orthant P(X > h, Y > k), h, k >= 0, on Owen's T integral (Owen 1956): one
20-point Gauss-Legendre sum of exponentials per element, deterministic, so
root finders see a smooth noise-free objective, and relatively precise at
every correlation.  The equal-bound orthant P(X > c, Y > c) is one such
integral, and unequal bounds are two halves of it in one call; both are
elementwise over arrays of bounds and correlations, as is the normal cdf.
The module draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveDefinite

__all__ = ["CorrelationMatrix"]

_SYMMETRY_TOL = 1e-10
# the largest diagonal jitter a CorrelationMatrix adds to factor its matrix
_MAX_JITTER = 1e-8


_SQRT2, _SQRT_2PI = math.sqrt(2.0), math.sqrt(2.0 * math.pi)


def _std_normal_cdf(x):
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


def _std_normal_quantile(p: float) -> float:
    """Inverse of :func:`_std_normal_cdf` on (0, 1), to ~1e-15 relative error.

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


@dataclass(frozen=True)
class CorrelationMatrix:
    """Validated correlation matrix with its Cholesky factor.

    Validation is eager: the matrix must be square and finite, symmetric
    within 1e-10, with unit diagonal and correlations in [-1, 1].
    ``factor`` is the lower Cholesky factor of its symmetric part, after
    diagonal ``jitter`` that escalates geometrically to at most 1e-8, past
    which the matrix is :class:`NotPositiveDefinite`.
    """

    entries: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    jitter: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"correlation matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("correlation matrix entries must be finite")
        if np.max(np.abs(m - m.T), initial=0.0) > _SYMMETRY_TOL:
            raise DomainError("correlation matrix is not symmetric within 1e-10")
        if np.max(np.abs(np.diag(m) - 1.0), initial=0.0) > 1e-12:
            raise DomainError("correlation matrix diagonal must be 1")
        off = m - np.diag(np.diag(m))
        if np.max(np.abs(off), initial=0.0) > 1.0 + 1e-12:
            raise DomainError("correlations must lie in [-1, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        sym, eye, jitter = (m + m.T) / 2.0, np.eye(len(m)), 0.0
        while True:
            try:
                factor = np.linalg.cholesky(sym + jitter * eye)
                break
            except np.linalg.LinAlgError:
                if jitter >= _MAX_JITTER:
                    raise NotPositiveDefinite(
                        f"Cholesky failed even with jitter {_MAX_JITTER:g}"
                    ) from None
                jitter = min(_MAX_JITTER, 1e-14 if jitter == 0.0 else jitter * 100.0)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "jitter", jitter)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def bivariate(cls, rho: float) -> "CorrelationMatrix":
        return cls(np.array([[1.0, rho], [rho, 1.0]]))


# ---------------------------------------------------------------------------
# Bivariate upper orthant (Owen's T integral)
# ---------------------------------------------------------------------------

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
# The 20-point Gauss-Legendre rule on [0, 1]: the rule on [-1, 1] shifted
# by one and halved
_GL20_UNIT_W = np.concatenate([_GL20_W, _GL20_W]) / 2.0
_GL20_UNIT_X = np.concatenate([1.0 - _GL20_X, 1.0 + _GL20_X]) / 2.0
# A bound this many standard deviations out is infinite to double precision
# (the normal tail underflows), and larger ones would overflow c * c.
_FAR = 40.0
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


def _unequal_orthant(h, k, r) -> np.ndarray:
    """U = P(X > h, Y > k) for standard bivariate normals with correlation r
    and h, k >= 0, elementwise over the broadcast arrays.

    Owen (1956): U = [E(h, a_h) + E(k, a_k)] / 2, with E(c, a) the integral
    of :func:`_equal_orthant` from a, a_h = (k - r h) / (h sqrt(1 - r^2))
    and a_k likewise; a negative a reflects, E(c, a) = 2 Phi(-c) - E(c, -a).
    Both halves are one kernel call.  At r = 1, U is Phi(-max(h, k)), and at
    r = -1 it is 0.  The bounds are clipped as the kernel clips them.
    """
    h, k = (np.minimum(np.maximum(c, 1e-150), _FAR) for c in (h, k))
    *pairs, r = np.broadcast_arrays(h, k, _std_normal_cdf(-h), _std_normal_cdf(-k), r)
    c, tail = np.stack(pairs[:2]), np.stack(pairs[2:])
    singular = np.abs(r) == 1.0
    spread = np.sqrt(np.where(singular, 1.0, (1.0 - r) * (1.0 + r)))
    # c a for each half: the other bound's distance past its conditional mean
    shift = (c[::-1] - r * c) / spread
    half = _equal_orthant(c, np.abs(shift) / c, tail, _std_normal_cdf(-np.abs(shift)))
    half = np.where(shift < 0.0, 2.0 * tail - half, half)
    return np.where(singular, np.where(r > 0.0, np.minimum(*tail), 0.0), (half[0] + half[1]) / 2.0)
