"""Multivariate normal kernel.

Univariate normal cdf/quantile (``math.erfc``), correlation matrices
validated and factored with diagonal jitter, and rectangle probabilities:

* in dimension 2, the upper orthant P(X > h, Y > k), h, k >= 0, on Owen's
  T integral (Owen 1956): one 20-point Gauss-Legendre sum of exponentials
  per element, deterministic, so root finders see a smooth noise-free
  objective, and relatively precise at every correlation.  The equal-bound
  orthant P(X > c, Y > c) is one such integral, and unequal bounds are two
  halves of it in one call; both are elementwise over arrays of bounds and
  correlations, as is the normal cdf;
* higher dimensions use a randomized separation-of-variables estimate
  (shifted Richtmyer lattices after the sequential-conditioning transform)
  with a reported standard error.  A :class:`_QmcLattice` holds its points
  for one correlation matrix, so every box evaluated on it sees the same
  points: a root finder over box bounds then sees a smooth, deterministic
  objective, and each evaluation also returns that objective's derivative
  as the box widens, carried through the same pass.  The lattice takes the
  variables in one order per matrix, each next the one with the smallest
  residual variance given those before it (variable prioritisation, Genz
  1992); on the Z correlations of optimised platform designs this lowers
  the estimate's variance about twofold at four and six substudies.  A
  pass takes Phi and Phi^-1 from two numpy rationals, Hart's algorithm 5666
  and Wichura's AS241, precise in absolute terms (3.4e-16 and 8.7e-16),
  which is what a box probability needs.  Each pass writes every per-point
  step into one work array the lattice keeps and resizes as it grows, so
  repeated evaluations allocate per point only two masks and Phi^-1's
  tail points, each of AS241's tail rationals on the points that need it.

The lattice shifts are the module's only random numbers; every estimate is
a pure function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotPositiveDefinite, PrecisionUnreachable

__all__ = ["CorrelationMatrix"]

_SYMMETRY_TOL = 1e-10
# the largest diagonal jitter a CorrelationMatrix adds to factor its matrix
_MAX_JITTER = 1e-8


_SQRT2 = math.sqrt(2.0)


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


# ---------------------------------------------------------------------------
# General rectangle probability (randomized quasi-Monte Carlo)
# ---------------------------------------------------------------------------


class _RectangleEstimate(NamedTuple):
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


_QUANTILE_CLIP = 1e-15
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# independently shifted copies of the lattice; their spread is the stderr
_N_BATCHES = 12
# points per batch of a new lattice, per dimension; refine() doubles them
_START_POINTS = 32
# the most points refine() spends on one box
_MAX_POINTS = 1 << 22

# Hart's (1968) algorithm 5666 in West's (2005) form: Phi(-t) = exp(-t^2 / 2)
# P(t) / Q(t) for t >= 0, coefficients highest power first
_HART_P = (0.0352624965998911, 0.700383064443688, 6.37396220353165, 33.912866078383,
           112.079291497871, 221.213596169931, 220.206867912376)
_HART_Q = (0.0883883476483184, 1.75566716318264, 16.064177579207, 86.7807322029461,
           296.564248779674, 637.333633378831, 793.826512519948, 440.413735824752)
# Wichura's (1988) AS241: Phi^-1(1/2 + q) = q N(r) / D(r) with r = 0.180625
# - q^2 for |q| <= 0.425, and beyond it sign(q) N(r) / D(r) with r = sqrt(-log
# min(u, 1 - u)) - 1.6 while that root is at most 5 (the NEAR pair), and - 5
# past it (the FAR pair).  Coefficients highest power first.
_AS241_N = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_D = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_NEAR_N = (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
                 1.2704582524523683826e0, 3.6478483247632045265e0, 5.7694972214606914055e0,
                 4.6303378461565452959e0, 1.4234371107496835773e0)
_AS241_NEAR_D = (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
                 1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
                 2.0531916266377588219e0, 1.0)
_AS241_FAR_N = (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
                2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
                5.4637849111641143699e0, 6.6579046435011037772e0)
_AS241_FAR_D = (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
                7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
                5.9983220655588793769e-1, 1.0)


def _horner(coefficients, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a polynomial at ``t``, coefficients highest power first, in
    place into ``out``, or into a new array when it is None.  Number
    coefficients are numpy's fast path, so each polynomial takes its own
    call."""
    out = np.multiply(t, coefficients[0], out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= t
    out += coefficients[-1]
    return out


def _cdf_rational(x: np.ndarray, density: np.ndarray, acc: np.ndarray) -> None:
    """Overwrite ``x``, of shape (rows, n), with Phi(x) and write exp(-x^2 /
    2) into ``density``, on Hart's rational: within 3.4e-16 absolute of Phi
    on [-40, 40], and exactly 0 or 1 where the density underflows; ``acc`` is
    work of shape (2, rows, n).

    West's form turns to a continued fraction past |x| = 7.0710678, where
    Phi(-|x|) < 8e-13, to keep relative precision there; against mpmath the
    rational alone stays within 2.3e-21 absolute on [7.07, 40], so the
    lattice, which needs absolute precision, takes the rational throughout.
    |x| is capped at 40, past which the density is already 0, so no lane
    overflows.
    """
    positive = x > 0.0
    t = np.minimum(np.abs(x, out=x), _FAR, out=x)
    np.square(t, out=density)
    density *= -0.5
    np.exp(density, out=density)
    np.divide(_horner(_HART_P, t, acc[0]), _horner(_HART_Q, t, acc[1]), out=x)
    x *= density
    np.subtract(1.0, x, out=x, where=positive)


def _quantile_rational(u: np.ndarray, out: np.ndarray, acc: np.ndarray) -> None:
    """Write Phi^-1(u) into ``out`` for u of shape (n,) in [1e-15, 1 - 1e-15],
    on Wichura's AS241: within 8.7e-16 of mpmath, absolute for |Phi^-1(u)| <=
    1 and relative beyond.  The central rational runs on every point, the
    near tail one on the points past it, and the far tail one only on those
    past u = e^-25 (or 1 - e^-25), if any; each Horner call takes number
    coefficients, numpy's fast path.  ``acc`` is work of shape (3, n)."""
    q = np.subtract(u, 0.5, out=out)
    # 0.180625 - q^2 > -0.0694 on (0, 1), short of D's largest root, -0.0729,
    # so the central rational is finite where the tail one replaces it
    r = np.multiply(q, q, out=acc[2])
    np.subtract(0.180625, r, out=r)
    _horner(_AS241_N, r, acc[0])
    _horner(_AS241_D, r, acc[1])
    acc[0] *= q
    tail = np.abs(q, out=acc[2]) > 0.425
    np.divide(acc[0], acc[1], out=out)
    ut = u[tail]
    if ut.size:
        r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
        t = r - 1.6
        ratio = _horner(_AS241_NEAR_N, t) / _horner(_AS241_NEAR_D, t)
        far = r > 5.0
        if far.any():
            t = r[far] - 5.0
            ratio[far] = _horner(_AS241_FAR_N, t) / _horner(_AS241_FAR_D, t)
        out[tail] = np.copysign(ratio, ut - 0.5)


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


class _QmcLattice:
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
        self.order = _smallest_residual_order(correlation.entries)
        self.factor = CorrelationMatrix(correlation.entries[np.ix_(self.order, self.order)]).factor
        # each variable's conditional sd ct, the factor's rows over it, and
        # the lower and upper bounds' derivatives as the box widens, -/+ 1 /
        # (ct sqrt(2 pi)), in the units of the density exp(-x^2 / 2)
        self._ct = np.maximum(np.diag(self.factor), 1e-12)
        self._scaled = self.factor / self._ct[:, None]
        self._dbound = np.array([[-1.0], [1.0]]) / (self._ct * _SQRT_2PI)
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

    def estimate(self, lower: np.ndarray, upper: np.ndarray) -> _RectangleEstimate:
        """P(lower <= Z <= upper) on the current points, all batches at once,
        with its slope: the derivative in t of the box (lower - t, upper + t)
        at t = 0, infinite bounds held fixed.

        Bounds have shape (dim,).  Past the first variable, whose two cdfs
        are ``math.erfc`` values, Phi and Phi^-1 are the numpy rationals
        :func:`_cdf_rational` and :func:`_quantile_rational`, both bounds of
        a variable in one call; they are precise in absolute terms, as the
        estimate needs.  The
        slope is carried through the same pass in forward mode: each bound's
        cdf contributes its density, which Phi's rational reuses, times the
        bound's derivative, and each transformed point y = Phi^-1(u) the
        derivative du / phi(y), 0 where u is clipped.  An infinite bound
        gives a cdf of exactly 0 or 1 and no slope.
        """
        factor, points = self._scaled, self._points
        dim = factor.shape[0]
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        # the bounds over each variable's conditional sd, as columns; one
        # that passes the largest double is infinite, as it is in effect
        with np.errstate(over="ignore"):
            bounds = np.stack([lower[self.order], upper[self.order]]) / self._ct
        infinite = np.isinf(bounds).tolist()
        n = points.shape[1]
        if self._work.shape[1] != n:  # new points since the last call
            # y = Phi^-1(u) and dy per earlier variable, seven per-point
            # rows, and both bounds' cdfs and slopes
            self._work = np.empty((2 * (dim - 1) + 7 + 4, n))
            self._clipped = np.empty(n, dtype=bool)
        work, clipped = self._work, self._clipped
        # rows [y, dy], [prob, slope], [u, du], tmp, [s, ds], and [[d, e],
        # [dd, de]], the lower and upper bounds' cdfs and slopes
        base = 2 * dim - 2
        y_dy = work[:base].reshape(2, dim - 1, n)
        prob_slope, u_du = work[base : base + 2], work[base + 2 : base + 4]
        tmp, s_ds = work[base + 4], work[base + 5 : base + 7]
        cd = work[base + 7 :].reshape(2, 2, n)
        # Phi's polynomial work: [u, du], tmp and s, free once x is formed;
        # Phi^-1's: the cdf rows, free once [u, du] is
        cdf_work = work[base + 2 : base + 6].reshape(2, 2, n)
        quantile_work = work[base + 7 : base + 10]
        # the first variable's bounds are the same at every point
        first = np.array([
            [0.5 * math.erfc(-b / _SQRT2), math.exp(-0.5 * b * b) * dbound]
            for b, dbound in zip(bounds[:, 0].tolist(), self._dbound[:, 0].tolist())
        ]).T
        cd[...] = first[:, :, None]
        prob_slope[...] = [[max(first[0, 1] - first[0, 0], 0.0)], [first[1, 1] - first[1, 0]]]
        for i in range(1, dim):
            # [u, du] = [d, dd] + x ([e, de] - [d, dd]) at the previous
            # variable's cdfs
            np.subtract(cd[:, 1], cd[:, 0], out=u_du)
            u_du *= points[i - 1]
            u_du += cd[:, 0]
            u, du = u_du
            # y = Phi^-1(u) and dy = du / (sqrt(2 pi) phi(y)), 0 where u is
            # clipped (dbound holds the sqrt(2 pi))
            np.minimum(np.maximum(u, _QUANTILE_CLIP, out=tmp), 1.0 - _QUANTILE_CLIP, out=tmp)
            np.not_equal(tmp, u, out=clipped)
            _quantile_rational(tmp, y_dy[0, i - 1], quantile_work)
            np.copyto(du, 0.0, where=clipped)
            np.square(y_dy[0, i - 1], out=tmp)
            tmp *= 0.5
            np.exp(tmp, out=tmp)
            np.multiply(du, tmp, out=y_dy[1, i - 1])
            # [s, ds]; einsum, not @: OpenBLAS's threaded gemv can be many
            # times slower on a loaded host
            np.einsum("k,jkn->jn", factor[i, :i], y_dy[:, :i], out=s_ds)
            # each finite bound's cdf, and its slope: its density times
            # dbound - ds; an infinite one has cdf 0 or 1 and slope 0
            rows = slice(int(infinite[0][i]), 2 - int(infinite[1][i]))
            x = np.subtract(bounds[rows, i, None], s_ds[0], out=cd[0, rows])
            _cdf_rational(x, cd[1, rows], cdf_work[:, rows])
            cd[1, rows] *= np.subtract(self._dbound[rows, i, None], s_ds[1], out=cdf_work[0, rows])
            for side in (0, 1):
                if infinite[side][i]:
                    cd[:, side] = [[float(bounds[side, i] > 0.0)], [0.0]]
            # prob = prob * width, slope = slope * width + prob * (de - dd)
            width, d_width = np.subtract(cd[:, 1], cd[:, 0], out=u_du)
            np.maximum(width, 0.0, out=width)
            np.multiply(prob_slope[0], d_width, out=tmp)
            prob_slope *= width
            prob_slope[1] += tmp
        prob, slope = prob_slope
        means = prob.reshape(_N_BATCHES, -1).mean(axis=1)
        value = float(means.mean())
        stderr = float(means.std(ddof=1) / math.sqrt(_N_BATCHES))
        return _RectangleEstimate(
            min(1.0, max(0.0, value)), stderr, self.total_points, float(slope.mean())
        )

    def refine(self, lower: np.ndarray, upper: np.ndarray, precision: float) -> _RectangleEstimate:
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
