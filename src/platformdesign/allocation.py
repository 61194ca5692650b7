"""Allocation-ratio optimization under a synergy model.

The design problem: split a total sample across a shared control arm and, per
substudy, a monotherapy arm and a combination arm, so that the smaller of the
two Wald noncentrality parameters in every substudy is as large as possible.
The optimum equalizes all 2K noncentralities; :func:`optimize_allocation`
finds it exactly by Newton's method on the derivative of a one-dimensional
convex function of the control share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import _arm_correlation_matrix, _check_arm_correlations, _contrast_variance
from .errors import DomainError

__all__ = [
    "DesignScenario",
    "Allocation",
    "optimize_allocation",
]

_SUM_TOL = 1e-9
# effects and shares in these ranges keep every square, every sum of
# reciprocal squares and every product of two shares a normal double
_EFFECT_MIN, _EFFECT_MAX, _SHARE_MIN = 1e-150, 1e150, 1e-150


def _as_tuple(value, length: int, name: str) -> tuple[float, ...]:
    if np.ndim(value) == 0:  # a number, or a 0-d array
        return (float(value),) * length
    out = tuple(float(v) for v in value)
    if len(out) != length:
        raise DomainError(f"{name} must have one entry per substudy ({length}), got {len(out)}")
    return out


def _check_scenarios(delta, synergy, sigma2: float, rho_combo_control, rho_combo_mono):
    """The checks of :class:`DesignScenario` on one scenario's per-substudy
    values, or on many at once as arrays of shape (..., K), with one stacked
    arm-correlation check; returns the arm correlation matrices checked."""
    usable = np.greater(delta, 0.0) & np.less(delta, math.inf)
    if not usable.all():
        bad = np.ravel(delta)[np.argmin(usable)]
        raise DomainError(f"every delta must be positive and finite, got {bad}")
    if not 0 < sigma2 < math.inf:
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2}")
    if not np.isfinite(synergy).all():
        raise DomainError("synergy values must be finite")
    # s = 0 is left to the allocation, which refuses it with its own message
    with np.errstate(over="ignore", under="ignore"):
        combo = np.where(np.equal(synergy, 0.0), delta, np.multiply(synergy, delta))
    size = np.abs(np.concatenate((np.ravel(delta), np.ravel(combo))))
    usable = (size >= _EFFECT_MIN) & (size <= _EFFECT_MAX)
    if not usable.all():
        raise DomainError(
            "every delta and synergy * delta must lie within 1e-150 to 1e+150 in size, "
            f"got {size[np.argmin(usable)]:g}"
        )
    return _check_arm_correlations(_arm_correlation_matrix(rho_combo_control, rho_combo_mono))


@dataclass(frozen=True)
class DesignScenario:
    """Per-substudy effect sizes, synergy, variance, and arm correlations,
    each per-substudy value a sequence or, for one substudy, a number.

    ``delta[k]`` is the monotherapy effect over control in substudy k and
    ``synergy[k]`` scales it to the combination effect.  The
    combination-monotherapy correlation (``rho_combo_mono``) enters only the
    Z correlation, so the threshold, and neither power nor the allocation
    optimum; the combination-control correlation (``rho_combo_control``)
    enters the noncentrality denominator directly.
    Inputs that no trial can have raise :class:`DomainError` here
    (:func:`_check_scenarios`).
    """

    delta: tuple[float, ...]
    synergy: tuple[float, ...]
    sigma2: float = 1.0
    rho_combo_control: tuple[float, ...] = ()
    rho_combo_mono: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        delta = _as_tuple(self.delta, np.size(self.delta), "delta")
        k = len(delta)
        if k == 0:
            raise DomainError("delta must name at least one substudy, got 0 substudies")
        synergy = _as_tuple(self.synergy, k, "synergy")
        rho_cc, rho_cm = (  # an empty sequence is 0 in every substudy
            _as_tuple(getattr(self, name) if np.size(getattr(self, name)) else 0.0, k, name)
            for name in ("rho_combo_control", "rho_combo_mono")
        )
        _check_scenarios(delta, synergy, self.sigma2, rho_cc, rho_cm)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "synergy", synergy)
        object.__setattr__(self, "rho_combo_control", rho_cc)
        object.__setattr__(self, "rho_combo_mono", rho_cm)

    @property
    def K(self) -> int:
        return len(self.delta)


@dataclass(frozen=True)
class Allocation:
    """Point on the open simplex, ordered (p_A, p_B1, p_AB1, ..., p_BK, p_ABK)."""

    ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        ratios = tuple(float(r) for r in self.ratios)
        if len(ratios) < 3 or len(ratios) % 2 == 0:
            raise DomainError(f"allocation needs 2K+1 ratios, got {len(ratios)}")
        if any(not 0.0 < r < 1.0 for r in ratios):
            raise DomainError("allocation ratios must lie strictly in (0, 1)")
        if abs(sum(ratios) - 1.0) > _SUM_TOL:
            raise DomainError(f"allocation ratios must sum to 1, got {sum(ratios)!r}")
        object.__setattr__(self, "ratios", ratios)

    @property
    def K(self) -> int:
        return (len(self.ratios) - 1) // 2


def _largest_remainder(ratios: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Integer arm counts of each row's total at that row's shares, each >= 1:
    ``ratios`` of shape (rows, arms), or (1, arms) for one allocation, and
    ``totals`` of shape (rows,); one row of counts per total.

    The arms with the largest remainders get the leftover subjects; equal
    remainders go to the earlier arm.  An arm left empty gets one subject
    from the row's largest arm.
    """
    if np.min(totals) < ratios.shape[1]:
        raise DomainError(
            f"need at least one subject per arm: N={np.min(totals)} < {ratios.shape[1]}"
        )
    raw = totals[:, None] * ratios
    counts = np.floor(raw).astype(np.int64)
    leftover = totals - np.einsum("ij->i", counts)  # a row sum, faster than sum(axis=1)
    order = np.argsort(counts - raw, axis=1, kind="stable")
    rank = np.empty_like(order)
    rank[np.arange(len(order))[:, None], order] = np.arange(order.shape[1])
    counts += rank < leftover[:, None]
    # bump empty arms up to one subject: each step, every row with an
    # empty arm gives one subject from its largest arm to its first empty one
    rows = np.flatnonzero((counts == 0).any(axis=1))
    while rows.size:
        bumped, at = counts[rows], np.arange(rows.size)
        bumped[at, np.argmax(bumped, axis=1)] -= 1
        bumped[at, np.argmin(bumped, axis=1)] += 1
        counts[rows] = bumped
        rows = rows[(bumped == 0).any(axis=1)]
    return counts


def _contrasts(delta, synergy, n_arms: int) -> np.ndarray:
    """The mean differences of the 2K comparisons with control, in arm order
    (mono_1, combo_1, mono_2, ...), shape (..., 2K), from each substudy's
    delta and synergy, shape (..., K) or broadcast to it, for an allocation
    of ``n_arms`` arms, which must be 2K+1.  Their outcome correlations with
    control are the control column of the arm correlation matrix."""
    synergy = np.asarray(synergy, dtype=float)
    K = synergy.shape[-1]
    if n_arms != 2 * K + 1:
        raise DomainError(f"allocation has K={(n_arms - 1) // 2} but scenario has K={K}")
    mu = np.stack(np.broadcast_arrays(delta, synergy * delta), axis=-1)
    return mu.reshape(*mu.shape[:-2], 2 * K)


def _noncentralities(shares, mu, rho, sigma2) -> np.ndarray:
    """The 2K Wald noncentralities mu^2 / (sigma2 var) of the comparisons
    with control at arm shares or counts of shape (..., 2K+1), from the
    comparisons' mean differences ``mu`` (:func:`_contrasts`) and outcome
    correlations with control ``rho`` (``arm_rho[..., 1:, 0]``), shape
    (..., 2K), and the variance ``sigma2``, each per row or shared: shape
    (..., 2K)."""
    shares = np.asarray(shares)
    var = sigma2 * _contrast_variance(shares[..., 1:], shares[..., :1], rho)
    if np.any(var <= 0.0):
        raise DomainError("a contrast variance is not positive")
    return mu * mu / var


def optimize_allocation(scenario: DesignScenario) -> Allocation:
    """Exact max-min allocation: every one of the 2K noncentralities is equal."""
    return Allocation(_max_min_shares(scenario.delta, scenario.synergy, scenario.rho_combo_control))


def _max_min_shares(delta, synergy, rho_combo_control) -> tuple[float, ...]:
    """The shares of :func:`optimize_allocation` from each substudy's delta,
    synergy and combination-control correlation.

    N and sigma2 cancel, so work at noncentrality level 1 without the
    sum-to-one constraint.  Given the control share p_A = 1/q^2, each
    substudy's smallest shares that keep both noncentralities >= 1 are closed
    form: p_B = 1/(delta^2 - q^2) and p_AB = 1/u^2, where
    u = rho q + sqrt(s^2 delta^2 - (1 - rho^2) q^2) is the larger root of the
    combination constraint's quadratic in 1/sqrt(p_AB).  The noncentralities
    are homogeneous of degree one in the shares, so dividing these shares by
    their total F(q) gives a point of the simplex whose noncentralities all
    equal 1/F(q); the max-min allocation is the one at the q minimizing F.

    F is convex on the feasible (0, q_max): 1/q^2 and 1/(delta^2 - q^2) are
    convex there, and 1/u^2 is a convex decreasing function of u, which is
    concave in q (a line plus the upper half of an ellipse) and positive.
    Its minimum is the root of F', found by safeguarded Newton with the
    closed-form F'' in t = q / q_max from t = 1/2, where every square is of
    order one whatever the effects' size: a step that leaves the sign
    bracket of F' is bisected, and the search stops on a step of at most
    4e-16 t before that step updates the bracket, lest rounding noise in F'
    at the root set off bisections, or once the bracket holds no double
    between its ends.
    """
    if any(s == 0.0 for s in synergy):
        raise DomainError(
            "synergy must be nonzero: at s = 0 no allocation gives the "
            "combination contrast any power"
        )
    terms = []
    q2_max = math.inf
    for d, s, rho in zip(delta, synergy, rho_combo_control):
        # (1 - rho)(1 + rho), not 1 - rho^2, keeps c's digits as |rho| -> 1
        d2, b, c = d**2, (s * d) ** 2, (1.0 - rho) * (1.0 + rho)
        terms.append((d2, b, c, rho))
        # feasible q: q^2 < delta^2 keeps p_B finite; u is real and positive
        # while q^2 <= b/c for rho >= 0 and while q^2 < b for rho < 0
        u_limit = b if rho < 0 else (b / c if c > 0 else math.inf)
        q2_max = min(q2_max, d2, u_limit)
    # in t: D = delta^2 / q_max^2 >= 1 and B = s^2 delta^2 / q_max^2, each
    # inf past the double range, where its shares are 0
    terms = [(d2 / q2_max, b / q2_max, c, rho) for d2, b, c, rho in terms]

    t, lo, hi = 0.5, 0.0, 1.0
    while True:
        inv = 1.0 / t
        slope, curve = -2.0 * inv * inv * inv, 6.0 * inv * inv * inv * inv
        for D, B, c, rho in terms:
            w = 1.0 / (D - t * t)  # p_B
            r = math.sqrt(B - c * t * t)
            k = c / r
            dv, iv = rho - k * t, 1.0 / (rho * t + r)  # v' and 1/v, p_AB = 1/v^2
            iv3 = iv * iv * iv
            slope += 2.0 * t * w * w - 2.0 * dv * iv3
            # -v'' = c B / r^3 = k + k^2 t^2 / r
            curve += 2.0 * w * w * (1.0 + 4.0 * t * t * w) + iv3 * (
                6.0 * dv * dv * iv + 2.0 * (k + k * k * t * t / r)
            )
        step = -slope / curve
        if abs(step) <= 4e-16 * t:
            break
        lo, hi = (lo, t) if slope > 0.0 else (t, hi)
        t += step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:  # the bracket is two adjacent doubles
                break
    best = [1.0 / (t * t)]
    for D, B, c, rho in terms:
        v = rho * t + math.sqrt(B - c * t * t)
        best += [1.0 / (D - t * t), 1.0 / (v * v)]
    norm = sum(best)
    shares = tuple(p / norm for p in best)
    if min(shares) < _SHARE_MIN:
        raise DomainError(f"an arm's share {min(shares):g} < 1e-150: effects differ too widely")
    return shares
