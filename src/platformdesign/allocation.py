"""Allocation-ratio optimization under a synergy model.

The design problem: split a total sample across a shared control arm and, per
substudy, a monotherapy arm and a combination arm, so that the smaller of the
two Wald noncentrality parameters in every substudy is as large as possible.
The optimum equalizes all 2K noncentralities; :func:`optimize_allocation`
finds it exactly by a one-dimensional convex search over the control share.
The paper's closed form for a single substudy with zero correlation (optimal
only at s = 1) is kept as the documented form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DesignScenario",
    "Allocation",
    "wald_noncentrality",
    "closed_form_allocation",
    "optimize_allocation",
]

_SUM_TOL = 1e-9
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# each step shrinks the bracket by _INV_GOLDEN: 0.618^60 < 3e-13
_GOLDEN_STEPS = 60


def _as_tuple(value, length: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * length
    out = tuple(float(v) for v in value)
    if len(out) != length:
        raise DomainError(f"{name} must have one entry per substudy ({length}), got {len(out)}")
    return out


def _arm_correlation_matrix(rho_combo_control, rho_combo_mono, rho_control_mono=0.0):
    """Arm correlation matrices, shape (..., 2K+1, 2K+1), in the arm order of
    :attr:`Allocation.ratios` from each substudy's combination-control
    correlations, shape (..., K), and its combination-mono and control-mono
    correlations, which broadcast to that shape; pairs across substudies are 0."""
    rho_cc = np.asarray(rho_combo_control, dtype=float)
    n_arms = 2 * rho_cc.shape[-1] + 1
    matrix = np.tile(np.eye(n_arms), (*rho_cc.shape[:-1], 1, 1))
    matrix[..., 0, 2::2] = matrix[..., 2::2, 0] = rho_cc
    matrix[..., 0, 1::2] = matrix[..., 1::2, 0] = rho_control_mono
    mono = np.arange(1, n_arms, 2)
    matrix[..., mono, mono + 1] = matrix[..., mono + 1, mono] = rho_combo_mono
    return matrix


def _check_arm_correlations(matrix) -> np.ndarray:
    """Refuse arm correlations that no trial can have, for every entry point:
    a symmetric arm correlation matrix, or a stack of them, needs entries in
    [-1, 1] and a smallest eigenvalue of at least -1e-12 (rounding).  The
    first failing matrix of a stack is reported; passing ones are returned."""
    if not np.abs(matrix).max() <= 1.0:  # a NaN fails this too
        outside = matrix[~(np.abs(matrix) <= 1.0)][0]
        raise DomainError(f"correlation must lie in [-1, 1], got {outside}")
    lowest = np.linalg.eigvalsh(matrix).min(axis=-1)
    if (lowest < -1e-12).any():
        raise DomainError(
            "arm correlations cannot form a trial: they do not fit together "
            f"(their matrix has smallest eigenvalue {lowest[lowest < -1e-12].flat[0]:.4g} < 0)"
        )
    return matrix


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
    return _check_arm_correlations(_arm_correlation_matrix(rho_combo_control, rho_combo_mono))


@dataclass(frozen=True)
class DesignScenario:
    """Per-substudy effect sizes, synergy, variance, and arm correlations.

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
        delta = _as_tuple(self.delta, 1 if np.isscalar(self.delta) else len(self.delta), "delta")
        k = len(delta)
        synergy = _as_tuple(self.synergy, k, "synergy")
        rho_cc = _as_tuple(self.rho_combo_control or 0.0, k, "rho_combo_control")
        rho_cm = _as_tuple(self.rho_combo_mono or 0.0, k, "rho_combo_mono")
        _check_scenarios(delta, synergy, self.sigma2, rho_cc, rho_cm)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "synergy", synergy)
        object.__setattr__(self, "rho_combo_control", rho_cc)
        object.__setattr__(self, "rho_combo_mono", rho_cm)

    @property
    def K(self) -> int:
        return len(self.delta)

    @classmethod
    def single(
        cls,
        delta: float,
        synergy: float,
        sigma2: float = 1.0,
        rho_ab_a: float = 0.0,
        rho_ab_b: float = 0.0,
    ) -> "DesignScenario":
        return cls((delta,), (synergy,), sigma2, (rho_ab_a,), (rho_ab_b,))


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

    @classmethod
    def equal(cls, K: int = 1) -> "Allocation":
        n_arms = 2 * K + 1
        return cls((1.0 / n_arms,) * n_arms)

    def arm_counts(self, n_total: int) -> tuple[int, ...]:
        """Integer per-arm counts of ``n_total`` subjects by largest-remainder
        rounding, each >= 1."""
        return tuple(int(c) for c in self.arm_counts_table(np.array([n_total]))[0])

    def arm_counts_table(self, totals: np.ndarray) -> np.ndarray:
        """:meth:`arm_counts` for each total, one row per total."""
        return _largest_remainder(np.asarray(self.ratios)[None], np.asarray(totals))


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


def _contrast_variance(n_arm, n_control, rho):
    """Variance of an arm's mean minus the control mean, per unit sigma2, at
    arm sizes or shares ``n_arm`` and ``n_control`` whose outcomes correlate
    by ``rho``; elementwise on arrays."""
    return 1.0 / n_arm + 1.0 / n_control - 2.0 * rho / np.sqrt(n_arm * n_control)


def _contrasts(delta, synergy, rho_combo_control, n_arms: int) -> tuple[np.ndarray, np.ndarray]:
    """The mean differences and the arm-control outcome correlations of the
    2K comparisons with control, in arm order (mono_1, combo_1, mono_2, ...),
    shape (..., 2K), from each substudy's delta, synergy and
    combination-control correlation, shape (..., K) or broadcast to it, for
    an allocation of ``n_arms`` arms, which must be 2K+1."""
    synergy = np.asarray(synergy, dtype=float)
    K = synergy.shape[-1]
    if n_arms != 2 * K + 1:
        raise DomainError(f"allocation has K={(n_arms - 1) // 2} but scenario has K={K}")
    mu = np.stack(np.broadcast_arrays(delta, synergy * delta), axis=-1)
    rho = np.stack(np.broadcast_arrays(0.0, rho_combo_control), axis=-1)
    return mu.reshape(*mu.shape[:-2], 2 * K), rho.reshape(*rho.shape[:-2], 2 * K)


def _noncentralities(shares, mu, rho, sigma2) -> np.ndarray:
    """The 2K Wald noncentralities mu^2 / (sigma2 var) of the comparisons
    with control at arm shares or counts of shape (..., 2K+1), from the
    comparisons' mean differences ``mu`` and outcome correlations ``rho``
    (:func:`_contrasts`), shape (..., 2K), and the variance ``sigma2``, each
    per row or shared: shape (..., 2K)."""
    shares = np.asarray(shares)
    var = sigma2 * _contrast_variance(shares[..., 1:], shares[..., :1], rho)
    if np.any(var <= 0.0):
        raise DomainError("a contrast variance is not positive")
    return mu * mu / var


def wald_noncentrality(
    scenario: DesignScenario, alloc: Allocation, n_total: int
) -> np.ndarray:
    """Per-substudy Wald noncentrality pairs, shape (K, 2).

    Column 0 is the combination-vs-control parameter, column 1 the
    monotherapy-vs-control parameter (independent of the combination arm).
    """
    if n_total < 1:
        raise DomainError("n_total must be at least 1")
    mu, rho = _contrasts(
        scenario.delta, scenario.synergy, scenario.rho_combo_control, len(alloc.ratios)
    )
    w = _noncentralities(alloc.ratios, mu, rho, scenario.sigma2)
    return n_total * w.reshape(scenario.K, 2)[:, ::-1]


def closed_form_allocation(s: float) -> Allocation:
    """Closed-form single-substudy allocation for the zero-correlation case,
    determined by the synergy parameter alone.

    The formula gives the monotherapy arm s times the combination arm's share
    and maximizes the combination noncentrality along that ray.  At s = 1 it
    coincides with the max-min optimum; away from s = 1 the two noncentrality
    parameters are unequal here and :func:`optimize_allocation` finds a
    strictly better max-min point, so treat this as the analytic shortcut it
    is, not as the optimizer.
    """
    if s <= 0:
        raise DomainError(f"synergy must be positive, got {s}")
    root = math.sqrt(s + 1.0)
    p_a = (root - 1.0) / s
    p_b = (s + 1.0 - root) / (s + 1.0)
    p_ab = (s + 1.0 - root) / (s * (s + 1.0))
    return Allocation((p_a, p_b, p_ab))


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
    F adds the shares as it goes, in their order (p_A, then p_B and p_AB per
    substudy), so it is bit for bit the sum of the list of shares.
    """
    if any(s == 0.0 for s in synergy):
        raise DomainError(
            "synergy must be nonzero: at s = 0 no allocation gives the "
            "combination contrast any power"
        )
    terms = []
    q2_max = math.inf
    for d, s, rho in zip(delta, synergy, rho_combo_control):
        d2, b, c = d**2, (s * d) ** 2, 1.0 - rho**2
        terms.append((d2, b, c, rho))
        # feasible q: q^2 < delta^2 keeps p_B finite; u is real and positive
        # while q^2 <= b/c for rho >= 0 and while q^2 < b for rho < 0
        u_limit = b if rho < 0 else (b / c if c > 0 else math.inf)
        q2_max = min(q2_max, d2, u_limit)

    def total(q: float) -> float:
        f = 1.0 / (q * q)
        for d2, b, c, rho in terms:
            u = rho * q + math.sqrt(b - c * q * q)
            f = f + 1.0 / (d2 - q * q) + 1.0 / (u * u)
        return f

    # Golden-section search over the open feasible interval (0, q_max), where
    # every probe is finite.  F is convex in q: 1/q^2 and 1/(delta^2 - q^2)
    # are convex there, and 1/u^2 is a convex decreasing function of u, which
    # is concave in q (a line plus the upper half of an ellipse) and positive.
    lo, hi = 0.0, math.sqrt(q2_max)
    x1, x2 = hi - _INV_GOLDEN * hi, _INV_GOLDEN * hi
    f1, f2 = total(x1), total(x2)
    for _ in range(_GOLDEN_STEPS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = total(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = total(x2)
    q = 0.5 * (lo + hi)
    best = [1.0 / (q * q)]
    for d2, b, c, rho in terms:
        u = rho * q + math.sqrt(b - c * q * q)
        best += [1.0 / (d2 - q * q), 1.0 / (u * u)]
    norm = sum(best)
    return tuple(p / norm for p in best)
