"""Arm-level correlations to test-statistic correlations.

Two investigational arms that share treatment components (or merely share the
control) produce correlated Z statistics.  This module maps endpoint
correlations between arms, together with per-arm sample sizes, onto the
correlation matrix of the Z statistics, which the threshold solvers use.
It also owns the arm correlation table itself: its builder, the check that a
trial can have it, and the variance of a contrast with control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError
from .mvnorm import CorrelationMatrix

if TYPE_CHECKING:
    from .allocation import DesignScenario

__all__ = [
    "ArmCorrelations",
    "PlatformArms",
    "classical_dunnett_correlation",
    "platform_z_correlation_matrix",
]


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


def _contrast_variance(n_arm, n_control, rho):
    """Variance of an arm's mean minus the control mean, per unit sigma2, at
    arm sizes or shares ``n_arm`` and ``n_control`` whose outcomes correlate
    by ``rho``; elementwise on arrays."""
    return 1.0 / n_arm + 1.0 / n_control - 2.0 * rho / np.sqrt(n_arm * n_control)


@dataclass(frozen=True, eq=False)
class ArmCorrelations:
    """Endpoint correlations between the arms of a K-substudy trial, stored
    as ``matrix``: one read-only (2K+1) x (2K+1) correlation matrix in the
    arm order of :attr:`Allocation.ratios`, (A, B_1, AB_1, ..., B_K, AB_K),
    by default the identity (arms with no overlapping components are
    independent).  A table that no trial can have is a :class:`DomainError`
    (:func:`_check_arm_correlations`).
    """

    K: int
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.K < 1:
            raise DomainError("K must be at least 1")
        n_arms = 2 * self.K + 1
        matrix = np.eye(n_arms) if self.matrix is None else np.array(self.matrix, dtype=float)
        if matrix.shape != (n_arms, n_arms):
            raise DomainError(f"matrix must be {n_arms} x {n_arms} for K={self.K}")
        # before the eigenvalues, which read only the lower triangle; a NaN
        # is left to the range check
        if not np.array_equal(matrix, matrix.T, equal_nan=True) or np.any(np.diag(matrix) != 1.0):
            raise DomainError("matrix must be symmetric with unit diagonal")
        _check_arm_correlations(matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other) -> bool:
        return isinstance(other, ArmCorrelations) and np.array_equal(self.matrix, other.matrix)

    @classmethod
    def per_substudy(
        cls, rho_combo_control: float | Sequence[float], rho_combo_mono: float | Sequence[float],
        rho_control_mono: float | Sequence[float] = (),
    ) -> "ArmCorrelations":
        """Entry k - 1 of each sequence is substudy k's correlation for that
        pair of arms, and a number is a one-substudy sequence; unlisted
        pairs, and those across substudies, stay 0."""
        rho_cc, rho_cm, rho_ca = map(np.atleast_1d, (rho_combo_control, rho_combo_mono,
                                                     rho_control_mono))
        K = len(rho_cc)
        if len(rho_cm) != K or len(rho_ca) not in (0, K):
            raise DomainError(f"need one correlation per substudy ({K}) in each sequence")
        return cls(K, matrix=_arm_correlation_matrix(
            rho_cc, rho_cm, rho_ca if len(rho_ca) else 0.0
        ))

    @classmethod
    def from_scenario(cls, scenario: DesignScenario) -> "ArmCorrelations":
        return cls.per_substudy(scenario.rho_combo_control, scenario.rho_combo_mono)


@dataclass(frozen=True)
class PlatformArms:
    """Counts and arm correlations for a K-substudy platform trial; a number
    for ``n_mono`` or ``n_combo`` is a one-substudy sequence.

    The endpoint variance is left out: Z correlations do not depend on it.
    """

    n_control: float
    n_mono: tuple[float, ...]
    n_combo: tuple[float, ...]
    correlations: ArmCorrelations

    def __post_init__(self) -> None:
        n_mono, n_combo = (tuple(map(float, np.atleast_1d(n))) for n in (self.n_mono, self.n_combo))
        if len(n_mono) != len(n_combo) or not n_mono:
            raise DomainError("n_mono and n_combo must have equal, positive length")
        if self.correlations.K != len(n_mono):
            raise DomainError(
                f"correlation table is for K={self.correlations.K}, "
                f"but {len(n_mono)} substudies were given"
            )
        counts = {"n_control": (self.n_control,), "n_mono": n_mono, "n_combo": n_combo}
        for name, values in counts.items():
            bad = [n for n in values if not 1.0 <= n < math.inf]  # a NaN fails this too
            if bad:
                raise DomainError(f"{name} must be a finite count of at least 1, got {bad[0]}")
        object.__setattr__(self, "n_mono", n_mono)
        object.__setattr__(self, "n_combo", n_combo)

    @property
    def K(self) -> int:
        return len(self.n_mono)


def _check_single(arms: PlatformArms) -> None:
    if arms.K != 1:
        raise DomainError(f"expected a single-substudy (K=1) trial, got K={arms.K}")


def classical_dunnett_correlation(arms: PlatformArms) -> float:
    """The comparator value used by the classical shared-control procedure,
    for a K=1 trial.

    Note the second factor uses n_b/n_ab, unlike the zero-correlation
    reduction of :func:`platform_z_correlation_matrix`, whose entry is
    1/sqrt((n_a/n_ab + 1)(n_a/n_b + 1)); both are kept as written.
    """
    _check_single(arms)
    n_a, n_b, n_ab = arms.n_control, arms.n_mono[0], arms.n_combo[0]
    return 1.0 / math.sqrt((n_a / n_ab + 1.0) * (n_b / n_ab + 1.0))


def _z_correlations(sizes, arm_rho) -> np.ndarray:
    """The matrices of :func:`platform_z_correlation_matrix`, shape (...,
    2K, 2K), from arm counts ``sizes``, shape (..., 2K+1), and arm
    correlation matrices ``arm_rho``, shape (..., 2K+1, 2K+1), broadcast
    together: each entry the correlation of two contrasts with control,
    clipped to [-1, 1] against rounding.  A contrast with no variance
    (correlation 1, equal counts) is a :class:`DomainError`."""
    sizes, arm_rho = np.asarray(sizes, dtype=float), np.asarray(arm_rho, dtype=float)
    dim = sizes.shape[-1] - 1
    # each statistic's arm: combo_k (2k) first, then mono_k (2k - 1)
    arm = np.arange(1, dim + 1).reshape(-1, 2)[:, ::-1].ravel()
    n, n_a, rho_a = sizes[..., arm], sizes[..., :1], arm_rho[..., arm, 0]
    var = _contrast_variance(n, n_a, rho_a)
    if np.any(var <= 0.0):
        raise DomainError(
            "a contrast variance is not positive; the arm correlations are "
            "inconsistent with the sample sizes"
        )
    i, j = np.triu_indices(dim, 1)
    num = (
        arm_rho[..., arm[i], arm[j]] / np.sqrt(n[..., i] * n[..., j])
        - rho_a[..., i] / np.sqrt(n[..., i] * n_a)
        - rho_a[..., j] / np.sqrt(n[..., j] * n_a)
        + 1.0 / n_a
    )
    m = np.tile(np.eye(dim), (*np.broadcast_shapes(sizes.shape[:-1], arm_rho.shape[:-2]), 1, 1))
    m[..., i, j] = m[..., j, i] = np.minimum(
        1.0, np.maximum(-1.0, num / np.sqrt(var[..., i] * var[..., j]))
    )
    return m


def platform_z_correlation_matrix(arms: PlatformArms) -> CorrelationMatrix:
    """2K x 2K correlation matrix of the Z statistics.

    Statistic order is (Z_1,1, Z_1,2, ..., Z_K,1, Z_K,2), where the first
    statistic of each substudy tests the combination arm and the second the
    monotherapy arm.
    """
    sizes = [arms.n_control, *np.column_stack((arms.n_mono, arms.n_combo)).ravel()]
    return CorrelationMatrix(_z_correlations(sizes, arms.correlations.matrix))


# A design's Z correlations depend on its arm counts only through their
# ratios; they are computed at the ratios times this many nominal subjects.
_NOMINAL_TOTAL = 1000.0
