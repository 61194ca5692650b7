"""Arm-level correlations to test-statistic correlations.

Two investigational arms that share treatment components (or merely share the
control) produce correlated Z statistics.  This module maps endpoint
correlations between arms, together with per-arm sample sizes, onto the
correlation matrix of the Z statistics, which the threshold solvers use.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .allocation import (
    DesignScenario, _arm_correlation_matrix, _check_arm_correlations, _contrast_variance,
)
from .errors import DomainError
from .mvnorm import CorrelationMatrix

__all__ = [
    "CONTROL",
    "mono_arm",
    "combo_arm",
    "ArmCorrelations",
    "PlatformArms",
    "test_stat_correlation",
    "classical_dunnett_correlation",
    "platform_z_correlation_matrix",
]

# Arm labels: the shared control, and per-substudy monotherapy / combination
# arms.  Substudies are numbered from 1.
Arm = tuple[str, int]
CONTROL: Arm = ("A", 0)


def mono_arm(k: int) -> Arm:
    return ("B", k)


def combo_arm(k: int) -> Arm:
    return ("AB", k)


def _arm_index(arm: Arm, K: int) -> int:
    """Row of ``arm`` in the arm correlation matrix: A 0, B_k 2k - 1, AB_k 2k."""
    kind, k = arm
    if (kind == "A" and k == 0) or (kind in ("B", "AB") and 1 <= k <= K):
        return 2 * k - (kind == "B")
    raise DomainError(f"invalid arm label {arm} for K={K}")


@dataclass(frozen=True, eq=False)
class ArmCorrelations:
    """Endpoint correlations between the arms of a K-substudy trial, stored
    as ``matrix``: one read-only (2K+1) x (2K+1) correlation matrix in the
    arm order of :attr:`Allocation.ratios`, (A, B_1, AB_1, ..., B_K, AB_K).
    ``pairs``, keyed by unordered arm pairs, set entries of ``matrix``, by
    default the identity (arms with no overlapping components are
    independent).  A table that no trial can have is a :class:`DomainError`
    (:func:`_check_arm_correlations`).
    """

    K: int
    pairs: InitVar[Mapping[tuple[Arm, Arm], float] | None] = None
    matrix: np.ndarray | None = None

    def __post_init__(self, pairs) -> None:
        if self.K < 1:
            raise DomainError("K must be at least 1")
        n_arms = 2 * self.K + 1
        matrix = np.eye(n_arms) if self.matrix is None else np.array(self.matrix, dtype=float)
        if matrix.shape != (n_arms, n_arms):
            raise DomainError(f"matrix must be {n_arms} x {n_arms} for K={self.K}")
        given = np.zeros(matrix.shape, dtype=bool)
        for (a, b), rho in dict(pairs or {}).items():
            i, j = _arm_index(a, self.K), _arm_index(b, self.K)
            if i == j:
                raise DomainError(f"self-correlation for arm {a} is fixed at 1")
            if given[i, j] and matrix[i, j] != rho:
                raise DomainError(f"conflicting correlations for pair {a}, {b}")
            matrix[i, j] = matrix[j, i] = rho
            given[i, j] = given[j, i] = True
        # before the eigenvalues, which read only the lower triangle; a NaN
        # is left to the range check
        if not np.array_equal(matrix, matrix.T, equal_nan=True) or np.any(np.diag(matrix) != 1.0):
            raise DomainError("matrix must be symmetric with unit diagonal")
        _check_arm_correlations(matrix)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other) -> bool:
        return isinstance(other, ArmCorrelations) and np.array_equal(self.matrix, other.matrix)

    def get(self, a: Arm, b: Arm) -> float:
        return float(self.matrix[_arm_index(a, self.K), _arm_index(b, self.K)])

    @classmethod
    def per_substudy(
        cls, rho_combo_control: Sequence[float], rho_combo_mono: Sequence[float],
        rho_control_mono: Sequence[float] = (),
    ) -> "ArmCorrelations":
        """Entry k - 1 of each sequence is substudy k's correlation for that
        pair of arms; unlisted pairs, and those across substudies, stay 0."""
        K = len(rho_combo_control)
        if len(rho_combo_mono) != K or len(rho_control_mono) not in (0, K):
            raise DomainError(f"need one correlation per substudy ({K}) in each sequence")
        return cls(K, matrix=_arm_correlation_matrix(
            rho_combo_control, rho_combo_mono, rho_control_mono if len(rho_control_mono) else 0.0
        ))

    @classmethod
    def single(
        cls, rho_ab_a: float = 0.0, rho_ab_b: float = 0.0, rho_a_b: float = 0.0
    ) -> "ArmCorrelations":
        return cls.per_substudy((rho_ab_a,), (rho_ab_b,), (rho_a_b,))

    @classmethod
    def from_scenario(cls, scenario: DesignScenario) -> "ArmCorrelations":
        return cls.per_substudy(scenario.rho_combo_control, scenario.rho_combo_mono)


@dataclass(frozen=True)
class PlatformArms:
    """Counts and arm correlations for a K-substudy platform trial.

    The endpoint variance is left out: Z correlations do not depend on it.
    """

    n_control: float
    n_mono: tuple[float, ...]
    n_combo: tuple[float, ...]
    correlations: ArmCorrelations

    def __post_init__(self) -> None:
        n_mono = tuple(float(n) for n in self.n_mono)
        n_combo = tuple(float(n) for n in self.n_combo)
        if len(n_mono) != len(n_combo) or not n_mono:
            raise DomainError("n_mono and n_combo must have equal, positive length")
        if self.correlations.K != len(n_mono):
            raise DomainError(
                f"correlation table is for K={self.correlations.K}, "
                f"but {len(n_mono)} substudies were given"
            )
        if self.n_control < 1 or any(n < 1 for n in (*n_mono, *n_combo)):
            raise DomainError("every arm needs at least one subject")
        object.__setattr__(self, "n_mono", n_mono)
        object.__setattr__(self, "n_combo", n_combo)

    @property
    def K(self) -> int:
        return len(self.n_mono)

    @classmethod
    def single(
        cls,
        n_a: float,
        n_b: float,
        n_ab: float,
        rho_ab_a: float = 0.0,
        rho_ab_b: float = 0.0,
        rho_a_b: float = 0.0,
    ) -> "PlatformArms":
        """One (control, monotherapy, combination) study.

        The control-monotherapy correlation defaults to zero: monotherapies
        are usually chosen to act through a different mechanism than the
        control.
        """
        return cls(n_a, (n_b,), (n_ab,), ArmCorrelations.single(rho_ab_a, rho_ab_b, rho_a_b))


def _pair_correlation(n_u, n_v, n_a, rho_uv, rho_ua, rho_va):
    """Correlation of two Z statistics sharing the control arm, elementwise
    over arrays.

    Arm correlations that every caller has checked (they fit together) give
    a value in [-1, 1] up to rounding, which is clipped.  A contrast with no
    variance (correlation 1, equal counts) is still a :class:`DomainError`.
    """
    var_u = _contrast_variance(n_u, n_a, rho_ua)
    var_v = _contrast_variance(n_v, n_a, rho_va)
    if np.any(var_u <= 0.0) or np.any(var_v <= 0.0):
        raise DomainError(
            "a contrast variance is not positive; the arm correlations are "
            "inconsistent with the sample sizes"
        )
    num = (
        rho_uv / np.sqrt(n_u * n_v)
        - rho_ua / np.sqrt(n_u * n_a)
        - rho_va / np.sqrt(n_v * n_a)
        + 1.0 / n_a
    )
    r = num / np.sqrt(var_u * var_v)
    return np.minimum(1.0, np.maximum(-1.0, r))


def _check_single(arms: PlatformArms) -> None:
    if arms.K != 1:
        raise DomainError(f"expected a single-substudy (K=1) trial, got K={arms.K}")


def test_stat_correlation(arms: PlatformArms) -> float:
    """Correlation between the combination and monotherapy Z statistics of a
    K=1 trial.

    With all arm correlations at zero this reduces to the classical
    shared-control value 1/sqrt((n_a/n_ab + 1)(n_a/n_b + 1)).
    """
    _check_single(arms)
    return float(platform_z_correlation_matrix(arms).entries[0, 1])


def classical_dunnett_correlation(arms: PlatformArms) -> float:
    """The comparator value used by the classical shared-control procedure,
    for a K=1 trial.

    Note the second factor uses n_b/n_ab, unlike the zero-correlation
    reduction of :func:`test_stat_correlation`; both are kept as written.
    """
    _check_single(arms)
    n_a, n_b, n_ab = arms.n_control, arms.n_mono[0], arms.n_combo[0]
    return 1.0 / math.sqrt((n_a / n_ab + 1.0) * (n_b / n_ab + 1.0))


def _z_correlations(sizes, arm_rho) -> np.ndarray:
    """The matrices of :func:`platform_z_correlation_matrix`, shape (...,
    2K, 2K), from arm counts ``sizes``, shape (..., 2K+1), and arm
    correlation matrices ``arm_rho``, shape (..., 2K+1, 2K+1), broadcast
    together."""
    sizes, arm_rho = np.asarray(sizes, dtype=float), np.asarray(arm_rho, dtype=float)
    dim = sizes.shape[-1] - 1
    # each statistic's arm: combo_k (2k) first, then mono_k (2k - 1)
    arm = np.arange(1, dim + 1).reshape(-1, 2)[:, ::-1].ravel()
    i, j = np.triu_indices(dim, 1)
    u, v = arm[i], arm[j]
    m = np.tile(np.eye(dim), (*np.broadcast_shapes(sizes.shape[:-1], arm_rho.shape[:-2]), 1, 1))
    m[..., i, j] = m[..., j, i] = _pair_correlation(
        sizes[..., u], sizes[..., v], sizes[..., :1],
        arm_rho[..., u, v], arm_rho[..., u, 0], arm_rho[..., v, 0],
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
