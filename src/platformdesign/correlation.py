"""Arm-level correlations to test-statistic correlations.

Two investigational arms that share treatment components (or merely share the
control) produce correlated Z statistics.  This module maps endpoint
correlations between arms, together with per-arm sample sizes, onto the
correlation matrix of the Z statistics, which the threshold solvers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .allocation import DesignScenario
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


def _check_arm(arm: Arm, K: int) -> None:
    kind, k = arm
    if kind == "A" and k == 0:
        return
    if kind in ("B", "AB") and 1 <= k <= K:
        return
    raise DomainError(f"invalid arm label {arm} for K={K}")


@dataclass(frozen=True)
class ArmCorrelations:
    """Sparse symmetric table of endpoint correlations between arms.

    Unspecified pairs default to zero, matching the assumption that arms with
    no overlapping components are independent.  Entries are keyed by
    unordered arm pairs.
    """

    K: int
    pairs: Mapping[tuple[Arm, Arm], float] = field(default_factory=dict)
    _table: dict[frozenset, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.K < 1:
            raise DomainError("K must be at least 1")
        table: dict[frozenset, float] = {}
        for (a, b), rho in dict(self.pairs).items():
            _check_arm(a, self.K)
            _check_arm(b, self.K)
            if a == b:
                raise DomainError(f"self-correlation for arm {a} is fixed at 1")
            if not -1.0 <= rho <= 1.0:
                raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
            key = frozenset((a, b))
            if key in table and table[key] != rho:
                raise DomainError(f"conflicting correlations for pair {a}, {b}")
            table[key] = float(rho)
        object.__setattr__(self, "_table", table)

    def get(self, a: Arm, b: Arm) -> float:
        if a == b:
            return 1.0
        return self._table.get(frozenset((a, b)), 0.0)

    def with_entry(self, a: Arm, b: Arm, rho: float) -> "ArmCorrelations":
        updated = {tuple(sorted(key)): value for key, value in self._table.items()}
        updated[(a, b)] = rho
        return ArmCorrelations(self.K, updated)

    @classmethod
    def single(
        cls, rho_ab_a: float = 0.0, rho_ab_b: float = 0.0, rho_a_b: float = 0.0
    ) -> "ArmCorrelations":
        return cls(
            1,
            {
                (combo_arm(1), CONTROL): rho_ab_a,
                (combo_arm(1), mono_arm(1)): rho_ab_b,
                (CONTROL, mono_arm(1)): rho_a_b,
            },
        )

    @classmethod
    def from_scenario(cls, scenario: DesignScenario) -> "ArmCorrelations":
        pairs: dict[tuple[Arm, Arm], float] = {}
        for k in range(1, scenario.K + 1):
            pairs[(combo_arm(k), CONTROL)] = scenario.rho_combo_control[k - 1]
            pairs[(combo_arm(k), mono_arm(k))] = scenario.rho_combo_mono[k - 1]
        return cls(scenario.K, pairs)


@dataclass(frozen=True)
class PlatformArms:
    """Counts and arm correlations for a K-substudy platform trial."""

    n_control: float
    n_mono: tuple[float, ...]
    n_combo: tuple[float, ...]
    correlations: ArmCorrelations
    sigma2: float = 1.0

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
        if self.sigma2 <= 0:
            raise DomainError("sigma2 must be positive")
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
        sigma2: float = 1.0,
    ) -> "PlatformArms":
        """One (control, monotherapy, combination) study.

        The control-monotherapy correlation defaults to zero: monotherapies
        are usually chosen to act through a different mechanism than the
        control.
        """
        return cls(
            n_a, (n_b,), (n_ab,), ArmCorrelations.single(rho_ab_a, rho_ab_b, rho_a_b), sigma2
        )


def _pair_correlation(
    n_u: float,
    n_v: float,
    n_a: float,
    rho_uv: float,
    rho_ua: float,
    rho_va: float,
) -> float:
    """Correlation of two Z statistics sharing the control arm.

    Arm correlations that fit together (a positive-definite arm correlation
    matrix) give a value in [-1, 1] up to rounding, which alone is clipped;
    anything further out is a :class:`DomainError`.
    """
    var_u = 1.0 / n_u + 1.0 / n_a - 2.0 * rho_ua / math.sqrt(n_u * n_a)
    var_v = 1.0 / n_v + 1.0 / n_a - 2.0 * rho_va / math.sqrt(n_v * n_a)
    if var_u <= 0.0 or var_v <= 0.0:
        raise DomainError(
            "a contrast variance is not positive; the arm correlations are "
            "inconsistent with the sample sizes"
        )
    num = (
        rho_uv / math.sqrt(n_u * n_v)
        - rho_ua / math.sqrt(n_u * n_a)
        - rho_va / math.sqrt(n_v * n_a)
        + 1.0 / n_a
    )
    r = num / math.sqrt(var_u * var_v)
    if abs(r) > 1.0 + 1e-12:
        raise DomainError(
            f"the Z statistics would have correlation {r:.6g}; the arm "
            "correlations do not fit together (their matrix is not positive "
            "definite)"
        )
    return min(1.0, max(-1.0, r))


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
    table = arms.correlations
    return _pair_correlation(
        arms.n_combo[0],
        arms.n_mono[0],
        arms.n_control,
        table.get(combo_arm(1), mono_arm(1)),
        table.get(combo_arm(1), CONTROL),
        table.get(mono_arm(1), CONTROL),
    )


def classical_dunnett_correlation(arms: PlatformArms) -> float:
    """The comparator value used by the classical shared-control procedure,
    for a K=1 trial.

    Note the second factor uses n_b/n_ab, unlike the zero-correlation
    reduction of :func:`test_stat_correlation`; both are kept as written.
    """
    _check_single(arms)
    n_a, n_b, n_ab = arms.n_control, arms.n_mono[0], arms.n_combo[0]
    return 1.0 / math.sqrt((n_a / n_ab + 1.0) * (n_b / n_ab + 1.0))


def _platform_arm_order(K: int) -> list[Arm]:
    """Investigational arms in test-statistic order (combo_k, mono_k per k)."""
    order: list[Arm] = []
    for k in range(1, K + 1):
        order.append(combo_arm(k))
        order.append(mono_arm(k))
    return order


def platform_z_correlation_matrix(arms: PlatformArms) -> CorrelationMatrix:
    """2K x 2K correlation matrix of the Z statistics.

    Statistic order is (Z_1,1, Z_1,2, ..., Z_K,1, Z_K,2), where the first
    statistic of each substudy tests the combination arm and the second the
    monotherapy arm.
    """
    order = _platform_arm_order(arms.K)
    sizes = {CONTROL: arms.n_control}
    for k in range(1, arms.K + 1):
        sizes[mono_arm(k)] = arms.n_mono[k - 1]
        sizes[combo_arm(k)] = arms.n_combo[k - 1]
    dim = 2 * arms.K
    m = np.eye(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            u, v = order[i], order[j]
            m[i, j] = m[j, i] = _pair_correlation(
                sizes[u],
                sizes[v],
                arms.n_control,
                arms.correlations.get(u, v),
                arms.correlations.get(u, CONTROL),
                arms.correlations.get(v, CONTROL),
            )
    return CorrelationMatrix(m)
