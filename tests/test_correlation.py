"""Arm-level to test-statistic correlation mapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import mvn_draws

from platformdesign.correlation import (
    CONTROL,
    ArmCorrelations,
    PlatformArms,
    classical_dunnett_correlation,
    combo_arm,
    mono_arm,
    platform_z_correlation_matrix,
)
from platformdesign.correlation import test_stat_correlation as z_correlation
from platformdesign.errors import DomainError


def _arm_correlation_matrix(arms: PlatformArms) -> np.ndarray:
    """Endpoint correlations of the (control, mono, combo) arms of a K=1 trial."""
    order = (CONTROL, mono_arm(1), combo_arm(1))
    return np.array([[arms.correlations.get(u, v) for v in order] for u in order])


def _arm_mean_cov(arms: PlatformArms) -> np.ndarray:
    """Covariance of the (control, mono, combo) arm means of a K=1 trial."""
    n = np.array([arms.n_control, arms.n_mono[0], arms.n_combo[0]])
    return arms.sigma2 * _arm_correlation_matrix(arms) / np.sqrt(np.outer(n, n))


def _contrast_z_correlation(arms: PlatformArms) -> float:
    """Linear-algebra oracle: correlation of the combo-control and
    mono-control contrasts under the arm-mean covariance."""
    cov = _arm_mean_cov(arms)
    combo, mono = np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0, 0.0])
    return float(combo @ cov @ mono / math.sqrt((combo @ cov @ combo) * (mono @ cov @ mono)))


def _empirical_z_correlation(arms: PlatformArms, n_draws: int = 100_000, seed: int = 0):
    """Simulation oracle: draw arm means, form the two Z statistics, correlate."""
    cov = _arm_mean_cov(arms)
    draws = mvn_draws(np.linalg.cholesky(cov), n_draws, seed)
    z1 = (draws[:, 2] - draws[:, 0]) / math.sqrt(cov[2, 2] + cov[0, 0] - 2 * cov[0, 2])
    z2 = (draws[:, 1] - draws[:, 0]) / math.sqrt(cov[1, 1] + cov[0, 0] - 2 * cov[0, 1])
    return float(np.corrcoef(z1, z2)[0, 1])


class TestSingleStudy:
    def test_equal_allocation_classical_value(self):
        arms = PlatformArms.single(100, 100, 100)
        assert z_correlation(arms) == pytest.approx(0.5, abs=1e-12)

    def test_stated_reduction_hand_value(self):
        arms = PlatformArms.single(200, 100, 50)
        assert z_correlation(arms) == pytest.approx(1 / math.sqrt(15), abs=1e-12)

    def test_zero_correlation_reduction_identity(self, rng):
        for _ in range(200):
            n_a, n_b, n_ab = rng.integers(2, 500, size=3)
            arms = PlatformArms.single(int(n_a), int(n_b), int(n_ab))
            reduction = 1.0 / math.sqrt((n_a / n_ab + 1.0) * (n_a / n_b + 1.0))
            assert z_correlation(arms) == pytest.approx(reduction, abs=1e-14)

    def test_against_simulation_oracle(self):
        arms = PlatformArms.single(120, 120, 120, rho_ab_a=0.3, rho_ab_b=0.3)
        assert z_correlation(arms) == pytest.approx(
            _empirical_z_correlation(arms, seed=5), abs=0.01
        )

    def test_simulation_consistency_random_configs(self, rng):
        for seed in range(20):
            n = rng.integers(20, 300, size=3)
            rho_ab_a, rho_ab_b = rng.uniform(0.0, 0.6, size=2)
            arms = PlatformArms.single(
                int(n[0]), int(n[1]), int(n[2]),
                rho_ab_a=float(rho_ab_a), rho_ab_b=float(rho_ab_b),
            )
            assert z_correlation(arms) == pytest.approx(
                _empirical_z_correlation(arms, seed=seed), abs=0.015
            )

    def test_nonzero_control_mono_correlation_honored(self):
        with_term = PlatformArms.single(80, 80, 80, rho_ab_a=0.2, rho_ab_b=0.2, rho_a_b=0.4)
        without = PlatformArms.single(80, 80, 80, rho_ab_a=0.2, rho_ab_b=0.2)
        assert z_correlation(with_term) != z_correlation(without)
        assert z_correlation(with_term) == pytest.approx(
            _empirical_z_correlation(with_term, seed=9), abs=0.015
        )

    def test_inconsistent_inputs_raise(self):
        # rho_ab_a = 1 with n_ab = n_a zeroes the contrast variance
        with pytest.raises(DomainError):
            z_correlation(PlatformArms.single(50, 50, 50, rho_ab_a=1.0))

    def test_arm_correlations_that_do_not_fit_together_raise(self):
        # the unclipped Z correlation here is 1.23, which no trial can have
        arms = PlatformArms.single(50, 50, 50, rho_ab_a=0.8, rho_ab_b=0.9)
        assert np.linalg.eigvalsh(_arm_correlation_matrix(arms)).min() < 0
        with pytest.raises(DomainError):
            z_correlation(arms)
        with pytest.raises(DomainError):
            platform_z_correlation_matrix(arms)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.tuples(*[st.floats(1.0, 1000.0)] * 3),
        rhos=st.tuples(*[st.floats(-0.99, 0.99)] * 3),
    )
    def test_property_positive_definite_arm_correlations_never_raise(self, counts, rhos):
        rho_ab_a, rho_ab_b, rho_a_b = rhos
        arms = PlatformArms.single(
            *counts, rho_ab_a=rho_ab_a, rho_ab_b=rho_ab_b, rho_a_b=rho_a_b
        )
        # positive definite with a margin, so rounding cannot reach the bound
        assume(np.linalg.eigvalsh(_arm_correlation_matrix(arms)).min() > 1e-6)
        r = z_correlation(arms)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(_contrast_z_correlation(arms), abs=1e-9)
        assert platform_z_correlation_matrix(arms).entries[0, 1] == r

    def test_requires_one_substudy(self):
        arms = PlatformArms(100, (100, 100), (100, 100), ArmCorrelations(2))
        with pytest.raises(DomainError):
            z_correlation(arms)
        with pytest.raises(DomainError):
            classical_dunnett_correlation(arms)

    def test_validation(self):
        with pytest.raises(DomainError):
            PlatformArms.single(0, 10, 10)
        with pytest.raises(DomainError):
            PlatformArms.single(10, 10, 10, rho_ab_a=1.5)
        with pytest.raises(DomainError):
            PlatformArms.single(10, 10, 10, sigma2=0.0)


class TestClassicalComparator:
    def test_equal_allocation(self):
        assert classical_dunnett_correlation(PlatformArms.single(100, 100, 100)) == 0.5

    def test_hand_value(self):
        arms = PlatformArms.single(200, 100, 50)
        assert classical_dunnett_correlation(arms) == pytest.approx(
            1 / math.sqrt(15), abs=1e-12
        )

    def test_limit_large_combo_arm(self):
        arms = PlatformArms.single(100, 100, 10_000_000)
        assert classical_dunnett_correlation(arms) == pytest.approx(1.0, abs=1e-4)

    def test_differs_from_general_reduction(self):
        # the comparator uses n_b/n_ab where the reduction uses n_a/n_b; they
        # agree only when n_b^2 = n_a * n_ab
        agreeing = PlatformArms.single(200, 100, 50)
        assert classical_dunnett_correlation(agreeing) == pytest.approx(
            z_correlation(agreeing), abs=1e-12
        )
        skewed = PlatformArms.single(100, 100, 50)
        assert classical_dunnett_correlation(skewed) == pytest.approx(1 / 3, abs=1e-12)
        assert z_correlation(skewed) == pytest.approx(1 / math.sqrt(6), abs=1e-12)


class TestPlatformMatrix:
    def test_k1_reduction(self):
        arms = PlatformArms.single(100, 100, 100)
        matrix = platform_z_correlation_matrix(arms)
        assert np.allclose(matrix.entries, [[1.0, 0.5], [0.5, 1.0]])

    def test_k1_matches_single_study_for_random_configs(self, rng):
        for _ in range(1000):
            n = rng.integers(2, 400, size=3)
            rho = rng.uniform(0.0, 0.7, size=2)
            single = PlatformArms.single(
                int(n[0]), int(n[1]), int(n[2]),
                rho_ab_a=float(rho[0]), rho_ab_b=float(rho[1]),
            )
            matrix = platform_z_correlation_matrix(single)
            assert matrix.entries[0, 1] == z_correlation(single)
            assert matrix.entries[0, 1] == pytest.approx(
                _contrast_z_correlation(single), abs=1e-12
            )

    def test_k2_equal_counts_shared_control(self):
        corr = ArmCorrelations(2)
        arms = PlatformArms(100, (100, 100), (100, 100), corr)
        matrix = platform_z_correlation_matrix(arms).entries
        off_diag = matrix[~np.eye(4, dtype=bool)]
        assert np.allclose(off_diag, 0.5, atol=1e-12)

    def test_k2_cross_substudy_entry_against_simulation(self):
        corr = ArmCorrelations(2).with_entry(combo_arm(1), mono_arm(2), 0.4)
        arms = PlatformArms(100, (100, 100), (100, 100), corr, sigma2=1.0)
        analytic = platform_z_correlation_matrix(arms).entries

        sizes = np.array([100.0, 100, 100, 100, 100])
        order = [CONTROL, mono_arm(1), combo_arm(1), mono_arm(2), combo_arm(2)]
        cov = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                rho = 1.0 if i == j else corr.get(order[i], order[j])
                cov[i, j] = rho / math.sqrt(sizes[i] * sizes[j])
        draws = mvn_draws(np.linalg.cholesky(cov), 100_000, seed=21)
        z = np.empty((draws.shape[0], 4))
        for k, arm in enumerate((2, 1, 4, 3)):  # combo1, mono1, combo2, mono2
            sd = math.sqrt(cov[arm, arm] + cov[0, 0] - 2 * cov[arm, 0])
            z[:, k] = (draws[:, arm] - draws[:, 0]) / sd
        empirical = np.corrcoef(z.T)
        assert np.max(np.abs(empirical - analytic)) <= 0.01

    def test_statistic_ordering(self):
        # combo statistic comes first in each substudy block
        corr = ArmCorrelations(1, {(combo_arm(1), CONTROL): 0.6})
        arms = PlatformArms(50, (1000,), (50,), corr)
        single = PlatformArms.single(50, 1000, 50, rho_ab_a=0.6)
        matrix = platform_z_correlation_matrix(arms)
        assert matrix.entries[0, 1] == pytest.approx(z_correlation(single), abs=1e-12)

    def test_arm_correlations_validation(self):
        with pytest.raises(DomainError):
            ArmCorrelations(1, {(combo_arm(2), CONTROL): 0.1})
        with pytest.raises(DomainError):
            ArmCorrelations(1, {(combo_arm(1), CONTROL): 1.4})
        with pytest.raises(DomainError):
            ArmCorrelations(1, {(CONTROL, CONTROL): 0.5})
        table = ArmCorrelations.single(0.3, 0.4)
        assert table.get(combo_arm(1), CONTROL) == 0.3
        assert table.get(CONTROL, combo_arm(1)) == 0.3
        assert table.get(mono_arm(1), CONTROL) == 0.0
        assert table.get(CONTROL, CONTROL) == 1.0
