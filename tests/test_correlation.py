"""Arm-level to test-statistic correlation mapping and alternative covariance."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from platformdesign.allocation import Allocation, DesignScenario
from platformdesign.correlation import (
    CONTROL,
    ArmCorrelations,
    PlatformArms,
    alternative_mean_covariance,
    arm_mean_covariance,
    classical_dunnett_correlation,
    combo_arm,
    mono_arm,
    platform_z_correlation_matrix,
)
from platformdesign.correlation import test_stat_correlation as z_correlation
from platformdesign.errors import DomainError
from platformdesign.mvnorm import MvnSampler, cholesky, mvn_sample


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
    draws = mvn_sample(MvnSampler(np.zeros(3), cov, seed), n_draws)
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
        draws = mvn_sample(MvnSampler(np.zeros(5), cov, seed=21), 100_000)
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


class TestAlternativeMeanCovariance:
    def test_direct_substitution(self):
        scenario = DesignScenario.single(0.3, 1.0)
        alloc = Allocation.equal(1)
        mean, cov = alternative_mean_covariance(scenario, alloc, n_total=300)
        assert np.allclose(mean, [0.0, 0.3, 0.3])
        assert np.allclose(cov, np.eye(3) * 0.01)

    def test_hand_covariance_entry(self):
        scenario = DesignScenario.single(0.3, 1.0, rho_ab_a=0.5)
        alloc = Allocation((0.25, 0.5, 0.25))
        mean, cov = alternative_mean_covariance(scenario, alloc, n_total=400)
        # combo-control covariance: 0.5 * 1 / (sqrt(0.25*0.25)*400)
        assert cov[2, 0] == pytest.approx(0.005, abs=1e-15)
        assert cov[0, 1] == 0.0

    def test_mean_ordering_k2(self):
        scenario = DesignScenario(
            delta=(0.3, 0.5), synergy=(1.2, 0.9),
            rho_combo_control=(0.1, 0.2), rho_combo_mono=(0.3, 0.4),
        )
        alloc = Allocation.equal(2)
        mean, cov = alternative_mean_covariance(scenario, alloc, n_total=500)
        assert np.allclose(mean, [0.0, 0.3, 0.36, 0.5, 0.45])
        assert cov.shape == (5, 5)
        # within-substudy combo-mono term for substudy 2 sits at (3, 4)
        assert cov[3, 4] == pytest.approx(0.4 / (0.2 * 500), abs=1e-15)

    def test_psd_with_zero_jitter_on_random_grid(self, rng):
        # correlations drawn inside the jointly realizable region (strict
        # diagonal dominance), where the construction is guaranteed PSD
        for _ in range(50):
            k = int(rng.integers(1, 4))
            scenario = DesignScenario(
                delta=tuple(rng.uniform(0.1, 1.0, k)),
                synergy=tuple(rng.uniform(0.5, 2.0, k)),
                sigma2=float(rng.uniform(0.5, 2.0)),
                rho_combo_control=tuple(rng.uniform(0.0, 0.45 / k, k)),
                rho_combo_mono=tuple(rng.uniform(0.0, 0.45, k)),
            )
            theta = rng.standard_normal(2 * k + 1)
            ratios = np.exp(theta) / np.exp(theta).sum()
            _, cov = alternative_mean_covariance(
                scenario, Allocation(tuple(ratios)), n_total=int(rng.integers(50, 500))
            )
            assert cholesky(cov).jitter == 0.0

    def test_size_validation(self):
        scenario = DesignScenario.single(0.3, 1.0)
        with pytest.raises(DomainError):
            alternative_mean_covariance(scenario, Allocation.equal(1))
        with pytest.raises(DomainError):
            alternative_mean_covariance(scenario, Allocation.equal(2), n_total=100)
        with pytest.raises(DomainError):
            arm_mean_covariance(scenario, [10.0, 10.0, -1.0])
