"""Arm-level to test-statistic correlation mapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from platformdesign.allocation import DesignScenario
from platformdesign.correlation import test_stat_correlation as z_correlation
from platformdesign.errors import DomainError


def _arm_correlation_matrix(arms: PlatformArms) -> np.ndarray:
    """Endpoint correlations of the (control, mono, combo) arms of a K=1 trial."""
    order = (CONTROL, mono_arm(1), combo_arm(1))
    return np.array([[arms.correlations.get(u, v) for v in order] for u in order])


def _single_arm_correlations(rho_ab_a, rho_ab_b, rho_a_b) -> np.ndarray:
    """Endpoint correlations of the (control, mono, combo) arms of a K=1
    trial, from its three arm correlations."""
    return np.array(
        [[1.0, rho_a_b, rho_ab_a], [rho_a_b, 1.0, rho_ab_b], [rho_ab_a, rho_ab_b, 1.0]]
    )


def _arm_mean_cov(arms: PlatformArms) -> np.ndarray:
    """Covariance of the (control, mono, combo) arm means of a K=1 trial, per
    unit endpoint variance."""
    n = np.array([arms.n_control, arms.n_mono[0], arms.n_combo[0]])
    return _arm_correlation_matrix(arms) / np.sqrt(np.outer(n, n))


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
        # the unclipped Z correlation here would be 1.23, which no trial can
        # have: the arms are refused when they are built
        matrix = _single_arm_correlations(rho_ab_a=0.8, rho_ab_b=0.9, rho_a_b=0.0)
        assert np.linalg.eigvalsh(matrix).min() < 0
        with pytest.raises(DomainError, match="cannot form a trial"):
            PlatformArms.single(50, 50, 50, rho_ab_a=0.8, rho_ab_b=0.9)

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.tuples(*[st.floats(1.0, 1000.0)] * 3),
        rhos=st.tuples(*[st.floats(-0.99, 0.99)] * 3),
    )
    def test_property_positive_definite_arm_correlations_never_raise(self, counts, rhos):
        rho_ab_a, rho_ab_b, rho_a_b = rhos
        # positive definite with a margin, so rounding cannot reach the bound
        matrix = _single_arm_correlations(rho_ab_a, rho_ab_b, rho_a_b)
        assume(np.linalg.eigvalsh(matrix).min() > 1e-6)
        arms = PlatformArms.single(
            *counts, rho_ab_a=rho_ab_a, rho_ab_b=rho_ab_b, rho_a_b=rho_a_b
        )
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
        corr = ArmCorrelations(2, {(combo_arm(1), mono_arm(2)): 0.4})
        arms = PlatformArms(100, (100, 100), (100, 100), corr)
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
        # the eigenvalues read only the lower triangle, whose matrix here has
        # a negative one: the asymmetry is the error to report
        asymmetric = [[1.0, 0.1, 0.0], [0.99, 1.0, 0.99], [0.0, 0.99, 1.0]]
        with pytest.raises(DomainError, match="must be symmetric with unit diagonal"):
            ArmCorrelations(1, matrix=asymmetric)
        with pytest.raises(DomainError, match="must lie in"):
            ArmCorrelations(1, {(combo_arm(1), CONTROL): np.nan})
        table = ArmCorrelations.single(0.3, 0.4)
        assert table.get(combo_arm(1), CONTROL) == 0.3
        assert table.get(CONTROL, combo_arm(1)) == 0.3
        assert table.get(mono_arm(1), CONTROL) == 0.0
        assert table.get(CONTROL, CONTROL) == 1.0


class TestPerSubstudy:
    @pytest.mark.parametrize("control_mono", [(), (0.2, -0.1, 0.3)])
    def test_matches_an_explicit_pairs_table(self, control_mono):
        combo_control, combo_mono = (0.3, 0.1, -0.2), (0.5, 0.4, 0.6)
        pairs = {}
        for k in range(1, 4):
            pairs[(combo_arm(k), CONTROL)] = combo_control[k - 1]
            pairs[(mono_arm(k), combo_arm(k))] = combo_mono[k - 1]
            if control_mono:
                pairs[(mono_arm(k), CONTROL)] = control_mono[k - 1]
        explicit = ArmCorrelations(3, pairs)
        table = ArmCorrelations.per_substudy(combo_control, combo_mono, control_mono)
        arms = [CONTROL, *(arm(k) for k in range(1, 4) for arm in (mono_arm, combo_arm))]
        for a in arms:
            for b in arms:
                assert table.get(a, b) == explicit.get(a, b), (a, b)

    @pytest.mark.parametrize("lengths", [(2, 1, 0), (2, 2, 1), (0, 0, 0)])
    def test_one_value_per_substudy(self, lengths):
        with pytest.raises(DomainError):
            ArmCorrelations.per_substudy(*((0.1,) * n for n in lengths))


_RHO = st.floats(-1.0, 1.0)
# the smallest eigenvalue of this K=1 matrix is 0: a trial can just have it
_BOUNDARY = (1, (0.6,), (0.8,), (0.0,), None)


@st.composite
def _arm_correlation_inputs(draw):
    """K in 1-4; per substudy the combination-control, combination-mono and
    control-mono correlations; and, for K >= 2, one pair across substudies."""
    K = draw(st.integers(1, 4))
    rho_cc, rho_cm, rho_am = (
        tuple(draw(st.lists(_RHO, min_size=K, max_size=K))) for _ in range(3)
    )
    cross = None
    if K >= 2:
        first = draw(st.sampled_from((mono_arm, combo_arm)))(1)
        second = draw(st.sampled_from((mono_arm, combo_arm)))(draw(st.integers(2, K)))
        cross = ((first, second), draw(_RHO))
    return K, rho_cc, rho_cm, rho_am, cross


class TestFeasibility:
    @settings(max_examples=300, deadline=None)
    @given(inputs=_arm_correlation_inputs())
    @example(inputs=_BOUNDARY)
    def test_refused_exactly_when_not_positive_semidefinite(self, inputs):
        K, rho_cc, rho_cm, rho_am, cross = inputs
        pairs = {}
        for k in range(1, K + 1):
            pairs[(combo_arm(k), CONTROL)] = rho_cc[k - 1]
            pairs[(combo_arm(k), mono_arm(k))] = rho_cm[k - 1]
            pairs[(mono_arm(k), CONTROL)] = rho_am[k - 1]
        if cross is not None:
            pairs[cross[0]] = cross[1]
        order = [CONTROL, *(arm(k) for k in range(1, K + 1) for arm in (mono_arm, combo_arm))]
        matrix = np.eye(len(order))
        for (a, b), rho in pairs.items():
            i, j = order.index(a), order.index(b)
            matrix[i, j] = matrix[j, i] = rho
        infeasible = np.linalg.eigvalsh(matrix).min() < -1e-12
        try:
            table = ArmCorrelations(K, pairs)
        except DomainError as exc:
            assert infeasible, str(exc)
            assert "cannot form a trial" in str(exc)
        else:
            assert not infeasible
            assert np.array_equal(table.matrix, matrix)
            with pytest.raises(ValueError):
                table.matrix[0, 1] = 0.5

    @settings(max_examples=300, deadline=None)
    @given(inputs=_arm_correlation_inputs())
    @example(inputs=_BOUNDARY)
    def test_design_scenario_agrees_with_the_table(self, inputs):
        K, rho_cc, rho_cm, _, _ = inputs
        try:
            scenario = DesignScenario((0.3,) * K, (1.0,) * K, 1.0, rho_cc, rho_cm)
        except DomainError as exc:
            assert "cannot form a trial" in str(exc)
            with pytest.raises(DomainError, match="cannot form a trial"):
                ArmCorrelations.per_substudy(rho_cc, rho_cm)
        else:
            table = ArmCorrelations.from_scenario(scenario)
            assert table == ArmCorrelations.per_substudy(rho_cc, rho_cm)
