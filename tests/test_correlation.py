"""Arm-level to test-statistic correlation mapping."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from conftest import mvn_draws, z_correlation_oracle

from platformdesign.correlation import (
    ArmCorrelations,
    PlatformArms,
    _arm_correlation_matrix,
    _z_correlations,
    classical_dunnett_correlation,
    platform_z_correlation_matrix,
)
from platformdesign.allocation import DesignScenario
from platformdesign.errors import DomainError


def z_correlation(arms: PlatformArms) -> float:
    """The correlation of a K=1 trial's combination and monotherapy Z
    statistics."""
    return platform_z_correlation_matrix(arms).entries[0, 1]


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
    return arms.correlations.matrix / np.sqrt(np.outer(n, n))


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
        arms = PlatformArms(100, 100, 100, ArmCorrelations(1))
        assert z_correlation(arms) == pytest.approx(0.5, abs=1e-12)

    def test_stated_reduction_hand_value(self):
        arms = PlatformArms(200, 100, 50, ArmCorrelations(1))
        assert z_correlation(arms) == pytest.approx(1 / math.sqrt(15), abs=1e-12)

    def test_zero_correlation_reduction_identity(self, rng):
        for _ in range(200):
            n_a, n_b, n_ab = rng.integers(2, 500, size=3)
            arms = PlatformArms(int(n_a), int(n_b), int(n_ab), ArmCorrelations(1))
            reduction = 1.0 / math.sqrt((n_a / n_ab + 1.0) * (n_a / n_b + 1.0))
            assert z_correlation(arms) == pytest.approx(reduction, abs=1e-14)

    def test_against_simulation_oracle(self):
        arms = PlatformArms(120, 120, 120, ArmCorrelations.per_substudy(0.3, 0.3))
        assert z_correlation(arms) == pytest.approx(
            _empirical_z_correlation(arms, seed=5), abs=0.01
        )

    def test_simulation_consistency_random_configs(self, rng):
        for seed in range(20):
            n = rng.integers(20, 300, size=3)
            rho_ab_a, rho_ab_b = rng.uniform(0.0, 0.6, size=2)
            arms = PlatformArms(
                int(n[0]), int(n[1]), int(n[2]),
                ArmCorrelations.per_substudy(float(rho_ab_a), float(rho_ab_b)),
            )
            assert z_correlation(arms) == pytest.approx(
                _empirical_z_correlation(arms, seed=seed), abs=0.015
            )

    def test_nonzero_control_mono_correlation_honored(self):
        with_term = PlatformArms(80, 80, 80, ArmCorrelations.per_substudy(0.2, 0.2, 0.4))
        without = PlatformArms(80, 80, 80, ArmCorrelations.per_substudy(0.2, 0.2))
        assert z_correlation(with_term) != z_correlation(without)
        assert z_correlation(with_term) == pytest.approx(
            _empirical_z_correlation(with_term, seed=9), abs=0.015
        )

    def test_inconsistent_inputs_raise(self):
        # rho_ab_a = 1 with n_ab = n_a zeroes the contrast variance
        with pytest.raises(DomainError):
            z_correlation(PlatformArms(50, 50, 50, ArmCorrelations.per_substudy(1.0, 0.0)))

    def test_arm_correlations_that_do_not_fit_together_raise(self):
        # the unclipped Z correlation here would be 1.23, which no trial can
        # have: the arms are refused when they are built
        matrix = _single_arm_correlations(rho_ab_a=0.8, rho_ab_b=0.9, rho_a_b=0.0)
        assert np.linalg.eigvalsh(matrix).min() < 0
        with pytest.raises(DomainError, match="cannot form a trial"):
            PlatformArms(50, 50, 50, ArmCorrelations.per_substudy(0.8, 0.9))

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
        arms = PlatformArms(*counts, ArmCorrelations.per_substudy(rho_ab_a, rho_ab_b, rho_a_b))
        r = z_correlation(arms)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(_contrast_z_correlation(arms), abs=1e-9)
        assert platform_z_correlation_matrix(arms).entries[0, 1] == r

    def test_requires_one_substudy(self):
        arms = PlatformArms(100, (100, 100), (100, 100), ArmCorrelations(2))
        with pytest.raises(DomainError):
            classical_dunnett_correlation(arms)

    def test_validation(self):
        with pytest.raises(DomainError):
            PlatformArms(0, 10, 10, ArmCorrelations(1))
        with pytest.raises(DomainError):
            PlatformArms(10, 10, 10, ArmCorrelations.per_substudy(1.5, 0.0))

    @pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_count_that_is_not_finite_is_named(self, count, position):
        counts = [10.0, 10.0, 10.0]
        counts[position] = count
        name = ("n_control", "n_mono", "n_combo")[position]
        with pytest.raises(DomainError, match=f"{name} must be a finite count of at least 1"):
            PlatformArms(*counts, ArmCorrelations(1))


class TestClassicalComparator:
    def test_equal_allocation(self):
        arms = PlatformArms(100, 100, 100, ArmCorrelations(1))
        assert classical_dunnett_correlation(arms) == 0.5

    def test_hand_value(self):
        arms = PlatformArms(200, 100, 50, ArmCorrelations(1))
        assert classical_dunnett_correlation(arms) == pytest.approx(
            1 / math.sqrt(15), abs=1e-12
        )

    def test_limit_large_combo_arm(self):
        arms = PlatformArms(100, 100, 10_000_000, ArmCorrelations(1))
        assert classical_dunnett_correlation(arms) == pytest.approx(1.0, abs=1e-4)

    def test_differs_from_general_reduction(self):
        # the comparator uses n_b/n_ab where the reduction uses n_a/n_b; they
        # agree only when n_b^2 = n_a * n_ab
        agreeing = PlatformArms(200, 100, 50, ArmCorrelations(1))
        assert classical_dunnett_correlation(agreeing) == pytest.approx(
            z_correlation(agreeing), abs=1e-12
        )
        skewed = PlatformArms(100, 100, 50, ArmCorrelations(1))
        assert classical_dunnett_correlation(skewed) == pytest.approx(1 / 3, abs=1e-12)
        assert z_correlation(skewed) == pytest.approx(1 / math.sqrt(6), abs=1e-12)


class TestPlatformMatrix:
    def test_k1_reduction(self):
        arms = PlatformArms(100, 100, 100, ArmCorrelations(1))
        matrix = platform_z_correlation_matrix(arms)
        assert np.allclose(matrix.entries, [[1.0, 0.5], [0.5, 1.0]])

    def test_k1_numbers_match_one_substudy_sequences_for_random_configs(self, rng):
        for _ in range(1000):
            n = rng.integers(2, 400, size=3)
            rho = rng.uniform(0.0, 0.7, size=2)
            single = PlatformArms(
                int(n[0]), int(n[1]), int(n[2]),
                ArmCorrelations.per_substudy(float(rho[0]), float(rho[1])),
            )
            sequences = PlatformArms(
                int(n[0]), (int(n[1]),), (int(n[2]),),
                ArmCorrelations.per_substudy((float(rho[0]),), (float(rho[1]),)),
            )
            assert single == sequences
            matrix = platform_z_correlation_matrix(single)
            assert np.array_equal(matrix.entries, platform_z_correlation_matrix(sequences).entries)
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
        # arm order (A, B_1, AB_1, B_2, AB_2): combo_1 and mono_2 correlate
        matrix = np.eye(5)
        matrix[2, 3] = matrix[3, 2] = 0.4
        corr = ArmCorrelations(2, matrix=matrix)
        arms = PlatformArms(100, (100, 100), (100, 100), corr)
        analytic = platform_z_correlation_matrix(arms).entries

        sizes = np.array([100.0, 100, 100, 100, 100])
        cov = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                cov[i, j] = matrix[i, j] / math.sqrt(sizes[i] * sizes[j])
        draws = mvn_draws(np.linalg.cholesky(cov), 100_000, seed=21)
        z = np.empty((draws.shape[0], 4))
        for k, arm in enumerate((2, 1, 4, 3)):  # combo1, mono1, combo2, mono2
            sd = math.sqrt(cov[arm, arm] + cov[0, 0] - 2 * cov[arm, 0])
            z[:, k] = (draws[:, arm] - draws[:, 0]) / sd
        empirical = np.corrcoef(z.T)
        assert np.max(np.abs(empirical - analytic)) <= 0.01

    def test_statistic_ordering(self):
        # combo statistic comes first in each substudy block
        arms = PlatformArms(50, (1000,), (50,), ArmCorrelations.per_substudy((0.6,), (0.0,)))
        single = PlatformArms(50, 1000, 50, ArmCorrelations.per_substudy(0.6, 0.0))
        matrix = platform_z_correlation_matrix(arms)
        assert matrix.entries[0, 1] == pytest.approx(z_correlation(single), abs=1e-12)

    def test_arm_correlations_validation(self):
        with pytest.raises(DomainError, match="must be 5 x 5"):
            ArmCorrelations(2, matrix=np.eye(3))
        with pytest.raises(DomainError, match="must lie in"):
            ArmCorrelations.per_substudy(1.4, 0.0)
        with pytest.raises(DomainError, match="unit diagonal"):
            ArmCorrelations(1, matrix=np.diag([1.0, 0.5, 1.0]))
        # the eigenvalues read only the lower triangle, whose matrix here has
        # a negative one: the asymmetry is the error to report
        asymmetric = [[1.0, 0.1, 0.0], [0.99, 1.0, 0.99], [0.0, 0.99, 1.0]]
        with pytest.raises(DomainError, match="must be symmetric with unit diagonal"):
            ArmCorrelations(1, matrix=asymmetric)
        with pytest.raises(DomainError, match="must lie in"):
            ArmCorrelations.per_substudy(np.nan, 0.0)
        # arm order (A, B_1, AB_1)
        assert ArmCorrelations.per_substudy(0.3, 0.4).matrix.tolist() == [
            [1.0, 0.0, 0.3], [0.0, 1.0, 0.4], [0.3, 0.4, 1.0]
        ]


def _random_trial(rng, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts from 1 to 1,000 and an arm correlation matrix with every
    within-substudy pair, control-monotherapy included, and one pair across
    two substudies; one whose smallest eigenvalue is under 1e-6 is shrunk
    toward the identity, to a smallest eigenvalue drawn from [2e-6, 0.5]."""
    arm_rho = _arm_correlation_matrix(*rng.uniform(-0.95, 0.95, size=(3, K)))
    if K > 1:
        u, v = 2 * rng.choice(K, 2, replace=False) + 1 + rng.integers(2, size=2)
        arm_rho[u, v] = arm_rho[v, u] = rng.uniform(-0.95, 0.95)
    lowest, eye = np.linalg.eigvalsh(arm_rho).min(), np.eye(2 * K + 1)
    if lowest < 1e-6:
        arm_rho = eye + (arm_rho - eye) * ((1.0 - rng.uniform(2e-6, 0.5)) / (1.0 - lowest))
    assert np.linalg.eigvalsh(arm_rho).min() >= 1e-6
    return rng.integers(1, 1001, size=2 * K + 1).astype(float), arm_rho


class TestZCorrelationsAgainstContrastCovariance:
    @pytest.mark.parametrize("K", range(1, 7))
    def test_every_entry_matches_the_contrast_covariance(self, rng, K):
        # the package's entrywise closed form against C V C^T normalized
        trials = [_random_trial(rng, K) for _ in range(300)]
        for sizes, arm_rho in trials:
            arms = PlatformArms(
                sizes[0], sizes[1::2], sizes[2::2], ArmCorrelations(K, matrix=arm_rho)
            )
            entries = platform_z_correlation_matrix(arms).entries
            assert np.abs(entries - z_correlation_oracle(sizes, arm_rho)).max() <= 4e-15
            assert np.array_equal(entries, entries.T)
            assert (np.diag(entries) == 1.0).all()
        # a stack of designs gives each what it gives alone, bit for bit
        sizes, arm_rho = map(np.array, zip(*trials))
        alone = [_z_correlations(n, r) for n, r in trials]
        assert np.array_equal(_z_correlations(sizes, arm_rho), alone)

    def test_one_contrast_without_variance_refuses_the_stack(self, rng):
        # combination arm and control correlate by 1 at equal counts: the
        # contrast's variance is 0, whatever the other designs of the stack
        sizes, arm_rho = map(np.array, zip(*(_random_trial(rng, 2) for _ in range(5))))
        arm_rho[3] = _arm_correlation_matrix([0.2, 1.0], [0.1, 0.0])
        sizes[3, 0] = sizes[3, 4]
        # without that design the stack passes
        _z_correlations(np.delete(sizes, 3, axis=0), np.delete(arm_rho, 3, axis=0))
        with pytest.raises(DomainError, match="contrast variance is not positive"):
            _z_correlations(sizes, arm_rho)


class TestPerSubstudy:
    @pytest.mark.parametrize("control_mono", [(), (0.2, -0.1, 0.3)])
    def test_matches_an_explicit_matrix(self, control_mono):
        # substudy k's mono arm is row 2k - 1, its combination arm row 2k
        combo_control, combo_mono = (0.3, 0.1, -0.2), (0.5, 0.4, 0.6)
        explicit = np.eye(7)
        for k in range(1, 4):
            explicit[2 * k, 0] = explicit[0, 2 * k] = combo_control[k - 1]
            explicit[2 * k, 2 * k - 1] = explicit[2 * k - 1, 2 * k] = combo_mono[k - 1]
            if control_mono:
                explicit[2 * k - 1, 0] = explicit[0, 2 * k - 1] = control_mono[k - 1]
        table = ArmCorrelations.per_substudy(combo_control, combo_mono, control_mono)
        assert np.array_equal(table.matrix, explicit)

    @pytest.mark.parametrize("lengths", [(2, 1, 0), (2, 2, 1), (0, 0, 0)])
    def test_one_value_per_substudy(self, lengths):
        with pytest.raises(DomainError):
            ArmCorrelations.per_substudy(*((0.1,) * n for n in lengths))

    @pytest.mark.parametrize("control_mono", [(), (0.2,)])
    def test_numbers_are_one_substudy_sequences(self, control_mono):
        numbers = ArmCorrelations.per_substudy(0.3, np.float64(-0.4), *control_mono)
        assert numbers == ArmCorrelations.per_substudy((0.3,), (-0.4,), control_mono)
        assert numbers.K == 1

    def test_a_number_beside_two_substudies_is_refused(self):
        with pytest.raises(DomainError, match="one correlation per substudy"):
            ArmCorrelations.per_substudy((0.3, 0.1), 0.4)


class TestPlatformArmsCounts:
    @pytest.mark.parametrize("n_mono, n_combo", [(90, 110), (np.float64(90), 110.0)])
    def test_numbers_are_one_substudy_sequences(self, n_mono, n_combo):
        correlations = ArmCorrelations.per_substudy(0.3, 0.4)
        numbers = PlatformArms(100, n_mono, n_combo, correlations)
        assert numbers == PlatformArms(100, (90,), (110,), correlations)
        assert numbers.n_mono == (90.0,) and numbers.n_combo == (110.0,)
        assert numbers.K == 1

    def test_a_number_beside_two_substudies_is_refused(self):
        with pytest.raises(DomainError, match="equal, positive length"):
            PlatformArms(100, 90, (110, 120), ArmCorrelations(2))


_RHO = st.floats(-1.0, 1.0)
# the smallest eigenvalue of this K=1 matrix is 0: a trial can just have it
_BOUNDARY = (1, (0.6,), (0.8,), (0.0,), None)


@st.composite
def _arm_correlation_inputs(draw):
    """K in 1-4; per substudy the combination-control, combination-mono and
    control-mono correlations; and, for K >= 2, one pair across substudies:
    the rows of substudy 1's mono or combination arm and of another
    substudy's, and their correlation."""
    K = draw(st.integers(1, 4))
    rho_cc, rho_cm, rho_am = (
        tuple(draw(st.lists(_RHO, min_size=K, max_size=K))) for _ in range(3)
    )
    cross = None
    if K >= 2:
        first = 2 - draw(st.sampled_from((1, 0)))
        second = 2 * draw(st.integers(2, K)) - draw(st.sampled_from((1, 0)))
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
            pairs[(2 * k, 0)] = rho_cc[k - 1]
            pairs[(2 * k, 2 * k - 1)] = rho_cm[k - 1]
            pairs[(2 * k - 1, 0)] = rho_am[k - 1]
        if cross is not None:
            pairs[cross[0]] = cross[1]
        matrix = np.eye(2 * K + 1)
        for (i, j), rho in pairs.items():
            matrix[i, j] = matrix[j, i] = rho
        infeasible = np.linalg.eigvalsh(matrix).min() < -1e-12
        try:
            table = ArmCorrelations(K, matrix=matrix)
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
