"""Error metrics, conventional adjustments, and threshold solvers."""

import math

import numpy as np
import pytest
from conftest import mc_error_rates, mvn_draws
from scipy.optimize import brentq

from platformdesign import multiplicity
from platformdesign.correlation import (
    ArmCorrelations,
    PlatformArms,
    combo_arm,
    mono_arm,
    platform_z_correlation_matrix,
)
from platformdesign.errors import DomainError, RootBracketError
from platformdesign.multiplicity import (
    ErrorMetric,
    bivariate_error_rates,
    bonferroni_threshold,
    classical_dunnett_threshold,
    holm_reject,
    platform_threshold,
)
from platformdesign.mvnorm import CorrelationMatrix, QmcLattice, std_normal_cdf

def _se(rate: float, count: int) -> float:
    """Binomial standard error of a simulated rate."""
    return math.sqrt(rate * (1.0 - rate) / count)


SIDAK_C = 2.2364766445577895  # quantile of (1 + sqrt(0.95))/2
Z_975 = 1.959963984540054
DUNNETT_HALF_C = 2.2121277465786164  # brentq on the quadrature oracle, rho* = 0.5


class TestErrorMetric:
    def test_constructors(self):
        assert ErrorMetric.fwer().alpha == 0.05
        assert ErrorMetric.fmer().alpha == 0.0025
        assert ErrorMetric.msfp().alpha == 0.000625
        assert ErrorMetric.mfwer(2, 0.05).m == 2

    def test_effective_sidedness(self):
        assert ErrorMetric.fwer().effective_sided == "two"
        assert ErrorMetric.msfp().effective_sided == "one"
        assert ErrorMetric.mfwer(2, 0.05).effective_sided == "two"
        assert ErrorMetric.mfwer(2, 0.05, sided="one").effective_sided == "one"

    def test_exceedance_counts(self):
        assert ErrorMetric.fwer().exceedance_count == 1
        assert ErrorMetric.fmer().exceedance_count == 2
        assert ErrorMetric.msfp().exceedance_count == 2
        assert ErrorMetric.mfwer(3, 0.05).exceedance_count == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            ErrorMetric("fdr", 0.05)
        with pytest.raises(DomainError):
            ErrorMetric("fwer", 0.0)
        with pytest.raises(DomainError):
            ErrorMetric("fwer", 1.0)
        with pytest.raises(DomainError):
            ErrorMetric("fwer", 0.05, m=2)
        with pytest.raises(DomainError):
            ErrorMetric("mfwer", 0.05, m=0)
        with pytest.raises(DomainError):
            ErrorMetric("msfp", 0.05, sided="two")
        with pytest.raises(DomainError):
            ErrorMetric("fwer", 0.05, sided="one")


class TestConventional:
    @pytest.mark.parametrize(
        "num_tests, alpha, expected", [(2, 0.05, 0.025), (1, 0.05, 0.05), (4, 0.05, 0.0125)]
    )
    def test_bonferroni(self, num_tests, alpha, expected):
        assert bonferroni_threshold(num_tests, alpha) == pytest.approx(expected, abs=1e-15)

    def test_bonferroni_validation(self):
        with pytest.raises(DomainError):
            bonferroni_threshold(0, 0.05)
        with pytest.raises(DomainError):
            bonferroni_threshold(2, 0.0)

    def test_holm_both_rejected(self):
        assert holm_reject([0.01, 0.04], 0.05) == [True, True]

    def test_holm_stops_at_first_failure(self):
        assert holm_reject([0.03, 0.60], 0.05) == [False, False]

    def test_holm_zero_p_always_rejected(self):
        assert holm_reject([0.0, 0.9], 0.05) == [True, False]
        assert holm_reject([0.0], 0.05) == [True]

    def test_holm_maps_back_to_input_order(self):
        assert holm_reject([0.04, 0.01], 0.05) == [True, True]
        assert holm_reject([0.60, 0.03], 0.05) == [False, False]
        assert holm_reject([0.30, 0.01, 0.02], 0.05) == [False, True, True]

    def test_holm_validation(self):
        with pytest.raises(DomainError):
            holm_reject([0.5, 1.2], 0.05)
        with pytest.raises(DomainError):
            holm_reject([0.5], 0.0)


def _bivariate_oracle_c(rho, metric):
    """brentq on adaptive-quadrature error rates of two statistics: at least
    ``metric.exceedance_count`` exceed c, by inclusion-exclusion where
    two-sided."""
    from conftest import rect_quad_oracle

    inf = math.inf

    def level(c):
        if metric.effective_sided == "one":
            if metric.exceedance_count == 1:
                return 1.0 - rect_quad_oracle((-inf, -inf), (c, c), rho)
            return rect_quad_oracle((c, c), (inf, inf), rho)
        inside = rect_quad_oracle((-c, -c), (c, c), rho)
        if metric.exceedance_count == 1:
            return 1.0 - inside
        return 1.0 - 2.0 * (2.0 * std_normal_cdf(c) - 1.0) + inside

    return brentq(lambda c: level(c) - metric.alpha, 0.01, 6.0, xtol=1e-13)


class TestGeneralizedDunnett:
    def test_fwer_independent_matches_sidak(self):
        result = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.fwer(0.05))
        assert result.critical_value == pytest.approx(SIDAK_C, abs=1e-3)
        assert result.p_threshold == pytest.approx(2 * (1 - std_normal_cdf(SIDAK_C)), abs=1e-5)

    def test_fwer_degenerate_correlation(self):
        result = platform_threshold(CorrelationMatrix.bivariate(1.0), ErrorMetric.fwer(0.05))
        assert result.critical_value == pytest.approx(Z_975, abs=1e-3)

    def test_fmer_independent_baseline(self):
        # (2(1 - Phi(c)))^2 = 0.0025 at the conventional two-sided cut
        result = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.fmer(0.0025))
        assert result.critical_value == pytest.approx(Z_975, abs=1e-3)

    def test_msfp_independent_baseline(self):
        # (1 - Phi(c))^2 = 0.000625 at the same cut
        result = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.msfp(0.000625))
        assert result.critical_value == pytest.approx(Z_975, abs=1e-3)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.461, 0.7, 0.95])
    @pytest.mark.parametrize(
        "metric",
        [ErrorMetric.fwer(0.05), ErrorMetric.fmer(0.0025), ErrorMetric.msfp(0.000625)],
    )
    def test_round_trip_on_grid(self, rho, metric):
        result = platform_threshold(CorrelationMatrix.bivariate(rho), metric)
        assert result.achieved == pytest.approx(metric.alpha, abs=1e-6)
        assert 0.0 < result.p_threshold < 1.0

    @pytest.mark.parametrize("kind", ["fwer", "fmer", "msfp"])
    def test_monotone_in_alpha(self, kind):
        levels = {"fwer": (0.01, 0.05, 0.1), "fmer": (0.001, 0.0025, 0.01), "msfp": (0.0002, 0.000625, 0.002)}
        c_values = [
            platform_threshold(CorrelationMatrix.bivariate(0.4), ErrorMetric(kind, a)).critical_value
            for a in levels[kind]
        ]
        assert c_values[0] > c_values[1] > c_values[2]

    def test_empirical_level_at_threshold(self):
        rho = 0.461
        result = platform_threshold(CorrelationMatrix.bivariate(rho), ErrorMetric.fwer(0.05))
        rates = mc_error_rates(
            CorrelationMatrix.bivariate(rho), result.critical_value, 100_000, seed=17
        )
        assert rates["fwer"] == pytest.approx(0.05, abs=3 * _se(rates["fwer"], 100_000) + 1e-6)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.3, 0.461, 0.9])
    @pytest.mark.parametrize(
        "named, mfwer",
        [
            (ErrorMetric.fwer(0.05), ErrorMetric.mfwer(1, 0.05, "two")),
            (ErrorMetric.fmer(0.0025), ErrorMetric.mfwer(2, 0.0025, "two")),
            (ErrorMetric.msfp(0.000625), ErrorMetric.mfwer(2, 0.000625, "one")),
        ],
    )
    def test_mfwer_is_exact_at_two_statistics(self, rho, named, mfwer):
        corr = CorrelationMatrix.bivariate(rho)
        expected = platform_threshold(corr, named)
        result = platform_threshold(corr, mfwer)
        assert result.critical_value == expected.critical_value
        assert result.achieved == expected.achieved
        assert result.achieved_stderr == 0.0
        oracle_c = _bivariate_oracle_c(rho, mfwer)
        assert result.critical_value == pytest.approx(oracle_c, abs=1e-8)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.461, 0.9])
    def test_one_sided_any_exceedance_at_two_statistics(self, rho):
        metric = ErrorMetric.mfwer(1, 0.05, "one")
        result = platform_threshold(CorrelationMatrix.bivariate(rho), metric)
        assert result.achieved_stderr == 0.0
        assert result.critical_value == pytest.approx(_bivariate_oracle_c(rho, metric), abs=1e-8)

    def test_rho_validation(self):
        with pytest.raises(DomainError):
            platform_threshold(CorrelationMatrix.bivariate(1.2), ErrorMetric.fwer(0.05))

    def test_unreachable_msfp_level(self):
        # P(Z1 > c, Z2 > c) at rho=0 is at most 0.25, reached at c = 0
        with pytest.raises(RootBracketError):
            platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric("msfp", 0.4))


class TestClassicalDunnett:
    def test_equal_allocation_against_quadrature_oracle(self):
        arms = PlatformArms.single(90, 90, 90)
        result = classical_dunnett_threshold(arms, 0.05)
        assert result.critical_value == pytest.approx(DUNNETT_HALF_C, abs=1e-4)

    def test_oracle_recomputation(self):
        # independent route: brentq on the adaptive-quadrature rectangle
        from conftest import rect_quad_oracle

        c = brentq(
            lambda x: rect_quad_oracle((-x, -x), (x, x), 0.5) - 0.95, 1.5, 3.0, xtol=1e-10
        )
        assert c == pytest.approx(DUNNETT_HALF_C, abs=1e-9)

    def test_small_comparator_correlation_approaches_sidak(self):
        arms = PlatformArms.single(1, 1, 1e8)  # rho* -> 1/(n_ab terms) ~ 0... stays tiny
        arms = PlatformArms.single(1e8, 1e8, 1)
        result = classical_dunnett_threshold(arms, 0.05)
        assert result.critical_value == pytest.approx(SIDAK_C, abs=1e-3)

    def test_perfect_comparator_correlation_single_test(self):
        arms = PlatformArms.single(1, 1, 1e12)
        result = classical_dunnett_threshold(arms, 0.05)
        assert result.critical_value == pytest.approx(Z_975, abs=1e-3)


class TestPlatformThreshold:
    def test_k1_matches_exact_solver(self):
        # two statistics take the exact bivariate route whatever the QMC knobs
        rho = 0.45
        result = platform_threshold(
            CorrelationMatrix.bivariate(rho), ErrorMetric.fwer(0.05), precision=5e-5, seed=2
        )
        tolerance = 3 * max(result.achieved_stderr, 1e-5)
        assert abs(result.achieved - 0.05) <= max(1e-4, tolerance)
        assert result.achieved_stderr == 0.0
        oracle_c = _bivariate_oracle_c(rho, ErrorMetric.fwer(0.05))
        assert result.critical_value == pytest.approx(oracle_c, abs=5e-3)

    def test_k2_independent_statistics_sidak(self):
        # Phi^-1((1 + 0.95^(1/4))/2); four independent two-sided tests
        result = platform_threshold(
            CorrelationMatrix.identity(4), ErrorMetric.fwer(0.05), precision=5e-5, seed=3
        )
        assert result.critical_value == pytest.approx(2.4909151310191397, abs=5e-3)

    def test_mfwer_m2_against_brute_force_oracle(self):
        # independent oracle: one-million-draw direct count, separate seed path
        corr = CorrelationMatrix.identity(4)
        metric = ErrorMetric.mfwer(2, 0.05)
        result = platform_threshold(corr, metric, seed=5, replications=400_000)
        draws = np.random.default_rng(987654).standard_normal((1_000_000, 4))
        oracle_level = float(np.mean((np.abs(draws) > result.critical_value).sum(axis=1) >= 2))
        se = math.sqrt(oracle_level * (1 - oracle_level) / 1_000_000)
        assert abs(oracle_level - 0.05) <= 3 * (se + result.achieved_stderr)
        # exact binomial solution for four independent two-sided tests
        assert result.critical_value == pytest.approx(1.6565451830949594, abs=5e-3)

    def test_structured_k2_matrix_against_brute_force(self):
        # shared-control platform with one cross-substudy correlation entry
        from platformdesign.correlation import (
            ArmCorrelations,
            PlatformArms,
            combo_arm,
            mono_arm,
            platform_z_correlation_matrix,
        )

        table = ArmCorrelations(
            2,
            {
                (combo_arm(1), ("A", 0)): 0.3,
                (combo_arm(1), mono_arm(1)): 0.5,
                (combo_arm(2), ("A", 0)): 0.2,
                (combo_arm(2), mono_arm(2)): 0.4,
                (combo_arm(1), mono_arm(2)): 0.25,
            },
        )
        z_corr = platform_z_correlation_matrix(
            PlatformArms(150, (80, 120), (70, 90), table)
        )
        result = platform_threshold(z_corr, ErrorMetric.fwer(0.05), precision=5e-5, seed=6)
        draws = np.random.default_rng(555).standard_normal((1_000_000, 4)) @ z_corr.factor.T
        oracle = float((np.abs(draws) > result.critical_value).any(axis=1).mean())
        se = math.sqrt(oracle * (1 - oracle) / 1_000_000)
        assert abs(oracle - 0.05) <= 3 * se + 3 * result.achieved_stderr

    @pytest.mark.parametrize("m", [3, 4])
    def test_mfwer_higher_counts(self, m):
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        result = platform_threshold(corr, ErrorMetric.mfwer(m, 0.05), seed=8)
        draws = np.random.default_rng(444).standard_normal((1_000_000, 4)) @ corr.factor.T
        oracle = float(((np.abs(draws) > result.critical_value).sum(axis=1) >= m).mean())
        se = math.sqrt(oracle * (1 - oracle) / 1_000_000)
        assert abs(oracle - 0.05) <= 3 * (se + result.achieved_stderr)

    def test_mfwer_m1_equals_fwer(self):
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        fwer = platform_threshold(corr, ErrorMetric.fwer(0.05), precision=5e-5, seed=7)
        m1 = platform_threshold(corr, ErrorMetric.mfwer(1, 0.05), precision=5e-5, seed=7)
        assert m1.critical_value == pytest.approx(fwer.critical_value, abs=1e-9)

    def test_one_sided_cut_is_smaller(self):
        corr = CorrelationMatrix(np.eye(4) * 0.7 + np.full((4, 4), 0.3))
        two = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05), seed=11)
        one = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05, sided="one"), seed=11)
        assert one.critical_value < two.critical_value

    def test_m_range_validation(self):
        with pytest.raises(DomainError):
            platform_threshold(CorrelationMatrix.identity(4), ErrorMetric.mfwer(5, 0.05))

    @pytest.mark.parametrize("precision", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("K", [1, 2])
    def test_precision_validation(self, K, precision):
        # rejected before any work, at every K
        for metric in (ErrorMetric.fwer(0.05), ErrorMetric.mfwer(2, 0.05)):
            with pytest.raises(DomainError, match="precision"):
                platform_threshold(_platform_z_corr(K), metric, precision=precision)

    @pytest.mark.parametrize("K", [1, 2])
    def test_replications_validation(self, K):
        with pytest.raises(DomainError, match="replications"):
            platform_threshold(_platform_z_corr(K), ErrorMetric.mfwer(2, 0.05), replications=0)

    def test_pool_critical_values_are_pinned(self):
        # the null pool is one seeded stream times the Cholesky factor; any
        # change to those draws moves these values
        corr = _platform_z_corr(2)
        two = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05))
        one = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05, sided="one"), seed=5)
        assert two.critical_value == 1.8374237395525936
        assert one.critical_value == 1.5626859175419432

    def test_monotone_in_alpha(self):
        corr = CorrelationMatrix(np.eye(4) * 0.6 + np.full((4, 4), 0.4))
        c_tight = platform_threshold(corr, ErrorMetric.mfwer(2, 0.01), seed=1).critical_value
        c_loose = platform_threshold(corr, ErrorMetric.mfwer(2, 0.10), seed=1).critical_value
        assert c_tight > c_loose


def _platform_z_corr(K):
    """Z correlation of a K-substudy platform with unequal arms."""
    pairs = {}
    for k in range(1, K + 1):
        pairs[(combo_arm(k), ("A", 0))] = 0.3
        pairs[(combo_arm(k), mono_arm(k))] = 0.5
    n_mono = tuple(60.0 + 10 * k for k in range(K))
    n_combo = tuple(90.0 - 5 * k for k in range(K))
    return platform_z_correlation_matrix(
        PlatformArms(150.0, n_mono, n_combo, ArmCorrelations(K, pairs))
    )


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestThresholdSolver:
    """One bracketed root search per solve, on a deterministic level."""

    def test_fixed_lattice_level_is_deterministic_and_monotone(self):
        z_corr = _platform_z_corr(2)
        lattice = QmcLattice(z_corr, seed=0)
        grid = np.linspace(1.8, 3.2, 15)
        levels = [1.0 - lattice.estimate(np.full(4, -c), np.full(4, c)).value for c in grid]
        again = [1.0 - lattice.estimate(np.full(4, -c), np.full(4, c)).value for c in grid]
        assert levels == again
        assert all(b <= a for a, b in zip(levels, levels[1:]))

    @pytest.mark.parametrize("precision", [1e-4, 2e-5])
    def test_stderr_at_the_root_meets_precision(self, precision):
        z_corr = _platform_z_corr(2)
        result = platform_threshold(z_corr, ErrorMetric.fwer(0.05), precision=precision)
        assert 0.0 < result.achieved_stderr <= precision
        assert result.achieved == pytest.approx(0.05, abs=1e-8)

    def test_k2_level_against_scipy_mvn_cdf(self):
        from scipy.stats import multivariate_normal

        z_corr = _platform_z_corr(2)
        result = platform_threshold(z_corr, ErrorMetric.fwer(0.05))
        c = result.critical_value
        inside = multivariate_normal.cdf(
            np.full(4, c), np.zeros(4), z_corr.entries, lower_limit=np.full(4, -c),
            abseps=1e-6, releps=0.0,
        )
        assert abs((1.0 - inside) - 0.05) <= 5 * result.achieved_stderr + 1e-6

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_lattice_evaluations_per_solve(self, monkeypatch, K):
        builds = _counting(monkeypatch, QmcLattice, "__init__")
        calls = _counting(monkeypatch, QmcLattice, "estimate")
        result = platform_threshold(_platform_z_corr(K), ErrorMetric.fwer(0.05))
        assert len(builds) == 1
        assert 0 < len(calls) <= 16
        assert result.achieved_stderr <= 1e-4

    def test_pool_root_is_the_smallest_c_at_level(self):
        corr = _platform_z_corr(2)
        result = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05), seed=3, replications=20_000)
        stat = multiplicity._tail_count_statistic(corr, 2, "two", 20_000, 3)
        # 1000 of 20 000 draws above c*, and c* itself one of the draws
        assert np.count_nonzero(stat > result.critical_value) == 1000
        assert np.count_nonzero(stat >= result.critical_value) == 1001
        assert result.achieved == 0.05

    @pytest.mark.parametrize("rho", np.linspace(-0.95, 0.99, 14).round(4).tolist())
    @pytest.mark.parametrize(
        "metric",
        [ErrorMetric.fwer(0.05), ErrorMetric.fmer(0.0025), ErrorMetric.msfp(0.000625)],
        ids=lambda m: m.kind,
    )
    def test_k1_solve_matches_brentq_in_few_evaluations(self, monkeypatch, rho, metric):
        evaluations = []
        make_level = multiplicity._bivariate_exceedance

        def counted_level(*args):
            level = make_level(*args)
            return lambda c: evaluations.append(c) or level(c)

        monkeypatch.setattr(multiplicity, "_bivariate_exceedance", counted_level)
        result = platform_threshold(CorrelationMatrix.bivariate(rho), metric)
        assert len(evaluations) <= 16
        oracle = brentq(
            lambda c: bivariate_error_rates(rho, c)[metric.kind] - metric.alpha,
            1e-6, 6.0, xtol=1e-14,
        )
        assert result.critical_value == pytest.approx(oracle, abs=1e-9)
        assert result.achieved == pytest.approx(metric.alpha, abs=1e-12)


class TestEmpiricalErrorRates:
    def test_independent_trial_baselines(self):
        rates = mc_error_rates(CorrelationMatrix.bivariate(0.0), Z_975, 100_000, seed=1)
        assert rates["fwer"] == pytest.approx(0.0975, abs=0.003)
        assert rates["fmer"] == pytest.approx(0.0025, abs=0.0006)
        assert rates["msfp"] == pytest.approx(0.000625, abs=0.0003)

    def test_degenerate_correlation(self):
        rates = mc_error_rates(CorrelationMatrix.bivariate(1.0), Z_975, 100_000, seed=2)
        assert rates["fwer"] == pytest.approx(0.05, abs=0.003)
        assert rates["fmer"] == pytest.approx(0.05, abs=0.003)
        assert rates["msfp"] == pytest.approx(0.025, abs=0.002)

    def test_msfp_fmer_relation(self):
        # central symmetry: the four joint-exceedance quadrants are equal at
        # rho = 0 (msfp = fmer/4, matching the 0.000625 = 0.0025/4 baselines)
        # and collapse onto the diagonal at rho = 1 (msfp = fmer/2); between
        # those, msfp never exceeds fmer/2
        at_zero = mc_error_rates(CorrelationMatrix.bivariate(0.0), 1.0, 400_000, seed=3)
        se = _se(at_zero["fmer"], 400_000)
        assert at_zero["msfp"] == pytest.approx(at_zero["fmer"] / 4, abs=3 * se)
        at_one = mc_error_rates(CorrelationMatrix.bivariate(1.0), 1.0, 400_000, seed=3)
        se = _se(at_one["fmer"], 400_000)
        assert at_one["msfp"] == pytest.approx(at_one["fmer"] / 2, abs=3 * se)
        for rho in (0.3, 0.6, 0.9):
            rates = mc_error_rates(CorrelationMatrix.bivariate(rho), 1.0, 200_000, seed=4)
            assert rates["msfp"] <= rates["fmer"] / 2 + 3 * _se(rates["fmer"], 200_000)

    def test_conventional_conservatism_across_rho_grid(self):
        # Bonferroni and Holm keep the family-wise rate under the target
        from scipy.special import ndtr, ndtri

        cut = float(ndtri(1 - 0.05 / 4))
        se = math.sqrt(0.05 * 0.95 / 100_000)
        for rho in (0.05, 0.3, 0.6, 0.95):
            draws = mvn_draws(CorrelationMatrix.bivariate(rho).factor, 100_000, seed=13)
            bonf_fwer = float((np.abs(draws) > cut).any(axis=1).mean())
            p = 2 * (1 - ndtr(np.abs(draws)))
            holm_fwer = float((np.sort(p, axis=1)[:, 0] <= 0.025).mean())
            assert bonf_fwer <= 0.05 + 3 * se
            assert holm_fwer <= 0.05 + 3 * se
