"""Monte Carlo power, the closed-form marginal oracle, and the N* search."""

import math

import numpy as np
import pytest

from platformdesign.allocation import Allocation, DesignScenario, optimize_allocation, wald_noncentrality
from platformdesign.errors import BudgetExceeded, DomainError
from platformdesign.multiplicity import ErrorMetric, ThresholdResult, platform_threshold
from platformdesign.mvnorm import CorrelationMatrix, std_normal_cdf
from platformdesign.power import (
    PowerRequest,
    find_sample_size,
    marginal_power_oracle,
    mc_power,
    mc_power_summary,
    _search_minimal_n,
)

FWER_THRESHOLD = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.fwer(0.05))


def _threshold_at(c: float) -> ThresholdResult:
    return ThresholdResult(
        critical_value=c,
        p_threshold=2 * (1 - std_normal_cdf(c)),
        metric=ErrorMetric.fwer(0.05),
        z_correlation=CorrelationMatrix.bivariate(0.0),
        achieved=0.05,
    )


class TestMarginalOracle:
    def test_null_level(self):
        assert marginal_power_oracle(0.0, 1.96) == pytest.approx(0.05, abs=1e-4)

    def test_known_value(self):
        assert marginal_power_oracle(4.5, 2.2365) == pytest.approx(
            0.45415792978650454, abs=1e-12
        )

    def test_limit(self):
        assert marginal_power_oracle(1e4, 1.96) == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            marginal_power_oracle(-0.1, 1.96)
        with pytest.raises(DomainError):
            marginal_power_oracle(1.0, 0.0)


class TestMcPower:
    def test_matches_oracle_equal_thirds(self):
        scenario = DesignScenario.single(0.3, 1.0)
        request = PowerRequest(
            scenario, Allocation.equal(1), FWER_THRESHOLD, N=300, n_sim=100_000, seed=11
        )
        oracle = marginal_power_oracle(4.5, FWER_THRESHOLD.critical_value)
        assert mc_power(request) == pytest.approx(oracle, abs=0.005)

    def test_near_null_scenario_calibrates(self):
        scenario = DesignScenario.single(1e-9, 1.0)
        request = PowerRequest(
            scenario, Allocation.equal(1), FWER_THRESHOLD, N=300, n_sim=100_000, seed=4
        )
        summary = mc_power_summary(request)
        # each comparison rejects at about the marginal level of the cut
        marginal = 2 * (1 - std_normal_cdf(FWER_THRESHOLD.critical_value))
        se = math.sqrt(marginal * (1 - marginal) / 100_000)
        for rate in summary.per_comparison:
            assert rate == pytest.approx(marginal, abs=4 * se)
        assert summary.minimum <= 0.05

    def test_oracle_agreement_random_scenarios(self, rng):
        for _ in range(8):
            scenario = DesignScenario.single(
                float(rng.uniform(0.2, 0.6)),
                float(rng.uniform(0.8, 1.5)),
                rho_ab_a=float(rng.uniform(0.0, 0.6)),
                rho_ab_b=float(rng.uniform(0.0, 0.6)),
            )
            theta = rng.standard_normal(3) * 0.3
            alloc = Allocation(tuple(np.exp(theta) / np.exp(theta).sum()))
            n = int(rng.integers(100, 500))
            request = PowerRequest(scenario, alloc, FWER_THRESHOLD, N=n, n_sim=100_000, seed=7)
            w = wald_noncentrality(scenario, alloc, n)
            oracle = min(
                marginal_power_oracle(float(w[0, 0]), FWER_THRESHOLD.critical_value),
                marginal_power_oracle(float(w[0, 1]), FWER_THRESHOLD.critical_value),
            )
            assert mc_power(request) == pytest.approx(oracle, abs=0.01)

    def test_monotone_in_n(self, rng):
        for _ in range(10):
            scenario = DesignScenario.single(
                float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.8, 1.3))
            )
            n = int(rng.integers(50, 300))
            low = mc_power(PowerRequest(scenario, Allocation.equal(1), FWER_THRESHOLD, N=n, seed=3))
            high = mc_power(PowerRequest(scenario, Allocation.equal(1), FWER_THRESHOLD, N=2 * n, seed=3))
            assert high > low

    def test_reject_all_diagnostic(self):
        scenario = DesignScenario.single(0.5, 1.0)
        summary = mc_power_summary(
            PowerRequest(scenario, Allocation.equal(1), FWER_THRESHOLD, N=400, seed=5)
        )
        assert 0.0 <= summary.reject_all <= summary.minimum

    def test_k2_min_over_four_comparisons(self):
        scenario = DesignScenario(
            delta=(0.3, 0.45), synergy=(1.1, 0.9),
            rho_combo_control=(0.2, 0.3), rho_combo_mono=(0.3, 0.2),
        )
        summary = mc_power_summary(
            PowerRequest(scenario, Allocation.equal(2), FWER_THRESHOLD, N=400, seed=6)
        )
        assert len(summary.per_comparison) == 4
        assert summary.minimum == min(summary.per_comparison)

    def test_request_validation(self):
        scenario = DesignScenario.single(0.3, 1.0)
        with pytest.raises(DomainError):
            PowerRequest(scenario, Allocation.equal(1), FWER_THRESHOLD, N=300, n_sim=10)
        with pytest.raises(DomainError):
            PowerRequest(scenario, Allocation.equal(1), FWER_THRESHOLD, N=2)


class TestSearchCore:
    def test_exact_minimum_on_deterministic_surrogates(self, rng):
        # the independent oracle is the surrogate power curve; compare the
        # search result with a direct scan for the true minimal N
        for _ in range(100):
            w_unit = float(rng.uniform(0.005, 0.2))
            c = float(rng.uniform(1.9, 2.6))
            target = float(rng.uniform(0.5, 0.95))

            def power_at(n: int) -> float:
                return marginal_power_oracle(w_unit * n, c)

            found = _search_minimal_n(power_at, target, n0=20, floor=3, cap=10**6)
            truth = next(n for n in range(3, 10**6) if power_at(n) >= target)
            assert found == truth

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            _search_minimal_n(lambda n: 0.1, 0.9, n0=20, floor=3, cap=10_000)


class TestFindSampleSize:
    def test_reproduces_moderate_synergy_row(self):
        scenario = DesignScenario.single(0.663, 1.161, rho_ab_a=0.626, rho_ab_b=0.660)
        alloc = optimize_allocation(scenario)
        threshold = platform_threshold(
            CorrelationMatrix.bivariate(0.4601786197092176), ErrorMetric.fwer(0.05)
        )
        result = find_sample_size(scenario, alloc, threshold, 0.80, N0=20, n_sim=10_000, seed=5)
        assert abs(result.n_star - 97) <= 10  # published value 97, +-10%

    def test_trace_and_counts_consistent(self):
        scenario = DesignScenario.single(0.4, 1.2, rho_ab_a=0.3)
        alloc = optimize_allocation(scenario)
        result = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=2)
        assert sum(result.arm_counts) == result.n_star
        assert min(result.arm_counts) >= 1
        probed = dict(result.search_trace)
        assert probed[result.n_star] >= 0.8
        if result.n_star - 1 in probed:
            assert probed[result.n_star - 1] < 0.8

    def test_sufficient_initial_n(self):
        scenario = DesignScenario.single(2.0, 1.0)
        result = find_sample_size(scenario, Allocation.equal(1), FWER_THRESHOLD, 0.8, N0=64, seed=1)
        assert result.n_star <= 64
        doublings = [n for n, _ in result.search_trace if n > 64]
        assert not doublings

    def test_reproducible(self):
        scenario = DesignScenario.single(0.35, 1.1, rho_ab_a=0.2, rho_ab_b=0.4)
        alloc = optimize_allocation(scenario)
        a = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=42)
        b = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=42)
        assert a == b

    def test_sample_size_nonincreasing_in_synergy(self):
        n_values = []
        for s in (0.7, 1.0, 1.3):
            scenario = DesignScenario.single(0.3, s, rho_ab_a=0.3, rho_ab_b=0.3)
            alloc = optimize_allocation(scenario)
            threshold = platform_threshold(CorrelationMatrix.bivariate(0.4), ErrorMetric.fwer(0.05))
            n_values.append(
                find_sample_size(scenario, alloc, threshold, 0.8, seed=3).n_star
            )
        assert n_values[0] >= n_values[1] >= n_values[2]

    def test_two_substudy_search(self):
        scenario = DesignScenario(
            delta=(0.35, 0.5), synergy=(1.2, 0.9),
            rho_combo_control=(0.2, 0.4), rho_combo_mono=(0.3, 0.1),
        )
        alloc = optimize_allocation(scenario)
        from platformdesign.correlation import (
            ArmCorrelations, PlatformArms, platform_z_correlation_matrix,
        )

        counts = [1000 * r for r in alloc.ratios]
        arms = PlatformArms(
            counts[0], tuple(counts[1::2]), tuple(counts[2::2]),
            ArmCorrelations.from_scenario(scenario),
        )
        threshold = platform_threshold(
            platform_z_correlation_matrix(arms), ErrorMetric.fwer(0.05), seed=3
        )
        result = find_sample_size(scenario, alloc, threshold, 0.8, seed=3)
        assert len(result.arm_counts) == 5
        assert sum(result.arm_counts) == result.n_star
        probed = dict(result.search_trace)
        assert probed[result.n_star] >= 0.8

    def test_budget_cap(self):
        scenario = DesignScenario.single(0.01, 1.0)
        with pytest.raises(BudgetExceeded):
            find_sample_size(
                scenario, Allocation.equal(1), FWER_THRESHOLD, 0.99, n_cap=5_000, seed=1
            )

    def test_validation(self):
        scenario = DesignScenario.single(0.3, 1.0)
        with pytest.raises(DomainError):
            find_sample_size(scenario, Allocation.equal(1), FWER_THRESHOLD, 1.0)
        with pytest.raises(DomainError):
            find_sample_size(scenario, Allocation.equal(1), FWER_THRESHOLD, 0.8, N0=2)
