"""Exact power and the N* search, checked against simulated trials and the
closed-form marginal oracle."""

import math

import numpy as np
import pytest
from conftest import (
    integer_design_power,
    mc_comparison_power,
    n_star_enumeration_oracle,
    package_design_power,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platformdesign.allocation import Allocation, DesignScenario, optimize_allocation, wald_noncentrality
from platformdesign.errors import BudgetExceeded, DomainError
from platformdesign.multiplicity import ErrorMetric, ThresholdResult, platform_threshold
from platformdesign.mvnorm import CorrelationMatrix, std_normal_cdf
from platformdesign.power import (
    _noncentrality_floor,
    _scan_totals,
    find_sample_size,
    marginal_power_oracle,
)

FWER_THRESHOLD = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.fwer(0.05))


# delta 0.3, synergy 1, no arm correlations, as the strategy below draws it
_PLAIN_SUBSTUDY = (0.3, 1.0, 1.0, 0.0, 1.0, 0.0)


def _scenario(substudies) -> DesignScenario:
    """A scenario from (delta, |synergy|, sign of synergy, share of the
    combination-control budget, sign of rho combination-control, rho
    combination-monotherapy) per substudy."""
    delta, magnitude, sign, share, rho_sign, rho_cm = zip(*substudies)
    K = len(delta)
    # the arm correlation matrix is positive definite iff
    # sum_k rho_cc_k^2 / (1 - rho_cm_k^2) < 1
    rho_cc = tuple(
        g * math.sqrt(0.95 * f * (1.0 - r * r) / K)
        for f, g, r in zip(share, rho_sign, rho_cm)
    )
    return DesignScenario(
        delta, tuple(m * g for m, g in zip(magnitude, sign)), 1.0, rho_cc, rho_cm
    )


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
        power = mc_comparison_power(
            scenario, [100.0, 100.0, 100.0], FWER_THRESHOLD.critical_value, 100_000, seed=11
        )
        oracle = marginal_power_oracle(4.5, FWER_THRESHOLD.critical_value)
        assert power.min() == pytest.approx(oracle, abs=0.005)

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
            power = mc_comparison_power(
                scenario, np.asarray(alloc.ratios) * n, FWER_THRESHOLD.critical_value,
                100_000, seed=7,
            )
            w = wald_noncentrality(scenario, alloc, n)
            oracle = min(
                marginal_power_oracle(float(w[0, 0]), FWER_THRESHOLD.critical_value),
                marginal_power_oracle(float(w[0, 1]), FWER_THRESHOLD.critical_value),
            )
            assert power.min() == pytest.approx(oracle, abs=0.01)

    def test_k2_integer_design_power(self):
        # the exact power of a K=2 integer design is the smallest of its four
        # simulated per-comparison rejection rates
        scenario = DesignScenario(
            delta=(0.3, 0.45), synergy=(1.1, 0.9),
            rho_combo_control=(0.2, 0.3), rho_combo_mono=(0.3, 0.2),
        )
        counts = Allocation.equal(2).arm_counts(400)
        c = FWER_THRESHOLD.critical_value
        power = mc_comparison_power(scenario, counts, c, 100_000, seed=6)
        assert power.shape == (4,)
        exact = integer_design_power(scenario, counts, c)
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert power.min() == pytest.approx(exact, abs=4 * se)


class TestNoncentralityFloor:
    @pytest.mark.filterwarnings("error")
    def test_floor_lies_just_under_the_target(self):
        c = np.linspace(0.1, 6.0, 60)
        for target in np.linspace(0.01, 0.999, 40):
            floor = _noncentrality_floor(c, target)
            # nothing to solve where W = 0 already reaches the target
            solved = target > 2.0 * std_normal_cdf(-c)
            assert (floor[~solved] == 0.0).all()
            assert (floor[solved] > 0.0).all()
            c_solved, floor_solved = c[solved], floor[solved]
            assert (marginal_power_oracle(floor_solved, c_solved) < target).all()
            w_star = floor_solved / (1.0 - 1e-6)
            assert marginal_power_oracle(w_star, c_solved) == pytest.approx(target, abs=1e-12)

    def test_infinite_critical_value_leaves_every_total_a_candidate(self):
        assert _noncentrality_floor([np.inf, 2.0], 0.8)[0] == 0.0

    def test_validation(self):
        with pytest.raises(DomainError, match="critical value must be positive"):
            _noncentrality_floor([2.0, 0.0], 0.8)
        with pytest.raises(DomainError, match="target power"):
            _noncentrality_floor([2.0], 1.0)


class TestFindSampleSize:
    def test_reproduces_moderate_synergy_row(self):
        scenario = DesignScenario.single(0.663, 1.161, rho_ab_a=0.626, rho_ab_b=0.660)
        alloc = optimize_allocation(scenario)
        threshold = platform_threshold(
            CorrelationMatrix.bivariate(0.4601786197092176), ErrorMetric.fwer(0.05)
        )
        c = threshold.critical_value
        result = find_sample_size(scenario, alloc, threshold, 0.80)
        assert abs(result.n_star - 97) <= 10  # published value 97, +-10%
        assert result.n_star == n_star_enumeration_oracle(scenario, alloc, c, 0.80)[0] == 96
        assert result.achieved_power == pytest.approx(0.8033, abs=1e-4)
        # power at integer counts is not monotone in N: 0.8033 at 96 and 97,
        # then 0.8022 at 98, so a bisection on N has no valid contract
        powers = [integer_design_power(scenario, alloc.arm_counts(n), c) for n in (96, 97, 98)]
        assert powers[0] == pytest.approx(0.8033, abs=1e-4)
        assert powers[1] == pytest.approx(0.8033, abs=1e-4)
        assert powers[2] == pytest.approx(0.8022, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(
        substudies=st.lists(
            st.tuples(
                st.floats(0.3, 1.2),  # delta
                st.floats(0.5, 2.0),  # |synergy|
                st.sampled_from((-1.0, 1.0)),  # sign of synergy
                st.floats(0.0, 1.0),  # share of the combination-control budget
                st.sampled_from((-1.0, 1.0)),  # sign of rho combination-control
                st.floats(-0.9, 0.9),  # rho combination-monotherapy
            ),
            min_size=1,
            max_size=3,
        ),
        c=st.floats(0.1, 6.0),
        target=st.floats(0.01, 0.999),
    )
    # the target is below the power at W = 0, 2 Phi(-0.5) = 0.617, so N* = 2K+1
    @example(substudies=[_PLAIN_SUBSTUDY] * 3, c=0.5, target=0.5)
    # N* = 1679 lies in the second block of totals
    @example(substudies=[_PLAIN_SUBSTUDY], c=2.0, target=0.999)
    # a far-out critical value with a small target: W* sits in the lower tail
    @example(substudies=[_PLAIN_SUBSTUDY] * 2, c=5.5, target=0.02)
    def test_property_matches_enumeration(self, substudies, c, target):
        scenario = _scenario(substudies)
        alloc = optimize_allocation(scenario)
        result = find_sample_size(scenario, alloc, _threshold_at(c), target)
        # every total in turn, with the package's arithmetic: bit for bit
        n_star, powers = n_star_enumeration_oracle(
            scenario, alloc, c, target, power=package_design_power
        )
        assert result.n_star == n_star
        assert result.arm_counts == alloc.arm_counts(n_star)
        assert result.achieved_power == powers[n_star] >= target
        assert result.search_trace == tuple(powers.items())
        # and with an independent route to the power: to rounding
        independent_n_star, independent = n_star_enumeration_oracle(scenario, alloc, c, target)
        assert independent_n_star == n_star
        for n, power in result.search_trace:
            assert power == pytest.approx(independent[n], abs=1e-12)

    @pytest.mark.parametrize("K, c, target, expected", [
        (1, 0.5, 0.5, 3),
        (3, 0.5, 0.5, 7),
        (1, 2.0, 0.999, 1679),
        (2, 5.5, 0.02, 1188),
    ])
    def test_pinned_sample_sizes(self, K, c, target, expected):
        scenario = _scenario([_PLAIN_SUBSTUDY] * K)
        result = find_sample_size(scenario, optimize_allocation(scenario), _threshold_at(c), target)
        assert result.n_star == expected

    def test_scan_without_a_floor_finds_the_same_sample_sizes(self):
        # at floor 0 every total is a candidate: the first rounds of power
        # evaluations fail, and only the later, doubled rounds and the second
        # block of totals reach N*
        scenario = _scenario([_PLAIN_SUBSTUDY])
        alloc = optimize_allocation(scenario)
        c = [2.0, 2.5]
        n_star, w = _scan_totals(scenario, alloc, c, [0.0, 0.0], 0.999, 10**6)
        floored, w_floored = _scan_totals(
            scenario, alloc, c, _noncentrality_floor(c, 0.999), 0.999, 10**6
        )
        assert n_star.tolist() == floored.tolist() == [
            find_sample_size(scenario, alloc, _threshold_at(ci), 0.999).n_star for ci in c
        ]
        assert n_star[0] == 1679
        assert (w == w_floored).all()

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

    def test_reproducible(self):
        scenario = DesignScenario.single(0.35, 1.1, rho_ab_a=0.2, rho_ab_b=0.4)
        alloc = optimize_allocation(scenario)
        a = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=42)
        b = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=42)
        assert a == b
        assert find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=7) == a

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
        # the cap is inclusive: a design at N* = n_cap is found
        scenario = DesignScenario.single(0.4, 1.2, rho_ab_a=0.3)
        alloc = optimize_allocation(scenario)
        n_star = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8).n_star
        assert find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, n_cap=n_star).n_star == n_star
        with pytest.raises(BudgetExceeded):
            find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, n_cap=n_star - 1)

    def test_cap_below_the_smallest_design_is_a_domain_error(self):
        # 2K+1 subjects is the smallest design: a lower cap is an input error,
        # not an exhausted budget
        scenario = DesignScenario.single(0.4, 1.2)
        with pytest.raises(DomainError, match="n_cap must be at least 2K\\+1 = 3"):
            find_sample_size(scenario, Allocation.equal(1), FWER_THRESHOLD, 0.8, n_cap=2)

    def test_arm_correlations_must_fit_together(self):
        # the README reference pair copied to two substudies: the arm
        # correlation matrix has a negative Schur complement on the control
        # arm, so the scenario is refused when it is built
        with pytest.raises(DomainError, match="cannot form a trial"):
            DesignScenario(
                delta=(0.663, 0.663), synergy=(1.161, 1.161),
                rho_combo_control=(0.626, 0.626), rho_combo_mono=(0.660, 0.660),
            )
        # one substudy with the same pair fits
        DesignScenario.single(0.663, 1.161, rho_ab_a=0.626, rho_ab_b=0.660)

    def test_validation(self):
        scenario = DesignScenario.single(0.3, 1.0)
        with pytest.raises(DomainError):
            find_sample_size(scenario, Allocation.equal(1), FWER_THRESHOLD, 1.0)
