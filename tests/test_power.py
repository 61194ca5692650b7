"""Exact power and the N* search, checked against simulated trials and the
closed-form marginal oracle."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import (
    exhaustive_n_star,
    integer_design_power,
    mc_comparison_power,
    n_star_enumeration_oracle,
    package_design_power,
    wald_noncentrality,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platformdesign.allocation import (
    Allocation,
    DesignScenario,
    _contrasts,
    _largest_remainder,
    _noncentralities,
    optimize_allocation,
)
from platformdesign.correlation import (
    ArmCorrelations,
    PlatformArms,
    _arm_correlation_matrix,
    platform_z_correlation_matrix,
)
from platformdesign.errors import BudgetExceeded, DomainError
from platformdesign.multiplicity import (
    DEFAULT_TARGETS,
    ErrorMetric,
    ThresholdResult,
    platform_threshold,
)
from platformdesign.mvnorm import CorrelationMatrix, _std_normal_cdf
from platformdesign.power import (
    _noncentrality_bound,
    _noncentrality_floor,
    _power,
    _scan_totals,
    _window_end,
    design,
    find_sample_size,
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


_SUBSTUDY = st.tuples(
    st.floats(0.3, 1.2),  # delta
    st.floats(0.5, 2.0),  # |synergy|
    st.sampled_from((-1.0, 1.0)),  # sign of synergy
    st.floats(0.0, 1.0),  # share of the combination-control budget
    st.sampled_from((-1.0, 1.0)),  # sign of rho combination-control
    st.floats(-0.9, 0.9),  # rho combination-monotherapy
)


def _design_rows(designs):
    """The scan's per-design rows (ratios, mu, rho, sigma2) of (scenario,
    allocation) pairs."""
    mu, rho = zip(*(
        (_contrasts(scenario.delta, scenario.synergy, len(alloc.ratios)),
         _arm_correlation_matrix(scenario.rho_combo_control, scenario.rho_combo_mono)[1:, 0])
        for scenario, alloc in designs
    ))
    return (
        np.array([alloc.ratios for _, alloc in designs]), np.array(mu), np.array(rho),
        np.array([scenario.sigma2 for scenario, _ in designs]),
    )


def _threshold_at(c: float) -> ThresholdResult:
    return ThresholdResult(
        critical_value=c,
        p_threshold=2 * (1 - _std_normal_cdf(c)),
        metric=ErrorMetric.fwer(0.05),
        z_correlation=CorrelationMatrix.bivariate(0.0),
        achieved=0.05,
    )


class TestMarginalOracle:
    def test_null_level(self):
        assert _power(0.0, 1.96) == pytest.approx(0.05, abs=1e-4)

    def test_known_value(self):
        assert _power(4.5, 2.2365) == pytest.approx(
            0.45415792978650454, abs=1e-12
        )

    def test_limit(self):
        assert _power(1e4, 1.96) == pytest.approx(1.0, abs=1e-10)


class TestMcPower:
    def test_matches_oracle_equal_thirds(self):
        scenario = DesignScenario(0.3, 1.0)
        power = mc_comparison_power(
            scenario, [100.0, 100.0, 100.0], FWER_THRESHOLD.critical_value, 100_000, seed=11
        )
        oracle = _power(4.5, FWER_THRESHOLD.critical_value)
        assert power.min() == pytest.approx(oracle, abs=0.005)

    def test_oracle_agreement_random_scenarios(self, rng):
        for _ in range(8):
            scenario = DesignScenario(
                float(rng.uniform(0.2, 0.6)),
                float(rng.uniform(0.8, 1.5)),
                rho_combo_control=float(rng.uniform(0.0, 0.6)),
                rho_combo_mono=float(rng.uniform(0.0, 0.6)),
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
                _power(float(w[0, 0]), FWER_THRESHOLD.critical_value),
                _power(float(w[0, 1]), FWER_THRESHOLD.critical_value),
            )
            assert power.min() == pytest.approx(oracle, abs=0.01)

    def test_k2_integer_design_power(self):
        # the exact power of a K=2 integer design is the smallest of its four
        # simulated per-comparison rejection rates
        scenario = DesignScenario(
            delta=(0.3, 0.45), synergy=(1.1, 0.9),
            rho_combo_control=(0.2, 0.3), rho_combo_mono=(0.3, 0.2),
        )
        counts = tuple(_largest_remainder(np.full((1, 5), 0.2), np.array([400]))[0].tolist())
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
            floor, ceiling = _noncentrality_floor(c, target)
            # nothing to solve where W = 0 already reaches the target
            solved = target > 2.0 * _std_normal_cdf(-c)
            assert (floor[~solved] == 0.0).all() and (ceiling[~solved] == 0.0).all()
            assert (floor[solved] > 0.0).all()
            c_solved, floor_solved = c[solved], floor[solved]
            assert (_power(floor_solved, c_solved) < target).all()
            w_star = floor_solved / (1.0 - 1e-6)
            assert _power(w_star, c_solved) == pytest.approx(target, abs=1e-12)
            assert ceiling[solved] == pytest.approx(w_star * (1.0 + 1e-6), rel=1e-15)
            assert (_power(ceiling, c) >= target).all()

    def test_a_failed_check_leaves_the_search_exact(self, monkeypatch):
        # with no gap around W* the floor's and the ceiling's powers fail
        # their checks: the floor falls to 0 and the ceiling rises to inf,
        # and the scan finds the same N* and powers, evaluating more totals
        scenario = DesignScenario(0.3, 1.1, rho_combo_control=0.3, rho_combo_mono=0.5)
        alloc = optimize_allocation(scenario)
        rows = _design_rows([(scenario, alloc)])
        c = np.array([[1.96, 2.3]])
        expected = _scan_totals(*rows, c, *_noncentrality_floor(c, 0.8), 0.8, 10**6)
        monkeypatch.setattr("platformdesign.power._RELATIVE_GAP", 0.0)
        floor, ceiling = _noncentrality_floor(c, 0.8)
        assert (floor == 0.0).all() and (ceiling == np.inf).all()
        n_star, powers = _scan_totals(*rows, c, floor, ceiling, 0.8, 10**6)
        assert n_star.tolist() == expected[0].tolist()
        assert powers.tolist() == expected[1].tolist()
        reference = exhaustive_n_star(scenario, alloc, c[0], 0.8, int(n_star.max()))
        assert list(zip(n_star[0].tolist(), powers[0].tolist())) == reference

    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_critical_value_must_be_finite(self, c):
        # no total reaches an infinite critical value's target, so the scan
        # would evaluate a power at every total up to its cap; NaN is refused
        # with it
        with pytest.raises(DomainError, match="critical value must be finite"):
            _noncentrality_floor([2.0, c], 0.8)
        threshold = dataclasses.replace(FWER_THRESHOLD, critical_value=c)
        with pytest.raises(DomainError, match="critical value must be finite"):
            find_sample_size(DesignScenario(0.4, 1.2), Allocation((1 / 3,) * 3), threshold, 0.8)

    def test_validation(self):
        with pytest.raises(DomainError, match="critical value must be positive"):
            _noncentrality_floor([2.0, 0.0], 0.8)
        with pytest.raises(DomainError, match="target power"):
            _noncentrality_floor([2.0], 1.0)


class TestNoncentralityBound:
    @settings(max_examples=60, deadline=None)
    @given(
        substudies=st.lists(
            st.tuples(
                st.floats(0.05, 2.0),  # delta
                st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 0.05),  # synergy
                st.floats(0.0, 1.0),  # share of the combination-control budget
                st.sampled_from((-1.0, 1.0)),  # sign of rho combination-control
                st.floats(-0.95, 0.95),  # rho combination-monotherapy
            ),
            min_size=1,
            max_size=6,
        ),
        edge=st.floats(0.0, 1.0 - 1e-9),
        offset=st.integers(0, 31),
        width=st.sampled_from((1, 16, 32, 57)),
    )
    # K = 1 at the edge: rho combination-control +-0.99999
    @example(substudies=[(0.3, 1.2, 1.0, 1.0, 0.0)], edge=0.99998, offset=0, width=16)
    @example(substudies=[(0.3, 1.2, 1.0, -1.0, 0.0)], edge=0.99998, offset=5, width=16)
    # six substudies, most arms empty at the first totals
    @example(substudies=[(0.3, 1.2, 1.0, 1.0, 0.5)] * 6, edge=0.9, offset=0, width=16)
    def test_property_bounds_every_total_of_a_range(self, substudies, edge, offset, width):
        # rho combination-control of both signs up to the edge of positive
        # semidefiniteness, sum_k rho_cc_k^2 / (1 - rho_cm_k^2) <= edge < 1
        delta, synergy, share, sign, rho_cm = zip(*substudies)
        total_share = sum(share) or 1.0
        rho_cc = tuple(
            g * math.sqrt(edge * f / total_share * (1.0 - r * r))
            for f, g, r in zip(share, sign, rho_cm)
        )
        scenario = DesignScenario(delta, synergy, 1.0, rho_cc, rho_cm)
        alloc = optimize_allocation(scenario)
        ratios, mu, rho, sigma2 = _design_rows([(scenario, alloc)])
        # ranges of ``width`` totals from 2K+1 + offset up to 5,000: the first
        # ones lie where arms of the smallest shares are empty and get a
        # subject from the largest arm
        first = np.arange(2 * scenario.K + 1 + offset, 5_000, width)
        lower, upper = _noncentrality_bound(
            ratios, mu, rho, sigma2, [0], first, first + width - 1
        )
        totals = np.arange(first[0], first[-1] + width)
        counts = _largest_remainder(ratios, totals)
        w = np.min(_noncentralities(counts, mu[0], rho[0], 1.0), axis=1)
        w = w.reshape(-1, width)
        assert ((upper >= w.max(axis=1)) | (upper == np.inf)).all()
        assert (lower <= w.min(axis=1)).all()
        # a variance bound is positive unless a combination arm correlates
        # positively with control
        if max(rho_cc) <= 0.0:
            assert np.isfinite(upper).all()

    def test_an_empty_arm_takes_a_subject_from_the_largest(self):
        # at N = 7 the combination arm (share 0.044) is empty and takes its
        # subject from control, which falls below floor(0.762 * 7) = 5: the
        # bound must allow for that loss, and does so by one subject per
        # arm that can be empty
        scenario = DesignScenario(0.8405, 0.6044, rho_combo_control=0.9658, rho_combo_mono=0.2576)
        alloc = Allocation((0.7617990974513373, 0.1943907473619217, 0.04381015518674093))
        assert _largest_remainder(np.array([alloc.ratios]), np.array([7])).tolist() == [[4, 2, 1]]
        ratios, mu, rho, sigma2 = _design_rows([(scenario, alloc)])
        first = np.arange(3, 40)
        lower, upper = _noncentrality_bound(ratios, mu, rho, sigma2, [0], first, first)
        w = np.min(_noncentralities(_largest_remainder(ratios, first), mu, rho, 1.0), axis=1)
        assert (upper >= w).all()
        assert (lower <= w).all()


class TestFindSampleSize:
    def test_reproduces_moderate_synergy_row(self):
        scenario = DesignScenario(0.663, 1.161, rho_combo_control=0.626, rho_combo_mono=0.660)
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
        counts = _largest_remainder(np.array([alloc.ratios]), np.array([96, 97, 98]))
        powers = [integer_design_power(scenario, tuple(row), c) for row in counts.tolist()]
        assert powers[0] == pytest.approx(0.8033, abs=1e-4)
        assert powers[1] == pytest.approx(0.8033, abs=1e-4)
        assert powers[2] == pytest.approx(0.8022, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(
        substudies=st.lists(_SUBSTUDY, min_size=1, max_size=3),
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
        counts = _largest_remainder(np.array([alloc.ratios]), np.array([n_star]))
        assert [result.arm_counts] == [tuple(row) for row in counts.tolist()]
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
        # at floor 0 and ceiling inf no range is ruled out or closes a
        # bracket, and every total is a candidate: the walk starts at 2K+1
        # and its powers fail at every total, window after window, up to
        # N* = 1,679
        scenario = _scenario([_PLAIN_SUBSTUDY])
        alloc = optimize_allocation(scenario)
        rows = _design_rows([(scenario, alloc)])
        c = np.array([[2.0, 2.5]])
        n_star, powers = _scan_totals(
            *rows, c, np.zeros(c.shape), np.full(c.shape, np.inf), 0.999, 10**6
        )
        floored, floored_powers = _scan_totals(
            *rows, c, *_noncentrality_floor(c, 0.999), 0.999, 10**6
        )
        results = [find_sample_size(scenario, alloc, _threshold_at(ci), 0.999) for ci in c[0]]
        reference = exhaustive_n_star(scenario, alloc, c[0], 0.999, 3_000)
        assert n_star.tolist() == floored.tolist() == [[result.n_star for result in results]]
        assert powers.tolist() == floored_powers.tolist() == [
            [result.achieved_power for result in results]
        ]
        assert list(zip(n_star[0].tolist(), powers[0].tolist())) == reference
        assert n_star[0, 0] == 1679

    @settings(max_examples=25, deadline=None)
    @given(
        # two to four designs of one K from 2 to 4
        designs=st.integers(2, 4).flatmap(
            lambda K: st.lists(st.lists(_SUBSTUDY, min_size=K, max_size=K), min_size=2, max_size=4)
        ),
        c=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
        target=st.floats(0.05, 0.99),
    )
    # the last two critical values' targets are met at W = 0: their floor is 0
    @example(
        designs=[[_PLAIN_SUBSTUDY] * 2, [(0.5, 1.3, 1.0, 0.8, -1.0, 0.2)] * 2],
        c=[2.0, 0.5, 0.3], target=0.4,
    )
    def test_batched_scan_matches_every_total_in_turn(self, designs, c, target):
        # several K > 1 designs and critical values in one scan: each N* and
        # its power equal the first total reaching the target when every
        # total from 2K+1 is evaluated in turn
        designs = [(scenario, optimize_allocation(scenario)) for scenario in map(_scenario, designs)]
        critical_values = np.tile(c, (len(designs), 1))
        n_star, powers = _scan_totals(
            *_design_rows(designs), critical_values,
            *_noncentrality_floor(critical_values, target), target, 10**6,
        )
        for i, (scenario, alloc) in enumerate(designs):
            reference = exhaustive_n_star(scenario, alloc, c, target, int(n_star[i].max()))
            assert list(zip(n_star[i].tolist(), powers[i].tolist())) == reference

    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.lists(_SUBSTUDY, min_size=1, max_size=3).map(_scenario),
        alloc=st.none(),
        c=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
        target=st.floats(0.05, 0.99),
    )
    # the empty-arm allocation of the bound test: an arm is empty at N = 7
    @example(
        scenario=DesignScenario(0.8405, 0.6044, rho_combo_control=0.9658, rho_combo_mono=0.2576),
        alloc=Allocation((0.7617990974513373, 0.1943907473619217, 0.04381015518674093)),
        c=[1.96, 2.5], target=0.8,
    )
    # a combination arm of share 0.0024 (counts 278/278/2 at N* = 558): N*
    # lies past the first window, which ends at ceil(1.05 W* / w1) + 64 = 507
    @example(
        scenario=DesignScenario(0.3, 10.0, rho_combo_control=0.3, rho_combo_mono=0.5),
        alloc=None, c=[2.2332477468154197], target=0.8,
    )
    def test_property_bracket_holds_n_star(self, scenario, alloc, c, target):
        # N* lies between the first range of 16 totals whose upper bound
        # reaches the floor and the first whose lower bound reaches the
        # ceiling, and the scan finds it as if every total were evaluated
        alloc = alloc or optimize_allocation(scenario)
        rows = _design_rows([(scenario, alloc)])
        c = np.array([c])
        floor, ceiling = _noncentrality_floor(c, target)
        n_star, powers = _scan_totals(*rows, c, floor, ceiling, target, 10**6)
        reference = exhaustive_n_star(scenario, alloc, c[0], target, int(n_star.max()))
        assert list(zip(n_star[0].tolist(), powers[0].tolist())) == reference
        first = np.arange(2 * scenario.K + 1, n_star.max() + 64, 16)
        lower, upper = _noncentrality_bound(*rows, [0], first, first + 15)
        for n, low, high in zip(n_star[0], floor[0], ceiling[0]):
            n_lo = first[np.argmax(upper >= low)]
            closed = first[lower >= high]
            assert n_lo <= n <= (closed[0] if closed.size else np.inf)

    def test_a_near_empty_arm_extends_the_window(self):
        # N* = 558 lies past the first window, so the scan bounds a second
        # one and find_sample_size doubles its trace; both stay exact
        scenario = DesignScenario(0.3, 10.0, rho_combo_control=0.3, rho_combo_mono=0.5)
        alloc = optimize_allocation(scenario)
        rows = _design_rows([(scenario, alloc)])
        threshold = platform_threshold(
            CorrelationMatrix.bivariate(0.19409459373953994), ErrorMetric.fwer(0.05)
        )
        c = np.array([[threshold.critical_value]])
        floor, ceiling = _noncentrality_floor(c, 0.8)
        assert _window_end(*rows, floor, 10**6).tolist() == [507]
        n_star, powers = _scan_totals(*rows, c, floor, ceiling, 0.8, 10**6)
        result = find_sample_size(scenario, alloc, threshold, 0.8)
        reference = exhaustive_n_star(scenario, alloc, c[0], 0.8, 600)
        assert [(result.n_star, result.achieved_power)] == reference == [
            (int(n_star[0, 0]), float(powers[0, 0]))
        ]
        assert result.n_star == 558 and result.arm_counts == (278, 278, 2)
        _, expected = n_star_enumeration_oracle(
            scenario, alloc, c[0, 0], 0.8, power=package_design_power
        )
        assert result.search_trace == tuple(expected.items())

    def test_trace_and_counts_consistent(self):
        scenario = DesignScenario(0.4, 1.2, rho_combo_control=0.3)
        alloc = optimize_allocation(scenario)
        result = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=2)
        assert sum(result.arm_counts) == result.n_star
        assert min(result.arm_counts) >= 1
        probed = dict(result.search_trace)
        assert probed[result.n_star] >= 0.8
        if result.n_star - 1 in probed:
            assert probed[result.n_star - 1] < 0.8

    def test_reproducible(self):
        scenario = DesignScenario(0.35, 1.1, rho_combo_control=0.2, rho_combo_mono=0.4)
        alloc = optimize_allocation(scenario)
        a = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=42)
        b = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=42)
        assert a == b
        assert find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, seed=7) == a

    def test_sample_size_nonincreasing_in_synergy(self):
        n_values = []
        for s in (0.7, 1.0, 1.3):
            scenario = DesignScenario(0.3, s, rho_combo_control=0.3, rho_combo_mono=0.3)
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
        scenario = DesignScenario(0.01, 1.0)
        with pytest.raises(BudgetExceeded):
            find_sample_size(
                scenario, Allocation((1 / 3,) * 3), FWER_THRESHOLD, 0.99, n_cap=5_000, seed=1
            )
        # the cap is inclusive: a design at N* = n_cap is found
        scenario = DesignScenario(0.4, 1.2, rho_combo_control=0.3)
        alloc = optimize_allocation(scenario)
        n_star = find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8).n_star
        assert find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, n_cap=n_star).n_star == n_star
        with pytest.raises(BudgetExceeded):
            find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8, n_cap=n_star - 1)

    def test_cap_below_the_smallest_design_is_a_domain_error(self):
        # 2K+1 subjects is the smallest design: a lower cap is an input error,
        # not an exhausted budget
        scenario = DesignScenario(0.4, 1.2)
        with pytest.raises(DomainError, match="n_cap must be at least 2K\\+1 = 3"):
            find_sample_size(scenario, Allocation((1 / 3,) * 3), FWER_THRESHOLD, 0.8, n_cap=2)

    @pytest.mark.parametrize("scenario_k, alloc_k", [(2, 1), (1, 2)])
    def test_k_mismatch_is_a_domain_error(self, scenario_k, alloc_k):
        scenario = DesignScenario((0.4,) * scenario_k, (1.2,) * scenario_k)
        alloc = Allocation((1 / (2 * alloc_k + 1),) * (2 * alloc_k + 1))
        with pytest.raises(
            DomainError, match=f"allocation has K={alloc_k} but scenario has K={scenario_k}"
        ):
            find_sample_size(scenario, alloc, FWER_THRESHOLD, 0.8)

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
        DesignScenario(0.663, 1.161, rho_combo_control=0.626, rho_combo_mono=0.660)

    def test_validation(self):
        scenario = DesignScenario(0.3, 1.0)
        with pytest.raises(DomainError):
            find_sample_size(scenario, Allocation((1 / 3,) * 3), FWER_THRESHOLD, 1.0)


_RESULT_FIELDS = ("ratios", "z_correlation", "critical_value", "n_star", "achieved_power",
                  "arm_counts")


def _random_rows(rng, designs: int, K: int) -> list:
    """delta, synergy, rho combination-control and rho combination-mono,
    shape (designs, K) each, whose arm correlations fit together."""
    rho_cc = rng.uniform(-0.3, 0.3, (designs, K)) / math.sqrt(K)
    return [
        rng.uniform(0.2, 0.8, (designs, K)), rng.uniform(0.7, 2.0, (designs, K)),
        rho_cc, rng.uniform(-0.5, 0.6, (designs, K)),
    ]


class TestDesign:
    @pytest.mark.parametrize("K, metrics", [
        (1, DEFAULT_TARGETS),
        (2, (ErrorMetric.fwer(0.05), ErrorMetric.mfwer(2, 0.05))),
    ], ids=["k1", "k2"])
    def test_a_batch_gives_each_row_what_it_gives_alone(self, rng, K, metrics):
        rows = _random_rows(rng, 4 if K == 1 else 2, K)
        batch = design(*rows, metrics, 0.8)
        for i in range(len(rows[0])):
            alone = design(*(a[i:i + 1] for a in rows), metrics, 0.8)
            for name in _RESULT_FIELDS:
                assert np.array_equal(getattr(batch, name)[i:i + 1], getattr(alone, name)), name

    def test_equals_the_public_chain(self, rng):
        # bit for bit: optimize_allocation, the Z correlation of 1000 nominal
        # subjects split by the ratios, platform_threshold, find_sample_size
        metrics = (*DEFAULT_TARGETS, ErrorMetric.mfwer(2, 0.05))
        for i in range(30):
            K, metric = int(rng.integers(1, 4)), metrics[i % len(metrics)]
            rows = _random_rows(rng, 1, K)
            scenario = DesignScenario(*(tuple(a[0].tolist()) for a in rows[:2]), 1.0,
                                      *(tuple(a[0].tolist()) for a in rows[2:]))
            alloc = optimize_allocation(scenario)
            counts = [1000 * p for p in alloc.ratios]
            z_corr = platform_z_correlation_matrix(PlatformArms(
                counts[0], tuple(counts[1::2]), tuple(counts[2::2]),
                ArmCorrelations.from_scenario(scenario),
            ))
            threshold = platform_threshold(z_corr, metric, seed=i)
            chain = find_sample_size(scenario, alloc, threshold, 0.8)
            result = design(*rows, (metric,), 0.8, seed=i)
            assert result.ratios[0].tolist() == list(alloc.ratios)
            assert np.array_equal(result.z_correlation[0], z_corr.entries)
            assert result.critical_value[0, 0] == threshold.critical_value
            assert result.n_star[0, 0] == chain.n_star
            assert result.achieved_power[0, 0] == chain.achieved_power
            assert tuple(result.arm_counts[0, 0].tolist()) == chain.arm_counts

    def test_validation(self):
        rows = [[[0.4]], [[1.2]], [[0.3]], [[0.5]]]
        fwer = (ErrorMetric.fwer(0.05),)
        with pytest.raises(DomainError, match="one shape"):
            design(*rows[:3], [[0.5, 0.5]], fwer, 0.8)
        with pytest.raises(DomainError, match="one shape"):
            design([0.4], [1.2], [0.3], [0.5], fwer, 0.8)
        with pytest.raises(DomainError, match="need a metric"):
            design(*rows, (), 0.8)
        with pytest.raises(DomainError, match="m must lie in \\[1, 2\\], got 3"):
            design(*rows, (ErrorMetric.mfwer(3, 0.05),), 0.8)
        with pytest.raises(BudgetExceeded):
            design(*rows, fwer, 0.99, n_cap=20)

    def test_an_effect_underflowing_next_to_sigma_exhausts_the_budget(self):
        # delta^2 / sigma2 underflows to a zero smallest noncentrality: the
        # first window ends at n_cap without a divide warning
        with pytest.raises(BudgetExceeded, match=r"no N in \[3, 1000000\]"):
            design([[1e-150]], [[1.0]], [[0.0]], [[0.0]], (ErrorMetric.fwer(0.05),), 0.8,
                   sigma2=1e300)
