"""Wald noncentrality and max-min allocation."""

import math

import numpy as np
import pytest
from conftest import closed_form_allocation, wald_noncentrality
from hypothesis import given, settings
from hypothesis import strategies as st

from platformdesign.allocation import (
    Allocation,
    DesignScenario,
    _contrasts,
    _largest_remainder,
    _noncentralities,
    optimize_allocation,
)
from platformdesign.correlation import _arm_correlation_matrix
from platformdesign.errors import DomainError, PlatformDesignError
from platformdesign.multiplicity import ErrorMetric
from platformdesign.power import design


def _objective(scenario: DesignScenario, alloc: Allocation) -> float:
    return float(wald_noncentrality(scenario, alloc, 1).min())


class TestAllocationType:
    def test_validation(self):
        with pytest.raises(DomainError):
            Allocation((0.5, 0.5))  # even length
        with pytest.raises(DomainError):
            Allocation((0.5, 0.5, 0.1))  # sum != 1
        with pytest.raises(DomainError):
            Allocation((1.0, 0.0, 0.0))  # boundary

    def test_accessors(self):
        alloc = Allocation((0.5, 0.3, 0.2))
        assert alloc.K == 1
        assert alloc.ratios == (0.5, 0.3, 0.2)

    def test_arm_counts_largest_remainder(self):
        counts = _largest_remainder(np.array([[0.445, 0.450, 0.105]]), np.array([97]))[0]
        assert counts.tolist() == [43, 44, 10]
        assert sum(counts) == 97

    def test_arm_counts_floor_one(self):
        counts = _largest_remainder(np.array([[0.989, 0.006, 0.005]]), np.array([100]))[0]
        assert sum(counts) == 100
        assert min(counts) >= 1

    @settings(max_examples=200, deadline=None)
    @given(
        # small repeated weights give equal remainders, a heavy arm empty ones
        weights=st.integers(1, 6).flatmap(
            lambda K: st.lists(
                st.integers(1, 4) | st.just(60), min_size=2 * K + 1, max_size=2 * K + 1
            )
        ),
        n_total=st.integers(13, 400),
    )
    def test_arm_counts_match_a_plain_largest_remainder(self, weights, n_total):
        ratios = tuple(w / sum(weights) for w in weights)
        # the loop version: leftover subjects to the largest remainders, equal
        # remainders to the earlier arm, then empty arms filled from the largest
        raw = [r * n_total for r in ratios]
        counts = [math.floor(x) for x in raw]
        order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
        for i in order[: n_total - sum(counts)]:
            counts[i] += 1
        while min(counts) == 0:
            counts[counts.index(max(counts))] -= 1
            counts[counts.index(min(counts))] += 1
        table = _largest_remainder(np.asarray([ratios]), np.arange(13, n_total + 1))
        assert table[-1].tolist() == counts
        assert [tuple(row) for row in table.tolist()] == [
            tuple(_largest_remainder(np.asarray([ratios]), np.array([n]))[0].tolist())
            for n in range(13, n_total + 1)
        ]

    @pytest.mark.parametrize("seed", range(8))
    def test_counts_table_bumps_as_a_loop_per_row(self, seed):
        # shares down to far below 1/N leave several arms empty in many
        # rows; a table's empty arms are filled as a loop over each row
        # fills them, one subject at a time from its largest arm
        rng = np.random.default_rng(seed)
        n_arms = 2 * int(rng.integers(1, 5)) + 1
        shares = rng.dirichlet(np.full(n_arms, 0.3))
        shares[rng.random(n_arms) < 0.4] = 1e-4
        alloc = Allocation(tuple(shares / shares.sum()))
        totals = np.arange(n_arms, n_arms + 1024)
        raw = totals[:, None] * np.asarray(alloc.ratios)
        expected = np.floor(raw).astype(np.int64)
        order = np.argsort(expected - raw, axis=1, kind="stable")
        for row, leftover in enumerate(totals - expected.sum(axis=1)):
            expected[row, order[row, :leftover]] += 1
            while np.any(expected[row] == 0):
                expected[row, np.argmax(expected[row])] -= 1
                expected[row, np.argmin(expected[row])] += 1
        table = _largest_remainder(np.asarray([alloc.ratios]), totals)
        assert (table == 0).sum() == 0 and (table.sum(axis=1) == totals).all()
        np.testing.assert_array_equal(table, expected)

    def test_arm_counts_need_a_subject_per_arm(self):
        with pytest.raises(DomainError):
            _largest_remainder(np.array([[0.5, 0.3, 0.2]]), np.array([2]))
        with pytest.raises(DomainError):
            _largest_remainder(np.array([[0.5, 0.3, 0.2]]), np.array([5, 2]))


class TestWaldNoncentrality:
    def test_hand_value_equal_thirds(self):
        scenario = DesignScenario(0.3, 1.0)
        w = wald_noncentrality(scenario, Allocation((1 / 3,) * 3), 300)
        assert w[0, 0] == pytest.approx(4.5, abs=1e-12)
        assert w[0, 1] == pytest.approx(4.5, abs=1e-12)

    def test_synergy_scaling(self):
        base = DesignScenario(0.3, 1.0)
        doubled = DesignScenario(0.3, 2.0)
        alloc = Allocation((1 / 3,) * 3)
        w0 = wald_noncentrality(base, alloc, 300)
        w1 = wald_noncentrality(doubled, alloc, 300)
        assert w1[0, 0] == pytest.approx(4.0 * w0[0, 0], rel=1e-12)
        assert w1[0, 1] == pytest.approx(w0[0, 1], rel=1e-12)

    def test_correlation_halves_denominator(self):
        # with p_control = p_combo, rho = 0.5 turns (2/p) into (1/p)
        flat = DesignScenario(0.3, 1.0, rho_combo_control=0.0)
        corr = DesignScenario(0.3, 1.0, rho_combo_control=0.5)
        alloc = Allocation((0.4, 0.2, 0.4))
        w_flat = wald_noncentrality(flat, alloc, 100)
        w_corr = wald_noncentrality(corr, alloc, 100)
        assert w_corr[0, 0] == pytest.approx(2.0 * w_flat[0, 0], rel=1e-12)

    def test_oracle_matches_the_package_noncentralities(self):
        # the oracle's per-substudy formula against the package's batched
        # one, K = 3 with correlations of both signs
        scenario = DesignScenario(
            (0.3, 0.5, 0.2), (1.2, 0.8, 1.5), 1.7, (0.3, -0.2, 0.1), (0.4, 0.1, -0.3)
        )
        alloc = Allocation((0.3, 0.1, 0.15, 0.12, 0.08, 0.1, 0.15))
        mu = _contrasts(scenario.delta, scenario.synergy, 7)
        rho = _arm_correlation_matrix(scenario.rho_combo_control, scenario.rho_combo_mono)[1:, 0]
        package = 250 * _noncentralities(alloc.ratios, mu, rho, scenario.sigma2)
        oracle = wald_noncentrality(scenario, alloc, 250)[:, ::-1].ravel()
        np.testing.assert_allclose(oracle, package, rtol=1e-12, atol=0.0)

    def test_degenerate_denominator(self):
        scenario = DesignScenario(0.3, 1.0, rho_combo_control=1.0)
        mu = _contrasts(scenario.delta, scenario.synergy, 3)
        rho = _arm_correlation_matrix(scenario.rho_combo_control, scenario.rho_combo_mono)[1:, 0]
        with pytest.raises(DomainError, match="contrast variance is not positive"):
            _noncentralities((0.25, 0.5, 0.25), mu, rho, scenario.sigma2)


class TestClosedForm:
    # exact evaluations of the zero-correlation closed form: the max-min
    # optimum at s = 1 (checked against the grid-search oracle below) and
    # elsewhere the W1 maximizer on the ray p_B = s p_AB
    @pytest.mark.parametrize(
        "s, expected",
        [
            (1.0, (0.41421356237309515, 0.2928932188134524, 0.2928932188134524)),
            (2.0, (0.3660254037844386, 0.42264973081037427, 0.21132486540518713)),
            (0.7, (0.43405783005789966, 0.23303501115262953, 0.3329071587894708)),
        ],
    )
    def test_known_values(self, s, expected):
        alloc = closed_form_allocation(s)
        assert np.allclose(alloc.ratios, expected, atol=1e-12)
        assert sum(alloc.ratios) == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_oracle_at_additivity(self):
        from conftest import grid_allocation_oracle

        _, point = grid_allocation_oracle(1.0, 1.0, 0.0, resolution=1e-3)
        assert np.allclose(closed_form_allocation(1.0).ratios, point, atol=1.5e-3)

    def test_balance_only_at_additivity(self):
        # the formula equalizes the noncentralities at s = 1 only: for s > 1
        # the combination parameter overshoots, for s < 1 it undershoots
        w_eq = wald_noncentrality(DesignScenario(1.0, 1.0), closed_form_allocation(1.0), 1000)
        assert w_eq[0, 0] == pytest.approx(w_eq[0, 1], rel=1e-10)
        w_hi = wald_noncentrality(DesignScenario(1.0, 2.0), closed_form_allocation(2.0), 1000)
        assert w_hi[0, 0] > w_hi[0, 1]
        w_lo = wald_noncentrality(DesignScenario(1.0, 0.7), closed_form_allocation(0.7), 1000)
        assert w_lo[0, 0] < w_lo[0, 1]

    @pytest.mark.parametrize("s", [0.7, 2.0])
    def test_dominated_by_direct_search_away_from_additivity(self, s):
        scenario = DesignScenario(1.0, s)
        searched = optimize_allocation(scenario)
        assert _objective(scenario, searched) > _objective(scenario, closed_form_allocation(s))


class TestOptimizer:
    def test_matches_closed_form_at_additivity(self):
        scenario = DesignScenario(0.3, 1.0)
        numerical = optimize_allocation(scenario)
        assert np.allclose(numerical.ratios, closed_form_allocation(1.0).ratios, atol=1e-3)

    @pytest.mark.parametrize("s", [0.7, 1.0, 2.0])
    def test_matches_fine_grid_oracle(self, s):
        # the objective is flat along the balanced ridge, so coordinates get
        # a looser tolerance than the objective value itself
        from conftest import grid_allocation_oracle

        scenario = DesignScenario(1.0, s)
        best_value, point = grid_allocation_oracle(s, 1.0, 0.0, resolution=1e-3)
        alloc = optimize_allocation(scenario)
        assert _objective(scenario, alloc) >= best_value - 1e-6
        assert np.allclose(alloc.ratios, point, atol=0.01)

    def test_published_row_with_moderate_synergy(self):
        # s = 1.161, rho_ab_a = 0.626: reproduces the published allocation
        scenario = DesignScenario(0.663, 1.161, rho_combo_control=0.626, rho_combo_mono=0.660)
        alloc = optimize_allocation(scenario)
        assert np.allclose(alloc.ratios, (0.445, 0.450, 0.105), atol=0.01)

    def test_high_synergy_row_dominates_published_point(self):
        # s = 2.283, rho_ab_a = 0.227: the max-min optimum strictly dominates
        # the published (0.501, 0.455, 0.044), whose W1 != W2; see the
        # balance assertion below and the grid oracle
        scenario = DesignScenario(0.329, 2.283, rho_combo_control=0.227, rho_combo_mono=0.250)
        alloc = optimize_allocation(scenario)
        published = Allocation((0.501, 0.455, 0.044))
        assert _objective(scenario, alloc) > _objective(scenario, published)
        w = wald_noncentrality(scenario, alloc, 1000)
        assert abs(w[0, 0] - w[0, 1]) / w.max() <= 1e-3

    @pytest.mark.parametrize("s", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6])
    def test_balance_at_optimum(self, s, rho):
        scenario = DesignScenario(0.3, s, rho_combo_control=rho)
        w = wald_noncentrality(scenario, optimize_allocation(scenario), 500)
        assert abs(w[0, 0] - w[0, 1]) / w.max() <= 1e-3

    def test_scale_invariance(self):
        lean = DesignScenario(0.3, 1.1, sigma2=1.0, rho_combo_control=0.4)
        scaled = DesignScenario(0.9, 1.1, sigma2=4.0, rho_combo_control=0.4)
        a = optimize_allocation(lean)
        b = optimize_allocation(scaled)
        assert np.allclose(a.ratios, b.ratios, atol=1e-6)

    def test_oracle_dominance_random_scenarios(self, rng):
        from conftest import grid_allocation_oracle

        for _ in range(20):
            s = float(rng.uniform(0.5, 3.0))
            delta = float(rng.uniform(0.1, 1.0))
            rho = float(rng.uniform(0.0, 0.7))
            scenario = DesignScenario(delta, s, rho_combo_control=rho)
            alloc = optimize_allocation(scenario)
            best_value, _ = grid_allocation_oracle(s, delta, rho, resolution=0.005)
            assert _objective(scenario, alloc) >= best_value - 1e-6

    def test_combo_share_nonincreasing_in_synergy(self):
        shares = []
        for s in np.arange(0.7, 1.31, 0.1):
            scenario = DesignScenario(0.3, float(s), rho_combo_control=0.3, rho_combo_mono=0.3)
            shares.append(optimize_allocation(scenario).ratios[2])
        assert all(b <= a + 1e-6 for a, b in zip(shares, shares[1:]))

    def test_k2_feasible_and_beats_equal(self):
        scenario = DesignScenario(
            delta=(0.3, 0.5),
            synergy=(1.2, 0.8),
            rho_combo_control=(0.2, 0.5),
            rho_combo_mono=(0.1, 0.4),
        )
        alloc = optimize_allocation(scenario)
        assert alloc.K == 2
        assert sum(alloc.ratios) == pytest.approx(1.0, abs=1e-9)
        assert _objective(scenario, alloc) >= _objective(scenario, Allocation((0.2,) * 5))

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_balance_across_substudies(self, K):
        scenario = DesignScenario(
            delta=(0.3,) * K,
            synergy=(1.0,) * K,
            rho_combo_control=(0.3,) * K,
            rho_combo_mono=(0.0,) * K,
        )
        alloc = optimize_allocation(scenario)
        w = wald_noncentrality(scenario, alloc, 1000)
        assert np.ptp(w) / w.max() <= 1e-3  # symmetric problem: all 2K equal

    @pytest.mark.parametrize("K", [4, 6])
    def test_dominates_grid_oracle_identical_substudies(self, K):
        from conftest import grid_allocation_oracle

        scenario = DesignScenario(
            (0.3,) * K, (1.1,) * K, rho_combo_control=(0.3,) * K, rho_combo_mono=(0.3,) * K
        )
        best_value, _ = grid_allocation_oracle(1.1, 0.3, 0.3, resolution=1e-3, K=K)
        value = _objective(scenario, optimize_allocation(scenario))
        assert best_value <= value <= best_value * (1 + 2e-3)

    def test_zero_synergy_is_a_domain_error(self):
        scenario = DesignScenario(delta=(0.3, 0.4), synergy=(1.2, 0.0))
        with pytest.raises(DomainError):
            optimize_allocation(scenario)

    def test_deterministic(self):
        scenario = DesignScenario(0.3, 1.4, rho_combo_control=0.25)
        assert optimize_allocation(scenario).ratios == optimize_allocation(scenario).ratios

    @settings(max_examples=200, deadline=None)
    @given(
        substudies=st.lists(
            st.tuples(
                st.floats(0.05, 3.0),  # delta
                st.floats(0.05, 10.0),  # |synergy|
                st.sampled_from((-1.0, 1.0)),  # sign of synergy
                st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),  # rho_cc
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_meets_the_50_digit_root(self, substudies):
        # every share within 1e-13 relative of the shares at the root of F'
        # in 50-digit arithmetic
        from conftest import mp_allocation_oracle

        delta, magnitude, sign, rho = zip(*substudies)
        norm = math.sqrt(sum(r * r for r in rho))
        if norm > 1.0:
            rho = tuple(r / norm for r in rho)
        scenario = DesignScenario(
            delta, tuple(m * g for m, g in zip(magnitude, sign)),
            rho_combo_control=rho, rho_combo_mono=(0.0,) * len(delta),
        )
        ratios = optimize_allocation(scenario).ratios
        for share, exact in zip(ratios, mp_allocation_oracle(scenario)):
            assert abs(share - exact) <= 1e-13 * exact, (share, exact)

    def test_near_singular_scenarios_meet_the_50_digit_root(self):
        # |s| near 1e-9 with rho within 1e-13 to 1e-9 of +-1 puts the root
        # of F' next to q_max, where the search takes up to about 50 steps:
        # it ends, and every share is within 1e-13 of the 50-digit root
        from conftest import mp_allocation_oracle

        rng = np.random.default_rng(11)
        scenarios = [((0.9882067451159503,), (-7.163054847130434e-10,), (0.9999999999769982,))]
        for _ in range(40):
            K = int(rng.integers(1, 7))
            rho = rng.choice([-1.0, 1.0], K) * (1.0 - 10.0 ** rng.uniform(-13, -9, K))
            rho /= max(1.0, math.sqrt(rho @ rho))
            synergy = rng.choice([-1.0, 1.0], K) * 10.0 ** rng.uniform(-9.5, -8.5, K)
            scenarios.append((rng.uniform(0.1, 3.0, K), synergy, rho))
        for delta, synergy, rho in scenarios:
            scenario = DesignScenario(
                tuple(delta), tuple(synergy), rho_combo_control=tuple(rho),
                rho_combo_mono=(0.0,) * len(delta),
            )
            ratios = optimize_allocation(scenario).ratios
            for share, exact in zip(ratios, mp_allocation_oracle(scenario)):
                assert abs(share - exact) <= 1e-13 * exact, (scenario, share, exact)

    @settings(max_examples=200, deadline=None)
    @given(
        substudies=st.lists(
            st.tuples(
                st.floats(0.05, 3.0),
                st.floats(0.05, 10.0),
                st.sampled_from((-1.0, 1.0)),
                st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_all_noncentralities_equal(self, substudies):
        delta, magnitude, sign, rho = zip(*substudies)
        K = len(delta)
        # with rho_combo_mono = 0 the arms fit around one control only when
        # sum rho^2 <= 1; larger draws are scaled back onto that boundary
        norm = math.sqrt(sum(r * r for r in rho))
        if norm > 1.0:
            rho = tuple(r / norm for r in rho)
        scenario = DesignScenario(
            delta, tuple(m * g for m, g in zip(magnitude, sign)),
            rho_combo_control=rho, rho_combo_mono=(0.0,) * K,
        )
        w = wald_noncentrality(scenario, optimize_allocation(scenario), 1)
        assert np.ptp(w) <= 1e-8 * w.min()
        # equal shares p: W2 = delta^2 p / 2 and W1 = s^2 delta^2 p / (2 - 2 rho),
        # written out because 1/p + 1/p - 2 rho / p cancels to <= 0 near rho = 1
        p = 1.0 / (2 * K + 1)
        equal = min(
            min(d * d * p / 2, (m * d) ** 2 * p / (2 - 2 * r))
            for d, m, r in zip(delta, magnitude, rho)
        )
        assert w.min() >= equal


class TestScenarioType:
    def test_scalar_promotion(self):
        scenario = DesignScenario(delta=0.3, synergy=1.2)
        assert scenario.K == 1
        assert scenario.rho_combo_control == (0.0,)

    @pytest.mark.parametrize("given, expected", [
        ({"delta": np.array(0.3), "synergy": 1.2}, {"delta": 0.3, "synergy": 1.2}),
        ({"delta": (0.3, 0.4), "synergy": np.array(1.2)}, {"delta": (0.3, 0.4), "synergy": 1.2}),
        ({"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_control": np.array(0.2)},
         {"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_control": 0.2}),
        ({"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_mono": np.array(-0.1)},
         {"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_mono": -0.1}),
        ({"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_control": np.array([0.2, 0.1])},
         {"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_control": (0.2, 0.1)}),
        ({"delta": np.array([0.3, 0.4]), "synergy": 1.2, "rho_combo_mono": np.array([0.2, 0.1])},
         {"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_mono": (0.2, 0.1)}),
        ({"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_control": np.array([])},
         {"delta": (0.3, 0.4), "synergy": 1.2, "rho_combo_control": (0.0, 0.0)}),
    ])
    def test_numpy_inputs_are_the_numbers_and_sequences_they_hold(self, given, expected):
        # as ArmCorrelations.per_substudy and PlatformArms take them: a 0-d
        # array is a number, given to every substudy, and an empty array of
        # correlations is 0 in each
        assert DesignScenario(**given) == DesignScenario(**expected)

    def test_a_numpy_sequence_of_the_wrong_length_is_named(self):
        message = r"rho_combo_control must have one entry per substudy \(2\), got 3"
        with pytest.raises(DomainError, match=message):
            DesignScenario((0.3, 0.4), 1.2, rho_combo_control=np.zeros(3))

    def test_validation(self):
        with pytest.raises(DomainError):
            DesignScenario(delta=(0.0,), synergy=(1.0,))
        with pytest.raises(DomainError):
            DesignScenario(delta=(0.3,), synergy=(1.0,), sigma2=0.0)
        with pytest.raises(DomainError):
            DesignScenario(delta=(0.3,), synergy=(1.0,), rho_combo_control=(1.5,))
        with pytest.raises(DomainError):
            DesignScenario(delta=(0.3, 0.4), synergy=(1.0,))
        with pytest.raises(DomainError, match="delta must name at least one substudy, got 0"):
            DesignScenario((), ())

    @pytest.mark.parametrize("field", ["delta", "sigma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_effect_or_variance_is_refused_by_name(self, field, value):
        # NaN passes `<= 0`; it used to fail later in the allocation or the
        # normal cdf, with a message that named neither
        values = {"delta": (0.3, 0.4), "synergy": (1.1, 1.0), "sigma2": 1.0}
        values[field] = (0.3, value) if field == "delta" else value
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            DesignScenario(**values)

    @pytest.mark.parametrize(
        "delta, synergy", [(1e200, 1.0), (1e-200, 1.0), (1.0, 1e200), (1.0, -1e-200)]
    )
    def test_effects_out_of_range_are_refused(self, delta, synergy):
        # their squares overflow or underflow: the allocation used to raise
        # OverflowError or ZeroDivisionError
        with pytest.raises(DomainError, match="synergy \\* delta must lie within"):
            DesignScenario(delta, synergy)

    @settings(max_examples=200, deadline=None)
    @given(
        exponents=st.lists(
            st.tuples(st.integers(-300, 300), st.integers(-300, 300)), min_size=1, max_size=2
        ),
        sign=st.sampled_from((-1.0, 1.0)),
    )
    def test_property_any_effects_give_finite_shares_or_a_typed_error(self, exponents, sign):
        delta = tuple(10.0**e for e, _ in exponents)
        synergy = tuple(sign * 10.0**e for _, e in exponents)
        zeros = (0.0,) * len(delta)
        try:
            ratios = optimize_allocation(DesignScenario(delta, synergy)).ratios
        except PlatformDesignError:
            pass
        else:
            assert all(0.0 < p < 1.0 for p in ratios)
        try:
            result = design(
                [delta], [synergy], [zeros], [zeros], [ErrorMetric.fwer(0.05)], 0.8, n_cap=2_000
            )
        except PlatformDesignError:
            pass
        else:
            assert np.isfinite(result.ratios).all() and (result.ratios > 0.0).all()
