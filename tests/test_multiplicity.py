"""Error metrics, conventional adjustments, and threshold solvers."""

import hashlib
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import (
    bvn_rectangle,
    chi_tail,
    classical_dunnett_threshold,
    column,
    evaluated_stop_search,
    holm_reject,
    mc_error_rates,
    mp_orthant,
    mvn_draws,
    pool_threshold_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from platformdesign import multiplicity, mvnorm
from platformdesign.allocation import DesignScenario, optimize_allocation
from platformdesign.correlation import (
    ArmCorrelations,
    PlatformArms,
    platform_z_correlation_matrix,
)
from platformdesign.errors import DomainError, RootBracketError
from platformdesign.multiplicity import (
    ErrorMetric,
    bivariate_error_rates,
    platform_threshold,
)
from platformdesign.mvnorm import (
    CorrelationMatrix,
    _QmcLattice,
    _RectangleEstimate,
    _std_normal_cdf,
)
from platformdesign.studies import run_threshold_curves, threshold_grid

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
    """Holm's step-down decisions: the oracle the study tests compare the
    Holm rows against."""

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
        return 1.0 - 2.0 * (2.0 * _std_normal_cdf(c) - 1.0) + inside

    return brentq(lambda c: level(c) - metric.alpha, 0.01, 6.0, xtol=1e-13)


class TestPThreshold:
    @pytest.mark.parametrize("c", [3.0, 4.5, 6.0, 7.5])
    def test_exact_two_sided_tail(self, c):
        with mp.workdps(40):
            exact = 2 * mp.ncdf(-mp.mpf(c))
            assert abs(multiplicity._p_threshold(c) / exact - 1) <= 1e-14


class TestGeneralizedDunnett:
    def test_fwer_independent_matches_sidak(self):
        result = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.fwer(0.05))
        assert result.critical_value == pytest.approx(SIDAK_C, abs=1e-3)
        assert result.p_threshold == pytest.approx(2 * (1 - _std_normal_cdf(SIDAK_C)), abs=1e-5)

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

    def test_unreachable_msfp_level_below_one_millionth(self):
        # at rho = -1 two statistics never both exceed c >= 0, so msfp is 0:
        # the level check is relative to alpha, and refuses this one too
        with pytest.raises(RootBracketError):
            platform_threshold(CorrelationMatrix.bivariate(-1.0), ErrorMetric("msfp", 1e-7))

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.6, 0.9])
    def test_fwer_solve_reaches_a_tiny_level(self, rho):
        result = platform_threshold(CorrelationMatrix.bivariate(rho), ErrorMetric.fwer(1e-10))
        assert abs(result.achieved / 1e-10 - 1.0) <= 1e-9

    def test_msfp_solve_reaches_a_tiny_level_at_negative_correlation(self):
        # at rho -0.9 the orthant at the root is a small part of its tails'
        # product; the level there, from mpmath and not from the kernel, is
        # alpha to 1e-11
        result = platform_threshold(CorrelationMatrix.bivariate(-0.9), ErrorMetric.msfp(1e-10))
        c = result.critical_value
        with mp.workdps(40):
            level = mp_orthant(c, c, -0.9)
        assert abs(float(level / mp.mpf(1e-10)) - 1.0) <= 1e-11


_BIVARIATE_LAWS = [(1, "two"), (2, "two"), (1, "one"), (2, "one")]


def _rectangle_level(rho: float, c: float, count: int, sided: str) -> float:
    """P(at least ``count`` of two statistics exceed c) from ``bvn_rectangle``
    boxes: 1 less the box where none does, or the orthant boxes where both
    do."""
    inf = math.inf
    if sided == "one":
        if count == 1:
            return 1.0 - bvn_rectangle((-inf, -inf), (c, c), rho)
        return bvn_rectangle((c, c), (inf, inf), rho)
    if c == 0.0:
        return 1.0
    if count == 1:
        return 1.0 - bvn_rectangle((-c, -c), (c, c), rho)
    corners = (((c, c), (inf, inf)), ((-inf, -inf), (-c, -c)),
               ((c, -inf), (inf, -c)), ((-inf, c), (-c, inf)))
    return sum(bvn_rectangle(lower, upper, rho) for lower, upper in corners)


class TestBivariateLevels:
    """Every exact two-statistic level from one statistic's tail Phi(-c)
    and the upper orthants U(c, c, +-rho)."""

    @pytest.mark.parametrize("count, sided", _BIVARIATE_LAWS)
    def test_levels_match_rectangles_and_slopes_match_differences(self, count, sided):
        rho = np.repeat([-1.0, -0.999, -0.93, -0.6, 0.0, 0.5, 0.9, 0.9999, 1.0], 7)
        c = np.tile([0.0, 1e-3, 0.05, 0.7, 2.2, 3.5, 6.0], 9)
        law = (count, sided == "two")
        level, slope, _ = multiplicity._bivariate_levels(rho, c, *law)
        expected = [_rectangle_level(r, x, count, sided) for r, x in zip(rho.tolist(), c.tolist())]
        np.testing.assert_allclose(level, expected, rtol=0.0, atol=1e-15)
        h = 1e-6
        up, *_ = multiplicity._bivariate_levels(rho, c + h, *law)
        down, *_ = multiplicity._bivariate_levels(rho, c - h, *law)
        assert np.all(np.isfinite(slope)) and np.all(slope <= 0.0)
        # a two-sided level is 1 at c <= 0, with slope 0 there
        smooth = c > 0.0 if sided == "two" else np.ones(c.shape, dtype=bool)
        central = (up - down) / (2.0 * h)
        np.testing.assert_allclose(slope[smooth], central[smooth], rtol=1e-6, atol=1e-8)
        assert np.all(slope[~smooth] == 0.0)

    @pytest.mark.parametrize("count, sided", _BIVARIATE_LAWS)
    def test_curvatures_match_differences_of_the_slope(self, count, sided):
        rho = np.repeat([-1.0, -0.999999, -0.5, 0.0, 0.5, 0.999999, 1.0], 7)
        c = np.tile([-1.5, -0.3, 0.0, 0.05, 0.7, 2.2, 3.5], 7)
        law = (count, sided == "two")
        _, _, curvature = multiplicity._bivariate_levels(rho, c, *law)
        h = 1e-6
        _, up, _ = multiplicity._bivariate_levels(rho, c + h, *law)
        _, down, _ = multiplicity._bivariate_levels(rho, c - h, *law)
        assert np.all(np.isfinite(curvature))
        # a two-sided level is 1 at c <= 0, with curvature 0 there; at r = -1
        # both statistics exceed 0 only on a null set, so a one-sided slope
        # jumps at c = 0
        smooth = c > 0.0 if sided == "two" else ~((np.abs(rho) == 1.0) & (c == 0.0))
        central = (up - down) / (2.0 * h)
        np.testing.assert_allclose(curvature[smooth], central[smooth], rtol=1e-6, atol=1e-8)
        if sided == "two":
            assert np.all(curvature[~smooth] == 0.0)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("c", [5.5, 6.0])
    def test_any_exceedance_far_in_the_tail_against_mpmath(self, rho, c):
        # 1 - P(box) keeps only about 1e-16 / level of relative precision here
        with mp.workdps(30):
            tail = mp.ncdf(-c)
            same, opposite = mp_orthant(c, c, rho), mp_orthant(c, c, -rho)
            fwer, one_sided = 4 * tail - 2 * same - 2 * opposite, 2 * tail - same
        (got_fwer, got_one_sided), *_ = multiplicity._bivariate_levels(rho, c, 1, [True, False])
        assert abs(got_fwer / float(fwer) - 1.0) <= 1e-12
        assert abs(got_one_sided / float(one_sided) - 1.0) <= 1e-12

    def test_a_batch_of_mixed_laws_equals_one_call_per_law(self):
        # each element on its own law, in turn or on a trailing axis, over
        # 63 points with c <= 0 and r = +-1 among them: bit for bit the call
        # that evaluates that law alone, in level, slope and curvature
        rho = np.repeat([-1.0, -0.999, -0.6, -0.3, 0.0, 0.5, 0.7, 0.9999, 1.0], 7)
        c = np.tile([-1.5, -0.3, 0.0, 0.05, 0.7, 2.2, 6.0], 9)
        count = np.array([n for n, _ in _BIVARIATE_LAWS])
        two_sided = np.array([sided == "two" for _, sided in _BIVARIATE_LAWS])
        law = np.arange(rho.size) % len(_BIVARIATE_LAWS)
        mixed = multiplicity._bivariate_levels(rho, c, count[law], two_sided[law])
        trailing = multiplicity._bivariate_levels(rho[:, None], c[:, None], count, two_sided)
        for j, (n, sided) in enumerate(_BIVARIATE_LAWS):
            alone = multiplicity._bivariate_levels(rho, c, n, sided == "two")
            for each, mixed_each, trailing_each in zip(alone, mixed, trailing):
                assert mixed_each[law == j].tolist() == each[law == j].tolist()
                assert trailing_each[:, j].tolist() == each.tolist()

    def test_metric_levels_on_a_grid_equal_the_rates_at_each_point(self):
        # a (cut, allocation, point) grid as the adjustments study builds it:
        # fwer, fmer and msfp on a last axis, bit for bit the rates of each
        # (correlation, cut) alone, and their dict view
        rho = np.linspace(-0.99, 0.99, 91) * np.array([1.0, 0.9, -0.8, 0.5])[:, None]
        cuts = np.array([1.96, 2.24, 2.5])[:, None, None] + 0.01 * np.arange(4)[:, None]
        levels = multiplicity._metric_levels(rho, cuts)
        assert levels.shape == (3, 4, 91, 3)
        for (i, a, k), cut in np.ndenumerate(np.broadcast_to(cuts, (3, 4, 91))):
            rates = bivariate_error_rates(float(rho[a, k]), float(cut))
            assert levels[i, a, k].tolist() == [rates["fwer"], rates["fmer"], rates["msfp"]]
        rates = bivariate_error_rates(rho, cuts)
        for j, kind in enumerate(("fwer", "fmer", "msfp")):
            assert rates[kind].tolist() == levels[..., j].tolist()

    @pytest.mark.parametrize(
        "rho, c", [(0.3, math.nan), (1.2, 2.0), ([0.1, -1.5], 2.0), (0.3, [1.0, math.nan])]
    )
    def test_rates_refuse_a_nan_cut_and_a_correlation_outside(self, rho, c):
        with pytest.raises(DomainError):
            bivariate_error_rates(rho, c)


class TestClassicalDunnett:
    def test_equal_allocation_against_quadrature_oracle(self):
        arms = PlatformArms(90, 90, 90, ArmCorrelations(1))
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
        # rho* -> 1/(n_ab terms) ~ 0... stays tiny
        arms = PlatformArms(1, 1, 1e8, ArmCorrelations(1))
        arms = PlatformArms(1e8, 1e8, 1, ArmCorrelations(1))
        result = classical_dunnett_threshold(arms, 0.05)
        assert result.critical_value == pytest.approx(SIDAK_C, abs=1e-3)

    def test_perfect_comparator_correlation_single_test(self):
        arms = PlatformArms(1, 1, 1e12, ArmCorrelations(1))
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
            CorrelationMatrix(np.eye(4)), ErrorMetric.fwer(0.05), precision=5e-5, seed=3
        )
        assert result.critical_value == pytest.approx(2.4909151310191397, abs=5e-3)

    def test_mfwer_m2_against_brute_force_oracle(self):
        # independent oracle: one-million-draw direct count, separate seed path
        corr = CorrelationMatrix(np.eye(4))
        metric = ErrorMetric.mfwer(2, 0.05)
        result = platform_threshold(corr, metric, seed=5, replications=400_000)
        draws = np.random.default_rng(987654).standard_normal((1_000_000, 4))
        oracle_level = float(np.mean((np.abs(draws) > result.critical_value).sum(axis=1) >= 2))
        se = math.sqrt(oracle_level * (1 - oracle_level) / 1_000_000)
        assert abs(oracle_level - 0.05) <= 3 * (se + result.achieved_stderr)
        # exact binomial solution for four independent two-sided tests
        assert result.critical_value == pytest.approx(1.6565451830949594, abs=5e-3)

    def test_structured_k2_matrix_against_brute_force(self):
        # shared-control platform with one cross-substudy correlation entry,
        # (combo_1, mono_2); arm order (A, B_1, AB_1, B_2, AB_2)
        table = ArmCorrelations(2, matrix=[
            [1.0, 0.0, 0.3, 0.0, 0.2],
            [0.0, 1.0, 0.5, 0.0, 0.0],
            [0.3, 0.5, 1.0, 0.25, 0.0],
            [0.0, 0.0, 0.25, 1.0, 0.4],
            [0.2, 0.0, 0.0, 0.4, 1.0],
        ])
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
            platform_threshold(CorrelationMatrix(np.eye(4)), ErrorMetric.mfwer(5, 0.05))

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
        # the null pool is seeded blocks of directions, each integrated over
        # the radius; any change to those draws, to the radial sums or to
        # their order moves these values
        corr = _platform_z_corr(2)
        two = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05))
        one = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05, sided="one"), seed=5)
        assert two.critical_value == 1.835451846424511
        assert one.critical_value == 1.5686420716327438

    def test_monotone_in_alpha(self):
        corr = CorrelationMatrix(np.eye(4) * 0.6 + np.full((4, 4), 0.4))
        c_tight = platform_threshold(corr, ErrorMetric.mfwer(2, 0.01), seed=1).critical_value
        c_loose = platform_threshold(corr, ErrorMetric.mfwer(2, 0.10), seed=1).critical_value
        assert c_tight > c_loose


def _platform_z_corr(K):
    """Z correlation of a K-substudy platform with unequal arms."""
    n_mono = tuple(60.0 + 10 * k for k in range(K))
    n_combo = tuple(90.0 - 5 * k for k in range(K))
    table = ArmCorrelations.per_substudy((0.3,) * K, (0.5,) * K)
    return platform_z_correlation_matrix(PlatformArms(150.0, n_mono, n_combo, table))


def _optimised_design_z_corr(K, index):
    """Z correlation of a max-min optimised K-substudy design at nominal
    arm sizes, for the ``index``-th scenario of a seeded stream: effects,
    synergies and arm correlations drawn as a designer's sweep draws them,
    with the combination-control correlations kept inside the positive
    definite range."""
    rng = np.random.default_rng([index, K])
    delta, synergy = rng.uniform(0.25, 0.6, K), rng.uniform(0.8, 1.4, K)
    rho_cm = rng.uniform(0.1, 0.7, K)
    rho_cc = np.sqrt(rng.uniform(0.1, 1.0, K) * 0.9 * (1.0 - rho_cm**2) / K)
    scenario = DesignScenario(tuple(delta), tuple(synergy), 1.0, tuple(rho_cc), tuple(rho_cm))
    nominal = [1000.0 * r for r in optimize_allocation(scenario).ratios]
    arms = PlatformArms(
        nominal[0], tuple(nominal[1::2]), tuple(nominal[2::2]),
        ArmCorrelations.from_scenario(scenario),
    )
    return platform_z_correlation_matrix(arms)


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class _CurveLattice:
    """Stands in for a :class:`_QmcLattice` whose any-exceedance level is the
    function ``level`` of c, with derivative ``d_level``, and no standard
    error; it records the c of every evaluation."""

    def __init__(self, level, d_level):
        self.level, self.d_level, self.visited = level, d_level, []

    def estimate(self, lower, upper):
        c = float(upper[0])
        self.visited.append(c)
        return _RectangleEstimate(1.0 - self.level(c), 0.0, 1, -self.d_level(c))

    def refine(self, lower, upper, precision):
        return self.estimate(lower, upper)


def _lattice_is_curve(monkeypatch, curve, metric, dim):
    """Put ``curve`` in place of the lattice of platform_threshold's
    any-exceedance solves, and return the bracket of ``metric`` on ``dim``
    independent statistics."""
    monkeypatch.setattr(multiplicity, "_QmcLattice", lambda z_corr, seed: curve)
    return tuple(float(end) for end in multiplicity._bracket(metric, dim, 0.0))


class TestThresholdSolver:
    """One bracketed root search per solve, on a deterministic level."""

    def test_fixed_lattice_level_is_deterministic_and_monotone(self):
        z_corr = _platform_z_corr(2)
        lattice = _QmcLattice(z_corr, seed=0)
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

    @pytest.mark.parametrize("K", [2, 4, 6])
    @pytest.mark.parametrize("sided", ["two", "one"])
    def test_lattice_slope_is_the_derivative_of_its_level(self, K, sided):
        # the slope the search steps on is the derivative of the level it
        # solves, on the same points
        dim = 2 * K
        lattice = _QmcLattice(_platform_z_corr(K), seed=0)

        def estimate(c):
            lower = np.full(dim, -c) if sided == "two" else np.full(dim, -math.inf)
            return lattice.estimate(lower, np.full(dim, c))

        c, h = 2.5, 1e-5
        central = (estimate(c + h).value - estimate(c - h).value) / (2.0 * h)
        assert estimate(c).slope == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("K", [4, 6])
    @pytest.mark.parametrize("sided", ["two", "one"])
    def test_variable_order_lowers_the_stderr_of_optimised_designs(self, monkeypatch, K, sided):
        # RMS standard error over seeds 0-11 and four optimised designs, at
        # the first lattice size and the bracket's upper end, where the
        # solve decides whether the lattice must grow; the reference takes
        # the variables in their given order
        dim = 2 * K
        metric = ErrorMetric.mfwer(1, 0.05, sided)
        designs = [_optimised_design_z_corr(K, index) for index in range(4)]

        def rms_stderr():
            squares = []
            for z_corr in designs:
                c = float(multiplicity._bracket(metric, dim, z_corr.entries[0, 1])[1])
                lower = np.full(dim, -c if sided == "two" else -math.inf)
                squares += [
                    _QmcLattice(z_corr, seed).estimate(lower, np.full(dim, c)).stderr ** 2
                    for seed in range(12)
                ]
            return math.sqrt(np.mean(squares))

        ordered = rms_stderr()
        monkeypatch.setattr(mvnorm, "_smallest_residual_order", lambda m: np.arange(len(m)))
        assert ordered < rms_stderr()

    @pytest.mark.parametrize("K, sided", [(2, "two"), (2, "one"), (4, "one")])
    def test_level_against_scipy_mvn_cdf(self, K, sided):
        from scipy.stats import multivariate_normal

        z_corr, dim = _platform_z_corr(K), 2 * K
        result = platform_threshold(z_corr, ErrorMetric.mfwer(1, 0.05, sided))
        c = result.critical_value
        inside = multivariate_normal.cdf(
            np.full(dim, c), np.zeros(dim), z_corr.entries,
            lower_limit=np.full(dim, -c if sided == "two" else -math.inf),
            abseps=1e-6, releps=0.0,
        )
        assert abs((1.0 - inside) - 0.05) <= 5 * result.achieved_stderr + 1e-6

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_lattice_evaluations_per_solve(self, monkeypatch, K):
        builds = _counting(monkeypatch, _QmcLattice, "__init__")
        calls = _counting(monkeypatch, _QmcLattice, "estimate")
        result = platform_threshold(_platform_z_corr(K), ErrorMetric.fwer(0.05))
        assert len(builds) == 1
        assert 0 < len(calls) <= 5
        assert result.achieved_stderr <= 1e-4

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_lattice_solve_matches_brentq_on_its_points(self, monkeypatch, K):
        builds = _counting(monkeypatch, _QmcLattice, "__init__")
        result = platform_threshold(_platform_z_corr(K), ErrorMetric.fwer(0.05))
        lattice, dim = builds[0][0], 2 * K  # as the solve left it grown

        def excess(c):
            return 1.0 - lattice.estimate(np.full(dim, -c), np.full(dim, c)).value - 0.05

        oracle = brentq(excess, 1.5, 4.0, xtol=1e-12)
        assert result.critical_value == pytest.approx(oracle, abs=1e-8)

    def test_lattice_search_steps_to_the_open_end_then_bisects(self, monkeypatch):
        # a level whose h is flat at the bracket's upper end: the first
        # Newton step passes the lower end, which has not been evaluated, so
        # the search goes there; the next passes the upper end, evaluated
        # by then, and is bisected; Newton steps finish the search
        root, alpha = 2.3, 0.05
        curve = _CurveLattice(
            lambda c: alpha * (1.0 + 0.9 * math.tanh(5.0 * (root - c))),
            lambda c: -4.5 * alpha / math.cosh(5.0 * (root - c)) ** 2,
        )
        metric = ErrorMetric.fwer(alpha)
        low, high = _lattice_is_curve(monkeypatch, curve, metric, 12)
        result = platform_threshold(CorrelationMatrix(np.eye(12)), metric)
        assert abs(result.critical_value - root) <= 1e-8
        assert result.achieved == pytest.approx(alpha, abs=1e-9)
        assert curve.visited[:3] == [high, low, (low + high) / 2.0]
        assert len(curve.visited) <= 8

    @pytest.mark.parametrize(
        "place, steepness",
        [(2.3, 5.0), (2.1, 2.0), (2.6, 1.0), (2.5, 0.5), ("low", 5.0), ("middle", 5.0)],
    )
    def test_lattice_search_ends_unevaluated_only_after_two_newton_steps(
        self, monkeypatch, place, steepness
    ):
        # the search may end on a step it does not evaluate only when that
        # step and the one before it are Newton steps on h.  "low" and
        # "middle" put the root 5e-4 past the bracket's lower end and its
        # midpoint, where the search lands by a clamped step and by a
        # bisection; the short Newton step out of either is still evaluated
        alpha, metric = 0.05, ErrorMetric.fwer(0.05)
        low, high = (float(end) for end in multiplicity._bracket(metric, 12, 0.0))
        landing = {"low": low, "middle": (low + high) / 2.0}.get(place)
        root = place if landing is None else landing + 5e-4
        curve = _CurveLattice(
            lambda c: alpha * (1.0 + 0.9 * math.tanh(steepness * (root - c))),
            lambda c: -0.9 * steepness * alpha / math.cosh(steepness * (root - c)) ** 2,
        )
        _lattice_is_curve(monkeypatch, curve, metric, 12)
        h_target = math.sqrt(-2.0 * math.log(alpha))

        def newton(c):  # the unclamped Newton point on h from c
            f = curve.level(c)
            h = math.sqrt(-2.0 * math.log(f))
            return c + (h_target - h) * f * h / -curve.d_level(c)

        result = platform_threshold(CorrelationMatrix(np.eye(12)), metric)
        c, visited = result.critical_value, curve.visited
        assert abs(c - root) <= 1e-8
        assert result.achieved == pytest.approx(alpha, abs=1e-9)
        if c not in visited:  # ended on a Newton step out of a Newton step
            assert c == pytest.approx(newton(visited[-1]), abs=1e-14)
            assert visited[-1] == pytest.approx(newton(visited[-2]), abs=1e-14)
        if landing is not None:
            i = visited.index(landing)
            assert visited[i + 1 : i + 2] == [pytest.approx(newton(landing), abs=1e-14)]

    def test_lattice_search_without_a_crossing_returns_the_bracket_end(self, monkeypatch):
        # a level above alpha everywhere: the search stops at the upper end
        # and platform_threshold's level check reports the miss
        curve = _CurveLattice(lambda c: 0.2, lambda c: 0.0)
        _, high = _lattice_is_curve(monkeypatch, curve, ErrorMetric.fwer(0.05), 4)
        with pytest.raises(RootBracketError, match="is 0.2"):
            platform_threshold(CorrelationMatrix(np.eye(4)), ErrorMetric.fwer(0.05))
        assert curve.visited == [high]

    def test_level_check_names_the_first_miss_in_metric_major_order(self):
        # three metrics by four correlations, each element toward its own
        # alpha: elements 6 (fmer) and 9 (msfp) miss, and the message names
        # element 6 as a check of the fmer column alone would
        alpha = np.repeat([0.05, 0.0025, 0.000625], 4)
        c_star = 1.5 + 0.1 * np.arange(12)
        achieved, tolerance = alpha.copy(), 1e-6 * alpha
        achieved[[6, 9]] = [0.0026, 0.0007]
        achieved[3] += 0.5 * tolerance[3]  # within its tolerance
        with pytest.raises(RootBracketError) as caught:
            multiplicity._check_level(alpha, c_star, achieved, tolerance)
        assert str(caught.value) == (
            f"no critical value c >= 0 reaches level {0.0025:.6g}: the level at "
            f"c = {c_star[6]:.6g} is {0.0026:.6g}, more than {tolerance[6]:.2g} away"
        )
        multiplicity._check_level(alpha[:6], c_star[:6], achieved[:6], tolerance[:6])
        with pytest.raises(RootBracketError, match="reaches level 0.05: the level at c = 2 is"):
            multiplicity._check_level(0.05, 2.0, 0.07, 1e-4)

    def test_k4_lattice_solve_is_pinned(self, monkeypatch):
        # three estimates at the bracket's upper end (the lattice grows
        # twice there), then one Newton step on h with the lattice's own
        # slope; the second Newton step is predicted to leave a third under
        # 1e-9, so it is taken without a pass to confirm it
        calls = _counting(monkeypatch, _QmcLattice, "estimate")
        result = platform_threshold(_platform_z_corr(4), ErrorMetric.fwer(0.05))
        assert repr(result.critical_value) == "2.6900007154873746"
        assert len(calls) == 4

    def test_regrowth_at_the_root_continues_from_it(self, monkeypatch):
        # at this precision and seed the standard error meets the precision
        # at the bracket's upper end but not at the root, so the lattice
        # grows there and the search goes on from that root; it grows
        # before evaluating the root again, so no box is evaluated twice on
        # the same points
        refines = _counting(monkeypatch, _QmcLattice, "refine")
        calls, estimate = [], _QmcLattice.estimate

        def logged(lattice, lower, upper):
            calls.append((lattice.total_points, float(upper[0])))
            return estimate(lattice, lower, upper)

        monkeypatch.setattr(_QmcLattice, "estimate", logged)
        z_corr = _platform_z_corr(4)
        result = platform_threshold(z_corr, ErrorMetric.fwer(0.05), precision=1e-4, seed=6)
        assert len(calls) <= 8
        assert len(set(calls)) == len(calls)
        assert result.achieved_stderr <= 1e-4
        assert len(refines) == 2
        (lattice, lower, upper, _), (_, _, at_root, _) = refines
        assert abs(at_root[0] - result.critical_value) < 1e-3 < upper[0] - at_root[0]
        grown_at_high = _QmcLattice(z_corr, seed=6).refine(lower, upper, 1e-4)
        assert lattice.total_points > grown_at_high.n_points

    def test_pool_root_is_the_smallest_c_at_level(self):
        # the pool's level is the mean over directions of P(chi_4 > c / T),
        # 0 where T <= 0; it is continuous, so its root lands on alpha
        from scipy.stats import chi

        corr, n = _platform_z_corr(2), 20_000
        for sided in ("two", "one"):
            metric = ErrorMetric.mfwer(2, 0.05, sided)
            result = platform_threshold(corr, metric, seed=3, replications=n)
            assert abs(result.achieved - 0.05) <= 1e-9
            stat = multiplicity._tail_count_statistic(corr, 2, sided, n, 3)
            terms = np.zeros(n)
            terms[stat > 0] = chi.sf(result.critical_value / stat[stat > 0], corr.dim)
            assert result.achieved == pytest.approx(terms.mean(), rel=1e-12)
            assert result.achieved_stderr == pytest.approx(terms.std() / math.sqrt(n), rel=1e-9)

    @pytest.mark.parametrize("rho", np.linspace(-0.95, 0.99, 14).round(4).tolist())
    @pytest.mark.parametrize(
        "metric",
        [ErrorMetric.fwer(0.05), ErrorMetric.fmer(0.0025), ErrorMetric.msfp(0.000625)],
        ids=lambda m: m.kind,
    )
    def test_k1_solve_matches_brentq_in_few_evaluations(self, monkeypatch, rho, metric):
        # one call of the level per evaluation of the one-element search
        evaluations = _counting(monkeypatch, multiplicity, "_bivariate_levels")
        result = platform_threshold(CorrelationMatrix.bivariate(rho), metric)
        assert len(evaluations) <= 8
        oracle = brentq(
            lambda c: bivariate_error_rates(rho, c)[metric.kind] - metric.alpha,
            1e-6, 6.0, xtol=1e-14,
        )
        assert result.critical_value == pytest.approx(oracle, abs=1e-9)
        assert result.achieved == pytest.approx(metric.alpha, abs=1e-12)


    @pytest.mark.parametrize(
        "metric",
        [ErrorMetric.fwer(), ErrorMetric.fmer(), ErrorMetric.msfp(),
         ErrorMetric.fwer(1e-6), ErrorMetric.fmer(1e-8), ErrorMetric.msfp(1e-10)],
        ids=lambda m: f"{m.kind}-{m.alpha:g}",
    )
    def test_k1_batch_meets_brentq_to_1e_12(self, metric):
        # the batched Halley search from its interpolated start, against
        # brentq on the exact law
        rho = np.linspace(-0.99, 0.99, 67)
        c = multiplicity._bivariate_critical_values(rho, (metric,))[:, 0]
        for r, got in zip(rho.tolist(), c.tolist()):
            oracle = brentq(
                lambda x: bivariate_error_rates(r, x)[metric.kind] - metric.alpha,
                0.0, 8.0, xtol=1e-15, rtol=1e-15,
            )
            assert abs(got - oracle) <= 1e-12


# six optimised designs at each K = 2-6
_DESIGNS = [(K, index) for K in range(2, 7) for index in range(6)]


class TestLatticeFollowsPrecision:
    """A K > 1 fwer solve pays for the precision it is asked for: its lattice
    starts small and grows only until the level's standard error meets
    ``precision``."""

    @pytest.mark.parametrize("K, index", _DESIGNS)
    def test_level_meets_precision_on_a_lattice_sized_to_it(self, monkeypatch, K, index):
        from scipy.stats import multivariate_normal

        builds = _counting(monkeypatch, _QmcLattice, "__init__")
        z_corr, dim, precision = _optimised_design_z_corr(K, index), 2 * K, 1e-4
        result = platform_threshold(z_corr, ErrorMetric.fwer(0.05), precision=precision)
        assert 0.0 < result.achieved_stderr <= precision
        c, abseps = result.critical_value, 1e-5
        inside = multivariate_normal.cdf(
            np.full(dim, c), np.zeros(dim), z_corr.entries,
            lower_limit=np.full(dim, -c), abseps=abseps, releps=0.0,
        )
        assert abs((1.0 - inside) - 0.05) <= max(1e-4, 6 * result.achieved_stderr) + abseps
        # fewer points than 12 shifted lattices of 128 x dim, unless that
        # size misses the precision where the solve refines: at the
        # bracket's upper end or at the root
        lattice = builds[0][0]
        if lattice.total_points >= 12 * 128 * dim:
            at_128 = _QmcLattice(z_corr, seed=0)
            while at_128.n_points < 128 * dim:
                at_128.grow()
            high = float(multiplicity._bracket(result.metric, dim, z_corr.entries[0, 1])[1])
            stderrs = [at_128.estimate(np.full(dim, -x), np.full(dim, x)).stderr
                       for x in (high, c)]
            assert max(stderrs) > precision

    @pytest.mark.parametrize("K", range(2, 7))
    def test_looser_precision_draws_no_more_points(self, monkeypatch, K):
        builds = _counting(monkeypatch, _QmcLattice, "__init__")
        z_corr, totals = _optimised_design_z_corr(K, 0), []
        for precision in (1e-5, 1e-4, 1e-3):
            result = platform_threshold(z_corr, ErrorMetric.fwer(0.05), precision=precision)
            assert result.achieved_stderr <= precision
            totals.append(builds[-1][0].total_points)
        assert totals == sorted(totals, reverse=True)


class TestPredictedStop:
    """Every search ends on a Newton step predicted to leave its successor
    under a tenth of its tolerance, without a pass to confirm it: the same
    c* as the evaluated stop (:func:`conftest.evaluated_stop_search`), in
    fewer passes, and an ``achieved`` that is the law's level at c* wherever
    the law is exact."""

    @pytest.mark.parametrize("K, index", _DESIGNS)
    def test_same_c_star_and_level_as_an_evaluated_stop(self, monkeypatch, K, index):
        builds = _counting(monkeypatch, _QmcLattice, "__init__")
        calls = _counting(monkeypatch, _QmcLattice, "estimate")
        z_corr, dim = _optimised_design_z_corr(K, index), 2 * K
        for sided in ("two", "one"):
            metric = ErrorMetric.mfwer(1, 0.05, sided)
            for precision in (1e-4, 2e-5):
                calls.clear()
                result = platform_threshold(z_corr, metric, precision=precision)
                lattice, predicted_calls = builds[-1][0], len(calls)
                c = result.critical_value
                lower = np.full(dim, -c if sided == "two" else -math.inf)
                on_its_points = 1.0 - lattice.estimate(lower, np.full(dim, c)).value
                assert abs(result.achieved - on_its_points) <= 1e-10
                with monkeypatch.context() as patch:
                    patch.setattr(multiplicity, "_solve_decreasing", evaluated_stop_search)
                    calls.clear()
                    reference = platform_threshold(z_corr, metric, precision=precision)
                assert c == reference.critical_value
                assert predicted_calls <= len(calls)

    def test_bivariate_batch_ends_on_the_evaluated_c_star(self, monkeypatch):
        # the thresholds study's grid, every (correlation, metric) in one
        # search: the same c* bit for bit, in fewer batched evaluations
        grid = threshold_grid()
        evaluations = _counting(monkeypatch, multiplicity, "_bivariate_levels")
        predicted = column(run_threshold_curves(grid), "c_star")
        batches = len(evaluations)
        with monkeypatch.context() as patch:
            patch.setattr(multiplicity, "_solve_decreasing", evaluated_stop_search)
            evaluations.clear()
            evaluated = column(run_threshold_curves(grid), "c_star")
        assert predicted == evaluated
        assert batches == 2 and batches < len(evaluations)

    @pytest.mark.parametrize("metric", [
        ErrorMetric.fwer(), ErrorMetric.fmer(), ErrorMetric.msfp(),
        ErrorMetric.mfwer(2, 0.01, "one"),
    ], ids=["fwer", "fmer", "msfp", "mfwer-m2-one"])
    def test_bivariate_achieved_is_the_exact_level_at_c_star(self, monkeypatch, metric):
        law = (metric.exceedance_count, metric.effective_sided == "two")
        for rho in np.linspace(-0.99, 0.99, 23).tolist():
            z_corr = CorrelationMatrix.bivariate(rho)
            result = platform_threshold(z_corr, metric)
            c = result.critical_value
            level, *_ = multiplicity._bivariate_levels(rho, np.array([c]), *law)
            assert result.achieved == level[0]
            with monkeypatch.context() as patch:
                patch.setattr(multiplicity, "_solve_decreasing", evaluated_stop_search)
                reference = platform_threshold(z_corr, metric)
            assert (c, result.achieved) == (reference.critical_value, reference.achieved)

    @pytest.mark.parametrize("K", range(2, 7))
    def test_count_pool_ends_on_the_evaluated_c_star(self, monkeypatch, K):
        # the count pool: the same c*, achieved and stderr bit for bit, and
        # achieved is the pool's level at c*
        z_corr, passes = _optimised_design_z_corr(K, 0), []
        radial_level = multiplicity._radial_level

        def counted(stat, dim):
            law = radial_level(stat, dim)

            def each(c, spread=False):
                passes.append(c)
                return law(c, spread)

            return each

        monkeypatch.setattr(multiplicity, "_radial_level", counted)
        for metric in (ErrorMetric.fmer(), ErrorMetric.msfp(), ErrorMetric.mfwer(2, 0.05)):
            passes.clear()
            result = platform_threshold(z_corr, metric)
            predicted = len(passes)
            with monkeypatch.context() as patch:
                patch.setattr(multiplicity, "_solve_decreasing", evaluated_stop_search)
                passes.clear()
                reference = platform_threshold(z_corr, metric)
            assert result.critical_value == reference.critical_value
            assert result.achieved == reference.achieved
            assert result.achieved_stderr == reference.achieved_stderr
            assert predicted <= len(passes)
            stat = multiplicity._tail_count_statistic(
                z_corr, metric.exceedance_count, metric.effective_sided, 65_536, 0
            )
            law = radial_level(stat, 2 * K)
            assert result.achieved == law(result.critical_value)[0]


def _decreasing_family(n, seed):
    """Levels a - b t^3 - d t + e tanh(t) with t = c - r, and their slopes:
    root r at the target a, slope -3 b t^2 - d + e sech(t)^2 < 0, nearly
    flat near r where d and e are small."""
    rng = np.random.default_rng(seed)
    root = rng.uniform(0.5, 3.5, n)
    b, d = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 1.0, n)
    e = rng.uniform(-1.0, 0.0, n) * d
    b[rng.random(n) < 0.2] = 0.0
    d[b == 0.0] += 0.5

    def level(c, active, target=0.05):
        t = c - root[active]
        value = target - b[active] * t**3 - d[active] * t + e[active] * np.tanh(t)
        slope = -3.0 * b[active] * t**2 - d[active] + e[active] / np.cosh(t) ** 2
        return value, slope

    return root, level


class TestSharedSearch:
    """The one root search behind every threshold: safeguarded Newton on
    h(c) = sqrt(-2 log level(c)), elementwise."""

    def test_matches_brentq_per_element(self):
        root, level = _decreasing_family(300, seed=1)
        low, high = np.zeros(300), np.full(300, 4.0)
        c, achieved = multiplicity._solve_decreasing(level, 0.05, low, high, high, x_tol=1e-12)
        for i in range(300):
            one = np.array([i])
            expected = brentq(
                lambda x: level(np.array([x]), one)[0][0] - 0.05, 0.0, 4.0, xtol=1e-12
            )
            assert abs(c[i] - expected) <= 1e-12
            assert abs(c[i] - root[i]) <= 1e-11
        assert np.all(np.abs(achieved - 0.05) <= 1e-10)

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_a_slope_off_by_two_still_reaches_the_root(self, scale):
        # a slope twice too large halves each Newton step's error; one half
        # too large steps across the root and back, and without the stall
        # guard alternates for thousands of evaluations
        root, level = _decreasing_family(300, seed=1)
        evaluations = np.zeros(300, dtype=int)

        def misreported(c, active):
            evaluations[active] += 1
            assert evaluations.max() <= 1000, "the search stalls"
            value, slope = level(c, active)
            return value, scale * slope

        high = np.full(300, 4.0)
        c, _ = multiplicity._solve_decreasing(misreported, 0.05, np.zeros(300), high, high, 1e-12)
        # bisection alone would take 42 evaluations to 1e-12 from [0, 4]
        assert evaluations.max() <= 100
        # the last step is at most x_tol, and the error at most twice that
        # when the steps fall short by half
        assert np.all(np.abs(c - root) <= 2.5e-12)

    def test_level_sees_only_the_active_elements(self):
        root, level = _decreasing_family(50, seed=3)
        seen = []

        def recorded(c, active):
            assert c.shape == active.shape
            seen.append(active.copy())
            return level(c, active)

        high = np.full(50, 4.0)
        multiplicity._solve_decreasing(recorded, 0.05, np.zeros(50), high, high, 1e-12)
        assert seen[0].tolist() == list(range(50))
        # each evaluation is of a subset of the last
        for before, after in zip(seen, seen[1:]):
            assert set(after.tolist()) <= set(before.tolist())
        assert seen[-1].size < 50

    def test_no_crossing_returns_the_bracket_end(self):
        # above target on all of [1, 2], below it on all of [3, 4], and a
        # root at 2 inside [0, 4]
        levels = {
            0: (lambda c: 0.5 - 0.01 * c, -0.01),
            1: (lambda c: 0.01 - 0.001 * c, -0.001),
            2: (lambda c: 0.05 * math.exp(2.0 - c), None),
        }
        points = {0: [], 1: [], 2: []}

        def level(c, active):
            value, slope = [], []
            for i, x in zip(active.tolist(), c.tolist()):
                points[i].append(x)
                f, df = levels[i]
                value.append(f(x))
                slope.append(-f(x) if df is None else df)
            return np.array(value), np.array(slope)

        c, achieved = multiplicity._solve_decreasing(
            level, 0.05, np.array([1.0, 3.0, 0.0]), np.array([2.0, 4.0, 4.0]),
            np.array([2.0, 4.0, 4.0]), x_tol=1e-12,
        )
        assert c[0] == 2.0 and achieved[0] == pytest.approx(0.48) and points[0] == [2.0]
        assert c[1] == 3.0 and achieved[1] == pytest.approx(0.007) and points[1] == [4.0, 3.0]
        assert c[2] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "metric, rho",
        [(ErrorMetric.fwer(), 1.0), (ErrorMetric.fwer(), -1.0),
         (ErrorMetric.fmer(), 0.0), (ErrorMetric.msfp(), 0.0)],
        ids=["fwer-1", "fwer--1", "fmer-0", "msfp-0"],
    )
    def test_root_on_the_lower_bracket_end(self, monkeypatch, metric, rho):
        # at these correlations the level is one statistic's tail (fwer) or
        # two independent tails' product (fmer, msfp): the bracket's lower
        # end is the exact root, and a Newton step that passes it goes there
        evaluations = _counting(monkeypatch, multiplicity, "_bivariate_levels")
        c = multiplicity._bivariate_critical_values(rho, (metric,))
        assert len(evaluations) <= 6
        low, _ = multiplicity._bracket(metric, 2, np.array([rho]))
        assert abs(c[0, 0] - low[0]) <= 1e-12
        achieved = platform_threshold(CorrelationMatrix.bivariate(rho), metric).achieved
        assert achieved == pytest.approx(metric.alpha, abs=1e-15)

    def test_batch_equals_one_solve_per_correlation(self, monkeypatch):
        # every (correlation, metric) in one search, each element on its own
        # metric's law and target: bit for bit one solve per element, with
        # one level evaluation per step for all of them
        rho = np.linspace(-0.99, 0.99, 23)
        metrics = (ErrorMetric.fwer(0.05), ErrorMetric.fmer(0.0025), ErrorMetric.msfp(0.000625))
        evaluations = _counting(monkeypatch, multiplicity, "_bivariate_levels")
        c = multiplicity._bivariate_critical_values(rho, metrics)
        batched = len(evaluations)
        assert c.shape == (rho.size, len(metrics))
        steps = []
        for j, metric in enumerate(metrics):
            evaluations.clear()
            alone = multiplicity._bivariate_critical_values(rho, (metric,))
            steps.append(len(evaluations))
            assert alone[:, 0].tolist() == c[:, j].tolist()
            law = (metric.exceedance_count, metric.effective_sided == "two")
            for i, r in enumerate(rho.tolist()):
                one = platform_threshold(CorrelationMatrix.bivariate(r), metric)
                assert c[i, j] == one.critical_value
                level, *_ = multiplicity._bivariate_levels(r, np.array([c[i, j]]), *law)
                assert one.achieved == level[0]
        assert batched == max(steps)

    def test_bracket_is_elementwise(self):
        rho = np.array([-0.8, -0.1, 0.0, 0.4])
        for metric in (ErrorMetric.fmer(0.0025), ErrorMetric.msfp(0.000625), ErrorMetric.fwer(0.05)):
            low, high = multiplicity._bracket(metric, 2, rho)
            for i, r in enumerate(rho):
                one_low, one_high = multiplicity._bracket(metric, 2, np.array([r]))
                assert (low[i], high[i]) == (one_low[0], one_high[0])
                assert 0.0 <= low[i] <= high[i]
        low, high = multiplicity._bracket(ErrorMetric.msfp(0.000625), 2, rho)
        assert low[0] == 0.0 and low[3] > 0.0  # Slepian: a lower bracket for rho < 0


# correlation matrices of odd dimension, which no platform has
_ODD_ENTRIES = [
    [[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]],
    [[1.0, 0.5, 0.3, 0.2, 0.1], [0.5, 1.0, 0.4, 0.3, 0.2], [0.3, 0.4, 1.0, 0.5, -0.1],
     [0.2, 0.3, 0.5, 1.0, 0.3], [0.1, 0.2, -0.1, 0.3, 1.0]],
]


class TestNullPool:
    @pytest.mark.parametrize("sided", ["two", "one"])
    @pytest.mark.parametrize("dims", [(12, 4, 8), (4, 8, 12)], ids=["12-4-8", "4-8-12"])
    def test_pool_does_not_depend_on_earlier_pools(self, dims, sided):
        # pools of every dim after one another, each reading the kept
        # normals of the ones before, give the pool of an emptied store
        store = multiplicity._kept_normals
        corrs = {dim: _platform_z_corr(dim // 2) for dim in dims}
        cases = [(seed, n, dim) for seed in (0, 5) for n in (16_383, 40_000, 65_536)
                 for dim in dims]

        def pool(seed, n, dim):
            return multiplicity._tail_count_statistic(corrs[dim], 2, sided, n, seed)

        store.clear()
        after = [pool(*case) for case in cases]
        for case, stat in zip(cases, after):
            store.clear()
            assert np.array_equal(stat, pool(*case)), case

    @pytest.mark.parametrize("dim", [2, 5, 11])
    def test_pool_rows_of_a_taller_kept_block_are_a_fresh_draw(self, dim):
        # the generator fills a draw row by row: the first dim rows of a
        # kept 12-row block are the (dim, size) draw of the same stream
        store = multiplicity._kept_normals
        store.clear()
        multiplicity._block_normals(3, 1, 12, 16_384)
        rows = multiplicity._block_normals(3, 1, dim, 16_384)
        assert rows.base is store[3, 1]
        fresh = np.random.default_rng([3, 1, 1]).standard_normal((dim, 16_384))
        assert np.array_equal(rows, fresh)

    def test_pool_store_keeps_the_default_pool_read_only(self):
        store = multiplicity._kept_normals
        store.clear()
        multiplicity._tail_count_statistic(_platform_z_corr(6), 2, "two", 65_536, 1)
        assert sorted(store) == [(1, block) for block in range(4)]
        assert sum(normals.nbytes for normals in store.values()) == 12 * 65_536 * 8
        assert not any(normals.flags.writeable for normals in store.values())

    @pytest.mark.parametrize("K, replications", [(6, 100_000), (7, 40_000)],
                             ids=["more-blocks", "more-statistics"])
    def test_pool_beyond_the_bound_is_drawn_not_kept(self, K, replications):
        store = multiplicity._kept_normals
        store.clear()
        multiplicity._tail_count_statistic(_platform_z_corr(6), 2, "two", 65_536, 1)
        held = dict(store)
        multiplicity._tail_count_statistic(_platform_z_corr(K), 2, "two", replications, 1)
        assert store.keys() == held.keys()
        assert all(store[key] is normals for key, normals in held.items())

    def test_pool_store_holds_one_seed(self):
        store = multiplicity._kept_normals
        store.clear()
        multiplicity._tail_count_statistic(_platform_z_corr(6), 2, "two", 65_536, 1)
        # another seed evicts the first seed's blocks
        multiplicity._tail_count_statistic(_platform_z_corr(2), 2, "two", 20_000, 2)
        assert sorted(store) == [(2, 0), (2, 1)]
        assert [normals.shape for _, normals in sorted(store.items())] == [(4, 16_384), (4, 3_616)]

    @pytest.mark.parametrize("m, sided", [(2, "two"), (3, "one")])
    def test_pool_solve_transient_memory_is_bounded(self, m, sided):
        # the statistic is freed once the level's y is built in one array,
        # so a solve peaks at 4 arrays of replications doubles (y, the
        # powers, the spread's terms and one product) plus the positive mask;
        # the one-sided m 3 pool has directions with T <= 0
        z_corr, metric = _platform_z_corr(6), ErrorMetric.mfwer(m, 0.05, sided)
        replications = 65_536  # the default
        if sided == "one":
            stat = multiplicity._tail_count_statistic(z_corr, m, sided, replications, 0)
            assert (stat <= 0.0).any()
        platform_threshold(z_corr, metric)  # draws the kept normals
        tracemalloc.start()
        try:
            platform_threshold(z_corr, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * replications + replications + 64 * 1024

    @pytest.mark.parametrize("replications", [1, 16_383, 16_384, 16_385, 20_000])
    def test_one_statistic_per_replication(self, replications):
        corr = _platform_z_corr(2)
        stat = multiplicity._tail_count_statistic(corr, 2, "two", replications, 6)
        assert stat.shape == (replications,) and np.isfinite(stat).all()
        # a full block is the same draws in every pool that holds it
        whole = replications - replications % multiplicity._POOL_BLOCK
        larger = multiplicity._tail_count_statistic(corr, 2, "two", 20_000, 6)
        assert stat[:whole].tobytes() == larger[:whole].tobytes()

    @pytest.mark.parametrize("sided", ["two", "one"])
    def test_top_m_pass_is_the_m_th_largest(self, sided):
        # the block's statistics formed row by row as the pool forms them,
        # their m-th largest read with a partition, over each column's norm;
        # an odd dim's norm takes one more normal than its statistics
        size, seed = 1000, 9
        for corr in (_platform_z_corr(3), *(CorrelationMatrix(np.array(e)) for e in _ODD_ENTRIES)):
            dim = corr.dim
            draws = np.random.default_rng([seed, 1, 0]).standard_normal((dim + dim % 2, size))
            rows = np.stack([
                np.einsum("k,kn->n", corr.factor[j, : j + 1], draws[: j + 1]) for j in range(dim)
            ])
            if sided == "two":
                rows = np.abs(rows)
            norms = np.linalg.norm(draws, axis=0)
            for m in range(1, dim + 1):
                stat = multiplicity._tail_count_statistic(corr, m, sided, size, seed)
                expected = np.partition(rows, dim - m, axis=0)[dim - m] / norms
                np.testing.assert_allclose(stat, expected, rtol=1e-14, atol=0.0)

    # sha256 of the pool's bytes for m = 1-4, sided two and one, at dim 6
    POOL_SHA256 = {
        ("two", 1): "87aa933c7c755e0ed1c4240d5ba06cf42a234c283d44116136e6bfc18219e37b",
        ("two", 2): "7924641526082d1d2a3adb44e8257a2bf2b149e34dae6667b6b580fe56ad0aab",
        ("two", 3): "490ef51324c88367e36820059092f8b753f694da40d863918dbca80978df8a2c",
        ("two", 4): "5e2e7844a6748e761b2f8f0125cd75d25515d15f204b15f41cc2a4ab27bddfad",
        ("one", 1): "69b245ca492b99d92285d68d1c680ab0e62b6c03d968c342eaef339ad4d6178e",
        ("one", 2): "5f6f1ca24dd111da5be4594a08b4dc0578cc9707c6ce19ba22a3b9d0bf42a4e8",
        ("one", 3): "f3bc5274adf0b805c24463a5aeaf50b44b9b0a8fee61a2f8f0620a850bc3cac5",
        ("one", 4): "63e59c5f0f4756119a3fcc24d4fe08bc8541e53b670bc871decf2460ec7a1093",
    }

    @pytest.mark.parametrize("sided, m", sorted(POOL_SHA256))
    def test_pool_bytes_are_pinned(self, sided, m):
        # the top-m pass drops what falls past the last rank without
        # computing it; the pool is the same bits either way
        stat = multiplicity._tail_count_statistic(_platform_z_corr(3), m, sided, 16_385, 7)
        assert hashlib.sha256(stat.tobytes()).hexdigest() == self.POOL_SHA256[sided, m]

    @pytest.mark.parametrize("K", range(2, 7))
    def test_solves_match_the_per_direction_oracle(self, K):
        # the moment sums against each direction's chi tail on its own, on
        # the same pool: 12 solves per K, 60 in all
        metrics = [ErrorMetric.mfwer(m, 0.05, sided) for m in (2, 3) for sided in ("two", "one")]
        for seed in (0, 1):
            z_corr = _feasible_platform_z_corr(K, seed)
            for metric in (*metrics, ErrorMetric.fmer(), ErrorMetric.msfp()):
                result = platform_threshold(z_corr, metric)
                c_star, achieved, stderr = pool_threshold_oracle(z_corr, metric)
                case = (seed, metric)
                assert abs(result.critical_value - c_star) <= 4 * math.ulp(c_star), case
                assert abs(result.achieved - achieved) <= 1e-15, case
                assert result.achieved_stderr == pytest.approx(stderr, rel=1e-13), case

    def test_k6_pool_levels_against_brute_force(self):
        # twelve statistics: the pool's critical values against a
        # separately seeded direct count
        corr = _platform_z_corr(6)
        draws = mvn_draws(corr.factor, 300_000, seed=31)
        for sided in ("two", "one"):
            values = np.abs(draws) if sided == "two" else draws
            for m in (2, 3):
                result = platform_threshold(corr, ErrorMetric.mfwer(m, 0.05, sided=sided), seed=2)
                oracle = float(((values > result.critical_value).sum(axis=1) >= m).mean())
                se = _se(oracle, len(draws))
                assert abs(oracle - 0.05) <= 5 * math.hypot(se, result.achieved_stderr)

    @pytest.mark.parametrize("sided", ["two", "one"])
    @pytest.mark.parametrize(
        "entries", [_platform_z_corr(2).entries, *_ODD_ENTRIES], ids=["k2", "dim3", "dim5"]
    )
    def test_m2_level_against_scipy_inclusion_exclusion(self, entries, sided):
        # P(N >= 2) = 1 - P(N = 0) - P(N = 1), and P(N = 1) is the sum over
        # j of P(all but Z_j inside) less dim P(all inside); an odd dim's
        # extra normal enters only the norm, so its pool solves the level of
        # the dim statistics alone
        from scipy.stats import multivariate_normal

        z_corr = CorrelationMatrix(np.array(entries))
        dim = z_corr.dim
        result = platform_threshold(z_corr, ErrorMetric.mfwer(2, 0.05, sided))
        c = result.critical_value

        def inside(keep):
            return multivariate_normal.cdf(
                np.full(len(keep), c), np.zeros(len(keep)), z_corr.entries[np.ix_(keep, keep)],
                lower_limit=np.full(len(keep), -c if sided == "two" else -math.inf),
                abseps=1e-7, releps=0.0,
            )

        others = sum(inside([i for i in range(dim) if i != j]) for j in range(dim))
        level = 1.0 + (dim - 1) * inside(list(range(dim))) - others
        assert abs(level - 0.05) <= 4 * result.achieved_stderr

    @pytest.mark.parametrize("entries", _ODD_ENTRIES, ids=["dim3", "dim5"])
    def test_odd_dimension_m2_against_brute_force(self, entries):
        # an odd dimension draws one more normal, which enters only the norm
        corr = CorrelationMatrix(np.array(entries))
        draws = mvn_draws(corr.factor, 400_000, seed=37)
        for sided in ("two", "one"):
            values = np.abs(draws) if sided == "two" else draws
            result = platform_threshold(corr, ErrorMetric.mfwer(2, 0.05, sided=sided), seed=3)
            assert abs(result.achieved - 0.05) <= 1e-9
            c_star, _, stderr = pool_threshold_oracle(corr, result.metric, seed=3)
            assert abs(result.critical_value - c_star) <= 4 * math.ulp(c_star)
            assert result.achieved_stderr == pytest.approx(stderr, rel=1e-13)
            oracle = float(((values > result.critical_value).sum(axis=1) >= 2).mean())
            se = _se(oracle, len(draws))
            assert abs(oracle - 0.05) <= 5 * math.hypot(se, result.achieved_stderr)

    @settings(max_examples=30, deadline=None)
    @given(
        K=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([2, 3]), sided=st.sampled_from(["two", "one"]),
    )
    def test_bracket_holds_the_root(self, K, seed, m, sided):
        # the Markov bound at the upper end is below alpha, and the lower
        # end above it, on the level the pool solves
        z_corr, metric = _feasible_platform_z_corr(K, seed), ErrorMetric.mfwer(m, 0.05, sided)
        low, high = multiplicity._bracket(metric, 2 * K, z_corr.entries[0, 1])
        stat = multiplicity._tail_count_statistic(z_corr, m, sided, 16_384, seed)
        law = multiplicity._radial_level(stat, 2 * K)
        assert law(float(low))[0] >= 0.05 >= law(float(high))[0]


def _feasible_platform_z_corr(K, seed):
    """Z correlation of a K-substudy platform whose arm sizes and arm
    correlations come from ``seed``, the combination-control correlations
    kept inside the positive definite range."""
    rng = np.random.default_rng([seed, K])
    rho_cm = rng.uniform(0.1, 0.7, K)
    rho_cc = np.sqrt(rng.uniform(0.1, 1.0, K) * 0.9 * (1.0 - rho_cm**2) / K)
    table = ArmCorrelations.per_substudy(rho_cc.tolist(), rho_cm.tolist())
    n = rng.uniform(30.0, 300.0, 2 * K + 1)
    arms = PlatformArms(float(n[0]), tuple(n[1::2]), tuple(n[2::2]), table)
    return platform_z_correlation_matrix(arms)


class TestRadialLevel:
    """The pool's level, the mean over directions of P(chi_dim > c / T), and
    its slope, from power-moment sums over the directions; every pool's dim
    is even."""

    # T from 1e-300 to 1, so that c / T runs far past sqrt(dim) + 40, and two
    # directions that never count
    POOL = np.concatenate([np.logspace(-300.0, 0.0, 31), np.linspace(0.05, 0.95, 19), [0.0, -0.4]])

    @pytest.mark.parametrize("dim", range(4, 13, 2))
    def test_against_mpmath(self, dim):
        law, a = multiplicity._radial_level(self.POOL, dim), mp.mpf(dim) / 2
        with mp.workdps(40):
            for c in (0.0, 1e-8, 0.3, 1.7, 2.25, 5.5, 37.68):
                level = slope = mp.mpf(0)
                for T in self.POOL[self.POOL > 0.0].tolist():
                    x = mp.mpf(c) / mp.mpf(T)
                    level += mp.gammainc(a, x * x / 2, mp.inf, regularized=True)
                    density = x ** (dim - 1) * mp.exp(-x * x / 2) / (2 ** (a - 1) * mp.gamma(a))
                    slope -= density / mp.mpf(T)
                want = [float(v / self.POOL.size) for v in (level, slope)]
                assert list(law(c)) == pytest.approx(want, rel=1e-13, abs=0.0), c

    @pytest.mark.parametrize("dim", [4, 12])
    def test_slope_is_the_level_difference(self, dim):
        law, h = multiplicity._radial_level(self.POOL, dim), 1e-6
        for c in np.linspace(0.2, 8.0, 14).tolist():
            difference = (law(c + h)[0] - law(c - h)[0]) / (2 * h)
            assert law(c)[1] == pytest.approx(difference, rel=1e-6, abs=1e-12), c

    @pytest.mark.parametrize("dim", [4, 12])
    def test_extreme_pools_and_c_stay_finite_without_warnings(self, dim):
        # 1 / 5e-324 and (1 / 1e-300)^2 overflow unless T is raised
        stat = np.array([5e-324, 1e-300, 1e-20, 0.5, 1.0, 0.0, -0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = multiplicity._radial_level(stat, dim)
            assert law(0.0) == (5 / 7, 0.0) and law(0.0, spread=True) == (5 / 7, 5 / 7)
            for c in (1e-300, 1e-30, 1e-8, 1.7, 37.68, 1e5):
                level, slope = law(c)
                assert 0.0 <= level <= 5 / 7 and -math.inf < slope <= 0.0, c
                assert law(c, spread=True)[0] == level, c
                assert 0.0 <= law(c, spread=True)[1] <= 5 / 7, c
            assert law(math.inf) == (0.0, 0.0)

    @pytest.mark.parametrize("stat", [POOL, POOL[POOL > 0.0]], ids=["some-zero", "all-positive"])
    def test_leaves_the_pool_unchanged(self, stat):
        given = stat.copy()
        law = multiplicity._radial_level(stat, 6)
        law(1.3), law(1.3, spread=True)
        assert stat.tobytes() == given.tobytes()

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_spread_is_the_mean_squared_term(self, K):
        # the terms at c, each direction's chi tail on its own
        stat = multiplicity._tail_count_statistic(_platform_z_corr(K), 2, "two", 20_000, 4)
        law, c = multiplicity._radial_level(stat, 2 * K), 2.1
        terms, _ = chi_tail(c / stat[stat > 0.0], 2 * K)
        level, mean_square = law(c, spread=True)
        assert mean_square == pytest.approx(terms @ terms / stat.size, rel=1e-14)
        assert level == law(c)[0] == pytest.approx(terms.sum() / stat.size, rel=1e-14)


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
