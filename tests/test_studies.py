"""Simulation-study grids and tidy result tables."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from conftest import (
    FIXTURE_INDEPENDENT_CSV,
    bvn_rectangle,
    exhaustive_n_star,
    holm_reject,
    mc_error_rates,
    mp_orthant,
    mvn_draws,
    n_star_enumeration_oracle,
    package_design_power,
)
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from platformdesign import cli, correlation, power, studies
from platformdesign.allocation import DesignScenario, optimize_allocation
from platformdesign.correlation import PlatformArms, classical_dunnett_correlation
from platformdesign.errors import DomainError
from platformdesign.estimation import TrialEstimates, table1_pipeline
from platformdesign.multiplicity import (
    DEFAULT_TARGETS,
    ErrorMetric,
    ThresholdResult,
    _bivariate_critical_values,
    _p_threshold,
    bivariate_error_rates,
    classical_dunnett_threshold,
    platform_threshold,
)
from platformdesign.mvnorm import CorrelationMatrix
from platformdesign.power import find_sample_size, marginal_power_oracle
from platformdesign.studies import (
    BASELINES,
    DEFAULT_ALLOCATIONS,
    GridSpec,
    ResultTable,
    adjustment_grid,
    design_surface_grid,
    error_curves_grid,
    run_adjustment_comparison,
    run_design_surface,
    run_error_curves,
    run_threshold_curves,
    threshold_grid,
)

Z_975 = 1.959963984540054
MC_SIGMAS = 5.0


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def _within_mc_sigmas(exact: float, simulated: float, n: int) -> bool:
    return abs(simulated - exact) <= MC_SIGMAS * math.sqrt(exact * (1.0 - exact) / n)


@pytest.fixture(scope="module")
def coarse_error_table():
    grid = error_curves_grid(step=0.05, seed=3)
    return grid, run_error_curves(grid)


@pytest.fixture(scope="module")
def coarse_adjustment_table():
    grid = adjustment_grid(step=0.1, seed=4)
    return grid, run_adjustment_comparison(grid)


# At allocation (0.5, 0.25, 0.25) with rho_AB,A = 0 and rho_AB,B = -0.5 the
# two statistics are uncorrelated (-0.5 / sqrt(n_B n_AB) + 1 / n_A = 0).
INDEPENDENT_GRID = GridSpec(
    "rho_ab_b", -0.5, -0.5, 0.1, fixed={"rho_ab_a": 0.0, "alpha": 0.05},
    allocations=((0.5, 0.25, 0.25),),
)


class TestGridSpec:
    def test_sweep_values_inclusive(self):
        grid = error_curves_grid()
        values = grid.sweep_values()
        assert values[0] == 0.05 and values[-1] == 0.95
        assert len(values) == 91

    def test_default_cardinality_for_design_surface(self):
        grid = design_surface_grid()
        assert len(grid.sweep_values()) == 7
        assert len(grid.rho_levels) == 4
        # one row per (s, rho, metric): 7 * 4 * 3 = 84

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec("nope", 0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            GridSpec("rho_ab_b", 0.0, 1.0, -0.1)
        with pytest.raises(DomainError):
            GridSpec("rho_ab_b", 0.9, 0.1, 0.1)
        with pytest.raises(DomainError):
            GridSpec("rho_ab_b", 0.1, 0.9, 0.1, allocations=((0.5, 0.5, 0.5),))

    @given(
        field=st.sampled_from(["start", "stop", "step"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
        start=st.floats(-1.0, 1.0),
        span=st.floats(0.0, 1.0),
        step=st.floats(1e-3, 1.0),
    )
    def test_non_finite_bounds_are_refused(self, field, value, start, span, step):
        # NaN passes every comparison check, and an infinite bound sizes an
        # infinite sweep: each is refused by name before any sweep is built
        bounds = {"start": start, "stop": start + span, "step": step, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            GridSpec("rho_ab_b", **bounds)

    @pytest.mark.parametrize("runner", [
        run_error_curves, run_adjustment_comparison, run_threshold_curves,
    ])
    @pytest.mark.parametrize("grid", [
        design_surface_grid(),
        GridSpec("rho_ab_b", 0.1, 0.2, 0.1),
        GridSpec("rho_ab_a", 0.1, 0.2, 0.1, fixed={"rho_ab_a": 0.3}),
    ], ids=["synergy-sweep", "no-fixed-rho", "fixed-rho-of-the-swept-one"])
    def test_correlation_studies_refuse_other_grids(self, runner, grid):
        # the correlation that is not swept must be held in fixed, or it has
        # no value
        with pytest.raises(DomainError, match="sweeps rho_ab_a or rho_ab_b"):
            runner(grid)

    @pytest.mark.parametrize("runner", [
        run_error_curves, run_adjustment_comparison, run_threshold_curves,
    ])
    @pytest.mark.parametrize("allocations, message", [
        ((), "at least one allocation"),
        (((0.2, 0.2, 0.2, 0.2, 0.2),), "three shares"),
    ], ids=["no-allocation", "five-shares"])
    def test_correlation_studies_refuse_bad_allocations(self, runner, allocations, message):
        # a correlation study stacks one row block per allocation of
        # (control, monotherapy, combination) shares
        with pytest.raises(DomainError, match=message):
            runner(GridSpec("rho_ab_b", 0.1, 0.2, 0.1, fixed={"rho_ab_a": 0.3},
                            allocations=allocations))

    def test_design_surface_refuses_a_correlation_sweep(self):
        # a correlation sweep is not a synergy sweep
        with pytest.raises(DomainError, match="design surface sweeps synergy"):
            run_design_surface(threshold_grid(start=0.9, stop=1.0, step=0.1))


class TestErrorCurves:
    def test_one_row_per_point_and_metric(self, coarse_error_table):
        grid, table = coarse_error_table
        expected = len(grid.sweep_values()) * len(grid.allocations) * 3
        assert len(table.rows) == expected

    def test_baseline_columns_exact(self, coarse_error_table):
        _, table = coarse_error_table
        for metric, baseline in BASELINES.items():
            values = set(table.column("baseline", metric=metric))
            assert values == {baseline}

    def test_fwer_below_baseline_and_nonincreasing(self, coarse_error_table):
        grid, table = coarse_error_table
        for alloc in DEFAULT_ALLOCATIONS:
            values = table.column("value", metric="fwer", p_control=alloc[0], p_mono=alloc[1])
            assert values[0] < BASELINES["fwer"]
            assert _nonincreasing(values)

    def test_fmer_msfp_above_baseline_nondecreasing(self, coarse_error_table):
        grid, table = coarse_error_table
        for metric in ("fmer", "msfp"):
            for alloc in DEFAULT_ALLOCATIONS:
                values = table.column("value", metric=metric, p_control=alloc[0], p_mono=alloc[1])
                assert all(v >= BASELINES[metric] for v in values)
                assert _nonincreasing([-v for v in values])

    def test_deterministic_bytes(self):
        grid = error_curves_grid(step=0.3, seed=11)
        assert run_error_curves(grid).to_csv() == run_error_curves(grid).to_csv()

    def test_self_consistency_between_seeds(self):
        a = run_error_curves(error_curves_grid(start=0.3, stop=0.3, step=0.1, seed=1))
        b = run_error_curves(error_curves_grid(start=0.3, stop=0.3, step=0.1, seed=2))
        assert a.to_csv() == b.to_csv()

    def test_rows_match_monte_carlo_oracle(self, coarse_error_table):
        _, table = coarse_error_table
        rows = [r for r in table.as_dicts() if r["swept_value"] in (0.05, 0.5, 0.95)]
        for z_rho in sorted({r["z_rho"] for r in rows}):
            rates = mc_error_rates(CorrelationMatrix.bivariate(z_rho), Z_975, 200_000, seed=12)
            for row in (r for r in rows if r["z_rho"] == z_rho):
                assert _within_mc_sigmas(row["value"], rates[row["metric"]], 200_000)

    def test_independent_statistics_give_the_baselines(self):
        table = run_error_curves(INDEPENDENT_GRID)
        assert table.column("z_rho") == [0.0, 0.0, 0.0]
        for row in table.as_dicts():
            assert row["value"] == pytest.approx(row["baseline"], rel=1e-12)


class TestAdjustments:
    def test_conventional_methods_control_fwer(self, coarse_adjustment_table):
        # Bonferroni and Holm control fwer at any correlation; the classical
        # Dunnett cut assumes independent arms, and so controls it only where
        # the statistics correlate at least as much as it assumes (0.5 at
        # equal thirds); below that its exact fwer exceeds 0.05
        grid, table = coarse_adjustment_table
        for method in ("bonferroni", "holm"):
            for value in table.column("value", method=method, metric="fwer"):
                assert value <= 0.05
        alloc = grid.allocations[0]
        assumed = classical_dunnett_correlation(
            PlatformArms.single(1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2])
        )
        assert assumed == pytest.approx(0.5, abs=1e-12)
        for row in table.as_dicts():
            if row["method"] == "dunnett" and row["metric"] == "fwer":
                if row["z_rho"] >= assumed:
                    assert row["value"] <= 0.05 + 1e-6, row
                else:
                    assert 0.05 < row["value"] <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 20_000), row

    def test_overconservative_at_high_correlation(self, coarse_adjustment_table):
        _, table = coarse_adjustment_table
        for method in ("bonferroni", "holm", "dunnett"):
            high = table.column("value", method=method, metric="fwer", swept_value=0.95)
            assert all(v < 0.04 for v in high)

    def test_noadj_matches_exact_rate(self, coarse_adjustment_table):
        # cross-route check: the no-adjustment rate equals the quadrature
        # value 1 - P(|Z1|<=c, |Z2|<=c) at each point's z_rho
        _, table = coarse_adjustment_table
        rows = [r for r in table.as_dicts() if r["method"] == "noadj" and r["metric"] == "fwer"]
        for row in rows:
            exact = 1.0 - bvn_rectangle((-Z_975, -Z_975), (Z_975, Z_975), row["z_rho"])
            assert abs(row["value"] - exact) <= 1e-9

    def test_rows_match_monte_carlo_oracle(self, coarse_adjustment_table):
        # fixed-cut methods against simulated rates at their cut, Holm against
        # the step-down decisions of holm_reject on each simulated trial
        grid, table = coarse_adjustment_table
        alloc = grid.allocations[0]
        arms = PlatformArms.single(1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2])
        cuts = {
            "noadj": Z_975,
            "bonferroni": float(-ndtri(0.05 / 4)),
            "dunnett": classical_dunnett_threshold(arms, 0.05).critical_value,
        }
        n = 100_000
        for swept_value in (0.45, 0.95):
            rows = [r for r in table.as_dicts() if r["swept_value"] == swept_value]
            z_rho = rows[0]["z_rho"]
            corr = CorrelationMatrix.bivariate(z_rho)
            simulated = {
                method: mc_error_rates(corr, cut, n, seed=13) for method, cut in cuts.items()
            }
            draws = mvn_draws(corr.factor, n, seed=14)
            p_values = 2.0 * ndtr(-np.abs(draws))
            decisions = np.array([holm_reject(p, 0.05) for p in p_values.tolist()])
            both = decisions.all(axis=1)
            simulated["holm"] = {
                "fwer": float(decisions.any(axis=1).mean()),
                "fmer": float(both.mean()),
                "msfp": float((both & (draws > 0).all(axis=1)).mean()),
            }
            for row in rows:
                rate = simulated[row["method"]][row["metric"]]
                assert _within_mc_sigmas(row["value"], rate, n), row

    def test_holm_orthants_of_the_default_grid_against_mpmath(self, monkeypatch):
        # the same- and opposite-sign orthants U(a, b, +-z_rho) behind the
        # default grid's Holm rows, every fourth against a 30-digit
        # quadrature: relatively precise wherever U >= 1e-20, which the
        # opposite-sign ones from rho -0.47 down are not on Genz's scheme
        kernel, calls = studies._unequal_orthant, []

        def recorded(h, k, r):
            calls.append((h, k, r, kernel(h, k, r)))
            return calls[-1][-1]

        monkeypatch.setattr(studies, "_unequal_orthant", recorded)
        run_adjustment_comparison(adjustment_grid())
        ((h, k, r, got),) = calls
        assert r.size == 182 and np.all(got >= 0.0)
        with mp.workdps(30):
            for z, value in zip(r.ravel()[::4].tolist(), got.ravel()[::4].tolist()):
                reference = mp_orthant(h, k, z)
                assert abs(value - float(reference)) <= 2e-16, z
                if reference >= 1e-20:
                    assert abs(value / reference - 1) <= 1e-13, z

    def test_independent_statistics_closed_forms(self):
        # at zero correlation every rate is a product of marginal tails: with
        # cuts a (two-sided 0.05) and b (0.025), Holm's fmer is
        # 0.05^2 - (0.05 - 0.025)^2 and its msfp 0.025^2 - 0.0125^2
        table = run_adjustment_comparison(INDEPENDENT_GRID)
        expected = {
            "noadj": {"fwer": 0.0975, "fmer": 0.0025, "msfp": 0.000625},
            "bonferroni": {"fwer": 1 - 0.975**2, "fmer": 0.025**2, "msfp": 0.0125**2},
            "holm": {"fwer": 1 - 0.975**2, "fmer": 0.001875, "msfp": 0.00046875},
        }
        for row in table.as_dicts():
            assert row["z_rho"] == 0.0
            if row["method"] in expected:
                assert row["value"] == pytest.approx(
                    expected[row["method"]][row["metric"]], rel=1e-11
                ), row

    def test_noadj_independent_case_near_ten_percent_baseline(self):
        # control-heavy design drives z_rho toward 0: noadj fwer -> 0.0975
        grid = GridSpec(
            "rho_ab_b", 0.05, 0.05, 0.01, fixed={"rho_ab_a": 0.0, "alpha": 0.05},
            allocations=((0.998, 0.001, 0.001),), seed=6,
        )
        table = run_adjustment_comparison(grid)
        value = table.column("value", method="noadj", metric="fwer")[0]
        assert value == pytest.approx(0.0975, abs=0.004)


class TestThresholdCurves:
    def test_round_trip_and_inverse_pattern(self):
        grid = threshold_grid(step=0.15, seed=5)
        table = run_threshold_curves(grid)
        rows = table.as_dicts()
        # p_threshold consistency with the critical value
        from platformdesign.mvnorm import std_normal_cdf

        for row in rows:
            assert row["value"] == pytest.approx(
                2 * (1 - std_normal_cdf(row["c_star"])), abs=1e-12
            )
        # fmer threshold shrinks as the swept correlation inflates fmer
        fmer = [r["value"] for r in rows if r["metric"] == "fmer"]
        assert fmer[-1] < fmer[0]
        assert all(b <= a + 1e-12 for a, b in zip(fmer, fmer[1:]))

    def test_thresholds_achieve_targets_in_simulation(self):
        grid = threshold_grid(start=0.25, stop=0.85, step=0.3, seed=5)
        table = run_threshold_curves(grid)
        targets = {"fwer": 0.05, "fmer": 0.0025, "msfp": 0.000625}
        for row in table.as_dicts():
            rates = mc_error_rates(
                CorrelationMatrix.bivariate(row["z_rho"]), row["c_star"], 100_000, seed=8
            )
            target = targets[row["metric"]]
            se = math.sqrt(target * (1 - target) / 100_000)
            assert rates[row["metric"]] == pytest.approx(target, abs=3 * se + 1e-9)


@pytest.fixture(scope="module")
def small_surface():
    grid = design_surface_grid(seed=2, start=0.7, stop=1.3, step=0.3, rho_levels=(0.1, 0.5))
    return grid, run_design_surface(grid)


class TestDesignSurface:
    METRICS = ("fwer", "fmer", "msfp")

    def test_row_count(self, small_surface):
        grid, table = small_surface
        assert len(table.rows) == 3 * 2 * 3

    def test_n_star_nonincreasing_in_synergy(self, small_surface):
        _, table = small_surface
        for rho in (0.1, 0.5):
            for metric in ("fwer", "fmer", "msfp"):
                assert _nonincreasing(table.column("value", rho=rho, metric=metric))

    def test_combo_share_nonincreasing_in_rho(self, small_surface):
        _, table = small_surface
        for s in (0.7, 1.0, 1.3):
            shares = table.column("p_combo", synergy=s, metric="fwer")
            assert all(b <= a + 1e-9 for a, b in zip(shares, shares[1:]))

    def test_smaller_critical_value_never_needs_more_subjects(self, small_surface):
        # the metrics of one (s, rho) share the allocation, and power at fixed
        # N strictly decreases in the critical value; fwer is not always the
        # smallest cut (at s = 1.3 fmer's is below it)
        _, table = small_surface
        for s in (0.7, 1.0, 1.3):
            for rho in (0.1, 0.5):
                rows = [r for r in table.as_dicts() if r["synergy"] == s and r["rho"] == rho]
                assert len({(r["p_control"], r["p_mono"]) for r in rows}) == 1
                rows.sort(key=lambda r: r["c_star"])
                n_stars = [r["value"] for r in rows]
                assert all(a <= b for a, b in zip(n_stars, n_stars[1:])), rows

    def test_achieved_power_near_target(self, small_surface):
        _, table = small_surface
        for power in table.column("achieved_power"):
            assert 0.8 <= power <= 0.9

    def test_default_surface_evaluates_one_power_per_critical_value(self, monkeypatch):
        # the first total at or above each critical value's floor reaches the
        # target: the scan evaluates the power at one noncentrality per
        # critical value (the floor's own powers are not counted)
        evaluated, scanning = [], []
        scan_totals = power._scan_totals

        def counting(W, c):
            if scanning:
                evaluated.extend(np.broadcast_to(c, np.shape(W)).ravel().tolist())
            return marginal_power_oracle(W, c)

        def scan(*args, **kwargs):
            scanning.append(True)
            try:
                return scan_totals(*args, **kwargs)
            finally:
                scanning.clear()

        monkeypatch.setattr("platformdesign.power.marginal_power_oracle", counting)
        monkeypatch.setattr("platformdesign.power._scan_totals", scan)
        table = run_design_surface(design_surface_grid())
        assert len(table.rows) == len(evaluated) == 84
        assert sorted(evaluated) == sorted(table.column("c_star"))

    @pytest.mark.parametrize("grid", [
        design_surface_grid(),
        # rho <= 0 and rho = 0, and N* past the first 1,024 totals (up to 3,541)
        design_surface_grid(start=0.4, stop=1.6, step=0.3, rho_levels=(-0.3, 0.0, 0.6)),
    ], ids=["default", "wide"])
    def test_surface_matches_every_total_in_turn(self, grid):
        # the batched scan skips totals; its N* and powers equal the first
        # total reaching the target when every total from 3 is evaluated
        table = run_design_surface(grid)
        rows = table.as_dicts()
        for at in range(0, len(rows), len(self.METRICS)):
            point = rows[at:at + len(self.METRICS)]
            scenario = DesignScenario.single(
                0.3, point[0]["synergy"], 1.0, rho_ab_a=point[0]["rho"], rho_ab_b=point[0]["rho"]
            )
            reference = exhaustive_n_star(
                scenario, optimize_allocation(scenario), [row["c_star"] for row in point], 0.8,
                max(row["value"] for row in point),
            )
            assert [(row["value"], row["achieved_power"]) for row in point] == reference
        if grid.rho_levels[0] < 0:
            assert max(table.column("value")) == 3_541

    @pytest.mark.parametrize("grid", [
        design_surface_grid(),
        design_surface_grid(start=0.4, stop=1.6, step=0.3, rho_levels=(-0.3, 0.0, 0.6)),
    ], ids=["default", "wide"])
    def test_batched_rows_equal_the_per_point_path(self, grid):
        # the surface checks, allocates and scans all its points at once, with
        # no scenario objects; each row is what one scenario gets through the
        # public path, bit for bit
        expected = []
        for s in grid.sweep_values().tolist():
            for rho in grid.rho_levels:
                scenario = DesignScenario.single(0.3, s, 1.0, rho_ab_a=rho, rho_ab_b=rho)
                alloc = optimize_allocation(scenario)
                z = _point_z_rho(alloc.ratios, rho, rho)
                c_star, achieved = _bivariate_critical_values(z, DEFAULT_TARGETS)
                for metric, c, level in zip(DEFAULT_TARGETS, c_star[0].tolist(), achieved[0]):
                    threshold = ThresholdResult(
                        c, _p_threshold(c), metric, CorrelationMatrix.bivariate(z), level
                    )
                    result = find_sample_size(scenario, alloc, threshold, 0.8)
                    expected.append((
                        s, rho, *alloc.ratios, z, metric.kind, c, _p_threshold(c),
                        result.achieved_power, result.n_star,
                    ))
        assert run_design_surface(grid).rows == tuple(expected)

    @pytest.mark.parametrize("fixed, sweep, message", [
        ({"delta": 0.0}, {}, "every delta must be positive and finite"),
        ({"sigma2": -1.0}, {}, "sigma2 must be positive and finite"),
        ({}, {"start": -0.2, "stop": 0.2}, "synergy must be nonzero"),
        ({}, {"rho_levels": (0.3, 0.8, 0.9)}, "cannot form a trial"),
        ({}, {"rho_levels": (math.nan,)}, "correlation must lie in"),
    ], ids=["delta", "sigma2", "synergy", "rho", "nan-rho"])
    def test_refuses_what_a_scenario_refuses(self, fixed, sweep, message):
        # the batched checks refuse the grids the per-point scenarios and
        # allocations refuse, with the first message those would give
        grid = design_surface_grid(**sweep)
        grid = dataclasses.replace(grid, fixed={**grid.fixed, **fixed})
        points = [(s, rho) for s in grid.sweep_values().tolist() for rho in grid.rho_levels]
        with pytest.raises(DomainError) as per_point:
            scenarios = [
                DesignScenario.single(grid.fixed["delta"], s, grid.fixed["sigma2"], rho, rho)
                for s, rho in points
            ]
            for scenario in scenarios:
                optimize_allocation(scenario)
        with pytest.raises(DomainError, match=message) as batched:
            run_design_surface(grid)
        assert str(batched.value) == str(per_point.value)

    @pytest.mark.parametrize("grid", [
        design_surface_grid(),
        design_surface_grid(start=0.4, stop=1.6, step=0.3, rho_levels=(-0.3, 0.0, 0.6)),
    ], ids=["default", "wide"])
    def test_each_metric_takes_its_own_bracket(self, monkeypatch, grid):
        # one bound call covers every N* of the surface, and each (point,
        # metric) takes exact counts only in its own bracket: about one
        # range of 16 totals and the first total of the next
        calls, counted = [], []
        bound, counts = power._noncentrality_bound, power._largest_remainder
        monkeypatch.setattr(
            power, "_noncentrality_bound", lambda *args: calls.append(args) or bound(*args)
        )
        monkeypatch.setattr(
            power, "_largest_remainder",
            lambda ratios, totals: counted.append(len(totals)) or counts(ratios, totals),
        )
        table = run_design_surface(grid)
        assert len(calls) == 1
        assert sum(counted) <= 33 * len(table.rows)


class TestResultTable:
    def test_csv_and_jsonl_round_trip(self, tmp_path):
        grid = threshold_grid(start=0.3, stop=0.5, step=0.2, seed=1)
        table = run_threshold_curves(grid)
        csv_path = tmp_path / "out.csv"
        jsonl_path = tmp_path / "out.jsonl"
        study = ["simulate", "--study", "thresholds", "--start", "0.3", "--stop", "0.5",
                 "--step", "0.2"]
        assert cli.main([*study, "--out", str(csv_path)]) == 0
        assert cli.main([*study, "--format", "jsonl", "--out", str(jsonl_path)]) == 0
        assert csv_path.read_text(encoding="utf-8") == table.to_csv()
        assert csv_path.read_text().splitlines()[0].startswith("swept,")
        assert jsonl_path.read_text(encoding="utf-8") == table.to_json_lines()
        assert len(jsonl_path.read_text().splitlines()) == len(table.rows)

    def test_column_filter(self):
        grid = threshold_grid(start=0.3, stop=0.5, step=0.2, seed=1)
        table = run_threshold_curves(grid)
        fmer_only = table.column("c_star", metric="fmer")
        assert len(fmer_only) == 2


    def test_rows_hold_python_values(self):
        table = run_design_surface(
            design_surface_grid(start=1.0, stop=1.1, step=0.1, rho_levels=(0.3,))
        )
        types = {type(v) for row in table.rows for v in row}
        assert types == {float, int, str}
        assert table == run_design_surface(
            design_surface_grid(start=1.0, stop=1.1, step=0.1, rho_levels=(0.3,))
        )
        with pytest.raises(DomainError, match="differ in length"):
            ResultTable.from_columns(a=np.zeros(3), b=np.array(["x", "y"]))


def _point_z_rho(alloc, rho_ab_a, rho_ab_b):
    return correlation.test_stat_correlation(
        PlatformArms.single(1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2],
                            rho_ab_a=rho_ab_a, rho_ab_b=rho_ab_b)
    )


def _point_rhos(grid, value):
    if grid.swept == "rho_ab_a":
        return value, grid.fixed["rho_ab_b"]
    return grid.fixed["rho_ab_a"], value


class TestRowsMatchPointByPoint:
    """Each study's arrays against one scalar call per grid point and metric:
    the same arithmetic, so the rows are equal, not just close."""

    METRICS = ("fwer", "fmer", "msfp")

    @pytest.mark.parametrize("swept", ["rho_ab_b", "rho_ab_a"])
    def test_error_curves(self, swept):
        grid = error_curves_grid(swept=swept, fixed_rho=0.2, start=0.1, stop=0.5, step=0.2)
        expected = []
        for alloc in grid.allocations:
            for value in grid.sweep_values().tolist():
                rho_ab_a, rho_ab_b = _point_rhos(grid, value)
                z = _point_z_rho(alloc, rho_ab_a, rho_ab_b)
                rates = bivariate_error_rates(z, Z_975)
                expected += [
                    (swept, value, rho_ab_a, rho_ab_b, *alloc, z, m, rates[m], BASELINES[m])
                    for m in self.METRICS
                ]
        assert run_error_curves(grid).rows == tuple(expected)

    def test_adjustments(self):
        grid = GridSpec(
            swept="rho_ab_b", start=0.1, stop=0.5, step=0.2,
            fixed={"rho_ab_a": 0.3, "alpha": 0.05}, allocations=DEFAULT_ALLOCATIONS[:2],
        )
        a, b = float(ndtri(0.975)), float(ndtri(1 - 0.0125))
        expected = []
        for alloc in grid.allocations:
            dunnett = classical_dunnett_threshold(
                PlatformArms.single(1000 * alloc[0], 1000 * alloc[1], 1000 * alloc[2]), 0.05
            ).critical_value
            for value in grid.sweep_values().tolist():
                z = _point_z_rho(alloc, 0.3, value)
                at_a, at_b = bivariate_error_rates(z, a), bivariate_error_rates(z, b)
                same = bvn_rectangle((a, a), (b, b), z)
                opposite = bvn_rectangle((a, -b), (b, -a), z)
                per_method = {
                    "noadj": bivariate_error_rates(z, Z_975),
                    "bonferroni": at_b,
                    "holm": {
                        "fwer": at_b["fwer"],
                        "fmer": at_a["fmer"] - 2.0 * same - 2.0 * opposite,
                        "msfp": at_a["msfp"] - same,
                    },
                    "dunnett": bivariate_error_rates(z, dunnett),
                }
                expected += [
                    ("rho_ab_b", value, 0.3, value, *alloc, z, method, m,
                     per_method[method][m], BASELINES[m])
                    for method in per_method for m in self.METRICS
                ]
        table = run_adjustment_comparison(grid)
        # the cuts come from ndtri here and std_normal_quantile in the package
        for got, want in zip(table.rows, expected, strict=True):
            assert got[:10] == want[:10] and got[11:] == want[11:]
            assert got[10] == pytest.approx(want[10], abs=1e-15)

    def test_thresholds(self):
        grid = threshold_grid(start=0.05, stop=0.95, step=0.15)
        expected = []
        for value in grid.sweep_values().tolist():
            z = _point_z_rho(grid.allocations[0], 0.3, value)
            for metric in (ErrorMetric.fwer(0.05), ErrorMetric.fmer(0.0025),
                           ErrorMetric.msfp(0.000625)):
                result = platform_threshold(CorrelationMatrix.bivariate(z), metric)
                expected.append((
                    "rho_ab_b", value, 0.3, value, z, metric.kind,
                    result.critical_value, result.p_threshold,
                ))
        assert run_threshold_curves(grid).rows == tuple(expected)

    def test_design_surface(self):
        grid = design_surface_grid(start=0.8, stop=1.2, step=0.4, rho_levels=(0.1, 0.6))
        expected = []
        for s in grid.sweep_values().tolist():
            for rho in grid.rho_levels:
                scenario = DesignScenario.single(0.3, s, 1.0, rho_ab_a=rho, rho_ab_b=rho)
                alloc = optimize_allocation(scenario)
                z = _point_z_rho(alloc.ratios, rho, rho)
                for metric in (ErrorMetric.fwer(0.05), ErrorMetric.fmer(0.0025),
                               ErrorMetric.msfp(0.000625)):
                    threshold = platform_threshold(CorrelationMatrix.bivariate(z), metric)
                    result = find_sample_size(scenario, alloc, threshold, 0.8)
                    expected.append((
                        s, rho, *alloc.ratios, z, metric.kind, threshold.critical_value,
                        threshold.p_threshold, result.achieved_power, result.n_star,
                    ))
        assert run_design_surface(grid).rows == tuple(expected)


    def test_design_surface_against_enumeration(self):
        # each row's N* and power against every total tried in turn, with no
        # scan: equal, not just close
        grid = design_surface_grid(start=0.9, stop=1.0, step=0.1, rho_levels=(0.3,))
        table = run_design_surface(grid)
        assert len(table.rows) == 2 * len(self.METRICS)
        for row in table.as_dicts():
            scenario = DesignScenario.single(
                0.3, row["synergy"], 1.0, rho_ab_a=row["rho"], rho_ab_b=row["rho"]
            )
            n_star, powers = n_star_enumeration_oracle(
                scenario, optimize_allocation(scenario), row["c_star"], 0.8,
                power=package_design_power,
            )
            assert row["value"] == n_star
            assert row["achieved_power"] == powers[n_star]

def test_exact_paths_draw_no_random_numbers(monkeypatch, tmp_path):
    scenario_2 = DesignScenario(
        delta=(0.4, 0.5), synergy=(1.2, 0.9),
        rho_combo_control=(0.2, 0.3), rho_combo_mono=(0.3, 0.1),
    )
    # the K=2 threshold is a quasi-Monte Carlo solve, so it is taken as given
    threshold_2 = platform_threshold(
        CorrelationMatrix(np.eye(4) * 0.6 + np.full((4, 4), 0.4)), ErrorMetric.fwer(0.05)
    )
    screen = tmp_path / "screen.csv"
    screen.write_text(FIXTURE_INDEPENDENT_CSV, encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("random numbers were drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    run_error_curves(error_curves_grid(start=0.3, stop=0.4, step=0.1))
    run_adjustment_comparison(adjustment_grid(start=0.3, stop=0.4, step=0.1))
    run_design_surface(design_surface_grid(start=1.0, stop=1.0, step=0.1, rho_levels=(0.3,)))
    estimates = TrialEstimates(
        rho_AB_A=0.227, rho_AB_B=0.25, delta_B=0.3, delta_AB=0.6, s_hat=2.0,
        n_A=29, n_B=29, n_AB=29, drug_A="a", drug_B="b", combo="ab", screened_out=False,
    )
    table1_pipeline(estimates)
    scenario_1 = DesignScenario.single(0.4, 1.2, rho_ab_a=0.3)
    threshold_1 = platform_threshold(CorrelationMatrix.bivariate(0.4), ErrorMetric.fwer(0.05))
    find_sample_size(scenario_1, optimize_allocation(scenario_1), threshold_1, 0.8)
    find_sample_size(scenario_2, optimize_allocation(scenario_2), threshold_2, 0.8)

    # every subcommand at K=1, through the command line
    sweep = ("--start", "0.3", "--stop", "0.4", "--step", "0.1")
    calls = [
        *(("adjust", "--metric", metric, "--rho", "0.461")
          for metric in ("fwer", "fmer", "msfp", "mfwer")),
        ("adjust", "--metric", "mfwer", "--m", "2", "--sided", "one",
         "--n-a", "120", "--n-b", "60", "--n-ab", "60", "--rho-ab-a", "0.3"),
        ("design", "--delta", "0.663", "--synergy", "1.161", "--rho-ab-a", "0.626",
         "--rho-ab-b", "0.660"),
        ("estimate", "--input", str(screen), "--drug-a", "A", "--drug-b", "B",
         "--combo", "AB", "--with-thresholds"),
        *(("simulate", "--study", study, *sweep)
          for study in ("error-curves", "adjustments", "thresholds")),
        ("simulate", "--study", "design-surface", "--start", "1.0", "--stop", "1.0",
         "--rho-levels", "0.3"),
    ]
    for argv in calls:
        assert cli.main(list(argv)) == 0, argv


def test_default_grids_do_not_depend_on_the_seed():
    for factory, runner in (
        (error_curves_grid, run_error_curves),
        (adjustment_grid, run_adjustment_comparison),
        (design_surface_grid, run_design_surface),
    ):
        assert runner(factory(seed=0)).to_csv() == runner(factory(seed=1)).to_csv()
