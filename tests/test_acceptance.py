"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Set ``PLATFORMDESIGN_FULL_GRID=1`` to run criterion 8 on the full
84-point design surface instead of the documented 12-point subgrid.

Criteria 4 and 5 check allocations against the documented max-min contract
and independent oracles.  Criterion 4 holds the optimizer to the 1e-3 grid
oracle's best value and to the zero-correlation KKT identity
p_A^2 = p_B^2 + p_AB^2; the closed form is held to the optimum only at s = 1
and elsewhere to what it promises, the W1 maximizer on the ray p_B = s p_AB.
Criterion 5 checks row 2's allocation against the grid oracle.  Two reference
values are not max-min optimal, and are kept as dominated points that the
optimizer must strictly beat: the closed form away from s = 1 and row 2's
recorded allocation (0.501, 0.455, 0.044), whose W1 != W2.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from platformdesign.allocation import (
    Allocation,
    DesignScenario,
    closed_form_allocation,
    optimize_allocation,
    wald_noncentrality,
)
from platformdesign.cli import main
from platformdesign.correlation import (
    ArmCorrelations,
    PlatformArms,
    combo_arm,
    mono_arm,
    platform_z_correlation_matrix,
)
from platformdesign.correlation import test_stat_correlation as z_correlation
from platformdesign.multiplicity import (
    ErrorMetric,
    classical_dunnett_threshold,
    empirical_error_rates,
    platform_threshold,
)
from platformdesign.mvnorm import CorrelationMatrix, MvnSampler, mvn_sample
from platformdesign.power import (
    PowerRequest,
    find_sample_size,
    marginal_power_oracle,
    mc_power,
)
from platformdesign.studies import design_surface_grid, run_design_surface, threshold_grid, run_threshold_curves

Z_975 = 1.959963984540054
TARGETS = {"fwer": 0.05, "fmer": 0.0025, "msfp": 0.000625}


def _report(number: int, name: str, checks: list) -> None:
    failed = [detail for ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status}"
          + (f" — failing: {'; '.join(failed)}" if failed else ""))
    assert not failed, f"criterion {number} ({name}) failing checks: {failed}"


def test_criterion_01_null_baselines():
    start = time.perf_counter()
    rates = empirical_error_rates(
        CorrelationMatrix.bivariate(0.0), Z_975, 100_000, seed=101
    )
    elapsed = time.perf_counter() - start
    checks = [
        (abs(rates.fwer - 0.0975) <= 0.003, f"fwer {rates.fwer:.4f} vs 0.0975 +-0.003"),
        (abs(rates.fmer - 0.0025) <= 0.0006, f"fmer {rates.fmer:.4f} vs 0.0025 +-0.0006"),
        (abs(rates.msfp - 0.000625) <= 0.0003, f"msfp {rates.msfp:.5f} vs 0.000625 +-0.0003"),
        (elapsed < 5.0, f"runtime {elapsed:.2f}s vs 5s budget"),
    ]
    _report(1, "null baselines", checks)


def test_criterion_02_threshold_round_trip():
    start = time.perf_counter()
    checks = []
    for rho in (0.0, 0.3, 0.461, 0.7, 0.95):
        for kind_index, (kind, alpha) in enumerate(TARGETS.items()):
            result = platform_threshold(CorrelationMatrix.bivariate(rho), ErrorMetric(kind, alpha))
            rates = empirical_error_rates(
                CorrelationMatrix.bivariate(rho),
                result.critical_value,
                100_000,
                seed=int(1000 * rho) * 3 + kind_index,
            )
            achieved = getattr(rates, kind)
            bound = 3 * math.sqrt(alpha * (1 - alpha) / 100_000)
            checks.append(
                (
                    abs(achieved - alpha) <= bound,
                    f"rho={rho} {kind}: {achieved:.5f} vs {alpha} +-{bound:.5f}",
                )
            )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 60.0, f"runtime {elapsed:.2f}s vs 60s budget"))
    _report(2, "threshold round trip", checks)


def test_criterion_03_sidak_dunnett_oracles():
    from conftest import rect_quad_oracle
    from scipy.optimize import brentq

    c_indep = platform_threshold(CorrelationMatrix.bivariate(0.0), ErrorMetric.fwer(0.05)).critical_value
    c_degen = platform_threshold(CorrelationMatrix.bivariate(1.0), ErrorMetric.fwer(0.05)).critical_value
    arms = PlatformArms.single(90, 90, 90)  # comparator correlation 0.5
    c_classical = classical_dunnett_threshold(arms, 0.05).critical_value
    c_oracle = brentq(
        lambda c: rect_quad_oracle((-c, -c), (c, c), 0.5) - 0.95, 1.5, 3.0, xtol=1e-12
    )
    checks = [
        (abs(c_indep - 2.2365) <= 1e-3, f"independent c* {c_indep:.5f} vs 2.2365"),
        (abs(c_degen - 1.95996) <= 1e-3, f"degenerate c* {c_degen:.5f} vs 1.95996"),
        (
            abs(c_classical - c_oracle) <= 1e-4,
            f"comparator c* {c_classical:.6f} vs quadrature-bisection {c_oracle:.6f}",
        ),
    ]
    _report(3, "closed-form threshold oracles", checks)


def _max_min_value(scenario: DesignScenario, alloc: Allocation) -> float:
    """Smallest Wald noncentrality per unit total sample size."""
    return float(wald_noncentrality(scenario, alloc, 1).min())


def _fmt(ratios) -> tuple:
    return tuple(round(r, 4) for r in ratios)


def test_criterion_04_closed_form_allocation():
    from conftest import grid_allocation_oracle, ray_allocation_oracle

    start = time.perf_counter()
    checks = []
    for s in (0.7, 1.0, 2.0):
        scenario = DesignScenario.single(1.0, s)
        grid_value, grid_point = grid_allocation_oracle(s, 1.0, 0.0, resolution=1e-3)
        searched = optimize_allocation(scenario)
        searched_value = _max_min_value(scenario, searched)
        checks.append(
            (
                grid_value <= searched_value <= grid_value * 1.002,
                f"s={s}: optimizer max-min {searched_value:.6f} vs grid best "
                f"{grid_value:.6f} (must be >= and within 0.2%)",
            )
        )
        # At rho = 0 the max-min point solves: minimize p_A + p_B + p_AB
        # subject to 1/p_A + 1/p_B <= 1/t and 1/p_A + 1/p_AB <= s^2/t.
        # Stationarity of the Lagrangian gives p_B^2 = lambda,
        # p_AB^2 = mu and p_A^2 = lambda + mu, so p_A^2 = p_B^2 + p_AB^2; the
        # identity is homogeneous, so it survives scaling onto the simplex.
        # With W1 = W2 and the shares summing to one it fixes the point.
        p_a, p_b, p_ab = searched.ratios
        kkt = p_a**2 - p_b**2 - p_ab**2
        checks.append(
            (
                abs(kkt) <= 1e-6,
                f"s={s}: optimizer {_fmt(searched.ratios)} has "
                f"|p_A^2 - p_B^2 - p_AB^2| = {abs(kkt):.2e} vs 1e-6",
            )
        )
        closed = closed_form_allocation(s)
        if s == 1.0:
            # Dunnett's sqrt(k) rule: here the closed form is the optimum
            checks.append(
                (
                    np.allclose(closed.ratios, grid_point, atol=1.5e-3),
                    f"s={s}: closed {_fmt(closed.ratios)} vs "
                    f"grid argmax {_fmt(grid_point)}",
                )
            )
            checks.append(
                (
                    np.allclose(searched.ratios, closed.ratios, atol=1e-3),
                    f"s={s}: optimizer {_fmt(searched.ratios)} vs "
                    f"closed form within 1e-3",
                )
            )
            continue
        # away from s = 1 the closed form promises only the W1 maximizer on
        # the ray p_B = s p_AB, and is then strictly dominated
        _, c_b, c_ab = closed.ratios
        checks.append(
            (
                abs(c_b - s * c_ab) <= 1e-12,
                f"s={s}: closed {_fmt(closed.ratios)} off the ray p_B = s p_AB "
                f"by {abs(c_b - s * c_ab):.2e}",
            )
        )
        ray_point = ray_allocation_oracle(s, resolution=1e-4)
        checks.append(
            (
                np.allclose(closed.ratios, ray_point, atol=1.5e-4),
                f"s={s}: closed {_fmt(closed.ratios)} vs "
                f"ray W1 argmax {_fmt(ray_point)}",
            )
        )
        closed_value = _max_min_value(scenario, closed)
        checks.append(
            (
                closed_value < searched_value,
                f"s={s}: closed max-min {closed_value:.6f} not below "
                f"optimizer {searched_value:.6f}",
            )
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 10.0, f"runtime {elapsed:.2f}s vs 10s budget"))
    _report(4, "closed-form allocation vs grid search", checks)


def _design_row(delta, synergy, rho_a, rho_b, seed):
    scenario = DesignScenario.single(delta, synergy, rho_ab_a=rho_a, rho_ab_b=rho_b)
    alloc = optimize_allocation(scenario)
    rho = z_correlation(
        PlatformArms.single(
            1000 * alloc.ratios[0], 1000 * alloc.ratios[1], 1000 * alloc.ratios[2],
            rho_ab_a=rho_a, rho_ab_b=rho_b,
        )
    )
    threshold = platform_threshold(CorrelationMatrix.bivariate(rho), ErrorMetric.fwer(0.05))
    result = find_sample_size(scenario, alloc, threshold, 0.80, N0=20, n_sim=10_000, seed=seed)
    return alloc, result


# Row 2's recorded reference allocation, kept as a dominated point: at
# delta 0.329, s 2.283, rho_AB,A 0.227 its noncentralities per unit N are
# W1 = 0.02604 and W2 = 0.02581, so its max-min value 0.025810 lies below the
# 1e-3 grid oracle's best (0.025870) and the exact optimum's (0.025876, where
# W1 = W2).  The row's allocation is checked against the grid oracle instead,
# and must strictly beat this point.
ROW_2_REFERENCE_ALLOCATION = (0.501, 0.455, 0.044)


def test_criterion_05_design_rows():
    from conftest import grid_allocation_oracle

    checks = []
    start = time.perf_counter()
    alloc_1, result_1 = _design_row(0.663, 1.161, 0.626, 0.660, seed=11)
    elapsed_row_1 = time.perf_counter() - start
    checks.append(
        (
            np.allclose(alloc_1.ratios, (0.445, 0.450, 0.105), atol=0.01),
            f"row 1 allocation {tuple(round(r, 3) for r in alloc_1.ratios)} vs (0.445, 0.450, 0.105) +-0.01",
        )
    )
    checks.append(
        (
            abs(result_1.n_star - 97) <= 9.7,
            f"row 1 N* {result_1.n_star} vs 97 +-10%",
        )
    )
    start = time.perf_counter()
    alloc_2, result_2 = _design_row(0.329, 2.283, 0.227, 0.250, seed=11)
    elapsed_row_2 = time.perf_counter() - start
    scenario_2 = DesignScenario.single(0.329, 2.283, rho_ab_a=0.227, rho_ab_b=0.250)
    grid_value, grid_point = grid_allocation_oracle(2.283, 0.329, 0.227, resolution=1e-3)
    value_2 = _max_min_value(scenario_2, alloc_2)
    reference_value = _max_min_value(scenario_2, Allocation(ROW_2_REFERENCE_ALLOCATION))
    checks.append(
        (
            np.allclose(alloc_2.ratios, grid_point, atol=1.5e-3),
            f"row 2 allocation {_fmt(alloc_2.ratios)} vs grid argmax {_fmt(grid_point)} +-1.5e-3",
        )
    )
    checks.append(
        (
            value_2 >= grid_value,
            f"row 2 max-min {value_2:.6f} vs grid best {grid_value:.6f}",
        )
    )
    checks.append(
        (
            value_2 > reference_value,
            f"row 2 max-min {value_2:.6f} not above reference point "
            f"{ROW_2_REFERENCE_ALLOCATION} at {reference_value:.6f}",
        )
    )
    checks.append(
        (
            abs(result_2.n_star - 365) <= 36.5,
            f"row 2 N* {result_2.n_star} vs 365 +-10%",
        )
    )
    checks.append(
        (
            max(elapsed_row_1, elapsed_row_2) < 120.0,
            f"runtime per row {max(elapsed_row_1, elapsed_row_2):.2f}s vs 120s budget",
        )
    )
    _report(5, "reference design rows", checks)


def test_criterion_06_reference_thresholds():
    expectations = {"fwer": 0.027, "fmer": 0.022, "msfp": 0.013}
    checks = []
    for kind, alpha in TARGETS.items():
        result = platform_threshold(CorrelationMatrix.bivariate(0.461), ErrorMetric(kind, alpha))
        checks.append(
            (
                abs(result.p_threshold - expectations[kind]) <= 0.002,
                f"{kind} p-threshold {result.p_threshold:.4f} vs {expectations[kind]} +-0.002",
            )
        )
    _report(6, "reference p-thresholds at rho 0.461", checks)


def test_criterion_07_power_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    threshold = platform_threshold(CorrelationMatrix.bivariate(0.3), ErrorMetric.fwer(0.05))
    checks = []
    for i in range(20):
        scenario = DesignScenario.single(
            float(rng.uniform(0.15, 0.6)),
            float(rng.uniform(0.7, 2.0)),
            rho_ab_a=float(rng.uniform(0.0, 0.6)),
            rho_ab_b=float(rng.uniform(0.0, 0.6)),
        )
        theta = rng.standard_normal(3) * 0.4
        alloc = Allocation(tuple(np.exp(theta) / np.exp(theta).sum()))
        n = int(rng.integers(80, 600))
        mc = mc_power(
            PowerRequest(scenario, alloc, threshold, N=n, n_sim=100_000, seed=i)
        )
        w = wald_noncentrality(scenario, alloc, n)
        exact = min(
            marginal_power_oracle(float(w[0, 0]), threshold.critical_value),
            marginal_power_oracle(float(w[0, 1]), threshold.critical_value),
        )
        checks.append(
            (abs(mc - exact) <= 0.01, f"scenario {i}: mc {mc:.4f} vs oracle {exact:.4f}")
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 60.0, f"runtime {elapsed:.2f}s vs 60s budget"))
    _report(7, "power oracle equivalence", checks)


def test_criterion_08_design_surface_properties():
    full = os.environ.get("PLATFORMDESIGN_FULL_GRID") == "1"
    if full:
        grid = design_surface_grid(seed=5, n_sim=10_000)
    else:
        grid = design_surface_grid(
            seed=5, n_sim=10_000, start=0.7, stop=1.3, step=0.6, rho_levels=(0.1, 0.7)
        )
    start = time.perf_counter()
    table = run_design_surface(grid)
    elapsed = time.perf_counter() - start
    s_values = [float(v) for v in grid.sweep_values()]
    checks = []
    for rho in grid.rho_levels:
        for metric in TARGETS:
            n_stars = table.column("value", rho=float(rho), metric=metric)
            stderr = table.column("mc_stderr", rho=float(rho), metric=metric)
            tolerances = [0] + [3 * (a + b) for a, b in zip(stderr, stderr[1:])]
            monotone = all(
                b <= a + tol
                for a, b, tol in zip(n_stars, n_stars[1:], tolerances[1:])
            )
            checks.append(
                (monotone, f"N*(s) rho={rho} {metric}: {n_stars} not nonincreasing")
            )
    for s in s_values:
        shares = table.column("p_combo", synergy=s, metric="fwer")
        checks.append(
            (
                all(b <= a + 1e-9 for a, b in zip(shares, shares[1:])),
                f"p_combo(rho) s={s}: {shares} not nonincreasing",
            )
        )
    for s in s_values:
        for rho in grid.rho_levels:
            n_by = {
                m: table.column("value", synergy=s, rho=float(rho), metric=m)[0]
                for m in TARGETS
            }
            se_by = {
                m: table.column("mc_stderr", synergy=s, rho=float(rho), metric=m)[0]
                for m in TARGETS
            }
            ok = (
                n_by["fwer"] <= n_by["fmer"] + 3 * (se_by["fwer"] + se_by["fmer"])
                and n_by["fwer"] <= n_by["msfp"] + 3 * (se_by["fwer"] + se_by["msfp"])
            )
            checks.append((ok, f"s={s} rho={rho}: fwer N* {n_by} not smallest"))
    budget = 1800.0 if full else 300.0
    checks.append((elapsed < budget, f"runtime {elapsed:.1f}s vs {budget:.0f}s budget"))
    label = "full 84-point grid" if full else "12-point subgrid"
    _report(8, f"design surface properties ({label})", checks)


def test_criterion_09_correlation_formula_vs_simulation():
    rng = np.random.default_rng(909)
    checks = []
    for i in range(20):
        if i % 2 == 0:
            n = rng.integers(30, 300, size=3)
            rho_pair = rng.uniform(0.0, 0.55, size=2)
            platform = PlatformArms.single(
                int(n[0]), int(n[1]), int(n[2]),
                rho_ab_a=float(rho_pair[0]), rho_ab_b=float(rho_pair[1]),
            )
        else:
            n_c = int(rng.integers(30, 300))
            n_mono = tuple(int(v) for v in rng.integers(30, 300, size=2))
            n_combo = tuple(int(v) for v in rng.integers(30, 300, size=2))
            table = ArmCorrelations(
                2,
                {
                    (combo_arm(1), ("A", 0)): float(rng.uniform(0, 0.4)),
                    (combo_arm(1), mono_arm(1)): float(rng.uniform(0, 0.4)),
                    (combo_arm(2), ("A", 0)): float(rng.uniform(0, 0.4)),
                    (combo_arm(2), mono_arm(2)): float(rng.uniform(0, 0.4)),
                },
            )
            platform = PlatformArms(n_c, n_mono, n_combo, table)
        analytic = platform_z_correlation_matrix(platform).entries

        order = [("A", 0)]
        sizes = [platform.n_control]
        for k in range(1, platform.K + 1):
            order += [mono_arm(k), combo_arm(k)]
            sizes += [platform.n_mono[k - 1], platform.n_combo[k - 1]]
        dim = len(order)
        cov = np.empty((dim, dim))
        for a in range(dim):
            for b in range(dim):
                rho_ab = 1.0 if a == b else platform.correlations.get(order[a], order[b])
                cov[a, b] = rho_ab / math.sqrt(sizes[a] * sizes[b])
        draws = mvn_sample(MvnSampler(np.zeros(dim), cov, seed=i), 100_000)
        z_cols = []
        for k in range(1, platform.K + 1):
            for arm_idx in (2 * k, 2 * k - 1):  # combo then mono
                sd = math.sqrt(cov[arm_idx, arm_idx] + cov[0, 0] - 2 * cov[arm_idx, 0])
                z_cols.append((draws[:, arm_idx] - draws[:, 0]) / sd)
        empirical = np.corrcoef(np.array(z_cols))
        gap = float(np.max(np.abs(empirical - analytic)))
        checks.append((gap <= 0.015, f"config {i}: max |empirical - analytic| {gap:.4f}"))
    _report(9, "correlation formula vs simulation", checks)


def test_criterion_10_determinism(tmp_path, capsys):
    checks = []
    grid = threshold_grid(start=0.2, stop=0.6, step=0.2, seed=31)
    csv_a = run_threshold_curves(grid).to_csv(str(tmp_path / "a.csv"))
    csv_b = run_threshold_curves(grid).to_csv(str(tmp_path / "b.csv"))
    checks.append((csv_a == csv_b, "threshold study reruns differ"))
    checks.append(
        (
            (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes(),
            "threshold study files differ",
        )
    )

    surface_grid = design_surface_grid(seed=17, n_sim=2_000, start=1.0, stop=1.2, step=0.2,
                                       rho_levels=(0.3,))
    surf_a = run_design_surface(surface_grid).to_csv()
    surf_b = run_design_surface(surface_grid).to_csv()
    checks.append((surf_a == surf_b, "design surface reruns differ"))

    argv = [
        "design", "--delta", "0.4", "--synergy", "1.1", "--rho-ab-a", "0.2",
        "--metric", "fwer", "--seed", "13", "--format", "json",
    ]
    code_a = main(list(argv))
    out_a = capsys.readouterr().out
    code_b = main(list(argv))
    out_b = capsys.readouterr().out
    checks.append((code_a == 0 and code_b == 0 and out_a == out_b, "CLI reruns differ"))
    _report(10, "seeded determinism", checks)
