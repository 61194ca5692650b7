"""Acceptance criteria, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Set ``PLATFORMDESIGN_FULL_GRID=1`` to run criterion 8 on the full
84-point design surface instead of the documented 12-point subgrid.

Criteria 4 and 5 contain sub-checks that assert reference values which are
not the max-min optimum (the referenced closed form and one referenced
allocation row are dominated by the exact max-min allocation; see the
optimizer dominance tests and the README for the full analysis).  Those
sub-checks are asserted exactly as stated and fail honestly rather than being
loosened.
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
    SingleStudyArms,
    combo_arm,
    mono_arm,
    platform_z_correlation_matrix,
)
from platformdesign.correlation import test_stat_correlation as z_correlation
from platformdesign.multiplicity import (
    ErrorMetric,
    classical_dunnett_threshold,
    empirical_error_rates,
    generalized_dunnett_threshold,
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
            result = generalized_dunnett_threshold(rho, ErrorMetric(kind, alpha))
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

    c_indep = generalized_dunnett_threshold(0.0, ErrorMetric.fwer(0.05)).critical_value
    c_degen = generalized_dunnett_threshold(1.0, ErrorMetric.fwer(0.05)).critical_value
    arms = SingleStudyArms(90, 90, 90)  # comparator correlation 0.5
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


def test_criterion_04_closed_form_allocation():
    from conftest import grid_allocation_oracle

    start = time.perf_counter()
    checks = []
    for s in (0.7, 1.0, 2.0):
        _, grid_point = grid_allocation_oracle(s, 1.0, 0.0, resolution=1e-3)
        closed = closed_form_allocation(s)
        within_cell = np.allclose(closed.ratios, grid_point, atol=1.5e-3)
        checks.append(
            (
                within_cell,
                f"s={s}: closed {tuple(round(r, 4) for r in closed.ratios)} vs "
                f"grid argmax {tuple(round(r, 4) for r in grid_point)}",
            )
        )
        searched = optimize_allocation(DesignScenario.single(0.3, s))
        agrees = np.allclose(searched.ratios, closed.ratios, atol=1e-3)
        checks.append(
            (
                agrees,
                f"s={s}: optimizer {tuple(round(r, 4) for r in searched.ratios)} vs "
                f"closed form within 1e-3",
            )
        )
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 10.0, f"runtime {elapsed:.2f}s vs 10s budget"))
    _report(4, "closed-form allocation vs grid search", checks)


def _design_row(delta, synergy, rho_a, rho_b, seed):
    scenario = DesignScenario.single(delta, synergy, rho_ab_a=rho_a, rho_ab_b=rho_b)
    alloc = optimize_allocation(scenario)
    rho = z_correlation(
        SingleStudyArms(
            1000 * alloc.ratios[0], 1000 * alloc.ratios[1], 1000 * alloc.ratios[2],
            rho_ab_a=rho_a, rho_ab_b=rho_b,
        )
    )
    threshold = generalized_dunnett_threshold(rho, ErrorMetric.fwer(0.05))
    result = find_sample_size(scenario, alloc, threshold, 0.80, N0=20, n_sim=10_000, seed=seed)
    return alloc, result


def test_criterion_05_design_rows():
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
    checks.append(
        (
            np.allclose(alloc_2.ratios, (0.501, 0.455, 0.044), atol=0.01),
            f"row 2 allocation {tuple(round(r, 3) for r in alloc_2.ratios)} vs (0.501, 0.455, 0.044) +-0.01"
            " (reference row is not the max-min optimum; see notes)",
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
        result = generalized_dunnett_threshold(0.461, ErrorMetric(kind, alpha))
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
    threshold = generalized_dunnett_threshold(0.3, ErrorMetric.fwer(0.05))
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
            arms = SingleStudyArms(
                int(n[0]), int(n[1]), int(n[2]),
                rho_ab_a=float(rho_pair[0]), rho_ab_b=float(rho_pair[1]),
            )
            platform = PlatformArms.from_single(arms)
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
