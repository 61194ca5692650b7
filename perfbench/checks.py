"""Oracle checks per op, run after the timed interval.

Each ``check_*`` returns a :class:`Verdict`: the problems found (an op with
any problem counts as failed), the relative level error of every threshold
it returned, the exact power of every design it returned, and a provenance
record stored beside the op's timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

import oracle as orc
from workloads import ALPHA, SCREEN, TARGET_POWER, CliOutput, CliSpec

C_NOMINAL = float(-ndtri(0.025))
METRIC_ALPHA = {"fwer": 0.05, "fmer": 0.0025, "msfp": 0.000625}
NOMINAL = 1000.0


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    level_rel: list = field(default_factory=list)
    outside_own_rule: int = 0
    powers: list = field(default_factory=list)  # exact min power per design
    record: dict = field(default_factory=dict)


def _power_check(verdict, name, scenario, ratios, n_star, counts, c, mc_power, n_sim):
    delta, synergy, rho_cc = scenario
    expected = orc.largest_remainder(ratios, n_star)
    if list(counts) != expected:
        verdict.problems.append(f"{name}: arm counts {list(counts)} != largest remainder {expected}")
    exact = orc.exact_power(delta, synergy, rho_cc, list(counts), c)
    verdict.powers.append(exact)
    verdict.problems += orc.check_mc(f"{name} achieved power", mc_power, exact, n_sim)
    return exact


def _level(verdict, oracle, corr, c, kind, alpha, stderr=0.0, m=1):
    rel, problems, outside = orc.check_level(oracle, corr, c, kind, alpha, stderr, m)
    verdict.level_rel.append(rel)
    verdict.problems += problems
    verdict.outside_own_rule += outside
    return rel


def _bivariate(z):
    return [[1.0, z], [z, 1.0]]


# ---------------------------------------------------------------------------
# platform-design
# ---------------------------------------------------------------------------


def check_design(spec, out, oracle: orc.Oracle) -> Verdict:
    v = Verdict()
    nominal = [NOMINAL * r for r in out.ratios]
    corr = orc.platform_z_correlation(
        nominal[0], nominal[1::2], nominal[2::2], spec.rho_cc, spec.rho_cm
    )
    for i in range(len(corr)):
        for j in range(len(corr)):
            v.problems += orc.check_close(f"z_corr[{i},{j}]", float(out.z_corr[i, j]), corr[i, j])
    m = 2 if spec.kind == "mfwer" else 1
    rel = _level(v, oracle, corr, out.critical_value, spec.kind, ALPHA, out.achieved_stderr, m)
    exact = _power_check(
        v, spec.label, (spec.delta, spec.synergy, spec.rho_cc), out.ratios, out.n_star,
        out.arm_counts, out.critical_value, out.achieved_power, 10_000,
    )
    v.record.update(
        c=out.critical_value, achieved_level=out.achieved, level_rel_err=rel, allocation=list(out.ratios),
        n_star=out.n_star, arm_counts=list(out.arm_counts),
        achieved_power=out.achieved_power, exact_power=exact,
    )
    return v


# ---------------------------------------------------------------------------
# study-grids
# ---------------------------------------------------------------------------


def _z_rho(row, shape=None) -> float:
    p_control, p_mono, p_combo = shape or (row["p_control"], row["p_mono"], row["p_combo"])
    return orc.pair_correlation(
        NOMINAL * p_combo, NOMINAL * p_mono, NOMINAL * p_control,
        row["rho_ab_b"], row["rho_ab_a"], 0.0,
    )


def _bivariate_rates(oracle, z, c) -> dict:
    return {kind: oracle.bivariate(z, c, kind) for kind in ("fwer", "fmer", "msfp")}


def _holm_rates(oracle, z, a, b) -> dict:
    """Two-test Holm at level alpha: any rejection iff max|Z| > b; both iff
    additionally min|Z| > a, where b = c(alpha/2) and a = c(alpha)."""
    corr = _bivariate(z)
    inner_same = oracle.box(corr, [a, a], [b, b])[0]
    inner_opposite = oracle.box(corr, [a, -b], [b, -a])[0]
    at_a = _bivariate_rates(oracle, z, a)
    return {
        "fwer": oracle.bivariate(z, b, "fwer"),
        "fmer": at_a["fmer"] - 2.0 * inner_same - 2.0 * inner_opposite,
        "msfp": at_a["msfp"] - inner_same,
    }


def _check_rows_z(v, rows, shape=None):
    for row in rows:
        v.problems += orc.check_close("z_rho", row["z_rho"], _z_rho(row, shape))


def check_error_curves(table, grid, oracle) -> Verdict:
    v = Verdict()
    rows = table.as_dicts()
    _check_rows_z(v, rows)
    cache: dict = {}
    for row in rows:
        z = row["z_rho"]
        if z not in cache:
            cache[z] = _bivariate_rates(oracle, z, C_NOMINAL)
        v.problems += orc.check_mc(
            f"error_curves {row['metric']} z={z:.4f}", row["value"], cache[z][row["metric"]],
            grid.replications,
        )
    v.record.update(rows=len(rows))
    return v


def _dunnett_c(oracle, p_control, p_mono, p_combo, alpha) -> float:
    """Shared-control Dunnett cut: both contrasts against control, arms
    independent, so their correlation is the pair formula at zero rho."""
    rho = orc.pair_correlation(p_combo, p_mono, p_control, 0.0, 0.0, 0.0)
    return brentq(lambda c: oracle.bivariate(rho, c, "fwer") - alpha, 1.0, 4.0, xtol=1e-12)


def check_adjustments(table, grid, oracle) -> Verdict:
    v = Verdict()
    rows = table.as_dicts()
    _check_rows_z(v, rows)
    alpha = float(grid.fixed.get("alpha", ALPHA))
    c_half = float(-ndtri(alpha / 2.0))
    c_bonf = float(-ndtri(alpha / 4.0))
    dunnett: dict = {}
    cache: dict = {}
    for row in rows:
        z, method = row["z_rho"], row["method"]
        shape = (row["p_control"], row["p_mono"], row["p_combo"])
        if shape not in dunnett:
            dunnett[shape] = _dunnett_c(oracle, *shape, alpha)
        key = (z, method, shape)
        if key not in cache:
            if method == "holm":
                cache[key] = _holm_rates(oracle, z, c_half, c_bonf)
            else:
                cut = {"noadj": C_NOMINAL, "bonferroni": c_bonf, "dunnett": dunnett[shape]}[method]
                cache[key] = _bivariate_rates(oracle, z, cut)
        v.problems += orc.check_mc(
            f"adjustments {method} {row['metric']} z={z:.4f}", row["value"],
            cache[key][row["metric"]], grid.replications,
        )
    v.record.update(rows=len(rows))
    return v


def check_thresholds(table, grid, oracle) -> Verdict:
    v = Verdict()
    rows = table.as_dicts()
    # the threshold table has no allocation columns: it uses the grid's first
    _check_rows_z(v, rows, grid.allocations[0])
    for row in rows:
        kind, c = row["metric"], row["c_star"]
        _level(v, oracle, _bivariate(row["z_rho"]), c, kind, METRIC_ALPHA[kind])
        v.problems += orc.check_close("p_threshold", row["value"], 2.0 * float(ndtr(-c)))
    v.record.update(rows=len(rows), level_rel_err_max=max(v.level_rel, default=0.0))
    return v


def check_design_surface(table, grid, oracle) -> Verdict:
    v = Verdict()
    delta = float(grid.fixed.get("delta", 0.3))
    target = float(grid.fixed.get("target_power", TARGET_POWER))
    for row in table.as_dicts():
        s, rho = row["synergy"], row["rho"]
        ratios = (row["p_control"], row["p_mono"], row["p_combo"])
        z = orc.pair_correlation(
            NOMINAL * ratios[2], NOMINAL * ratios[1], NOMINAL * ratios[0], rho, rho, 0.0
        )
        v.problems += orc.check_close("z_rho", row["z_rho"], z)
        kind, c, n_star = row["metric"], row["c_star"], row["value"]
        _level(v, oracle, _bivariate(z), c, kind, METRIC_ALPHA[kind])
        counts = orc.largest_remainder(ratios, n_star)
        exact = orc.exact_power((delta,), (s,), (rho,), counts, c)
        v.powers.append(exact)
        v.problems += orc.check_mc(
            f"design_surface s={s} rho={rho} {kind} power", row["achieved_power"], exact,
            grid.replications,
        )
    v.record.update(
        designs=len(v.powers), underpowered=sum(p < target for p in v.powers),
        level_rel_err_max=max(v.level_rel, default=0.0),
    )
    return v


STUDY_CHECKS = {
    "error_curves": check_error_curves,
    "adjustments": check_adjustments,
    "thresholds": check_thresholds,
    "design_surface": check_design_surface,
}


def check_study(spec, table, oracle) -> Verdict:
    return STUDY_CHECKS[spec.name](table, spec.grid(), oracle)


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------

_ADJUST_FIELDS = ("metric", "alpha", "z_correlation", "critical_value", "p_threshold",
                  "achieved", "achieved_stderr")
_DESIGN_FIELDS = ("allocation", "arm_counts", "z_rho", "critical_value", "p_threshold",
                  "n_star", "achieved_power", "target_power")
_ESTIMATE_FIELDS = ("rho_AB_A", "rho_AB_B", "delta_B", "delta_AB", "s_hat", "n_A",
                    "screened_out", "z_rho", "unadjusted", "p_thresholds")


def parse_cli(output: CliOutput, fields: tuple[str, ...]) -> tuple[dict | None, list[str]]:
    if output.returncode != 0:
        return None, [f"exit code {output.returncode}: {output.stderr.strip()[-300:]}"]
    try:
        payload = json.loads(output.stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    missing = [f for f in fields if f not in payload]
    return payload, [f"missing JSON fields {missing}"] if missing else []


def check_cli(spec: CliSpec, out: CliOutput, oracle) -> Verdict:
    v = Verdict()
    fields = {"adjust": _ADJUST_FIELDS, "adjust_mfwer": _ADJUST_FIELDS,
              "design": _DESIGN_FIELDS, "estimate": _ESTIMATE_FIELDS}[spec.label]
    payload, v.problems = parse_cli(out, fields)
    if payload is None or v.problems:
        return v
    inputs = spec.inputs
    if spec.label == "adjust":
        rho = inputs["rho"]
        v.problems += orc.check_close("z_correlation", payload["z_correlation"], rho)
        v.record["c"] = payload["critical_value"]
        _level(v, oracle, _bivariate(rho), payload["critical_value"], "fwer", ALPHA,
               payload["achieved_stderr"])
    elif spec.label == "adjust_mfwer":
        corr = orc.platform_z_correlation(
            inputs["n_a"], inputs["n_b"], inputs["n_ab"], inputs["rho_cc"], inputs["rho_cm"]
        )
        got = payload["z_correlation"]
        for i in range(len(corr)):
            for j in range(len(corr)):
                if abs(got[i][j] - corr[i, j]) > 1e-11:
                    v.problems.append(f"z_correlation[{i}][{j}] {got[i][j]} != {corr[i, j]}")
        v.record["c"] = payload["critical_value"]
        _level(v, oracle, corr, payload["critical_value"], "mfwer", ALPHA,
               payload["achieved_stderr"], m=2)
    elif spec.label == "design":
        ratios = payload["allocation"]
        z = orc.pair_correlation(
            NOMINAL * ratios[2], NOMINAL * ratios[1], NOMINAL * ratios[0],
            inputs["rho_ab_b"], inputs["rho_ab_a"], 0.0,
        )
        v.problems += orc.check_close("z_rho", payload["z_rho"], z)
        c = payload["critical_value"]
        v.record["c"] = c
        _level(v, oracle, _bivariate(z), c, "fwer", ALPHA)
        scenario = ((inputs["delta"],), (inputs["synergy"],), (inputs["rho_ab_a"],))
        exact = _power_check(v, "design", scenario, ratios, payload["n_star"],
                             payload["arm_counts"], c, payload["achieved_power"], 10_000)
        v.record.update(n_star=payload["n_star"], arm_counts=payload["arm_counts"],
                        allocation=ratios, achieved_power=payload["achieved_power"],
                        exact_power=exact)
    else:
        expected = orc.screen_estimates(inputs["path"], *SCREEN)
        for key in ("rho_AB_A", "rho_AB_B", "delta_B", "delta_AB", "s_hat"):
            v.problems += orc.check_close(key, payload[key], expected[key])
        n = expected["n"]
        z = orc.pair_correlation(n, n, n, expected["rho_AB_B"], expected["rho_AB_A"], 0.0)
        v.problems += orc.check_close("z_rho", payload["z_rho"], z)
        for kind, p in payload["p_thresholds"].items():
            _level(v, oracle, _bivariate(z), orc.c_from_p(p), kind, METRIC_ALPHA[kind])
        exact = _bivariate_rates(oracle, z, C_NOMINAL)
        for kind, value in payload["unadjusted"].items():
            v.problems += orc.check_mc(f"unadjusted {kind}", value, exact[kind], 100_000)
        v.record.update(z_rho=payload["z_rho"], p_thresholds=payload["p_thresholds"])
    v.record["level_rel_err"] = max(v.level_rel, default=0.0)
    return v

