"""Independent checks on the program's outputs.

Nothing here calls the package's numerical code.  Threshold levels come from
``scipy.stats.multivariate_normal.cdf`` (seeded, with ``lower_limit``; exact
Genz bivariate integration in dimension 2, randomized QMC above), power from
an exact normal tail built on the contrast-variance formula below, and the
screen estimates from plain numpy on the CSV the benchmark wrote.

Each check returns a list of problems (empty when the output passes) so the
caller can count failed ops and report why.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

# Absolute error requested from scipy's QMC cdf; scipy stops once 3 x its
# standard error is below this, so it bounds the oracle's own error per box.
ABSEPS = 1e-5
# A threshold fails when its oracle level is further from alpha than
# max(1e-4, LEVEL_SIGMAS x the code's stderr) plus the oracle's own error.
# The code's own acceptance rule uses 3 x stderr; with the QMC stderr taken
# from 12 batches (t with 11 df) that rule misses about 1% of soundly
# computed thresholds, which over the ~200 threshold checks of seventy
# benchmark runs would fail sound code.  At 6 the t(11) tail is ~1e-4 per check.
# Thresholds outside the code's own 3 x stderr rule are counted and reported.
LEVEL_SIGMAS = 6.0
OWN_RULE_SIGMAS = 3.0
# MC outputs are accepted within this many binomial standard errors of the
# exact value; at 5 sigma a false alarm has probability ~6e-7 per value.
MC_SIGMAS = 5.0
# Deterministic outputs recomputed here (correlations, estimates) must agree
# to this relative tolerance.
REL_TOL = 1e-9
INF = math.inf


class Oracle:
    """Seeded box probabilities for zero-mean normals with correlation R."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 17])

    def box(self, corr, lower, upper) -> tuple[float, float]:
        """P(lower < Z <= upper) and the oracle's error bound for it."""
        corr = np.asarray(corr, dtype=float)
        dim = corr.shape[0]
        p = multivariate_normal.cdf(
            np.asarray(upper, dtype=float),
            np.zeros(dim),
            corr,
            lower_limit=np.asarray(lower, dtype=float),
            abseps=ABSEPS,
            releps=0.0,
            rng=self.rng,
        )
        return float(p), (0.0 if dim <= 2 else ABSEPS)

    def fwer(self, corr, c: float) -> tuple[float, float]:
        """P(any |Z_i| > c)."""
        dim = len(corr)
        p, err = self.box(corr, [-c] * dim, [c] * dim)
        return 1.0 - p, err

    def at_least_two(self, corr, c: float) -> tuple[float, float]:
        """P(at least two |Z_i| > c) = 1 - P(none) - sum_i P(only i)."""
        dim = len(corr)
        p_none, err = self.box(corr, [-c] * dim, [c] * dim)
        total = p_none
        for i in range(dim):
            for lo_i, hi_i in ((c, INF), (-INF, -c)):
                lower, upper = [-c] * dim, [c] * dim
                lower[i], upper[i] = lo_i, hi_i
                p, e = self.box(corr, lower, upper)
                total += p
                err += e
        return 1.0 - total, err

    def bivariate(self, rho: float, c: float, kind: str) -> float:
        """Exact two-test levels: fwer, fmer (both |Z| > c), msfp (both Z > c)."""
        corr = [[1.0, rho], [rho, 1.0]]
        if kind == "fwer":
            return self.fwer(corr, c)[0]
        upper_both = self.box(corr, [c, c], [INF, INF])[0]
        if kind == "msfp":
            return upper_both
        opposite = self.box(corr, [c, -INF], [INF, -c])[0]
        return 2.0 * upper_both + 2.0 * opposite

    def level(self, corr, c: float, kind: str, m: int = 1) -> tuple[float, float]:
        """Oracle level of critical value ``c`` and its error bound."""
        if len(corr) == 2 and kind in ("fwer", "fmer", "msfp"):
            return self.bivariate(corr[0][1], c, kind), 0.0
        if kind == "fwer" or (kind == "mfwer" and m == 1):
            return self.fwer(corr, c)
        if kind == "mfwer" and m == 2:
            return self.at_least_two(corr, c)
        raise ValueError(f"no oracle for {kind} with m={m}")


def check_level(
    oracle: Oracle, corr, c: float, kind: str, alpha: float, stderr: float = 0.0, m: int = 1
) -> tuple[float, list[str], bool]:
    """Relative level error of ``c``, problems, and whether the level lies
    outside the code's own max(1e-4, 3 x stderr) rule (widened by the
    oracle's error)."""
    level, err = oracle.level(corr, c, kind, m)
    miss = abs(level - alpha)
    tol = max(1e-4, LEVEL_SIGMAS * stderr) + err
    problems = []
    if not miss <= tol:
        problems.append(
            f"{kind} level {level:.6g} at c={c!r} misses alpha {alpha} by more than {tol:.3g}"
        )
    outside_own_rule = not miss <= max(1e-4, OWN_RULE_SIGMAS * stderr) + err
    return miss / alpha, problems, outside_own_rule


def check_mc(name: str, value: float, exact: float, n: int) -> list[str]:
    """An MC proportion over ``n`` draws against its exact value."""
    sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / n)
    if abs(value - exact) <= MC_SIGMAS * sigma + 1e-12:
        return []
    return [f"{name}: MC value {value!r} vs exact {exact:.6g} (> {MC_SIGMAS} sigma = {sigma:.3g})"]


def check_close(name: str, value: float, expected: float) -> list[str]:
    if abs(value - expected) <= REL_TOL * max(1.0, abs(expected)):
        return []
    return [f"{name}: {value!r} != independent value {expected!r}"]


# ---------------------------------------------------------------------------
# Correlations and power, written from the formulas, not from the package
# ---------------------------------------------------------------------------


def pair_correlation(n_u, n_v, n_a, rho_uv, rho_ua, rho_va) -> float:
    """Correlation of (mean_u - mean_a) and (mean_v - mean_a), unit variances."""
    cov = rho_uv / math.sqrt(n_u * n_v) - rho_ua / math.sqrt(n_u * n_a) \
        - rho_va / math.sqrt(n_v * n_a) + 1.0 / n_a
    var_u = 1.0 / n_u + 1.0 / n_a - 2.0 * rho_ua / math.sqrt(n_u * n_a)
    var_v = 1.0 / n_v + 1.0 / n_a - 2.0 * rho_va / math.sqrt(n_v * n_a)
    return cov / math.sqrt(var_u * var_v)


def platform_z_correlation(n_control, n_mono, n_combo, rho_combo_control, rho_combo_mono):
    """2K x 2K Z correlation in test order (combo_1, mono_1, combo_2, ...).

    Arms of different substudies are independent apart from the shared
    control; monotherapy arms are independent of control.
    """
    K = len(n_mono)
    arms = []  # (substudy, is_combo, n, rho_with_control)
    for k in range(K):
        arms.append((k, True, n_combo[k], rho_combo_control[k]))
        arms.append((k, False, n_mono[k], 0.0))
    dim = 2 * K
    corr = np.eye(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            ki, _, ni, ri = arms[i]
            kj, _, nj, rj = arms[j]
            rho_ij = rho_combo_mono[ki] if ki == kj else 0.0
            corr[i, j] = corr[j, i] = pair_correlation(ni, nj, n_control, rho_ij, ri, rj)
    return corr


def largest_remainder(ratios, n_total: int) -> list[int]:
    """Integer arm counts summing to n_total, every arm at least one."""
    raw = [r * n_total for r in ratios]
    counts = [math.floor(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: -(raw[i] - counts[i]))
    for i in order[: n_total - sum(counts)]:
        counts[i] += 1
    while min(counts) == 0:
        counts[counts.index(max(counts))] -= 1
        counts[counts.index(min(counts))] += 1
    return counts


def exact_power(delta, synergy, rho_combo_control, counts, c: float) -> float:
    """Minimum over the 2K comparisons of the exact two-sided rejection
    probability at integer arm counts (control, mono_1, combo_1, ...).

    Responses have unit variance, as on every workload.  Each contrast
    mean_arm - mean_control is normal with mean mu and variance
    1/n_arm + 1/n_control - 2 rho / sqrt(n_arm n_control); its standardized
    statistic is N(mu / sd, 1).
    """
    n_control = counts[0]
    powers = []
    for k in range(len(delta)):
        n_mono, n_combo = counts[2 * k + 1], counts[2 * k + 2]
        for mu, n_arm, rho in (
            (synergy[k] * delta[k], n_combo, rho_combo_control[k]),
            (delta[k], n_mono, 0.0),
        ):
            var = 1.0 / n_arm + 1.0 / n_control - 2.0 * rho / math.sqrt(n_arm * n_control)
            shift = mu / math.sqrt(var)
            powers.append(float(ndtr(shift - c) + ndtr(-c - shift)))
    return min(powers)


def c_from_p(p_threshold: float) -> float:
    return float(-ndtri(p_threshold / 2.0))


# ---------------------------------------------------------------------------
# Screen estimates from the CSV
# ---------------------------------------------------------------------------


def screen_estimates(path: str, drug_a: str, drug_b: str, combo: str) -> dict:
    """Estimates for one (A, B, A+B) triple, recomputed from the raw CSV."""
    table: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            table[(row["model_id"], row["treatment"])] = float(row["response"])

    def models(*treatments):
        sets = [{m for (m, t) in table if t == tr} for tr in treatments]
        return sorted(set.intersection(*sets))

    def values(treatment, ids):
        return np.array([table[(m, treatment)] for m in ids])

    triple = models(drug_a, drug_b, combo)
    y_a, y_b, y_ab = (values(t, triple) for t in (drug_a, drug_b, combo))
    n = len(triple)
    sd = {name: float(np.std(v, ddof=1)) for name, v in (("a", y_a), ("b", y_b), ("ab", y_ab))}

    def pooled(s1, s2):
        return math.sqrt(((n - 1) * s1**2 + (n - 1) * s2**2) / (2 * n - 2))

    def corr(u, v):
        ids = models(u, v)
        return float(np.corrcoef(values(u, ids), values(v, ids))[0, 1])

    delta_ab = float((y_ab.mean() - y_a.mean()) / pooled(sd["ab"], sd["a"]))
    delta_b = float((y_b.mean() - y_a.mean()) / pooled(sd["a"], sd["b"]))
    return {
        "rho_AB_A": corr(combo, drug_a),
        "rho_AB_B": corr(combo, drug_b),
        "delta_B": delta_b,
        "delta_AB": delta_ab,
        "s_hat": delta_ab / delta_b,
        "n": n,
    }
