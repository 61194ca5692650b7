"""Shared oracles for the test suite.

These deliberately use different numerical routes than the package
(adaptive quadrature instead of Gauss-Legendre series, direct enumeration
instead of root finding, simulated trials instead of exact normal laws), so
agreement is evidence, not tautology.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from platformdesign.allocation import _noncentralities
from platformdesign.mvnorm import _bvn_upper
from platformdesign.power import marginal_power_oracle


def rect_quad_oracle(lower, upper, rho: float) -> float:
    """Bivariate normal rectangle probability via adaptive quadrature."""
    a = np.asarray(lower, dtype=float)
    b = np.asarray(upper, dtype=float)
    if abs(rho) == 1.0:
        if rho > 0:
            lo, hi = max(a[0], a[1]), min(b[0], b[1])
        else:
            lo, hi = max(a[0], -b[1]), min(b[0], -a[1])
        return max(0.0, norm.cdf(hi) - norm.cdf(lo))
    t = np.sqrt(1.0 - rho * rho)

    def inner(x):
        return norm.pdf(x) * (
            norm.cdf((b[1] - rho * x) / t) - norm.cdf((a[1] - rho * x) / t)
        )

    lo, hi = max(a[0], -9.5), min(b[0], 9.5)
    # the integrand steps where rho * x crosses a bound of the second
    # coordinate, over a width of order t; near |rho| = 1 quad misses such a
    # narrow step unless it is told where it is.  A step can lie inside
    # [-9.5, 9.5] only when |v| < 9.5 |rho|, and v / rho is computed only
    # then, so a subnormal rho cannot overflow it.
    steps = [v / rho for v in (a[1], b[1]) if abs(v) < 9.5 * abs(rho)]
    value, _ = integrate.quad(
        inner, lo, hi, points=[x for x in steps if lo < x < hi] or None,
        epsabs=1e-13, limit=500,
    )
    return value


def bvn_rectangle(lower, upper, rho):
    """P(lower <= (X, Y) <= upper) for standard bivariate normals with
    correlation rho, from the package's upper orthant ``_bvn_upper`` at the
    four corners of every box: the box probability the tests check against
    :func:`rect_quad_oracle` and read the exact levels from.

    Boxes of shape (..., 2) broadcast with ``rho``; one box gives a float.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    a1, a2, b1, b2, rho = np.broadcast_arrays(
        lower[..., 0], lower[..., 1], upper[..., 0], upper[..., 1], np.asarray(rho, dtype=float)
    )
    corner = _bvn_upper(
        np.stack((a1, a1, b1, b1)), np.stack((a2, b2, a2, b2)), np.stack((rho,) * 4)
    )
    p = np.minimum(1.0, np.maximum(0.0, corner[0] - corner[1] - corner[2] + corner[3]))
    return float(p) if p.ndim == 0 else p


def grid_allocation_oracle(s, delta, rho, resolution=1e-3, K=1):
    """Brute-force simplex search maximizing min(W1*, W2*) over K identical
    substudies, each with p_B = (1 - p_A - K p_AB) / K."""
    step = resolution
    p_a_values = np.arange(step, 1.0, step)
    best_value, best_point = -np.inf, None
    for p_a in p_a_values:
        p_ab = np.arange(step, (1.0 - p_a) / K, step)
        if p_ab.size == 0:
            continue
        p_b = (1.0 - p_a - K * p_ab) / K
        keep = p_b > 0
        p_ab, p_b = p_ab[keep], p_b[keep]
        w1 = s * s * delta * delta / (1.0 / p_ab + 1.0 / p_a - 2.0 * rho / np.sqrt(p_ab * p_a))
        w2 = delta * delta / (1.0 / p_a + 1.0 / p_b)
        values = np.minimum(w1, w2)
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = float(values[idx])
            best_point = (float(p_a), float(p_b[idx]), float(p_ab[idx]))
    return best_value, best_point


def ray_allocation_oracle(s, resolution=1e-4):
    """Brute-force argmax of the zero-correlation combination noncentrality
    W1 along the single-substudy ray p_B = s p_AB (delta and N scale W1 only,
    so they are left out); returns (p_A, p_B, p_AB)."""
    p_a = np.arange(resolution, 1.0, resolution)
    p_ab = (1.0 - p_a) / (1.0 + s)
    w1 = s * s / (1.0 / p_ab + 1.0 / p_a)
    idx = int(np.argmax(w1))
    return float(p_a[idx]), float(s * p_ab[idx]), float(p_ab[idx])


def integer_design_power(scenario, counts, c: float) -> float:
    """Minimum over the 2K comparisons of the exact two-sided rejection
    probability at integer arm counts (control, mono_1, combo_1, ...): each
    contrast mean_arm - mean_control has variance
    sigma2 (1/n_arm + 1/n_control - 2 rho / sqrt(n_arm n_control)), with rho
    the arm's correlation with control (0 for a monotherapy arm)."""
    n_control = counts[0]
    powers = []
    for k in range(scenario.K):
        delta = scenario.delta[k]
        for mu, n_arm, rho in (
            (delta, counts[2 * k + 1], 0.0),
            (scenario.synergy[k] * delta, counts[2 * k + 2], scenario.rho_combo_control[k]),
        ):
            var = scenario.sigma2 * (
                1.0 / n_arm + 1.0 / n_control - 2.0 * rho / math.sqrt(n_arm * n_control)
            )
            shift = mu / math.sqrt(var)
            powers.append(float(ndtr(shift - c) + ndtr(-c - shift)))
    return min(powers)


def package_design_power(scenario, counts, c: float) -> float:
    """The package's own power of one integer design: ``marginal_power_oracle``
    at the smallest of its noncentralities.  Enumerated on this, N* and every
    power must match the sample-size search bit for bit, as the search only
    skips totals, it does not compute powers another way."""
    w = np.min(_noncentralities(scenario, np.asarray([counts])), axis=1)
    return float(marginal_power_oracle(w, c)[0])


def n_star_enumeration_oracle(
    scenario, alloc, c: float, target: float, n_cap: int = 10**5, power=integer_design_power
):
    """Smallest N >= 2K+1 whose ``alloc.arm_counts(N)`` design reaches
    ``target``, found by trying every N in turn, and the power at each N
    tried; (None, powers) when no N <= n_cap passes.  ``power(scenario,
    counts, c)`` is the power of one integer design."""
    powers = {}
    for n in range(2 * scenario.K + 1, n_cap + 1):
        powers[n] = power(scenario, alloc.arm_counts(n), c)
        if powers[n] >= target:
            return n, powers
    return None, powers


def mvn_draws(factor, count: int, seed: int, stream: int = 0) -> np.ndarray:
    """``count`` rows of N(0, factor factor^T): seeded standard normals times
    the (Cholesky) factor."""
    normals = np.random.default_rng([seed, stream]).standard_normal((count, len(factor)))
    return normals @ np.asarray(factor).T


def mc_error_rates(z_corr, c: float, count: int, seed: int) -> dict:
    """Simulated null fwer (any |Z| > c), fmer (at least two |Z| > c) and
    msfp (at least two Z > c) of statistics with correlation ``z_corr``."""
    z = mvn_draws(z_corr.factor, count, seed, stream=2)
    two_sided = np.abs(z) > c
    return {
        "fwer": float(two_sided.any(axis=1).mean()),
        "fmer": float((two_sided.sum(axis=1) >= 2).mean()),
        "msfp": float(((z > c).sum(axis=1) >= 2).mean()),
    }


def holm_reject(p_values, alpha: float) -> list[bool]:
    """Holm's step-down decisions, in the input order: the i-th smallest
    p-value is compared against alpha/(n-i+1), and the first failure retains
    it and everything after it."""
    p = list(p_values)
    n = len(p)
    decisions = [False] * n
    for rank, idx in enumerate(sorted(range(n), key=lambda i: p[i])):
        if p[idx] > alpha / (n - rank):
            break
        decisions[idx] = True
    return decisions


def mc_comparison_power(scenario, sizes, c: float, count: int, seed: int) -> np.ndarray:
    """Simulated rejection rate (|Z| > c) of each comparison with control,
    in arm order (mono_1, combo_1, mono_2, ...), from arm means drawn at the
    (possibly fractional) arm sizes (control, mono_1, combo_1, ...)."""
    K = scenario.K
    mean, corr = np.zeros(2 * K + 1), np.eye(2 * K + 1)
    for k in range(K):
        mono, combo = 2 * k + 1, 2 * k + 2
        mean[mono], mean[combo] = scenario.delta[k], scenario.synergy[k] * scenario.delta[k]
        corr[0, combo] = corr[combo, 0] = scenario.rho_combo_control[k]
        corr[mono, combo] = corr[combo, mono] = scenario.rho_combo_mono[k]
    n = np.asarray(sizes, dtype=float)
    cov = scenario.sigma2 * corr / np.sqrt(np.outer(n, n))
    means = mean + mvn_draws(np.linalg.cholesky(cov), count, seed, stream=3)
    sd = np.sqrt(np.diag(cov)[1:] + cov[0, 0] - 2.0 * cov[0, 1:])
    return (np.abs(means[:, 1:] - means[:, :1]) / sd > c).mean(axis=0)


# a paired-endpoint screen whose A and B are nearly uncorrelated (-0.095), as
# the estimator assumes; the combination correlates 0.72 with A and 0.45 with B
_SHIFT_B = (3, 6, 0, 5, 7, 1, 2, 4)
_SHIFT_AB = (2.0, 2.5, 2.0, 3.5, 5.5, 4.0, 3.0, 5.5)
FIXTURE_INDEPENDENT_CSV = "model_id,treatment,response\n" + "".join(
    f"m{i},A,{10 + i}\nm{i},B,{12.5 + _SHIFT_B[i]}\nm{i},AB,{15 + _SHIFT_AB[i]}\n"
    for i in range(8)
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
