"""Shared oracles for the test suite.

These deliberately use different numerical routes than the package
(adaptive quadrature instead of Gauss-Legendre series, direct enumeration
instead of root finding, simulated trials instead of exact normal laws), so
agreement is evidence, not tautology.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import multivariate_normal, norm

from platformdesign.allocation import Allocation, _contrasts, _largest_remainder, _noncentralities
from platformdesign.correlation import _arm_correlation_matrix, classical_dunnett_correlation
from platformdesign.multiplicity import ErrorMetric, platform_threshold
from platformdesign.mvnorm import CorrelationMatrix
from platformdesign.power import _power


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
    # coordinate, over a width of order t / |rho|; near |rho| = 1 quad misses
    # such a narrow step unless it is told where it is, also a step at an
    # end of [lo, hi], so each step gives break points at itself and 8
    # widths to either side.  A step can lie inside [-9.5, 9.5] only when
    # |v| < 9.5 |rho|, and v / rho is computed only then, so a subnormal rho
    # cannot overflow it; its width is then inf and gives no break point.
    steps = [v / rho for v in (a[1], b[1]) if abs(v) < 9.5 * abs(rho)]
    width = 8.0 * float(t) / abs(float(rho)) if steps else 0.0
    points = [x for step in steps for x in (step - width, step, step + width) if lo < x < hi]
    value, _ = integrate.quad(inner, lo, hi, points=points or None, epsabs=1e-13, limit=500)
    return value


# A bound past this many standard deviations is infinite to double precision
_FAR = 40.0


def bvn_rectangle(lower, upper, rho):
    """P(lower <= (X, Y) <= upper) for standard bivariate normals with
    correlation rho, box by box from scipy's ``multivariate_normal.cdf``,
    whose bivariate path is Genz's BVNU (Genz 2004): the box probability the
    tests check against :func:`rect_quad_oracle` and read the exact levels
    from.

    Bounds past +-40 are taken as infinite: at rho 0.999999 scipy gives 1.0
    for the box (-1e300, 1e200) x (-1, 1).  At |rho| = 1 the box comes from
    :func:`rect_quad_oracle`'s closed form, so the singular law takes no
    numerical path; a correlation just inside it, where scipy would refuse
    the covariance as singular, is allowed.  Boxes of shape (..., 2)
    broadcast with ``rho``; one box gives a float.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    a1, a2, b1, b2, rho = np.broadcast_arrays(
        lower[..., 0], lower[..., 1], upper[..., 0], upper[..., 1], np.asarray(rho, dtype=float)
    )
    lower, upper = (
        np.where(np.abs(bound) >= _FAR, np.copysign(np.inf, bound), bound)
        for bound in (np.stack((a1, a2), axis=-1), np.stack((b1, b2), axis=-1))
    )
    p = np.empty(rho.shape)
    for i in np.ndindex(rho.shape):
        r = float(rho[i])
        if abs(r) == 1.0:
            p[i] = rect_quad_oracle(lower[i], upper[i], r)
        else:
            p[i] = multivariate_normal.cdf(
                upper[i], mean=(0.0, 0.0), cov=((1.0, r), (r, 1.0)), lower_limit=lower[i],
                allow_singular=True,
            )
    return float(p) if p.ndim == 0 else p


def mp_orthant(h: float, k: float, r: float):
    """P(Z1 > h, Z2 > k) at correlation r, |r| < 1, at mpmath's working
    precision: quadrature of phi(x) Phi((r x - k) / sqrt(1 - r^2)) over x >
    h, split where the inner tail steps, at x = k / r."""
    r = mp.mpf(r)
    scale = mp.sqrt(1 - r**2)
    points = [h, h + 2, h + 6]
    if r and k / r > h:
        points = sorted({*points, k / r})
    return mp.quad(lambda x: mp.npdf(x) * mp.ncdf((r * x - k) / scale), [*points, mp.inf])


def wald_noncentrality(scenario, alloc, n_total: int) -> np.ndarray:
    """Per-substudy Wald noncentrality pairs N mu^2 / (sigma2 var) at the
    allocation's shares, shape (K, 2): column 0 the combination-vs-control
    parameter, column 1 the monotherapy-vs-control one.  Each contrast's
    variance 1/p_arm + 1/p_A - 2 rho / sqrt(p_arm p_A) is written out per
    substudy, rho the arm's correlation with control (0 for a monotherapy)."""
    p_a = alloc.ratios[0]
    out = np.empty((scenario.K, 2))
    for k in range(scenario.K):
        delta, rho = scenario.delta[k], scenario.rho_combo_control[k]
        p_b, p_ab = alloc.ratios[2 * k + 1], alloc.ratios[2 * k + 2]
        var_combo = 1.0 / p_ab + 1.0 / p_a - 2.0 * rho / math.sqrt(p_ab * p_a)
        var_mono = 1.0 / p_b + 1.0 / p_a
        out[k] = (scenario.synergy[k] * delta) ** 2 / var_combo, delta**2 / var_mono
    return n_total * out / scenario.sigma2


def closed_form_allocation(s: float) -> Allocation:
    """The paper's closed-form single-substudy allocation at zero
    correlation, from the synergy s alone: p_A = (sqrt(s + 1) - 1) / s,
    p_B = (s + 1 - sqrt(s + 1)) / (s + 1) and p_AB = p_B / s.  It puts the
    monotherapy arm at s times the combination arm's share and maximizes the
    combination noncentrality along that ray; only at s = 1 is it the
    max-min optimum."""
    root = math.sqrt(s + 1.0)
    return Allocation(
        ((root - 1.0) / s, (s + 1.0 - root) / (s + 1.0), (s + 1.0 - root) / (s * (s + 1.0)))
    )


def classical_dunnett_threshold(arms, alpha: float):
    """The classical shared-control comparator: the fwer threshold of a K=1
    trial at its comparator correlation."""
    return platform_threshold(
        CorrelationMatrix.bivariate(classical_dunnett_correlation(arms)), ErrorMetric.fwer(alpha)
    )


def column(table, name: str, **match) -> list:
    """The ``name`` values of the table's rows whose other columns equal
    ``match``, in row order."""
    return [
        row[name] for row in table.as_dicts()
        if all(row[key] == value for key, value in match.items())
    ]


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


def mp_allocation_oracle(scenario) -> tuple:
    """The max-min shares at the root of F'(q), F(q) the total of the 2K+1
    closed-form shares at control share 1/q^2, found by 200 bisections of
    (0, q_max) on the sign of F' in 50-digit mpmath: with p_A = 1/q^2,
    p_B = 1/(delta^2 - q^2) and p_AB = 1/u^2, u = rho q + sqrt(s^2 delta^2 -
    (1 - rho^2) q^2), F' = -2/q^3 + sum 2q/(delta^2 - q^2)^2 - 2u'/u^3."""
    with mp.workdps(50):
        terms, q2_max = [], mp.inf
        for delta, s, rho in zip(scenario.delta, scenario.synergy, scenario.rho_combo_control):
            d2, b, rho = mp.mpf(delta) ** 2, (mp.mpf(s) * delta) ** 2, mp.mpf(rho)
            c = 1 - rho**2
            terms.append((d2, b, c, rho))
            q2_max = min(q2_max, d2, b if rho < 0 else (b / c if c > 0 else mp.inf))

        def slope(q):
            total = -2 / q**3
            for d2, b, c, rho in terms:
                root = mp.sqrt(b - c * q * q)
                u, du = rho * q + root, rho - c * q / root
                total += 2 * q / (d2 - q * q) ** 2 - 2 * du / u**3
            return total

        lo, hi = mp.mpf(0), mp.sqrt(q2_max)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if slope(mid) > 0 else (mid, hi)
        q = (lo + hi) / 2
        shares = [1 / q**2]
        for d2, b, c, rho in terms:
            shares += [1 / (d2 - q * q), 1 / (rho * q + mp.sqrt(b - c * q * q)) ** 2]
        total = mp.fsum(shares)
        return tuple(p / total for p in shares)


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
    """The package's own power of one integer design: ``_power`` at the
    smallest of its noncentralities.  Enumerated on this, N* and every power
    must match the sample-size search bit for bit, as the search only skips
    totals, it does not compute powers another way."""
    mu = _contrasts(scenario.delta, scenario.synergy, len(counts))
    rho = _arm_correlation_matrix(scenario.rho_combo_control, scenario.rho_combo_mono)[1:, 0]
    w = np.min(_noncentralities(np.asarray([counts]), mu, rho, scenario.sigma2), axis=1)
    return float(_power(w, c)[0])


def exhaustive_n_star(scenario, alloc, critical_values, target: float, n_max: int):
    """(N*, power at N*) for each critical value, from the package's own power
    at every total from 2K+1 to ``n_max`` in turn, none skipped; (None, None)
    where no total reaches ``target``.  The sample-size scan only skips
    totals, so it must match this bit for bit."""
    totals = np.arange(2 * scenario.K + 1, n_max + 1)
    mu = _contrasts(scenario.delta, scenario.synergy, len(alloc.ratios))
    rho = _arm_correlation_matrix(scenario.rho_combo_control, scenario.rho_combo_mono)[1:, 0]
    counts = _largest_remainder(np.asarray([alloc.ratios]), totals)
    w = np.min(_noncentralities(counts, mu, rho, scenario.sigma2), axis=1)
    out = []
    for c in critical_values:
        powers = _power(w, c)
        hits = np.flatnonzero(powers >= target)
        out.append((int(totals[hits[0]]), float(powers[hits[0]])) if hits.size else (None, None))
    return out


def n_star_enumeration_oracle(
    scenario, alloc, c: float, target: float, n_cap: int = 10**5, power=integer_design_power
):
    """Smallest N >= 2K+1 whose largest-remainder design at N reaches
    ``target``, found by trying every N in turn, and the power at each N
    tried; (None, powers) when no N <= n_cap passes.  ``power(scenario,
    counts, c)`` is the power of one integer design."""
    powers = {}
    for n in range(2 * scenario.K + 1, n_cap + 1):
        counts = _largest_remainder(np.array([alloc.ratios]), np.array([n]))[0]
        powers[n] = power(scenario, tuple(counts.tolist()), c)
        if powers[n] >= target:
            return n, powers
    return None, powers


def z_correlation_oracle(sizes, arm_rho) -> np.ndarray:
    """Z correlations of a K-substudy trial from its arm counts ``sizes``,
    (n_A, n_B1, n_AB1, ..., n_BK, n_ABK), and arm correlation matrix
    ``arm_rho``, through the contrasts' covariance: each row of C is e_arm -
    e_control, in statistic order (combo_1, mono_1, ..., combo_K, mono_K),
    and C V C^T, V = R / sqrt(n n^T) the covariance of the arm means per unit
    variance, is normalized to a correlation matrix.  One matrix product,
    where the package builds each entry from its own closed form."""
    sizes = np.asarray(sizes, dtype=float)
    dim = len(sizes) - 1
    contrasts = np.zeros((dim, dim + 1))
    contrasts[:, 0] = -1.0
    for k in range(dim // 2):
        contrasts[2 * k, 2 * k + 2] = contrasts[2 * k + 1, 2 * k + 1] = 1.0
    sigma = contrasts @ (np.asarray(arm_rho) / np.sqrt(np.outer(sizes, sizes))) @ contrasts.T
    sd = np.sqrt(np.diag(sigma))
    return sigma / np.outer(sd, sd)


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


def chi_tail(x, dim: int):
    """P(chi_dim > x) and the chi_dim density at x for an even ``dim``,
    elementwise for x >= 0, each element on its own.

    With t = x^2 / 2 the tail is e^-t sum_a t^a / Gamma(a + 1) over a =
    dim/2 - 1, dim/2 - 2, ..., 0 (Genz & Bretz 2009, ch. 4); the density is
    x e^-t t^(dim/2 - 1) / Gamma(dim/2).  The sum is taken by Horner's rule
    and e^-t as two factors e^(-t/2), so nothing underflows before the
    result does; past sqrt(dim) + 40 both are 0 in double precision, and x
    is cut there so that the powers of t stay finite.
    """
    x = np.minimum(x, math.sqrt(dim) + 40.0)
    t = x * x * 0.5
    half = np.exp(t * -0.5)
    top = 0.5 * dim - 1.0
    tail = np.ones(x.size)
    for a in np.arange(top, 0.0, -1.0):
        tail = tail * t / a + 1.0
    tail = tail * half * half
    density = np.power(t, top) * x * half * half / math.gamma(top + 1.0)
    return tail, density


def pool_threshold_oracle(z_corr, metric, seed: int = 0, replications: int = 65_536):
    """The count pool's (critical value, achieved level, its standard
    error) with each direction's chi tail taken on its own by
    :func:`chi_tail`: the same pool, bracket and search as
    ``platform_threshold``, and the level and stderr from the terms at c*.  An
    odd dim's pool draws one more normal per direction, into its norm only,
    so its tail is that of chi_(dim+1)."""
    from platformdesign import multiplicity

    stat = multiplicity._tail_count_statistic(
        z_corr, metric.exceedance_count, metric.effective_sided, replications, seed
    )
    scale, squares = 1.0 / stat[stat > 0.0], [0.0]

    def level(c, active):
        tail, density = chi_tail(scale * c[0], z_corr.dim + z_corr.dim % 2)
        squares[0] = float(np.einsum("i,i->", tail, tail))
        slope = -float(np.einsum("i,i->", density, scale))
        return np.array([tail.sum() / replications]), np.array([slope / replications])

    low, high = multiplicity._bracket(metric, z_corr.dim, z_corr.entries[0, 1])
    c, _ = multiplicity._solve_decreasing(level, metric.alpha, low, high, high, 1e-9)
    # the search may end on a step it does not evaluate: the level and its
    # terms at c*
    c_star, achieved = float(c[0]), float(level(c, None)[0][0])
    return c_star, achieved, math.sqrt(max(squares[0] / replications - achieved**2, 0.0) / replications)


def evaluated_stop_search(level, target, low, high, start, x_tol):
    """:func:`multiplicity._solve_decreasing` without its predicted stop:
    the same safeguarded search on h(c) = sqrt(-2 log level(c)), Halley
    where the level gives its curvature and Newton where it does not, but
    each element stops only at a point it has evaluated, once its next step
    is at most ``x_tol``, with the level there.  The predicted stop must end
    on the same c* bit for bit, one pass sooner."""
    x, lo, hi = (np.array(a, dtype=float, ndmin=1) for a in (start, low, high))
    target = np.broadcast_to(np.asarray(target, dtype=float), x.shape)
    h_target = np.array([math.sqrt(-2.0 * math.log(t)) for t in target.tolist()])
    open_lo, open_hi = np.ones(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    x_out, f_out = np.empty(x.size), np.empty(x.size)
    earlier, latest = np.full(x.size, math.inf), np.full(x.size, math.inf)
    active = np.arange(x.size)
    while active.size:
        f, slope, *curvature = level(x, active)
        above = f > target
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
        open_lo, open_hi = open_lo & ~above, open_hi & above
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.sqrt(-2.0 * np.log(f))
            newton = x + (h_target - h) * f * h / -slope
            if curvature:
                gap, dh = h - h_target, -slope / (f * h)
                d2h = (dh * dh * (h * h - 1.0) - curvature[0] / f) / h
                denominator = 2.0 * dh * dh - gap * d2h
                newton = np.where(denominator > 0.0, x - 2.0 * gap * dh / denominator, newton)
        newton[~((0.0 < f) & (f < 1.0) & (slope < 0.0))] = math.nan
        newton[(lo <= newton) & (newton <= hi) & (np.abs(newton - x) > earlier / 2.0)] = math.nan
        newton = np.where(open_lo & (newton < lo), lo, newton)
        newton = np.where(open_hi & (newton > hi), hi, newton)
        following = np.where((lo <= newton) & (newton <= hi), newton, (lo + hi) / 2.0)
        done = np.abs(following - x) <= x_tol
        x_out[active[done]], f_out[active[done]] = x[done], f[done]
        going = ~done
        earlier, latest = latest[going], np.abs(following - x)[going]
        active, x, lo, hi = active[going], following[going], lo[going], hi[going]
        target, h_target = target[going], h_target[going]
        open_lo, open_hi = open_lo[going], open_hi[going]
    return x_out, f_out


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


def run_python(
    *args: str, timeout: float = 120, env: dict | None = None, **options
) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, with this checkout's package
    first on its path.  ``env`` sets variables, or unsets those it maps to
    None; ``options`` override ``subprocess.run``'s, which capture the output
    as text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    for key, value in (env or {}).items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    options = {"capture_output": True, "text": True, **options}
    return subprocess.run([sys.executable, *args], env=environ, timeout=timeout, **options)
