"""Shared oracles for the test suite.

These deliberately use different numerical routes than the package
(adaptive quadrature instead of Gauss-Legendre series, direct enumeration
instead of root finding), so agreement is evidence, not tautology.
"""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm


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

    value, _ = integrate.quad(
        inner, max(a[0], -9.5), min(b[0], 9.5), epsabs=1e-13, limit=500
    )
    return value


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
