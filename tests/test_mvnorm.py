"""Numeric kernel: normal functions, Cholesky, rectangles."""

import math

import mpmath as mp
import numpy as np
import pytest

from platformdesign.errors import DomainError, NotPositiveDefinite, PrecisionUnreachable
from platformdesign.mvnorm import (
    CorrelationMatrix,
    QmcLattice,
    RectangleSpec,
    bvn_rectangle,
    cholesky,
    mvn_rectangle,
    std_normal_cdf,
    std_normal_quantile,
)

mp.mp.dps = 40


def _cdf_reference(x: float) -> float:
    return float(0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2)))


class TestUnivariate:
    def test_cdf_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_known_point(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
        assert std_normal_cdf(-1.96) == pytest.approx(1 - 0.9750021048517795, abs=1e-12)

    def test_cdf_against_high_precision_reference(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(std_normal_cdf(float(x)) - _cdf_reference(float(x))) <= 1e-12

    def test_cdf_monotone_and_saturating(self):
        grid = np.linspace(-40, 40, 2001)
        values = [std_normal_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_cdf_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))

    def test_quantile_symmetry(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_known_point(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_round_trip(self):
        for p in (1e-8, 0.0249979, 0.31, 0.5, 0.84, 0.999999):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)
        assert std_normal_quantile(0.0249979) == pytest.approx(-1.96, abs=1e-5)

    def test_quantile_against_ndtri(self):
        from scipy.special import ndtri

        grid = np.concatenate([
            np.logspace(-300, math.log10(0.5), 1201),
            1.0 - np.logspace(-16, math.log10(0.5), 401),
            np.linspace(0.01, 0.99, 197),
            [1e-300, 1.0 - 1e-16, 0.25, 0.75],
        ])
        for p in grid:
            assert std_normal_quantile(float(p)) == pytest.approx(float(ndtri(p)), rel=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)


class TestCholesky:
    def test_identity(self):
        factor, jitter = cholesky(np.eye(3))
        assert jitter == 0.0
        assert np.allclose(factor, np.eye(3))

    def test_hand_factor(self):
        factor, jitter = cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert jitter == 0.0
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(1 - 0.25)]])
        assert np.allclose(factor, expected, atol=1e-12)

    def test_rank_deficient_uses_jitter(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor, jitter = cholesky(m, jitter_tol=1e-8)
        assert 0.0 < jitter <= 1e-8
        assert np.max(np.abs(factor @ factor.T - m)) <= max(1e-8, jitter)

    def test_reconstruction(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            m = a @ a.T + 1e-3 * np.eye(4)
            factor, jitter = cholesky(m)
            assert jitter == 0.0
            assert np.max(np.abs(factor @ factor.T - m)) <= 1e-8

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            cholesky(np.array([[1.0, 0.2], [0.4, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            cholesky(np.ones((2, 3)))


class TestCorrelationMatrix:
    def test_validation(self):
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 0.2], [0.2, 0.9]]))
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 0.1], [0.3, 1.0]]))

    def test_near_singular_jitter(self):
        m = CorrelationMatrix.bivariate(1.0)
        assert m.jitter <= 1e-8
        assert m.factor.shape == (2, 2)

    def test_entries_frozen(self):
        m = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5

    def test_indefinite_rejected(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            CorrelationMatrix(bad)


INF = math.inf


class TestBvnRectangle:
    def test_independence_product(self):
        # (2*Phi(1.96) - 1)^2
        expected = (2 * 0.9750021048517795 - 1.0) ** 2
        assert bvn_rectangle((-1.96, -1.96), (1.96, 1.96), 0.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_perfect_correlation(self):
        expected = 2 * 0.9750021048517795 - 1.0
        assert bvn_rectangle((-1.96, -1.96), (1.96, 1.96), 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_upper_orthant_independent(self):
        expected = (1.0 - 0.9750021048517795) ** 2
        assert bvn_rectangle((1.96, 1.96), (INF, INF), 0.0) == pytest.approx(
            expected, abs=1e-10
        )

    def test_against_quadrature_oracle(self, rng):
        from conftest import rect_quad_oracle

        for _ in range(60):
            rho = float(rng.uniform(-0.999, 0.999))
            lower = rng.uniform(-3.0, 1.0, 2)
            upper = lower + rng.uniform(0.2, 5.0, 2)
            got = bvn_rectangle(lower, upper, rho)
            assert got == pytest.approx(rect_quad_oracle(lower, upper, rho), abs=1e-8)

    @pytest.mark.parametrize("rho", [-0.9999, -0.93, 0.924, 0.926, 0.93, 0.9999])
    def test_high_correlation_boundary_region(self, rho):
        # the series switches representation near |rho| = 0.925
        from conftest import rect_quad_oracle

        cases = [
            ((-1.96, -1.96), (1.96, 1.96)),
            ((0.5, -0.25), (2.75, 0.3)),
            ((1.96, 1.96), (INF, INF)),
            ((-INF, -0.1), (0.1, INF)),
        ]
        for lower, upper in cases:
            got = bvn_rectangle(lower, upper, rho)
            assert got == pytest.approx(rect_quad_oracle(lower, upper, rho), abs=1e-8)

    def test_infinite_bounds(self):
        assert bvn_rectangle((-INF, -INF), (INF, INF), 0.3) == 1.0
        assert bvn_rectangle((-INF, -1.0), (INF, 1.0), 0.7) == pytest.approx(
            2 * std_normal_cdf(1.0) - 1.0, abs=1e-10
        )

    def test_monotone_in_nesting(self):
        outer = bvn_rectangle((-2.0, -2.0), (2.0, 2.0), 0.4)
        inner = bvn_rectangle((-1.5, -2.0), (2.0, 2.0), 0.4)
        assert 0.0 <= inner <= outer <= 1.0

    @pytest.mark.parametrize("c", [1.0, 1.96, 2.5])
    def test_symmetric_rectangle_nondecreasing_in_rho(self, c):
        values = [
            bvn_rectangle((-c, -c), (c, c), rho) for rho in (0.0, 0.25, 0.5, 0.75, 0.95)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bvn_rectangle((-1, -1), (1, 1), 1.5)
        with pytest.raises(DomainError):
            bvn_rectangle((1, -1), (1, 1), 0.0)


class TestMvnRectangle:
    def test_independence_product_4d(self):
        c = 1.959963984540054
        spec = RectangleSpec(np.full(4, -c), np.full(4, c), CorrelationMatrix.identity(4))
        estimate = mvn_rectangle(spec, precision=1e-4, seed=3)
        assert estimate.value == pytest.approx(0.95**4, abs=max(1e-4, 3 * estimate.stderr))

    def test_dim2_agrees_with_quadrature(self):
        spec = RectangleSpec(
            np.array([-1.96, -1.96]),
            np.array([1.96, 1.96]),
            CorrelationMatrix.bivariate(0.5),
        )
        estimate = mvn_rectangle(spec, precision=5e-5, seed=1)
        exact = bvn_rectangle((-1.96, -1.96), (1.96, 1.96), 0.5)
        assert abs(estimate.value - exact) <= 3 * max(estimate.stderr, 1e-6)

    def test_infinite_box_is_one(self):
        spec = RectangleSpec(
            np.full(3, -INF), np.full(3, INF), CorrelationMatrix.identity(3)
        )
        estimate = mvn_rectangle(spec, precision=1e-4, seed=0)
        assert estimate.value == 1.0 and estimate.stderr == 0.0

    def test_deterministic_given_seed(self):
        spec = RectangleSpec(
            np.full(4, -2.0),
            np.full(4, 2.0),
            CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5)),
        )
        assert mvn_rectangle(spec, seed=42) == mvn_rectangle(spec, seed=42)

    def test_monotone_in_nesting(self):
        corr = CorrelationMatrix(np.eye(3) * 0.6 + np.full((3, 3), 0.4))
        wide = mvn_rectangle(RectangleSpec(np.full(3, -2.5), np.full(3, 2.5), corr), seed=5)
        narrow = mvn_rectangle(RectangleSpec(np.full(3, -1.5), np.full(3, 2.5), corr), seed=5)
        assert 0.0 <= narrow.value <= wide.value + 3 * (wide.stderr + narrow.stderr)

    def test_six_dim_against_brute_force(self):
        # structured, non-exchangeable correlation; oracle is plain MC
        rng = np.random.default_rng(321)
        loadings = rng.uniform(-0.7, 0.7, 6)
        m = np.outer(loadings, loadings)
        np.fill_diagonal(m, 1.0)
        corr = CorrelationMatrix(m)
        lower = np.array([-2.2, -1.5, -np.inf, -1.0, -2.0, -0.5])
        upper = np.array([1.0, 2.5, 0.8, np.inf, 1.5, 2.0])
        estimate = mvn_rectangle(RectangleSpec(lower, upper, corr), precision=5e-5, seed=9)
        draws = np.random.default_rng(777).standard_normal((2_000_000, 6)) @ corr.factor.T
        inside = np.all((draws >= lower) & (draws <= upper), axis=1)
        mc = float(inside.mean())
        mc_se = math.sqrt(mc * (1 - mc) / inside.size)
        assert abs(estimate.value - mc) <= 3 * (estimate.stderr + mc_se)

    @pytest.mark.parametrize("dim, precision", [(3, 1e-7), (5, 1e-6), (8, 2e-6)])
    def test_matches_batch_by_batch_reference(self, dim, precision):
        # the lattice evaluates all batches at once; one batch at a time, with
        # the shifts drawn in the same order, gives the same estimate
        from scipy.special import ndtr, ndtri

        rng = np.random.default_rng(dim)
        loadings = rng.uniform(-0.6, 0.6, dim)
        m = np.outer(loadings, loadings)
        np.fill_diagonal(m, 1.0)
        corr = CorrelationMatrix(m)
        lower, upper = np.full(dim, -2.0), np.full(dim, 2.5)
        lower[0] = -INF

        factor = corr.factor
        generators = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0][: dim - 1])
        shifts = np.random.default_rng([7, dim])
        n_points, total = 128 * dim, 0
        while True:
            means = []
            for _ in range(12):
                shift = shifts.random(dim - 1)
                j = np.arange(1, n_points + 1, dtype=float)
                d = np.full(n_points, ndtr(lower[0] / factor[0, 0]))
                e = np.full(n_points, ndtr(upper[0] / factor[0, 0]))
                prob, y = e - d, np.empty((dim - 1, n_points))
                for i in range(1, dim):
                    z = generators[i - 1] * j + shift[i - 1]
                    x = np.abs(2.0 * (z - np.floor(z)) - 1.0)
                    y[i - 1] = ndtri(np.clip(d + x * (e - d), 1e-15, 1.0 - 1e-15))
                    s = factor[i, :i] @ y[:i]
                    d = ndtr((lower[i] - s) / factor[i, i])
                    e = ndtr((upper[i] - s) / factor[i, i])
                    prob *= np.maximum(e - d, 0.0)
                means.append(prob.mean())
            total += 12 * n_points
            stderr = np.std(means, ddof=1) / math.sqrt(12)
            if stderr <= precision:
                break
            n_points *= 2

        estimate = mvn_rectangle(RectangleSpec(lower, upper, corr), precision, seed=7)
        assert estimate.n_points == total > 12 * 128 * dim
        assert estimate.value == pytest.approx(float(np.mean(means)), rel=1e-14)
        assert estimate.stderr == pytest.approx(stderr, rel=1e-9)

    def test_equals_a_refined_lattice(self):
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        lower, upper = np.full(4, -2.0), np.full(4, 2.0)
        estimate = mvn_rectangle(RectangleSpec(lower, upper, corr), precision=2e-6, seed=4)
        lattice = QmcLattice(corr, seed=4)
        assert lattice.refine(lower, upper, precision=2e-6) == estimate
        assert estimate.n_points > 12 * 128 * 4  # the lattice grew at least once
        # held points: the same box on the grown lattice repeats to the bit
        assert lattice.estimate(lower, upper) == estimate

    def test_lattice_needs_two_dimensions(self):
        with pytest.raises(DomainError):
            QmcLattice(CorrelationMatrix.identity(1))

    def test_precision_unreachable(self):
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        spec = RectangleSpec(np.full(4, -1.0), np.full(4, 1.0), corr)
        with pytest.raises(PrecisionUnreachable):
            mvn_rectangle(spec, precision=1e-12, seed=0, max_points=10_000)

    def test_bounds_validation(self):
        with pytest.raises(DomainError):
            RectangleSpec(np.array([0.0, 0.0]), np.array([1.0]), CorrelationMatrix.identity(2))
        with pytest.raises(DomainError):
            RectangleSpec(np.array([1.0, 0.0]), np.array([1.0, 1.0]), CorrelationMatrix.identity(2))
        with pytest.raises(DomainError):
            mvn_rectangle(
                RectangleSpec(np.zeros(2) - 1, np.ones(2), CorrelationMatrix.identity(2)),
                precision=-1.0,
            )
