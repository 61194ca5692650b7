"""Numeric kernel: normal functions, correlation matrices, rectangles."""

import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import bvn_rectangle, mp_orthant
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platformdesign import mvnorm
from platformdesign.errors import DomainError, NotPositiveDefinite, PrecisionUnreachable
from platformdesign.mvnorm import (
    CorrelationMatrix,
    _QmcLattice,
    _std_normal_cdf,
    _std_normal_quantile,
)

mp.mp.dps = 40


# box bounds: finite, or infinite in either direction
_BOUND = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-math.inf, math.inf]))
# correlations in every branch of the oracle's Genz scheme: 0, the three
# quadrature bands, the expansion about |rho| = 1 from its switch at 0.925,
# and rho = +-1, which the oracle takes in closed form
_RHO = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(0.925, 0.9999),
    st.floats(-0.9999, -0.925),
    st.sampled_from([0.0, 1.0, -1.0, 0.925, -0.925, 0.3, -0.3, 0.75, -0.75]),
)


def _cdf_reference(x: float) -> float:
    return float(0.5 * mp.erfc(-mp.mpf(x) / mp.sqrt(2)))


class TestUnivariate:
    def test_cdf_symmetry(self):
        assert _std_normal_cdf(0.0) == 0.5

    def test_cdf_known_point(self):
        assert _std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
        assert _std_normal_cdf(-1.96) == pytest.approx(1 - 0.9750021048517795, abs=1e-12)

    def test_cdf_against_high_precision_reference(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(_std_normal_cdf(float(x)) - _cdf_reference(float(x))) <= 1e-12

    def test_cdf_monotone_and_saturating(self):
        grid = np.linspace(-40, 40, 2001)
        values = [_std_normal_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_cdf_of_an_array_is_the_scalar_cdf_per_entry(self, rng):
        x = np.concatenate([rng.normal(0.0, 3.0, 200), [-math.inf, math.inf, 0.0, 40.0, -40.0]])
        values = _std_normal_cdf(x)
        assert values.dtype == np.float64 and values.shape == x.shape
        assert values.tolist() == [_std_normal_cdf(float(v)) for v in x]
        assert _std_normal_cdf(x.reshape(5, 41)).tolist() == values.reshape(5, 41).tolist()
        with pytest.raises(DomainError):
            _std_normal_cdf(np.array([0.0, math.nan]))

    def test_cdf_rejects_nan(self):
        with pytest.raises(DomainError):
            _std_normal_cdf(float("nan"))

    def test_cdf_of_any_array_layout_is_erfc_per_entry(self, rng):
        # 0-d, 1-d, 2-d, transposed, strided and broadcast views: each entry
        # is math.erfc's value, in the array's own shape
        grid = rng.normal(0.0, 4.0, (6, 7))
        for x in (
            np.array(1.25), grid[0], grid, grid.T, grid[::2, ::3],
            np.broadcast_to(grid[0], (4, 7)), np.arange(-5, 6),
        ):
            values = _std_normal_cdf(x)
            assert values.shape == x.shape and values.dtype == np.float64
            expected = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.ravel(x).tolist()]
            assert np.ravel(values).tolist() == expected
        for x in (np.array(math.nan), grid.T.copy()):
            x[(0,) * x.ndim] = math.nan
            with pytest.raises(DomainError, match="finite argument"):
                _std_normal_cdf(x)

    def test_quantile_symmetry(self):
        assert _std_normal_quantile(0.5) == 0.0

    def test_quantile_known_point(self):
        assert _std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_quantile_round_trip(self):
        for p in (1e-8, 0.0249979, 0.31, 0.5, 0.84, 0.999999):
            assert _std_normal_cdf(_std_normal_quantile(p)) == pytest.approx(p, abs=1e-10)
        assert _std_normal_quantile(0.0249979) == pytest.approx(-1.96, abs=1e-5)

    def test_quantile_against_ndtri(self):
        from scipy.special import ndtri

        grid = np.concatenate([
            np.logspace(-300, math.log10(0.5), 1201),
            1.0 - np.logspace(-16, math.log10(0.5), 401),
            np.linspace(0.01, 0.99, 197),
            [1e-300, 1.0 - 1e-16, 0.25, 0.75],
        ])
        for p in grid:
            assert _std_normal_quantile(float(p)) == pytest.approx(float(ndtri(p)), rel=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            _std_normal_quantile(p)


class TestCorrelationMatrix:
    def test_identity(self):
        m = CorrelationMatrix(np.eye(3))
        assert m.jitter == 0.0
        assert np.allclose(m.factor, np.eye(3))

    def test_hand_factor(self):
        m = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert m.jitter == 0.0
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(1 - 0.25)]])
        assert np.allclose(m.factor, expected, atol=1e-12)

    def test_rank_deficient_uses_jitter(self):
        m = CorrelationMatrix.bivariate(1.0)
        assert 0.0 < m.jitter <= 1e-8
        assert np.max(np.abs(m.factor @ m.factor.T - m.entries)) <= max(1e-8, m.jitter)

    def test_reconstruction(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            cov = a @ a.T + 1e-3 * np.eye(4)
            scale = 1.0 / np.sqrt(np.diag(cov))
            corr = cov * np.outer(scale, scale)
            np.fill_diagonal(corr, 1.0)
            m = CorrelationMatrix(corr)
            assert m.jitter == 0.0
            assert np.max(np.abs(m.factor @ m.factor.T - corr)) <= 1e-8

    def test_indefinite_rejected(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            CorrelationMatrix(bad)

    @pytest.mark.parametrize("entries", [
        np.ones((2, 3)),
        np.array([[1.0, 0.2], [0.4, 1.0]]),
        np.array([[1.0, math.nan], [math.nan, 1.0]]),
        np.array([[1.0, math.inf], [math.inf, 1.0]]),
        np.array([[1.0, 0.2], [0.2, 0.9]]),
        np.array([[1.0, 1.2], [1.2, 1.0]]),
    ], ids=["non-square", "asymmetric", "nan", "inf", "diagonal", "out-of-range"])
    def test_rejected(self, entries):
        with pytest.raises(DomainError):
            CorrelationMatrix(entries)

    def test_entries_frozen(self):
        m = CorrelationMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5


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
        # the oracle's Genz scheme switches representation near |rho| = 0.925
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

    def test_quadrature_oracle_resolves_a_step_at_an_interval_end(self):
        # the second coordinate's bound 0 puts the oracle integrand's step,
        # of width sqrt(1 - rho^2), at the first coordinate's lower end
        from conftest import rect_quad_oracle

        lower, upper, rho = (0.0, -INF), (1.0, 0.0), 0.99999999
        expected = bvn_rectangle(lower, upper, rho)
        assert expected == pytest.approx(2.2508e-5, rel=1e-4)
        assert rect_quad_oracle(lower, upper, rho) == pytest.approx(expected, rel=1e-6)

    def test_infinite_bounds(self):
        assert bvn_rectangle((-INF, -INF), (INF, INF), 0.3) == 1.0
        assert bvn_rectangle((-INF, -1.0), (INF, 1.0), 0.7) == pytest.approx(
            2 * _std_normal_cdf(1.0) - 1.0, abs=1e-10
        )

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.95, -0.99, 0.999999, 1.0])
    def test_far_bounds_act_as_infinite(self, rho):
        # the oracle takes bounds past +-40 as infinite; scipy alone gives
        # 1.0 for the first box at rho 0.999999
        assert bvn_rectangle((-1e300, -1.0), (1e200, 1.0), rho) == bvn_rectangle(
            (-INF, -1.0), (INF, 1.0), rho
        )
        assert bvn_rectangle((-INF, -1.0), (INF, 1.0), rho) == pytest.approx(
            2 * _std_normal_cdf(1.0) - 1.0, abs=1e-15
        )
        assert bvn_rectangle((1e160, -1.0), (1e170, 1.0), rho) == 0.0
        assert bvn_rectangle((-45.0, -50.0), (2.0, 60.0), rho) == bvn_rectangle(
            (-INF, -INF), (2.0, INF), rho
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

    @settings(max_examples=150, deadline=None)
    @given(
        boxes=st.lists(
            st.tuples(
                st.tuples(_BOUND, _BOUND),  # first coordinate's two bounds
                st.tuples(_BOUND, _BOUND),  # second coordinate's two bounds
                _RHO,
            ),
            min_size=1,
            max_size=8,
        )
    )
    # a subnormal rho once overflowed the oracle's break points
    @example(
        boxes=[((0.0, 1.0), (0.0, 1.0), 0.0), ((0.0, 1.0), (0.0, 1.0), 2.225073858507203e-309)]
    )
    def test_array_call_equals_per_box_calls_and_oracle(self, boxes):
        from conftest import rect_quad_oracle

        lower, upper, rho = [], [], []
        for first, second, r in boxes:
            assume(first[0] != first[1] and second[0] != second[1])
            lower.append((min(first), min(second)))
            upper.append((max(first), max(second)))
            rho.append(r)
        batch = bvn_rectangle(lower, upper, rho)
        assert batch.shape == (len(boxes),)
        for i, (lo, hi, r) in enumerate(zip(lower, upper, rho)):
            single = bvn_rectangle(lo, hi, r)
            assert isinstance(single, float)
            assert batch[i] == single
            assert single == pytest.approx(rect_quad_oracle(lo, hi, r), abs=1e-8)

    def test_boxes_broadcast_with_rho(self):
        rho = np.array([[-0.95], [0.0], [0.5]])
        lower = np.array([(-1.0, -2.0), (0.5, -INF)])
        upper = np.array([(1.0, 2.0), (INF, 0.25)])
        values = bvn_rectangle(lower, upper, rho)
        assert values.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert values[i, j] == bvn_rectangle(lower[j], upper[j], rho[i, 0])


def _equal_orthant(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """mvnorm._equal_orthant at bounds c >= 0 and correlations r, with the
    inputs it is given: a = sqrt((1 - r) / (1 + r)) and the tails Phi(-c)
    and Phi(-c a), the latter Phi(0) at c = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((1.0 - r) / (1.0 + r))
        shift = np.where((c == 0.0) | (r == 1.0), 0.0, c * a)
    return mvnorm._equal_orthant(c, a, _std_normal_cdf(-c), _std_normal_cdf(-shift))


def _owen_orthant(c: float, r: float) -> mp.mpf:
    """P(Z1 > c, Z2 > c) at correlation r from Owen's integral (1/pi)
    int_a^inf exp(-c^2 (1 + u^2) / 2) / (1 + u^2) du, a = sqrt((1 - r) / (1 +
    r)), by mpmath's tanh-sinh quadrature at 40 digits.  The integrand falls
    by about e per w = 1 / (c^2 a + c) beyond a, so it is integrated in s =
    (u - a) / w, split at s = 8."""
    with mp.workdps(40):
        c, r = mp.mpf(c), mp.mpf(r)
        a = mp.sqrt((1 - r) / (1 + r))
        k = c * c / 2
        w = 1 / (c * c * a + c) if c else mp.mpf(1)

        def integrand(s):
            v = 1 + (a + w * s) ** 2
            return mp.exp(-k * v) / v

        return mp.quad(integrand, [0, 8, mp.inf]) * w / mp.pi


class TestEqualOrthant:
    """U(c, c, r) = P(Z1 > c, Z2 > c), c >= 0, from Owen's T integral."""

    C_VALUES = (0.0, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0,
                5.0, 6.0, 7.0, 8.0)
    R_VALUES = (0.0, *(sign * r for r in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9,
                                          0.925, 0.95, 0.99, 0.999, 0.9999, 0.999999)
                       for sign in (1.0, -1.0)))

    def test_against_owens_integral_in_mpmath(self):
        # relative precision wherever the orthant is not negligible, and
        # absolute precision at every point, out to r = -0.999999
        c, r = (np.array(axis) for axis in zip(*itertools.product(self.C_VALUES, self.R_VALUES)))
        got = _equal_orthant(c, r)
        exact = [_owen_orthant(x, y) for x, y in zip(c.tolist(), r.tolist())]
        for x, y, value, reference in zip(c.tolist(), r.tolist(), got.tolist(), exact):
            assert abs(value - float(reference)) <= 2e-16, (x, y)
            if reference >= 1e-20 and x >= 0.5:
                assert abs(value / reference - 1) <= 1e-13, (x, y)

    def test_closed_forms_at_the_ends(self):
        # U = Phi(-c) at r = 1, 0 at r = -1 for c > 0, Phi(-c)^2 at r = 0,
        # and 1/4 + asin(r) / (2 pi) at c = 0; far bounds give 0
        c = np.array([0.0, 0.3, 2.0, 7.0, 39.0, 40.0, 60.0, math.inf])
        tail = _std_normal_cdf(-c)
        np.testing.assert_allclose(_equal_orthant(c, np.ones(c.size)), tail, rtol=1e-15)
        assert np.all(_equal_orthant(c[1:], -np.ones(c.size - 1)) == 0.0)
        np.testing.assert_allclose(_equal_orthant(c, np.zeros(c.size)), tail**2, rtol=1e-15)
        r = np.linspace(-1.0, 1.0, 41)
        np.testing.assert_allclose(
            _equal_orthant(np.zeros(r.size), r), 0.25 + np.arcsin(r) / (2.0 * math.pi),
            rtol=0.0, atol=2e-16,
        )

    def test_unit_rule_integrates_every_polynomial_it_should(self):
        # the 20-point rule on [0, 1] is exact through degree 39
        for degree in range(40):
            got = float(np.sum(mvnorm._GL20_UNIT_W * mvnorm._GL20_UNIT_X**degree))
            assert got == pytest.approx(1.0 / (degree + 1), rel=1e-14)


class TestUnequalOrthant:
    """U(h, k, r) = P(Z1 > h, Z2 > k), h, k >= 0, from two halves of Owen's
    T integral on the equal-bound kernel."""

    # Holm's two cuts among them
    BOUNDS = ((0.05, 3.0), (1.959963984540054, 2.241402727604947), (2.5, 4.0))
    R_VALUES = (0.0, *(sign * r for r in (0.3, 0.7, 0.92, 0.99, 0.999999) for sign in (1.0, -1.0)))

    def test_against_mpmath(self):
        # relative precision wherever the orthant is not negligible, and
        # absolute precision at every point; each pair in both orders, so
        # that either half may be the reflected one
        pairs = [*self.BOUNDS, *((k, h) for h, k in self.BOUNDS)]
        h, k, r = (np.array(axis) for axis in zip(
            *((h, k, r) for (h, k), r in itertools.product(pairs, self.R_VALUES))
        ))
        got = mvnorm._unequal_orthant(h, k, r)
        with mp.workdps(30):
            for x, y, z, value in zip(h.tolist(), k.tolist(), r.tolist(), got.tolist()):
                reference = mp_orthant(x, y, z)
                assert abs(value - float(reference)) <= 2e-16, (x, y, z)
                if reference >= 1e-20:
                    assert abs(value / reference - 1) <= 1e-13, (x, y, z)

    def test_closed_forms_at_the_ends(self):
        # Phi(-max(h, k)) at r = 1 and 0 at r = -1, with no warning; Phi(-h)
        # Phi(-k) at r = 0
        h, k = (np.array(axis) for axis in zip(*self.BOUNDS, (2.0, 2.0), (0.0, 1.5), (7.0, 0.3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_one = mvnorm._unequal_orthant(h, k, 1.0)
            at_minus_one = mvnorm._unequal_orthant(h, k, -1.0)
        np.testing.assert_allclose(at_one, _std_normal_cdf(-np.maximum(h, k)), rtol=1e-15)
        assert np.all(at_minus_one == 0.0)
        np.testing.assert_allclose(
            mvnorm._unequal_orthant(h, k, 0.0), _std_normal_cdf(-h) * _std_normal_cdf(-k),
            rtol=1e-14,
        )

    def test_equal_bounds_give_the_equal_bound_kernel(self, rng):
        # at h = k both halves are the equal-bound orthant, for bounds from 0
        # to beyond +-40 and correlations in [-1, 1] with both ends
        c = np.array([0.0, 0.3, 1.96, 6.0, 39.5, 40.0, 60.0, math.inf])
        r = np.array([0.0, 0.1, 0.5, 0.925, 0.9999, 1.0])
        c, r = (np.ravel(axis) for axis in np.meshgrid(c, np.concatenate([r, -r[1:]])))
        c = np.concatenate([c, np.abs(rng.normal(0.0, 3.0, 300))])
        r = np.concatenate([r, rng.uniform(-1.0, 1.0, 300)])
        np.testing.assert_allclose(
            mvnorm._unequal_orthant(c, c.copy(), r), _equal_orthant(c, r), rtol=1e-13, atol=1e-30
        )


def _random_correlation(dim: int, seed: int) -> np.ndarray:
    """A correlation matrix with no structure: a normalised random Gram
    matrix."""
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim, dim + 2))
    cov = b @ b.T
    scale = 1.0 / np.sqrt(np.diag(cov))
    m = cov * np.outer(scale, scale)
    np.fill_diagonal(m, 1.0)
    return m


def _random_box(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unequal bounds with about one in four infinite on each side."""
    rng = np.random.default_rng([seed, 1])
    lower, upper = -rng.uniform(0.3, 2.5, dim), rng.uniform(0.3, 2.5, dim)
    lower[rng.random(dim) < 0.25] = -INF
    upper[rng.random(dim) < 0.25] = INF
    return lower, upper


def _lattice_cdf(x) -> np.ndarray:
    x = np.array(x, dtype=float, ndmin=2)
    density = np.empty_like(x)
    mvnorm._cdf_rational(x, density, np.empty((2, *x.shape)))
    return x if x.shape[0] > 1 else x[0]


def _lattice_quantile(u) -> np.ndarray:
    u = np.array(u, dtype=float)
    out = np.empty_like(u)
    mvnorm._quantile_rational(u, out, np.empty((3, *u.shape)))
    return out


def _quantile_reference(u: float) -> mp.mpf:
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(u) - 1)


# West's switch of Hart's algorithm to a continued fraction
_WEST_CUT = 7.07106781186547
# AS241's switches: |u - 1/2| = 0.425, and u = e^-25, where the tail's
# sqrt(-log u) passes 5
_AS241_SWITCHES = (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0))


class TestLatticeKernels:
    # the lattice's numpy Phi and Phi^-1, against mpmath; they are precise
    # in absolute terms, which is what a box probability needs

    def test_cdf_against_mpmath(self):
        cut = [np.nextafter(_WEST_CUT, 0.0), _WEST_CUT, np.nextafter(_WEST_CUT, 8.0)]
        points = np.concatenate([
            [0.0, -0.0, 40.0, 1e10], cut, np.linspace(0.0, 40.0, 4001),
        ])
        points = np.concatenate([points, -points])
        values = _lattice_cdf(points)
        errors = [abs(v - _cdf_reference(x)) for x, v in zip(points.tolist(), values.tolist())]
        assert max(errors) <= 4e-16
        assert _lattice_cdf([0.0, -0.0]).tolist() == [0.5, 0.5]
        assert _lattice_cdf([-1e10, 1e10, -40.0, 40.0]).tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_cdf_writes_the_density(self):
        x = np.array([[-50.0, -3.0, -0.5], [0.0, 2.0, 45.0]])
        density = np.empty_like(x)
        mvnorm._cdf_rational(x.copy(), density, np.empty((2, *x.shape)))
        assert density.tolist() == np.exp(-0.5 * x * x).tolist()
        assert density[0, 0] == density[1, 2] == 0.0

    def test_cdf_of_a_box_row_is_the_cdf_per_entry(self, rng):
        # both bounds of a variable go through one call; each row is what
        # the row alone gives
        x = rng.normal(0.0, 4.0, (2, 300))
        both = _lattice_cdf(x)
        assert both.tolist() == [_lattice_cdf(row).tolist() for row in x]

    def test_quantile_against_mpmath(self):
        beside = [np.nextafter(u, side) for u in _AS241_SWITCHES for side in (0.0, 1.0)]
        points = np.concatenate([
            [1e-15, 1.0 - 1e-15, 0.5, 0.3, 0.7], _AS241_SWITCHES, beside,
            np.logspace(-15, math.log10(0.5), 301),
            1.0 - np.logspace(-15, math.log10(0.5), 301),
        ])
        values = _lattice_quantile(points)
        for u, y in zip(points.tolist(), values.tolist()):
            reference = _quantile_reference(u)
            scale = max(1.0, abs(float(reference)))
            assert abs(y - float(reference)) <= 1e-15 * scale, u
        assert _lattice_quantile([0.5]).tolist() == [0.0]

    def test_quantile_does_not_depend_on_its_batch(self):
        # each tail rational runs only on the points that need it, so a point
        # beside a switch comes out the same with or without ordinary
        # points, and far tail points, in its call
        beside = [np.nextafter(u, side) for u in _AS241_SWITCHES for side in (0.0, 1.0)]
        points = np.concatenate([beside, _AS241_SWITCHES, [1e-15, 0.01, 0.3, 0.5, 0.7, 0.99]])
        alone = np.concatenate([_lattice_quantile([u]) for u in points])
        assert _lattice_quantile(points).tobytes() == alone.tobytes()
        assert _lattice_quantile(points[::-1]).tobytes() == alone[::-1].tobytes()

    @pytest.mark.parametrize("switch", [0.0, _WEST_CUT, -_WEST_CUT, 38.6, -38.6, 40.0, -40.0])
    def test_cdf_monotone_across_each_switch(self, switch):
        # steps of 1e-9 never lower Phi, and raise it wherever the step
        # moves Phi by more than an ulp of its value (to the left of 7); at
        # single ulps a fall is within the 4e-16 error
        steps = np.arange(-200, 201)
        wide = np.diff(_lattice_cdf(switch + 1e-9 * steps))
        assert np.all(wide >= 0.0)
        if -10.0 < switch <= 0.0:
            assert np.all(wide > 0.0)
        ulps = _lattice_cdf(switch + np.spacing(max(abs(switch), 1e-300)) * steps)
        assert np.all(np.diff(ulps) >= -4e-16)

    @pytest.mark.parametrize("switch, step", [
        (0.075, 1e-12), (0.925, 1e-12), (math.exp(-25.0), 1e-20), (1.0 - math.exp(-25.0), 1e-15),
    ])
    def test_quantile_monotone_across_each_switch(self, switch, step):
        # each step moves Phi^-1 by far more than its error, so it rises;
        # at single ulps the rationals on either side of a switch may differ
        # by an ulp or so of y, within the 1e-15 relative error
        steps = np.arange(-200, 201)
        assert np.all(np.diff(_lattice_quantile(switch + step * steps)) > 0.0)
        ulps = _lattice_quantile(switch + np.spacing(switch) * steps)
        assert np.all(np.diff(ulps) >= -1e-15 * np.abs(ulps[1:]).clip(1.0))


class TestQmcLattice:
    def test_independence_product_4d(self):
        c = 1.959963984540054
        lattice = _QmcLattice(CorrelationMatrix(np.eye(4)), seed=3)
        estimate = lattice.refine(np.full(4, -c), np.full(4, c), precision=1e-4)
        assert estimate.value == pytest.approx(0.95**4, abs=max(1e-4, 3 * estimate.stderr))

    @pytest.mark.parametrize("dim", [4, 8, 12])
    @pytest.mark.parametrize("sided", ["two", "one"])
    def test_identity_value_and_slope_are_exact(self, dim, sided):
        # independent coordinates: every point gives the product of the
        # marginal probabilities, whatever the points
        c = 2.1
        cdf = 0.5 * math.erfc(-c / math.sqrt(2.0))
        pdf = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        p, dp = (2.0 * cdf - 1.0, 2.0 * pdf) if sided == "two" else (cdf, pdf)
        lattice = _QmcLattice(CorrelationMatrix(np.eye(dim)), seed=dim)
        lower = np.full(dim, -c if sided == "two" else -INF)
        estimate = lattice.estimate(lower, np.full(dim, c))
        assert estimate.value == pytest.approx(p**dim, abs=1e-12)
        assert estimate.slope == pytest.approx(dim * p ** (dim - 1) * dp, abs=1e-12)

    def test_dim2_agrees_with_quadrature(self):
        lattice = _QmcLattice(CorrelationMatrix.bivariate(0.5), seed=1)
        estimate = lattice.refine(np.array([-1.96, -1.96]), np.array([1.96, 1.96]), 5e-5)
        exact = bvn_rectangle((-1.96, -1.96), (1.96, 1.96), 0.5)
        assert abs(estimate.value - exact) <= 3 * max(estimate.stderr, 1e-6)

    def test_infinite_box_is_one(self):
        lattice = _QmcLattice(CorrelationMatrix(np.eye(3)))
        estimate = lattice.refine(np.full(3, -INF), np.full(3, INF), precision=1e-4)
        assert estimate.value == 1.0 and estimate.stderr == 0.0

    def test_far_bounds_match_infinite_ones(self):
        # a finite bound far out gives the cdf of an infinite one, and its
        # density underflows to 0 without an overflow warning
        corr = CorrelationMatrix(np.eye(3) * 0.5 + np.full((3, 3), 0.5))
        lattice = _QmcLattice(corr, seed=2)
        lower, upper = np.array([-1e200, -1.0, -2.0]), np.array([1.5, 1e300, 2.0])
        far = lattice.estimate(lower, upper)
        infinite = lattice.estimate(np.where(lower < -1e100, -INF, lower),
                                    np.where(upper > 1e100, INF, upper))
        assert far == infinite
        # near-perfect correlation: a bound over its conditional sd, about
        # 1e-3, passes the largest double and is infinite
        corr = CorrelationMatrix(np.eye(3) * 1e-6 + np.full((3, 3), 1.0 - 1e-6))
        lattice = _QmcLattice(corr, seed=2)
        far = lattice.estimate(np.full(3, -1e308), np.array([1e308, 1e308, 0.5]))
        assert far == lattice.estimate(np.full(3, -INF), np.array([INF, INF, 0.5]))

    def test_deterministic_given_seed(self):
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        lower, upper = np.full(4, -2.0), np.full(4, 2.0)
        first = _QmcLattice(corr, seed=42).refine(lower, upper, 1e-4)
        assert _QmcLattice(corr, seed=42).refine(lower, upper, 1e-4) == first

    def test_monotone_in_nesting(self):
        corr = CorrelationMatrix(np.eye(3) * 0.6 + np.full((3, 3), 0.4))
        wide = _QmcLattice(corr, seed=5).refine(np.full(3, -2.5), np.full(3, 2.5), 1e-4)
        narrow = _QmcLattice(corr, seed=5).refine(np.full(3, -1.5), np.full(3, 2.5), 1e-4)
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
        estimate = _QmcLattice(corr, seed=9).refine(lower, upper, precision=5e-5)
        draws = np.random.default_rng(777).standard_normal((2_000_000, 6)) @ corr.factor.T
        inside = np.all((draws >= lower) & (draws <= upper), axis=1)
        mc = float(inside.mean())
        mc_se = math.sqrt(mc * (1 - mc) / inside.size)
        assert abs(estimate.value - mc) <= 3 * (estimate.stderr + mc_se)

    @pytest.mark.parametrize("dim, precision", [(3, 1e-7), (5, 1e-6), (8, 2e-6)])
    def test_matches_batch_by_batch_reference(self, dim, precision):
        # the lattice evaluates all batches at once; one batch at a time, with
        # the shifts drawn in the same order and the variables taken in the
        # lattice's order, gives the same estimate
        from scipy.special import ndtr, ndtri

        rng = np.random.default_rng(dim)
        loadings = rng.uniform(-0.6, 0.6, dim)
        m = np.outer(loadings, loadings)
        np.fill_diagonal(m, 1.0)
        corr = CorrelationMatrix(m)
        lower, upper = np.full(dim, -2.0), np.full(dim, 2.5)
        lower[0] = -INF

        lattice = _QmcLattice(corr, seed=7)
        order = lattice.order
        factor = CorrelationMatrix(m[np.ix_(order, order)]).factor
        box_lower, box_upper = lower[order], upper[order]
        generators = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0][: dim - 1])
        shifts = np.random.default_rng([7, dim])
        n_points, total = mvnorm._START_POINTS * dim, 0
        while True:
            means = []
            for _ in range(12):
                shift = shifts.random(dim - 1)
                j = np.arange(1, n_points + 1, dtype=float)
                d = np.full(n_points, ndtr(box_lower[0] / factor[0, 0]))
                e = np.full(n_points, ndtr(box_upper[0] / factor[0, 0]))
                prob, y = e - d, np.empty((dim - 1, n_points))
                for i in range(1, dim):
                    z = generators[i - 1] * j + shift[i - 1]
                    x = np.abs(2.0 * (z - np.floor(z)) - 1.0)
                    y[i - 1] = ndtri(np.clip(d + x * (e - d), 1e-15, 1.0 - 1e-15))
                    s = factor[i, :i] @ y[:i]
                    d = ndtr((box_lower[i] - s) / factor[i, i])
                    e = ndtr((box_upper[i] - s) / factor[i, i])
                    prob *= np.maximum(e - d, 0.0)
                means.append(prob.mean())
            total += 12 * n_points
            stderr = np.std(means, ddof=1) / math.sqrt(12)
            if stderr <= precision:
                break
            n_points *= 2

        estimate = lattice.refine(lower, upper, precision)
        assert estimate.n_points == total > 12 * mvnorm._START_POINTS * dim
        assert estimate.value == pytest.approx(float(np.mean(means)), rel=1e-14)
        assert estimate.stderr == pytest.approx(stderr, rel=1e-9)

    @pytest.mark.parametrize("dim", [3, 5, 8, 12])
    def test_order_pivots_on_the_smallest_residual_variance(self, dim):
        m = _random_correlation(dim, seed=dim)
        lattice = _QmcLattice(CorrelationMatrix(m), seed=0)
        order = lattice.order
        assert sorted(order.tolist()) == list(range(dim))
        for k in range(dim):
            # residual variance of each variable left given those before it
            chosen, rest = order[:k], order[k:]
            if k:
                gain = m[np.ix_(rest, chosen)] @ np.linalg.solve(
                    m[np.ix_(chosen, chosen)], m[np.ix_(chosen, rest)]
                )
                residual = 1.0 - np.diag(gain)
            else:
                residual = np.ones(dim)
            assert residual[0] <= residual.min() + 1e-12
        assert order[0] == 0  # every diagonal is 1: the tie goes to index 0
        permuted = m[np.ix_(order, order)]
        np.testing.assert_allclose(lattice.factor @ lattice.factor.T, permuted, atol=1e-12)

    def test_order_breaks_ties_toward_the_lowest_index(self):
        exchangeable = CorrelationMatrix(np.eye(6) * 0.6 + np.full((6, 6), 0.4))
        assert _QmcLattice(exchangeable).order.tolist() == list(range(6))

    @pytest.mark.parametrize("dim", [3, 4, 6, 9, 12])
    def test_unequal_boxes_match_scipy(self, dim):
        # bounds differ per variable, some infinite on either side, so the
        # order matters; scipy's own error is at most its abseps
        from scipy.stats import multivariate_normal

        m = _random_correlation(dim, seed=100 + dim)
        lower, upper = _random_box(dim, seed=dim)
        estimate = _QmcLattice(CorrelationMatrix(m), seed=dim).refine(lower, upper, 1e-4)
        abseps = 1e-5
        oracle = multivariate_normal.cdf(
            upper, np.zeros(dim), m, lower_limit=lower, abseps=abseps, releps=0.0
        )
        assert abs(estimate.value - oracle) <= 5 * estimate.stderr + abseps

    @pytest.mark.parametrize("dim", [3, 6, 12])
    def test_slope_on_unequal_boxes_is_a_central_difference(self, dim):
        lattice = _QmcLattice(CorrelationMatrix(_random_correlation(dim, seed=dim)), seed=1)
        lower, upper = _random_box(dim, seed=dim)
        h = 1e-5
        central = (
            lattice.estimate(lower - h, upper + h).value
            - lattice.estimate(lower + h, upper - h).value
        ) / (2.0 * h)
        assert lattice.estimate(lower, upper).slope == pytest.approx(central, rel=1e-6)

    def test_slope_where_u_is_clipped_is_a_central_difference(self):
        # the first variable's box (-inf, -7.6] has cdf Phi(-7.6) ~ 1.5e-14,
        # so u = x Phi(-7.6) lies below 1e-15, and is clipped, at the points
        # with x < 0.066.  There y = Phi^-1(u) does not move with the box,
        # and neither may the slope's dy.  The box holds about 1e-18, so the
        # check is relative only
        corr = CorrelationMatrix(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
        lower, upper = np.array([-INF, -2.0, -1.0]), np.array([-7.6, 2.0, 1.5])
        lattice = _QmcLattice(corr, seed=1)
        h = 1e-5
        central = (
            lattice.estimate(lower - h, upper + h).value
            - lattice.estimate(lower + h, upper - h).value
        ) / (2.0 * h)
        assert lattice.estimate(lower, upper).slope == pytest.approx(central, rel=1e-6, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_BOUND, min_size=3, max_size=3), st.lists(_BOUND, min_size=3, max_size=3))
    def test_any_box_gives_a_probability(self, lower, upper):
        # finite or infinite bounds, crossed or not: a probability with a
        # finite standard error, and a refine that needs no growth returns it
        lattice = _QmcLattice(CorrelationMatrix(_random_correlation(3, seed=0)))
        estimate = lattice.estimate(np.array(lower), np.array(upper))
        assert 0.0 <= estimate.value <= 1.0 and math.isfinite(estimate.stderr)
        assert lattice.refine(lower, upper, precision=1.0) == estimate
        assert lattice.total_points == 12 * mvnorm._START_POINTS * 3

    def test_refined_lattice_holds_its_points(self):
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        lower, upper = np.full(4, -2.0), np.full(4, 2.0)
        lattice = _QmcLattice(corr, seed=4)
        estimate = lattice.refine(lower, upper, precision=2e-6)
        assert estimate.n_points > 12 * mvnorm._START_POINTS * 4  # the lattice grew at least once
        # held points: the same box on the grown lattice repeats to the bit
        assert lattice.estimate(lower, upper) == estimate

    @pytest.mark.parametrize("dim", [3, 6, 12])
    def test_work_array_keeps_no_state_between_boxes(self, dim):
        # every pass runs in the work array the lattice keeps; a box
        # evaluated after another gives what it gave first, and what a
        # fresh lattice gives, before and after a grow()
        corr = CorrelationMatrix(_random_correlation(dim, seed=dim))
        box_a, box_b = _random_box(dim, seed=dim), _random_box(dim, seed=dim + 50)
        lattice, fresh = _QmcLattice(corr, seed=2), _QmcLattice(corr, seed=2)
        for grown in (False, True):
            if grown:
                lattice.grow()
                fresh = _QmcLattice(corr, seed=2)
                fresh.grow()
            first = lattice.estimate(*box_a)
            assert lattice.estimate(*box_b) != first
            assert lattice.estimate(*box_a) == first
            assert fresh.estimate(*box_a) == first

    def test_precision_unreachable(self, monkeypatch):
        monkeypatch.setattr(mvnorm, "_MAX_POINTS", 10_000)
        corr = CorrelationMatrix(np.eye(4) * 0.5 + np.full((4, 4), 0.5))
        with pytest.raises(PrecisionUnreachable):
            _QmcLattice(corr).refine(np.full(4, -1.0), np.full(4, 1.0), precision=1e-12)
