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
from platformdesign.errors import DomainError, NotPositiveDefinite
from platformdesign.mvnorm import CorrelationMatrix, _std_normal_cdf, _std_normal_quantile

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
