"""Potential, kink profiles, and boosts: closed-form identities and bounds."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phi6kinks.model import SQRT2, eval_potential, eval_potential_derivative, kink_value
from conftest import two_kink_state
from oracles import antikink_derivative, antikink_value, kink_derivative

FINITE = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestPotential:
    def test_vacua(self):
        for v in (0.0, 1.0, -1.0):
            assert eval_potential(v) == 0.0
            assert eval_potential_derivative(1, v) == pytest.approx(0.0, abs=1e-15)

    def test_direct_substitution(self):
        assert eval_potential(1.0 / SQRT2) == pytest.approx(0.125, abs=1e-15)

    @given(FINITE)
    def test_nonnegative(self, phi):
        assert eval_potential(phi) >= 0.0

    def test_derivative_values(self):
        assert eval_potential_derivative(1, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert eval_potential_derivative(2, 0.0) == 2.0

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            eval_potential_derivative(0, 0.5)
        with pytest.raises(ValueError):
            eval_potential_derivative(4, 0.5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derivative_consistent_with_finite_differences(self, k):
        lower = eval_potential if k == 1 else (
            lambda p: eval_potential_derivative(k - 1, p)
        )
        h = 1e-5
        for phi in np.linspace(-1.5, 1.5, 13):
            fd = (lower(phi + h) - lower(phi - h)) / (2 * h)
            val = eval_potential_derivative(k, phi)
            assert val == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_vectorized(self):
        phi = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            eval_potential(phi), [eval_potential(p) for p in phi]
        )


class TestKinkProfile:
    def test_center_value(self):
        assert kink_value(0.0) == pytest.approx(1.0 / SQRT2, abs=1e-15)

    def test_limits(self):
        assert kink_value(50.0) == pytest.approx(1.0, abs=1e-15)
        assert kink_value(-50.0) == pytest.approx(0.0, abs=1e-15)

    def test_far_tail_closed_form(self):
        expected = math.exp(-10 * SQRT2) / math.sqrt(1 + math.exp(-20 * SQRT2))
        assert kink_value(-10.0) == pytest.approx(expected, rel=1e-14)

    def test_no_overflow_far_out(self):
        assert kink_value(400.0) == 1.0
        assert 0.0 <= kink_value(-400.0) < 1e-200
        assert np.isfinite(kink_derivative(np.array([-500.0, 500.0]))).all()

    def test_monotone(self):
        x = np.linspace(-20, 20, 4001)
        assert np.all(np.diff(kink_value(x)) >= 0)
        core = np.linspace(-15, 5, 2001)  # strictly rising where resolvable
        assert np.all(np.diff(kink_value(core)) > 0)

    def test_slope_at_center(self):
        assert kink_derivative(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_curvature_at_center(self):
        curvature = eval_potential_derivative(1, kink_value(0.0))
        assert curvature == pytest.approx(-(2.0 ** -1.5), abs=1e-14)

    def test_slope_matches_finite_difference(self):
        h = 1e-4
        for x in np.linspace(-8, 8, 33):
            fd = (kink_value(x + h) - kink_value(x - h)) / (2 * h)
            assert kink_derivative(x) == pytest.approx(fd, abs=1e-8)

    def test_curvature_matches_finite_difference_of_slope(self):
        h = 1e-4
        for x in np.linspace(-8, 8, 33):
            fd = (kink_derivative(x + h) - kink_derivative(x - h)) / (2 * h)
            assert eval_potential_derivative(1, kink_value(x)) == pytest.approx(fd, abs=1e-8)

    def test_static_profile_solves_force_balance(self):
        x = np.linspace(-30, 30, 1201)
        q = np.exp(-2.0 * SQRT2 * x)  # H = (1 + q)^{-1/2}, so H'' = 2 q (q - 2) / (1 + q)^{5/2}
        lhs = 2.0 * q * (q - 2.0) / (1.0 + q) ** 2.5
        rhs = eval_potential_derivative(1, kink_value(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_first_integral_identity(self):
        x = np.linspace(-30, 30, 1201)
        h = kink_value(x)
        assert np.max(np.abs(kink_derivative(x) - SQRT2 * h * (1 - h * h))) < 1e-12

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_decay_bounds(self, x):
        # |H(x)| <= e^{-sqrt2 (-x)+} and |H'(x)| <= sqrt2 e^{-sqrt2 (-x)+}
        bound = math.exp(-SQRT2 * max(-x, 0.0))
        assert abs(kink_value(x)) <= bound + 1e-15
        assert abs(kink_derivative(x)) <= SQRT2 * bound + 1e-15
        # reflected versions for the antikink
        bound_r = math.exp(-SQRT2 * max(x, 0.0))
        assert abs(antikink_value(x)) <= bound_r + 1e-15
        assert abs(antikink_derivative(x)) <= SQRT2 * bound_r + 1e-15


class TestAntikink:
    def test_reflection(self):
        x = np.linspace(-15, 15, 301)
        np.testing.assert_allclose(antikink_value(x), -kink_value(-x), rtol=0, atol=0)

    def test_center_and_limits(self):
        assert antikink_value(0.0) == pytest.approx(-1.0 / SQRT2, abs=1e-15)
        assert antikink_value(-50.0) == pytest.approx(-1.0, abs=1e-15)
        assert antikink_value(50.0) == pytest.approx(0.0, abs=1e-15)

    def test_slope_positive(self):
        x = np.linspace(-10, 10, 101)
        assert np.all(antikink_derivative(x) > 0)

    def test_second_derivative_matches_fd(self):
        h = 1e-4
        for x in (-2.0, 0.0, 1.5):
            fd = (antikink_derivative(x + h) - antikink_derivative(x - h)) / (2 * h)
            assert eval_potential_derivative(1, antikink_value(x)) == pytest.approx(fd, abs=1e-8)


class TestKernelBitExactness:
    """The profile kernel gives the same bytes as its two-branch form, kept
    here as the reference, and U^(k) is accurate to a few ULP."""

    X = np.concatenate([np.linspace(-400.0, 400.0, 160_001), [0.0, -0.0, np.nan]])

    @staticmethod
    def _kink_two_branch(x):
        x = np.asarray(x, dtype=float)
        q = np.exp(-2.0 * SQRT2 * np.abs(x))
        right = 1.0 / np.sqrt(1.0 + q)
        left = np.exp(SQRT2 * np.minimum(x, 0.0)) / np.sqrt(1.0 + q)
        return np.where(x >= 0.0, right, left)

    def test_kink_value(self):
        assert kink_value(self.X).tobytes() == self._kink_two_branch(self.X).tobytes()
        assert kink_value(-0.0) == kink_value(0.0) == 1.0 / np.sqrt(2.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_potential_derivative(self, k):
        # against 30-digit U^(k) at the same doubles, in ULP of max |U^(k)|,
        # on an interval past the vacua and on profile values H(x) - H(-x);
        # the expanded U' = 2 phi - 8 phi^3 + 6 phi^5 is off by 6 and 9.9 ULP
        mp = pytest.importorskip("mpmath")
        ulps = {1: 4.0, 2: 4.0, 3: 2.0}[k]
        exact = {1: lambda p: 2 * p * (1 - p * p) * (1 - 3 * p * p),
                 2: lambda p: 2 - 24 * p**2 + 30 * p**4,
                 3: lambda p: -48 * p + 120 * p**3}[k]
        x = np.linspace(-40.0, 40.0, 3201)
        for phi in (np.linspace(-1.2, 1.2, 4801), kink_value(x) - kink_value(-x)):
            with mp.workdps(30):
                want = np.array([float(exact(mp.mpf(float(p)))) for p in phi])
            err = np.abs(eval_potential_derivative(k, phi) - want)
            assert float(np.max(err)) <= ulps * math.ulp(float(np.max(np.abs(want))))
            if k == 1:  # relative too, where 1 - phi^2 is small; expanded: 0.5
                nonzero = want != 0.0
                assert float(np.max(err[nonzero] / np.abs(want[nonzero]))) < 1e-8

    def test_potential_derivative_is_odd_on_profile_values(self):
        # the diagnostics take U'(K1) = U'(-h1) from the center solve's
        # K1'' = -U'(h1); that holds bit for bit, on the vacuum h = 1 too
        h = kink_value(np.linspace(-400.0, 60.0, 200_001))
        assert h.min() > 0.0 and (h == 1.0).any()
        odd, negated = eval_potential_derivative(1, -h), -eval_potential_derivative(1, h)
        assert odd.tobytes() == negated.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_in_place_forms_equal_the_written_expressions(self, k):
        # the in-place operations are the closed forms' own, so the bytes and,
        # for scalar input, the numpy scalar type are those of the expressions
        written = {1: lambda p: ((3.0 * (1.0 - p * p) - 2.0) * (SQRT2 * p * (1.0 - p * p))) * SQRT2,
                   2: lambda p: (30.0 * (p * p) - 24.0) * (p * p) + 2.0,
                   3: lambda p: (120.0 * (p * p) - 48.0) * p}[k]
        x = np.linspace(-40.0, 40.0, 3201)
        for phi in (np.linspace(-1.5, 1.5, 4801), kink_value(x) - kink_value(-x),
                    np.array([[1.0, -1.0], [0.0, np.nan]])):
            got = eval_potential_derivative(k, phi)
            assert got.shape == phi.shape
            assert got.tobytes() == written(phi).tobytes()
        for scalar in (0.3, 1.0, -0.7):
            got = eval_potential_derivative(k, scalar)
            assert type(got) is np.float64
            assert got == written(np.float64(scalar))


class TestBoost:
    """The Lorentz-boosted profiles that build_initial_state builds at t=0."""

    GRID = (-46.0, 0.05, int(round(104 / 0.05)) + 1)  # [-46, 58]

    def test_zero_velocity_is_static(self):
        st = two_kink_state(self.GRID, -6.0, 1.0)
        np.testing.assert_allclose(st.phi, antikink_value(st.x + 6.0) + kink_value(st.x - 1.0))
        np.testing.assert_allclose(st.pi, 0.0)

    def test_time_derivative_matches_fd(self):
        # antikink at -1.0 moving at 0.3, kink at rest at 12.0
        v = 0.3

        def antikink(x, t):
            return antikink_value((x + 1.0 - v * t) / math.sqrt(1 - v * v))

        st = two_kink_state(self.GRID, -1.0, 12.0, v, 0.0)
        h = 1e-5
        for x_target in (-3.0, -1.0, 0.5):
            i = int(round((x_target - st.x0) / st.dx))
            x = st.x[i]
            fd = (antikink(x, h) - antikink(x, -h)) / (2 * h)
            assert st.pi[i] == pytest.approx(fd, abs=1e-8)
