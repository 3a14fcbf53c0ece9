"""Reduced two-body dynamics: parameter extraction, closed form, RK4 cross-check."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phi6kinks.effective import (
    centers_d1_d2,
    centers_velocities,
    params_from_initial,
    separation_d,
    separation_d_dot,
)
from phi6kinks.model import SQRT2
from phi6kinks.modulation import track
from phi6kinks.scenarios import build_initial_state, default_suite
from oracles import conserved_quantity, integrate_reduced


class TestParams:
    def test_symmetric_turning_point(self):
        p = params_from_initial(-5.0, 5.0, 0.0, 0.0)
        assert p.v == pytest.approx(math.sqrt(8.0) * math.exp(-5 * SQRT2), rel=1e-14)
        assert p.c == 0.0
        assert p.a == 0.0
        assert p.b == 0.0

    def test_fast_approach_parameters(self):
        # z0 = 12, zdot0 = +0.2: the interaction term is tiny, so
        # c = (1/2) ln((2v + zdot)/(2v - zdot)) with the stable difference
        # 2v - zdot = 32 e^{-sqrt2 z0} / (2v + zdot)
        p = params_from_initial(-6.0, 6.0, -0.1, 0.1)
        v_expected = math.sqrt(0.01 + 8 * math.exp(-12 * SQRT2))
        assert p.v == pytest.approx(v_expected, rel=1e-14)
        two_v_minus = 32 * math.exp(-12 * SQRT2) / (2 * p.v + 0.2)
        c_expected = 0.5 * math.log((2 * p.v + 0.2) / two_v_minus)
        assert p.c == pytest.approx(c_expected, rel=1e-10)
        assert p.v == pytest.approx(0.1, rel=1e-4)

    def test_midpoint_parameters(self):
        p = params_from_initial(-3.0, 7.0, 0.02, 0.06)
        assert p.a == 2.0
        assert p.b == pytest.approx(0.04)

    def test_round_trip(self):
        for (x1, x2, v1, v2) in [
            (-5.0, 5.0, 0.03, -0.03),
            (-8.0, 8.0, 0.0, 0.0),
            (-6.0, 4.0, -0.01, 0.05),
        ]:
            p = params_from_initial(x1, x2, v1, v2)
            assert separation_d(0.0, p) == pytest.approx(x2 - x1, abs=1e-12)
            assert separation_d_dot(0.0, p) == pytest.approx(v2 - v1, abs=1e-12)
            d1, d2 = centers_d1_d2(0.0, p, separation_d(0.0, p))
            assert d1 == pytest.approx(x1, abs=1e-12)
            assert d2 == pytest.approx(x2, abs=1e-12)
            d1dot, d2dot = centers_velocities(0.0, p)
            assert d1dot == pytest.approx(v1, abs=1e-12)
            assert d2dot == pytest.approx(v2, abs=1e-12)

    def test_c_within_a_few_ulp_of_mpmath_on_the_suite_head_ons(self):
        # the t = 0 frames of the suite's head-on runs have |zdot/(2v)| within
        # ~2e-7 of 1; c must not lose digits there (measured: <= 0.93 ULP)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        head_ons = [c for c in default_suite() if c.kinks.v1 != 0.0]
        assert len(head_ons) == 3
        for config in head_ons:
            f = track([build_initial_state(config)])[0]
            p = params_from_initial(f.x1, f.x2, f.xdot1, f.xdot2)
            z0 = mp.mpf(f.x2) - mp.mpf(f.x1)
            zdot0 = mp.mpf(f.xdot2) - mp.mpf(f.xdot1)
            v = mp.sqrt(zdot0 ** 2 / 4 + 8 * mp.exp(-mp.sqrt(2) * z0))
            ratio = zdot0 / (2 * v)
            assert 1 - abs(ratio) < 1e-6
            want = mp.atanh(ratio)
            assert abs(p.c - want) <= 4 * math.ulp(float(want))

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            params_from_initial(5.0, -5.0, 0.0, 0.0)

    def test_arctanh_guard_for_free_streaming(self):
        # at z0 = 600 the interaction has underflowed and zdot/(2v) -> 1
        with pytest.raises(ValueError):
            params_from_initial(-300.0, 300.0, -0.1, 0.1)


class TestClosedForm:
    def setup_method(self):
        self.p = params_from_initial(-5.0, 5.0, 0.05, -0.05)  # approaching

    def test_minimum_at_turning_time(self):
        p = self.p
        t_star = -p.c / (SQRT2 * p.v)
        assert separation_d(t_star, p) == pytest.approx(
            math.log(8.0 / p.v**2) / SQRT2, abs=1e-12
        )
        h = 1e-4
        assert separation_d(t_star + h, p) > separation_d(t_star, p)
        assert separation_d(t_star - h, p) > separation_d(t_star, p)

    def test_asymptotic_speed(self):
        p = self.p
        assert separation_d_dot(1e5, p) == pytest.approx(2 * p.v, abs=1e-12)
        assert separation_d_dot(-1e5, p) == pytest.approx(-2 * p.v, abs=1e-12)

    def test_acceleration_matches_repulsion_law(self):
        # finite differences of d(t) against 16 sqrt2 e^{-sqrt2 d(t)}; the
        # orbit opens from z=6 so the force is resolvable at all sample times
        p = params_from_initial(-3.0, 3.0, -0.025, 0.025)
        h = 0.01
        for t in (0.0, 5.0, 50.0):
            fd = (
                separation_d(t + h, p) - 2 * separation_d(t, p) + separation_d(t - h, p)
            ) / h**2
            force = 16 * SQRT2 * math.exp(-SQRT2 * separation_d(t, p))
            assert fd == pytest.approx(force, rel=1e-6)

    def test_center_split_and_symmetry(self):
        p = self.p
        # at t = 0 the centers are the initial positions the params came from
        assert centers_d1_d2(0.0, p, separation_d(0.0, p)) == pytest.approx((-5.0, 5.0), abs=1e-12)
        for t in (-20.0, 0.0, 35.0):
            d1, d2 = centers_d1_d2(t, p, separation_d(t, p))
            assert d1 < p.a < d2
            assert d1 + d2 == pytest.approx(2 * p.a, abs=1e-12)  # b = 0 here

    def test_center_acceleration(self):
        p = params_from_initial(-3.0, 3.0, -0.025, 0.025)
        h = 0.01
        for t in (0.0, 5.0):
            d2 = lambda s: centers_d1_d2(s, p, separation_d(s, p))[1]
            d1 = lambda s: centers_d1_d2(s, p, separation_d(s, p))[0]
            fd2 = (d2(t + h) - 2 * d2(t) + d2(t - h)) / h**2
            fd1 = (d1(t + h) - 2 * d1(t) + d1(t - h)) / h**2
            force = 8 * SQRT2 * math.exp(-SQRT2 * separation_d(t, p))
            assert fd2 == pytest.approx(force, rel=1e-6)
            assert fd1 == pytest.approx(-force, rel=1e-6)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_overflow_safety(self, t):
        val = separation_d(t, self.p)
        assert math.isfinite(val)
        assert val >= math.log(8.0 / self.p.v**2) / SQRT2 - 1e-9

    def test_monotone_in_far_field(self):
        p = self.p
        ts = np.linspace(1e4, 1e6, 50)
        vals = separation_d(ts, p)
        assert np.all(np.diff(vals) > 0)


class TestConservedQuantity:
    def test_constant_along_closed_form(self):
        p = params_from_initial(-5.0, 5.0, 0.05, -0.05)
        for t in (0.0, 1.0, 10.0, 100.0):
            q = conserved_quantity(separation_d(t, p), separation_d_dot(t, p))
            assert q == pytest.approx(p.v**2, rel=1e-12)

    def test_turning_point_value(self):
        z_min = 6.1
        assert conserved_quantity(z_min, 0.0) == pytest.approx(
            8 * math.exp(-SQRT2 * z_min), rel=1e-15
        )


class TestReducedIntegrator:
    def test_matches_closed_form(self):
        p = params_from_initial(-5.0, 5.0, 0.05, -0.05)
        traj = integrate_reduced(10.0, -0.1, 100.0, 0.01)
        exact = separation_d(traj.t, p)
        assert np.max(np.abs(traj.z - exact)) < 1e-8

    def test_conserved_drift(self):
        traj = integrate_reduced(10.0, -0.1, 100.0, 0.01)
        q = conserved_quantity(traj.z, traj.zdot)
        assert np.max(np.abs(q - q[0])) < 1e-10 * 100.0

    def test_far_pair_free_streams(self):
        traj = integrate_reduced(30.0, 0.02, 50.0, 0.01)
        assert np.max(np.abs(traj.zdot - 0.02)) < 1e-10

    def test_bounce_is_time_symmetric(self):
        p = params_from_initial(-5.0, 5.0, 0.05, -0.05)
        t_star = -p.c / (SQRT2 * p.v)
        traj = integrate_reduced(10.0, -0.1, 2 * t_star, 0.005)
        for s in (1.0, 5.0, 20.0):
            z_plus = np.interp(t_star + s, traj.t, traj.z)
            z_minus = np.interp(t_star - s, traj.t, traj.z)
            assert z_plus == pytest.approx(z_minus, abs=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            integrate_reduced(-1.0, 0.0, 10.0, 0.01)
        with pytest.raises(ValueError):
            integrate_reduced(10.0, 0.0, 10.0, -0.01)
