"""Quadrature, energies, interaction energy, norms, and the Lyapunov functional."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phi6kinks import functionals
from phi6kinks.functionals import (
    PairTerms,
    cut_function,
    energy_breakdown,
    integrate,
    lyapunov_F,
    pair_terms,
    potential_energy_samples,
    reference_kink_energy,
    simpson_weights,
    smooth_step,
    spatial_derivative,
)
from phi6kinks.model import SQRT2, eval_potential_derivative, kink_value
from phi6kinks.modulation import ModulationFrame, decompose
from phi6kinks.pde import FieldState
from conftest import two_kink_state
from oracles import (
    antikink_derivative,
    antikink_value,
    bogomolny_rest_energy,
    g_t,
    interaction_energy_A,
    interaction_energy_A_prime,
    kink_derivative,
)

E_REF_EXACT = 1.0 / (2.0 * SQRT2)


def pair_state(z, dx=0.05, v=0.0, margin=40.0):
    half = z / 2 + margin
    n = int(round(2 * half / dx)) + 1
    if n % 2 == 0:
        n += 1
    x = -half + dx * np.arange(n)
    phi = antikink_value(x + z / 2) + kink_value(x - z / 2)
    pi = -v * antikink_derivative(x + z / 2) + v * kink_derivative(x - z / 2)
    return FieldState(x0=-half, dx=dx, n=n, phi=phi, pi=pi, t=0.0)


class TestIntegrate:
    def test_constant(self):
        assert integrate(np.ones(101), 0.01) == pytest.approx(1.0, abs=1e-14)

    def test_exact_for_cubics(self):
        x = np.linspace(0, 1, 101)
        assert integrate(x**2, 0.01) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert integrate(x**3, 0.01) == pytest.approx(0.25, abs=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            integrate([1.0, 2.0], 0.1)

    def test_even_count_falls_back_gracefully(self):
        x_odd = np.linspace(0, 1, 101)
        x_even = np.linspace(0, 1, 100)
        odd = integrate(np.sin(x_odd), 0.01)
        even = integrate(np.sin(x_even), 1.0 / 99)
        assert even == pytest.approx(odd, abs=1e-6)

    def test_exponential_moment_identity(self):
        # int (8 H^3 - 6 H^5) e^{-sqrt2 x} dx = 2 sqrt2
        x = np.arange(-40.0, 40.0 + 1e-12, 0.01)
        h = kink_value(x)
        val = integrate((8 * h**3 - 6 * h**5) * np.exp(-SQRT2 * x), 0.01)
        assert val == pytest.approx(2 * SQRT2, abs=1e-8)

    def test_weights_sum_to_span(self):
        w = simpson_weights(11, 0.1)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [11, 12])
    def test_weights_are_cached_and_read_only(self, n):
        w = simpson_weights(n, 0.1)
        assert simpson_weights(n, 0.1) is w
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert w.sum() == pytest.approx(0.1 * (n - 1), abs=1e-14)


class TestDerivativeBits:
    @pytest.mark.parametrize("name", ["random", "kink"])
    def test_interior_is_the_sliced_formula(self, name):
        # the one-call 4th-order interior keeps the bits of
        # (f[:-4] - 8 f[1:-3] + 8 f[3:-1] - f[4:]) / (12 dx)
        dx = 0.05
        x = -40.0 + dx * np.arange(1601)
        f = (np.random.default_rng(1818).uniform(-2.0, 2.0, x.size) if name == "random"
             else kink_value(x))
        want = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dx)
        assert spatial_derivative(f, dx)[2:-2].tobytes() == want.tobytes()


class TestEnergies:
    def test_single_kink_rest_energy(self):
        dx = 0.01
        n = int(round(80 / dx)) + 1
        x = -40 + dx * np.arange(n)
        e = potential_energy_samples(kink_value(x), dx)
        assert e == pytest.approx(E_REF_EXACT, abs=1e-6)

    def test_bogomolny_oracle_agrees(self):
        assert bogomolny_rest_energy() == pytest.approx(E_REF_EXACT, abs=1e-10)
        assert reference_kink_energy(0.01) == pytest.approx(
            bogomolny_rest_energy(), abs=1e-8
        )

    def test_slope_norm_equals_rest_energy(self):
        # equipartition of the static kink: ||d_x H||_L2^2 = E_pot(H) = 1/(2 sqrt2)
        x = np.arange(-40.0, 40.0 + 1e-12, 0.01)
        slope_sq = integrate(kink_derivative(x) ** 2, 0.01)
        assert slope_sq == pytest.approx(E_REF_EXACT, abs=1e-8)
        assert slope_sq == pytest.approx(reference_kink_energy(0.01), abs=1e-8)

    def test_vacuum(self):
        n = 1001
        phi = np.ones(n)
        assert potential_energy_samples(phi, 0.05) == pytest.approx(0.0, abs=1e-14)
        st = FieldState(x0=-25, dx=0.05, n=n, phi=phi, pi=np.zeros(n), t=0.0)
        eb = energy_breakdown(st)
        assert eb.e_kin == 0.0
        assert eb.e_pot == pytest.approx(0.0, abs=1e-14)
        assert eb.epsilon == pytest.approx(-2 * reference_kink_energy(0.05), abs=1e-14)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            potential_energy_samples(np.ones(4), 0.05)

    def test_two_kink_interaction_tail(self):
        st = pair_state(10.0, dx=0.01)
        e = potential_energy_samples(st.phi, st.dx)
        expected = 2 * reference_kink_energy(0.01) + 2 * SQRT2 * math.exp(-10 * SQRT2)
        assert abs(e - expected) <= 13 * 10 * math.exp(-20 * SQRT2) + 1e-9

    def test_static_pair_breakdown(self):
        st = pair_state(12.0, dx=0.01)
        eb = energy_breakdown(st)
        assert eb.e_kin == 0.0
        assert eb.e_total == eb.e_kin + eb.e_pot
        assert eb.epsilon == pytest.approx(2 * SQRT2 * math.exp(-12 * SQRT2), rel=1e-3)

    def test_boosted_pair_kinetic_energy(self):
        v = 0.05
        st = pair_state(14.0, dx=0.01, v=v)
        eb = energy_breakdown(st)
        # leading order: e_kin = v^2 ||d_x H||^2 summed over both kinks
        assert eb.e_kin == pytest.approx(v * v * E_REF_EXACT, rel=1e-2)

    def test_translation_invariance(self):
        dx = 0.05
        n = int(round(120 / dx)) + 1
        x = -60 + dx * np.arange(n)
        shift = 0.3
        e1 = potential_energy_samples(
            antikink_value(x + 6.0) + kink_value(x - 6.0), dx
        )
        e2 = potential_energy_samples(
            antikink_value(x + 6.0 - shift) + kink_value(x - 6.0 - shift), dx
        )
        assert abs(e1 - e2) < 1e-10


class TestInteractionEnergy:
    def test_large_separation_limit(self):
        a = interaction_energy_A(30.0)
        assert a == pytest.approx(2 * reference_kink_energy(0.01), abs=1e-12)

    def test_tail_asymptotics(self):
        e_ref = reference_kink_energy(0.01)
        for z in (8.0, 10.0):
            resid = interaction_energy_A(z) - 2 * e_ref - 2 * SQRT2 * math.exp(-SQRT2 * z)
            assert abs(resid) <= 13 * z * math.exp(-2 * SQRT2 * z) + 1e-10

    def test_self_convergence(self):
        coarse = interaction_energy_A(5.0, dx=0.01)
        fine = interaction_energy_A(5.0, dx=0.001)
        assert coarse == pytest.approx(fine, abs=1e-8)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            interaction_energy_A(0.0)
        with pytest.raises(ValueError):
            interaction_energy_A_prime(-1.0)

    def test_derivative_asymptotics(self):
        for z in (6.0, 8.0):
            ap = interaction_energy_A_prime(z)
            assert ap == pytest.approx(-4 * math.exp(-SQRT2 * z), rel=0.1)

    def test_repulsive_for_all_tested_separations(self):
        for z in np.arange(3.0, 20.5, 1.0):
            assert interaction_energy_A_prime(z) < 0.0

    def test_monotone_decreasing(self):
        zs = np.arange(3.0, 20.5, 0.5)
        vals = [interaction_energy_A(z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_derivatives_match_finite_differences(self):
        z, h = 6.0, 1e-3
        fd1 = (interaction_energy_A(z + h) - interaction_energy_A(z - h)) / (2 * h)
        assert interaction_energy_A_prime(z) == pytest.approx(fd1, rel=1e-5)

    def test_two_term_expansion_against_mpmath(self):
        """30-digit continuum oracle for A(z) - 2E, independent of the grid code.

        Checks the closed-form integrals behind the expansion
        A - 2E = 2 sqrt2 e^{-sqrt2 z} - (12 z - 15/sqrt2) e^{-2 sqrt2 z} + O(z e^{-3 sqrt2 z})
        (derived in the docstring of interaction_energy_A), the program against
        the continuum value, and the continuum value against the expansion.
        """
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            r2 = mp.sqrt(2)
            k = 2 * r2

            def h(u):
                return 1 / mp.sqrt(1 + mp.exp(-k * u))

            def dh(u):
                return r2 * h(u) * (1 - h(u) ** 2)

            def u(p):
                return p**2 * (1 - p**2) ** 2

            int_h4 = mp.quad(lambda s: h(s) ** 4 * mp.exp(-k * s), [-mp.inf, 0, mp.inf])
            assert abs(int_h4 - 1 / k) < mp.mpf("1e-25")

            e_ref = reference_kink_energy(0.01)
            for z in (6, 8):
                z = mp.mpf(z)
                cuts = [-mp.inf, -z / 2, 0, z / 2, mp.inf]
                int_a2b2 = mp.quad(
                    lambda x: (h(-x - z / 2) * h(x - z / 2)) ** 2 * mp.exp(k * z), cuts
                )
                assert abs(int_a2b2 - z / (1 - mp.exp(-k * z))) < mp.mpf("1e-25")

                # Continuum A - 2E from its definition, a'b' + U(a+b) - U(a) - U(b),
                # with a = -H(-x - z/2) the antikink and b = H(x - z/2) the kink.
                def cross(x):
                    a, b = -h(-x - z / 2), h(x - z / 2)
                    return dh(-x - z / 2) * dh(x - z / 2) + u(a + b) - u(a) - u(b)

                continuum = mp.quad(cross, cuts)
                program = interaction_energy_A(float(z)) - 2 * e_ref
                assert abs(program - continuum) <= 1e-10

                two_term = 2 * r2 * mp.exp(-r2 * z) - (12 * z - 15 / r2) * mp.exp(-k * z)
                # Third-order terms: -20 int a^3 b^3 ~ -20 z e^{-3 sqrt2 z}, and the
                # next order of the antikink tail, |a| = e^{-sqrt2 s}(1 - e^{-2 sqrt2 s}/2),
                # inside -8 int a b^3 ~ -4 z e^{-3 sqrt2 z}.  The z-independent
                # third-order pieces (from 6ab^5 and the ends of the overlap region)
                # enter with the opposite sign, so 24 z e^{-3 sqrt2 z} bounds them all.
                assert abs(continuum - two_term) <= 24 * z * mp.exp(-3 * r2 * z)


class TestCrossTailBound:
    @pytest.mark.parametrize("alpha,beta", [(SQRT2, 2 * SQRT2), (2 * SQRT2, SQRT2)])
    def test_exponential_overlap_integral(self, alpha, beta):
        ratios = []
        for z in (5.0, 10.0, 15.0):
            x = np.arange(-30.0, z + 30.0 + 1e-12, 0.01)
            f = np.exp(-alpha * np.maximum(x, 0.0)) * np.exp(-beta * np.maximum(z - x, 0.0))
            ratios.append(integrate(f, 0.01) / math.exp(-min(alpha, beta) * z))
        assert all(r <= 1.5 for r in ratios)
        assert ratios[2] <= ratios[0] * 1.001  # constant does not grow with z


class TestRemainderNorms:
    """||g||_H1 and ||g_t||_L2 as pair_terms measures them."""

    @staticmethod
    def _norms(g, gt, dx, x0):
        # centers 1000 units off the grid: both profiles underflow to exactly 0
        # there, so the snapshot's remainder is the planted (g, g_t) itself
        state = FieldState(x0=x0, dx=dx, n=len(g), phi=g, pi=gt)
        frame = ModulationFrame(t=0.0, x1=-1000.0, x2=1000.0, z=2000.0, newton_iters=0,
                                matrix_det=1.0, xdot1=0.0, xdot2=0.0, state=state)
        assert np.array_equal(frame.g, g) and np.array_equal(g_t(frame), gt)
        terms = pair_terms(frame)
        return math.sqrt(terms.g_h1_sq), terms.gt_l2

    def test_zero(self):
        assert self._norms(np.zeros(101), np.zeros(101), 0.01, -0.5) == (0.0, 0.0)

    def test_gaussian_values(self):
        dx = 0.01
        x = np.arange(-20.0, 20.0 + 1e-12, dx)
        g = np.exp(-(x**2))
        h1, l2 = self._norms(g, np.zeros_like(g), dx, x[0])
        # int g^2 = int (g')^2 = sqrt(pi/2) for this Gaussian
        assert h1 == pytest.approx(math.sqrt(2 * math.sqrt(math.pi / 2)), rel=1e-4)
        assert l2 == 0.0

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_homogeneity(self, lam):
        dx = 0.05
        x = np.arange(-10.0, 10.0 + 1e-12, dx)
        g = np.exp(-(x**2))
        gt = x * np.exp(-(x**2))
        h1, l2 = self._norms(g, gt, dx, x[0])
        h1_scaled, l2_scaled = self._norms(lam * g, lam * gt, dx, x[0])
        assert h1_scaled == pytest.approx(lam * h1, rel=1e-12, abs=1e-12)
        assert l2_scaled == pytest.approx(lam * l2, rel=1e-12, abs=1e-12)


class TestCutFunction:
    def test_plateaus(self):
        xi = np.array([-1.0, 0.0, 0.74, 0.81, 1.5])
        chi = cut_function(xi, upper=0.8, lower=0.75)
        np.testing.assert_allclose(chi[:3], 1.0)
        np.testing.assert_allclose(chi[3:], 0.0)

    def test_monotone_transition(self):
        xi = np.linspace(0.75, 0.8, 101)
        chi = cut_function(xi, upper=0.8, lower=0.75)
        assert np.all(np.diff(chi) <= 1e-12)
        assert 0.0 <= chi.min() and chi.max() <= 1.0

    def test_bad_window(self):
        with pytest.raises(ValueError):
            cut_function(0.5, upper=0.2, lower=0.4)

    @staticmethod
    def _smooth_step_both_bumps(s):
        """smooth_step as it was: both bumps evaluated on every point."""
        def bump(u):
            out = np.zeros_like(u)
            pos = u > 0.0
            out[pos] = np.exp(-1.0 / u[pos])
            return out

        s = np.asarray(s, dtype=float)
        a, b = bump(s), bump(1.0 - s)
        return np.where(s >= 1.0, 1.0,
                        np.where(s <= 0.0, 0.0, a / np.where(a + b > 0, a + b, 1.0)))

    def test_smooth_step_bit_identical_to_both_bump_form(self):
        band = np.linspace(-0.5, 1.5, 20001)
        tiny = np.array([5e-324, 1e-300, 1e-3, 1.0 - 1e-16, 1.0 - 2**-53])
        special = np.array([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -1e300, 1e300])
        s = np.concatenate([band, tiny, 1.0 - tiny, special])
        with np.errstate(over="ignore"):  # -1/5e-324 = -inf, whose exp is 0 in both
            got = smooth_step(s)
            assert got.tobytes() == self._smooth_step_both_bumps(s).tobytes()
        assert got[-5] == 0.0 and got[-4] == 1.0 and got[-3] == 0.0  # nan, inf, -inf
        for scalar in (0.3, 0.0, 1.0, np.nan):
            one = smooth_step(scalar)
            assert one.shape == () and one.tobytes() == self._smooth_step_both_bumps(scalar).tobytes()


class TestLyapunovFunctional:
    def _frame(self, amplitude, pi_amplitude=0.0):
        dx = 0.05
        n = int(round(104 / dx)) + 1
        x = -52 + dx * np.arange(n)
        g = amplitude * np.exp(-(x**2))
        phi = antikink_value(x + 6.0) + kink_value(x - 6.0) + g
        pi = pi_amplitude * np.exp(-(x**2))
        st = FieldState(x0=-52, dx=dx, n=n, phi=phi, pi=pi, t=0.0)
        return decompose(st, (-6.0, 6.0))

    def test_zero_remainder(self):
        frame = self._frame(0.0)
        terms = pair_terms(frame)
        assert lyapunov_F(frame, terms) == pytest.approx(0.0, abs=1e-18)

    def test_matches_quadratic_form_for_small_remainder(self):
        frame = self._frame(1e-2)
        f_val = lyapunov_F(frame, pair_terms(frame))
        x = frame.x
        total = antikink_value(x - frame.x1) + kink_value(x - frame.x2)
        dg = spatial_derivative(frame.g, frame.dx, order=2)
        quad = integrate(
            g_t(frame)**2 + dg**2 + eval_potential_derivative(2, total) * frame.g**2,
            frame.dx,
        )
        assert f_val == pytest.approx(quad, rel=1e-4)
        assert f_val > 0.0

    def test_quadratic_scaling(self):
        frames = {lam: self._frame(lam * 1e-2) for lam in (1.0, 0.5, 0.25)}
        vals = {lam: lyapunov_F(f, pair_terms(f)) for lam, f in frames.items()}
        assert vals[0.5] / vals[1.0] == pytest.approx(0.25, rel=1e-3)
        assert vals[0.25] / vals[1.0] == pytest.approx(0.0625, rel=1e-3)

    def test_interaction_term_cancels_at_profile_values(self):
        # F's K1'' + K2'' - U'(K1 + K2) on a resting z = 16 pair, against its
        # 40-digit value at the rounded profile values K1 = -h1 and K2 = h2:
        # with one U' arithmetic it is off by 6.6e-16, and by 4.4e-16 for
        # |x| > 12; K'' beside the expanded U' was off by 1.3e-15 there
        mp = pytest.importorskip("mpmath")
        st = two_kink_state((-60.0, 0.05, 2401), -8.0, 8.0)
        frame = decompose(st, (-8.0, 8.0))
        terms, pair = pair_terms(frame), frame.pair
        got = terms.dd_anti + terms.dd_kink - eval_potential_derivative(1, terms.total)
        du = lambda p: 2 * p * (1 - p * p) * (1 - 3 * p * p)
        with mp.workdps(40):
            want = [float(du(k1) + du(k2) - du(k1 + k2))
                    for k1, k2 in zip(map(mp.mpf, (-pair.h1).tolist()),
                                      map(mp.mpf, pair.h2.tolist()))]
        err = np.abs(got - np.array(want))
        assert float(np.max(err)) <= 1e-15
        assert float(np.max(err[np.abs(terms.x) > 12.0])) <= 6e-16

    def test_rejects_collapsed_frame(self):
        import dataclasses

        frame = dataclasses.replace(self._frame(0.0), z=-1.0)
        with pytest.raises(ValueError):
            lyapunov_F(frame, pair_terms(frame))


class TestMomentumWeightBand:
    """F's momentum weight xdot1 omega + xdot2 (1 - omega): cut_function runs
    only on the band x1 + 0.75z < x < x1 + 0.8z, and the weight has the bytes
    of the full-grid formula."""

    DX = 0.05
    X = -10.0 + DX * np.arange(401)

    def _weight(self, monkeypatch, x1, z, xdot1, xdot2):
        """The weight lyapunov_F integrates, read off its f4 integrand
        g_t dg weight with g_t = dg = 1, and the sizes cut_function saw."""
        integrands, cut_sizes = [], []
        integrate_, cut_ = functionals.integrate, functionals.cut_function

        def recorded_integrate(samples, dx):
            integrands.append(np.array(samples))
            return integrate_(samples, dx)

        def recorded_cut(xi, upper, lower):
            cut_sizes.append(np.size(xi))
            return cut_(xi, upper, lower)

        monkeypatch.setattr(functionals, "integrate", recorded_integrate)
        monkeypatch.setattr(functionals, "cut_function", recorded_cut)
        ones, zeros = np.ones_like(self.X), np.zeros_like(self.X)
        terms = PairTerms(self.X, zeros, ones, zeros, zeros, zeros, ones, ones, ones, zeros,
                          1.0, 1.0)
        frame = SimpleNamespace(dx=self.DX, x1=x1, z=z, xdot1=xdot1, xdot2=xdot2)
        lyapunov_F(frame, terms)
        assert len(integrands) == 5  # f1 .. f5, in order
        return integrands[3], cut_sizes

    @pytest.mark.parametrize("x1, z", [
        (-3.0, 6.0),      # band inside the grid
        (-4.0, 8.0),      # band ends on nodes 2.0 and 2.4, up to rounding
        (-12.0, 2.6),     # band across the left edge
        (5.0, 6.5),       # band across the right edge
        (0.013, 0.5),     # band narrower than one dx
        (-30.0, 10.0),    # band left of the grid: omega = 0 everywhere
        (20.0, 10.0),     # band right of the grid: omega = 1 everywhere
    ])
    @pytest.mark.parametrize("xdot1, xdot2", [(0.3, -0.7), (-0.0, 0.25), (0.25, -0.0)])
    def test_same_bytes_as_full_grid_weight(self, monkeypatch, x1, z, xdot1, xdot2):
        weight, cut_sizes = self._weight(monkeypatch, x1, z, xdot1, xdot2)
        omega = cut_function((self.X - x1) / z, 0.80, 0.75)
        full = xdot1 * omega + xdot2 * (1.0 - omega)
        assert weight.tobytes() == full.tobytes()
        # one cut_function call, on the nodes of the band alone
        assert len(cut_sizes) == 1 and cut_sizes[0] <= 0.05 * z / self.DX + 1
