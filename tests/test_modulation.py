"""Center extraction: Newton solve, orthogonality, velocities, tracking."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

from phi6kinks import modulation
from phi6kinks.functionals import pair_terms, simpson_weights
from phi6kinks.model import SQRT2, eval_potential_derivative, kink_value
from phi6kinks.modulation import (
    _DET_FLOOR,
    ModulationError,
    _residual_and_matrix,
    _solve,
    decompose,
    initial_center_guess,
    track,
)
from phi6kinks.pde import FieldState, SolverConfig, run
from conftest import two_kink_state, unmeasured
from oracles import (
    antikink_derivative,
    antikink_value,
    g_t,
    kink_derivative,
    orthogonality_ok,
)


def pair_state(x1, x2, dx=0.05, pi=None, extra=None, half=None):
    half = half or (max(abs(x1), abs(x2)) + 45.0)
    n = int(round(2 * half / dx)) + 1
    if n % 2 == 0:
        n += 1
    x = -half + dx * np.arange(n)
    phi = antikink_value(x - x1) + kink_value(x - x2)
    if extra is not None:
        phi = phi + extra(x)
    pi_arr = pi(x) if pi is not None else np.zeros(n)
    return FieldState(x0=-half, dx=dx, n=n, phi=phi, pi=pi_arr, t=0.0)


class TestDecompose:
    def test_exact_superposition_recovers_centers(self):
        st = pair_state(-5.1, 5.3)
        frame = decompose(st, (-5.0, 5.0))
        assert frame.x1 == pytest.approx(-5.1, abs=1e-10)
        assert frame.x2 == pytest.approx(5.3, abs=1e-10)
        assert math.sqrt(pair_terms(frame).g_h1_sq) < 1e-10
        assert frame.z == frame.x2 - frame.x1
        assert orthogonality_ok(frame)

    def test_reconstruction_identity(self):
        bump = lambda x: 0.02 * np.exp(-((x - 1.0) ** 2))
        st = pair_state(-5.0, 5.0, extra=bump)
        frame = decompose(st, (-5.0, 5.0))
        x = st.x
        rebuilt = antikink_value(x - frame.x1) + kink_value(x - frame.x2) + frame.g
        assert np.max(np.abs(rebuilt - st.phi)) < 1e-12

    def test_perturbation_shifts_centers_mildly(self):
        bump = lambda x: 0.01 * np.exp(-((x - 5.3) ** 2))
        st = pair_state(-5.1, 5.3, extra=bump)
        frame = decompose(st, (-5.0, 5.0))
        assert abs(frame.x2 - 5.3) <= 0.1
        assert abs(frame.x1 + 5.1) <= 0.1
        assert orthogonality_ok(frame)
        assert math.sqrt(pair_terms(frame).g_h1_sq) < 0.02

    def test_displaced_guesses_agree(self):
        bump = lambda x: 0.01 * np.exp(-(x**2))
        st = pair_state(-6.0, 6.0, extra=bump)
        a = decompose(st, (-6.5, 5.5))
        b = decompose(st, (-5.5, 6.5))
        assert a.x1 == pytest.approx(b.x1, abs=1e-9)
        assert a.x2 == pytest.approx(b.x2, abs=1e-9)

    def test_newton_matches_grid_scan_oracle(self):
        bump = lambda x: 0.01 * np.exp(-((x + 6.0) ** 2))
        st = pair_state(-6.0, 6.0, extra=bump)
        frame = decompose(st, (-6.0, 6.0))
        w = simpson_weights(st.n, st.dx)
        x = st.x

        def res_norm(c1, c2):
            g = st.phi - antikink_value(x - c1) - kink_value(x - c2)
            r1 = w @ (g * antikink_derivative(x - c1))
            r2 = w @ (g * kink_derivative(x - c2))
            return math.hypot(r1, r2)

        grid = np.arange(-0.3, 0.3001, 0.05)
        values = [(res_norm(-6.0 + a, 6.0 + b), a, b) for a in grid for b in grid]
        _, best_a, best_b = min(values)
        assert abs((-6.0 + best_a) - frame.x1) <= 0.051
        assert abs((6.0 + best_b) - frame.x2) <= 0.051

    def test_matrix_positive(self):
        st = pair_state(-5.0, 5.0)
        frame = decompose(st, (-5.0, 5.0))
        assert frame.matrix_det > 0
        assert frame.matrix_det == pytest.approx((1 / (2 * SQRT2)) ** 2, rel=1e-3)

    def test_rejects_close_guess(self):
        st = pair_state(-5.0, 5.0)
        with pytest.raises(ModulationError):
            decompose(st, (4.0, 5.0))

    def test_solve_at_residual_floor_rejects_at_most_one_step(self, monkeypatch):
        # once the residual is at round-off, the next full step does not lower
        # it; the solve stops there instead of trying shorter steps
        calls = []

        def counted(*args):
            calls.append(args)
            return _residual_and_matrix(*args)

        monkeypatch.setattr(modulation, "_residual_and_matrix", counted)
        st = pair_state(-8.0, 8.0, extra=lambda x: 1e-7 * np.exp(-((x - 8) ** 2)))
        frame = decompose(st, (-7.9, 7.9))
        assert orthogonality_ok(frame)
        assert len(calls) <= frame.newton_iters + 2

    @pytest.mark.parametrize("x1, x2", [(-5.0, 5.0), (-5.1, 5.3), (-1.4, 1.6)])
    def test_derived_modes_match_profile_derivatives(self, x1, x2):
        # the residual evaluation derives each mode and its derivative from
        # one profile value per kink: g and the modes must not move a single
        # bit, and each curvature is the mode times its own square's factor
        bump = lambda x: 0.01 * np.exp(-((x - 1.0) ** 2))
        st = pair_state(x1, x2, extra=bump)
        w = simpson_weights(st.n, st.dx)
        (r1, r2), (a11, a12, a22), (m11, gg), pair = _residual_and_matrix(st, w, x1, x2)
        g, m1, m2 = pair.g, pair.m1, pair.m2

        x = st.x
        g_ref = st.phi - antikink_value(x - x1) - kink_value(x - x2)
        m1_ref = antikink_derivative(x - x1)
        m2_ref = kink_derivative(x - x2)
        assert np.array_equal(g, g_ref)
        assert np.array_equal(m1, m1_ref)
        assert np.array_equal(m2, m2_ref)
        # K'' = +-sqrt2 K' (3 (1 - H^2) - 2), with H^2 the square the mode used
        h1, h2 = kink_value(x1 - x), kink_value(x - x2)
        dm1_ref = ((3.0 * (1.0 - h1 * h1) - 2.0) * m1_ref) * -SQRT2
        dm2_ref = ((3.0 * (1.0 - h2 * h2) - 2.0) * m2_ref) * SQRT2
        assert pair.dm1.tobytes() == dm1_ref.tobytes()
        assert pair.dm2.tobytes() == dm2_ref.tobytes()
        # ... which is the model's U'(K1) = U'(-h1) and U'(K2) = U'(h2), byte
        # for byte, so F's interaction term has one U' arithmetic
        assert pair.dm1.tobytes() == eval_potential_derivative(1, -h1).tobytes()
        assert pair.dm2.tobytes() == eval_potential_derivative(1, h2).tobytes()
        # At the rounded profile value K'' is within 4 ULP of max |U'| of a
        # 30-digit U'(h).  At the node, the profile's own rounding puts it
        # 10-18 ULP off H''
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            def du(h):  # U'(h) = 2 h (1 - h^2)(1 - 3 h^2)
                h = mp.mpf(float(h))
                return float(2 * h * (1 - h * h) * (1 - 3 * h * h))

            def h_second(u):  # H''(u) = U'(H(u)), H = (1 + e^{-2 sqrt2 u})^{-1/2}
                return du(1 / mp.sqrt(1 + mp.exp(-2 * mp.sqrt(2) * mp.mpf(float(u)))))

            cases = [(pair.dm1, eval_potential_derivative(1, antikink_value(x - x1)),
                      [-du(v) for v in h1], [-h_second(u) for u in x1 - x]),
                     (pair.dm2, eval_potential_derivative(1, kink_value(x - x2)),
                      [du(v) for v in h2], [h_second(u) for u in x - x2])]
        for dm, model_du, at_h, at_node in cases:
            ulp = math.ulp(float(np.max(np.abs(model_du))))
            assert float(np.max(np.abs(dm - model_du))) <= 16 * ulp
            assert float(np.max(np.abs(dm - np.array(at_h)))) <= 4 * ulp
            assert float(np.max(np.abs(dm - np.array(at_node)))) <= 24 * ulp
        # each integral is a Python float within a few ULP of its own sum, on
        # the scale of the integral of the product's magnitude
        values = (a11, a12, a22, r1, r2, m11, gg)
        assert all(type(v) is float for v in values)

        def integral(a, b):  # w @ (a * b) and its scale, the integral of |a * b|
            return float(w @ (a * b)), float(w @ np.abs(a * b))

        def near(value, plus, minus=None, ulps=4):  # value ~ int(plus) - int(minus)
            ref, scale = integral(*plus)
            if minus is not None:
                term, term_scale = integral(*minus)
                ref, scale = ref - term, scale + term_scale
            return ulps_apart(value, ref, scale) <= ulps

        assert near(m11, (m1_ref, m1_ref)) and near(gg, (g_ref, g_ref))
        assert near(a11, (m1_ref, m1_ref), (g_ref, dm1_ref))
        assert near(a12, (m1_ref, m2_ref))
        assert near(a22, (m2_ref, m2_ref), (g_ref, dm2_ref))
        assert near(r1, (g_ref, m1_ref)) and near(r2, (g_ref, m2_ref))


def ulps_apart(a, b, scale):
    """|a - b| in units in the last place of ``scale``."""
    return abs(a - b) / math.ulp(scale)


class TestClosedForm2x2:
    """The center solve's 2x2 algebra in Python floats, against numpy.linalg."""

    def test_det_and_solution_match_linalg(self):
        rng = np.random.default_rng(1515)
        for _ in range(2000):
            # symmetric, positive definite, condition number below 3
            a11, a22 = rng.uniform(0.2, 0.5, 2)
            a12 = float(rng.uniform(-0.25, 0.25) * math.sqrt(a11 * a22))
            b1, b2 = rng.uniform(-1.0, 1.0, 2)
            mat = np.array([[a11, a12], [a12, a22]])
            det, u1, u2 = _solve((float(a11), a12, float(a22)), float(b1), float(b2))
            ref_det = float(np.linalg.det(mat))
            ref = np.linalg.solve(mat, np.array([b1, b2]))
            assert type(det) is float and type(u1) is float and type(u2) is float
            assert ulps_apart(det, ref_det, abs(ref_det)) <= 6
            # normwise: a component near zero carries the cancellation of both
            scale = float(np.max(np.abs(ref)))
            assert ulps_apart(u1, ref[0], scale) <= 6
            assert ulps_apart(u2, ref[1], scale) <= 6

    def test_zero_det_gives_nan_solution(self):
        det, u1, u2 = _solve((1.0, 1.0, 1.0), 1.0, 2.0)
        assert det == 0.0 and math.isnan(u1) and math.isnan(u2)

    def test_decompose_does_not_call_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        v = 0.1
        pi = lambda x: -v * kink_derivative(x - 5.3) + 1e-3 * np.exp(-(x**2))
        st = pair_state(-5.1, 5.3, pi=pi, extra=lambda x: 0.01 * np.exp(-(x**2)))
        frame = decompose(st, (-5.0, 5.0))
        assert frame.newton_iters >= 1 and orthogonality_ok(frame)

    def test_velocities_and_det_match_linalg_on_a_frame(self):
        v = 0.1
        pi = lambda x: -v * kink_derivative(x - 5.3) + 1e-3 * np.exp(-(x**2))
        st = pair_state(-5.1, 5.3, pi=pi, extra=lambda x: 0.01 * np.exp(-(x**2)))
        frame = decompose(st, (-5.0, 5.0))
        w = simpson_weights(st.n, st.dx)
        _, (a11, a12, a22), _, pair = _residual_and_matrix(st, w, frame.x1, frame.x2)
        mat = np.array([[a11, a12], [a12, a22]])
        rhs = np.array([-float(w @ (st.pi * pair.m1)), -float(w @ (st.pi * pair.m2))])
        ref = np.linalg.solve(mat, rhs)
        scale = float(np.max(np.abs(ref)))
        assert ulps_apart(frame.xdot1, ref[0], scale) <= 4
        assert ulps_apart(frame.xdot2, ref[1], scale) <= 4
        ref_det = float(np.linalg.det(mat))
        assert ulps_apart(frame.matrix_det, ref_det, ref_det) <= 4


class TestPlantedSolveValues:
    """A NaN or a small determinant handed to the solve's algebra fails it,
    with the messages the numpy.linalg version raised."""

    @staticmethod
    def _planted(monkeypatch, res=None, jac=None):
        def planted(*args):
            r, j, m11, pair = _residual_and_matrix(*args)
            return (r if res is None else res), (j if jac is None else jac), m11, pair

        monkeypatch.setattr(modulation, "_residual_and_matrix", planted)
        return pair_state(-6.0, 6.0, extra=lambda x: 0.01 * np.exp(-(x**2)))

    @pytest.mark.parametrize("res", [(math.nan, 0.0), (0.0, math.nan), (math.nan, 1e-3)])
    def test_nan_residual_fails(self, monkeypatch, res):
        # Python's max(0.0, nan) is 0.0: the norm must not drop the NaN
        st = self._planted(monkeypatch, res=res)
        with pytest.raises(ModulationError, match="residual nan"):
            decompose(st, (-6.0, 6.0))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("res", [(0.0, 0.0), None])
    def test_nan_jacobian_entry_fails(self, monkeypatch, slot, res):
        # res (0, 0) skips the Newton loop and reaches the determinant check;
        # the real residual takes a NaN step first
        jac = [0.35, 1e-4, 0.35]
        jac[slot] = math.nan
        st = self._planted(monkeypatch, res=res, jac=tuple(jac))
        with pytest.raises(ModulationError):
            decompose(st, (-6.0, 6.0))

    @pytest.mark.parametrize("jac", [(1e-5, 0.0, 1e-5), (1e-4, 0.0, -1e-5)])
    def test_small_det_in_newton_loop(self, monkeypatch, jac):
        st = self._planted(monkeypatch, res=(1e-3, 1e-3), jac=jac)
        det = float(np.linalg.det(np.array([[jac[0], jac[1]], [jac[1], jac[2]]])))
        assert abs(det) < _DET_FLOOR
        with pytest.raises(ModulationError) as err:
            decompose(st, (-6.0, 6.0))
        assert str(err.value) == f"modulation matrix near-singular: det={det:.2e}"

    @pytest.mark.parametrize("jac", [(1e-5, 0.0, 1e-5), (0.35, 0.0, -0.35)])
    def test_small_det_at_the_velocity_solve(self, monkeypatch, jac):
        st = self._planted(monkeypatch, res=(0.0, 0.0), jac=jac)
        det = float(np.linalg.det(np.array([[jac[0], jac[1]], [jac[1], jac[2]]])))
        assert det < _DET_FLOOR
        with pytest.raises(ModulationError) as err:
            decompose(st, (-6.0, 6.0))
        assert str(err.value) == f"modulation matrix not positive: det={det:.2e}"


class TestNonFiniteField:
    """A field holding a NaN cannot yield a valid frame."""

    def test_nan_in_phi_raises(self):
        st = pair_state(-6.0, 6.0)
        st.phi[1000] = np.nan
        with pytest.raises(ModulationError, match="residual nan"):
            decompose(st, (-6.0, 6.0))

    def test_nan_in_pi_raises(self):
        st = pair_state(-6.0, 6.0)
        st.pi[1000] = np.nan
        with pytest.raises(ModulationError, match="velocities not finite"):
            decompose(st, (-6.0, 6.0))

    def test_track_marks_nan_frame_invalid(self):
        good = pair_state(-6.0, 6.0)
        bad = pair_state(-6.0, 6.0)
        bad.phi[1000] = np.nan
        frames = track([good, bad, good], lambda frame: None)
        assert [f.valid for f in frames] == [True, False, True]
        assert not frames[1].solved and math.isnan(frames[1].matrix_det)


class TestFrameStorage:
    """A frame carries its solve's pair and points at its snapshot, which
    rebuilds the pair; track's frames do so only while its hook runs, and
    keep only the first snapshot.  A frame pickles its scalars alone."""

    def test_no_full_grid_array_on_a_frame(self, arrays_held):
        st = pair_state(-6.0, 6.0, extra=lambda x: 0.01 * np.exp(-(x**2)))
        frames = track([st, pair_state(-0.9, 0.9, half=51.0), st], lambda frame: None)
        assert [f.valid for f in frames] == [True, False, True]
        for frame in frames:
            assert arrays_held(frame) == []

    def test_hook_gets_the_solve_arrays_and_frames_drop_them(self, monkeypatch, arrays_held):
        solves = []

        def counted(*args):
            solves.append(args[0].t)
            return decompose(*args)

        monkeypatch.setattr(modulation, "decompose", counted)
        snaps = [pair_state(-6.0, 6.0, extra=lambda x: 0.01 * np.exp(-(x**2))),
                 pair_state(-0.9, 0.9, half=51.0),
                 pair_state(-5.9, 6.1)]
        snaps = [dataclasses.replace(s, t=float(i)) for i, s in enumerate(snaps)]
        seen = []

        def on_valid(frame):
            assert solves[-1] == frame.t  # called before the next snapshot is solved
            seen.append(frame)
            pair = frame.fields()
            assert pair is frame.pair and len(arrays_held(frame)) == 3  # h1, h2, block
            # the frame points at its snapshot while the hook runs
            rebuilt = modulation._pair_fields(frame.state, frame.x1, frame.x2)
            for f in dataclasses.fields(rebuilt):
                assert getattr(pair, f.name).tobytes() == getattr(rebuilt, f.name).tobytes()

        frames = track(snaps, on_valid)
        assert [f.valid for f in frames] == [True, False, True]
        valid = [f for f in frames if f.valid]
        assert len(seen) == len(valid) and all(a is b for a, b in zip(seen, valid))
        assert frames[0].state is snaps[0] and [f.state for f in frames[1:]] == [None, None]
        for frame in frames:
            assert frame.pair is None and arrays_held(frame) == []

    def test_a_frame_pickles_its_scalars_alone(self):
        v = 0.1
        pi = lambda x: -v * kink_derivative(x - 5.3) + 1e-3 * np.exp(-(x**2))
        st = pair_state(-5.1, 5.3, pi=pi, extra=lambda x: 0.01 * np.exp(-(x**2)))
        frame = dataclasses.replace(decompose(st, (-5.0, 5.0)), t=1.5, valid=False)
        assert frame.state is st and frame.pair is not None and st.n > 2000
        data = pickle.dumps(frame)
        assert len(data) < 1024
        got = pickle.loads(data)
        assert got.state is None and got.pair is None
        names = ("t", "x1", "x2", "z", "newton_iters", "matrix_det", "xdot1", "xdot2", "valid")
        assert [repr(getattr(got, name)) for name in names] == [
            repr(getattr(frame, name)) for name in names]
        assert frame.xdot1 != 0.0 and frame.xdot2 != 0.0 and frame.newton_iters > 0

    def test_rebuilt_remainder_matches_its_definition(self):
        v = 0.1
        pi = lambda x: -v * kink_derivative(x - 5.3) + 1e-3 * np.exp(-(x**2))
        st = pair_state(-5.1, 5.3, pi=pi, extra=lambda x: 0.01 * np.exp(-(x**2)))
        frame = decompose(st, (-5.0, 5.0))
        assert frame.state is st
        x = st.x
        g_ref = st.phi - antikink_value(x - frame.x1) - kink_value(x - frame.x2)
        g_t_ref = (st.pi + frame.xdot1 * antikink_derivative(x - frame.x1)
                   + frame.xdot2 * kink_derivative(x - frame.x2))
        assert np.array_equal(frame.g, g_ref)
        assert np.array_equal(g_t(frame), g_t_ref)
        assert np.array_equal(frame.x, x) and frame.dx == st.dx

    def test_failed_solve_reads_zero_remainder(self):
        st = pair_state(-6.0, 6.0)
        frame = modulation._invalid_frame(st, (-6.0, 6.0))
        assert not frame.solved
        assert np.array_equal(frame.g, np.zeros(st.n))
        assert np.array_equal(g_t(frame), np.zeros(st.n))


class TestVelocities:
    def test_translation_field(self):
        v = 0.1
        pi = lambda x: -v * (antikink_derivative(x + 5.1) + kink_derivative(x - 5.3))
        st = pair_state(-5.1, 5.3, pi=pi)
        frame = decompose(st, (-5.1, 5.3))
        assert frame.xdot1 == pytest.approx(v, abs=1e-6)
        assert frame.xdot2 == pytest.approx(v, abs=1e-6)

    def test_zero_momentum(self):
        st = pair_state(-5.0, 5.0)
        frame = decompose(st, (-5.0, 5.0))
        assert frame.xdot1 == 0.0
        assert frame.xdot2 == 0.0


class TestTrack:
    def test_static_pair_centers_constant(self):
        # z=16 keeps the genuine repulsion below 2e-7 over this window, so
        # the extracted centers are constant to solver noise
        n = int(round(112 / 0.05)) + 1
        st = two_kink_state((-56.0, 0.05, n), -8.0, 8.0)
        snaps = run(st, SolverConfig(dt=0.02), 10.0, unmeasured, frame_cadence=5)
        assert len(snaps) == 101
        orthogonal = []
        frames = track(snaps, lambda frame: orthogonal.append(orthogonality_ok(frame)))
        assert len(frames) == len(snaps)
        x1s = [f.x1 for f in frames]
        x2s = [f.x2 for f in frames]
        assert max(x1s) - min(x1s) < 1e-6
        assert max(x2s) - min(x2s) < 1e-6
        assert all(f.valid for f in frames)
        assert len(orthogonal) == len(frames) and all(orthogonal)

    def test_static_pair_acceleration_matches_repulsion_law(self):
        # the tracked separation of a resting z=12 pair grows like
        # (1/2) 16 sqrt2 e^{-sqrt2 z} t^2
        n = int(round(96 / 0.05)) + 1
        st = two_kink_state((-48.0, 0.05, n), -6.0, 6.0)
        snaps = run(st, SolverConfig(dt=0.02), 20.0, unmeasured, frame_cadence=250)
        frames = track(snaps, lambda frame: None)
        zddot = 16 * SQRT2 * math.exp(-12 * SQRT2)
        for f in frames[1:]:
            expected = 12.0 + 0.5 * zddot * f.t**2
            assert f.z == pytest.approx(expected, abs=2e-3 * abs(f.z - 12.0) + 1e-9)

    def test_heuristic_guess_close_to_truth(self):
        st = pair_state(-7.3, 4.9)
        g1, g2 = initial_center_guess(st)
        assert abs(g1 + 7.3) < 0.5
        assert abs(g2 - 4.9) < 0.5

    def test_collision_regime_marked_invalid(self):
        wide = pair_state(-3.0, 3.0, half=50.0)
        tight = pair_state(-0.9, 0.9, half=50.0)
        frames = track([wide, tight], lambda frame: None)
        assert frames[0].valid
        assert not frames[1].valid

    def test_first_frame_failure_is_fatal(self):
        n = 1001
        st = FieldState(x0=-25, dx=0.05, n=n, phi=np.ones(n), pi=np.zeros(n), t=0.0)
        with pytest.raises(ModulationError):
            track([st], lambda frame: None)

    def test_traveling_pair_center_drift(self):
        # co-moving pair at v=0.2: extracted centers advance by v * t
        dx = 0.05
        x0, x_max = -55.0, 65.0
        n = int(round((x_max - x0) / dx)) + 1
        st = two_kink_state((x0, dx, n), -10.0, 10.0, 0.2, 0.2)
        snaps = run(st, SolverConfig(dt=0.02), 50.0, unmeasured, frame_cadence=500)
        frames = track(snaps, lambda frame: None)
        shift1 = frames[-1].x1 - frames[0].x1
        shift2 = frames[-1].x2 - frames[0].x2
        assert shift1 == pytest.approx(10.0, abs=1e-2)
        assert shift2 == pytest.approx(10.0, abs=1e-2)
        assert frames[-1].xdot2 == pytest.approx(0.2, abs=1e-3)
