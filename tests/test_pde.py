"""Solver correctness: fixed points, convergence, conservation, reversibility."""
import contextlib
import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from phi6kinks import modulation, pde, scenarios
from phi6kinks.cli import main
from phi6kinks.functionals import energy_breakdown
from phi6kinks.model import SQRT2, kink_value
from phi6kinks.modulation import ModulationError
from phi6kinks.pde import FieldState, SolverConfig, run
from phi6kinks.scenarios import (
    GaussianPerturbation,
    GridSpec,
    KinkArrangement,
    ScenarioConfig,
    build_initial_state,
    probe_scenario_config,
    run_scenario,
)
from conftest import two_kink_state, unmeasured


def evolve_in_process(state, cfg, t_end, frame_cadence):
    """The snapshots of run's stepping loop, run in this process."""
    n_steps = int(round((t_end - state.t) / cfg.dt))
    rows = np.empty((-(-n_steps // frame_cadence), 2, state.n))
    times = []

    def wait():
        raise AssertionError("a row per snapshot is never reused")

    pde._evolve(pde._Leapfrog(state, cfg), state.t, n_steps, frame_cadence, rows,
                lambda t, row: times.append(t), wait)
    return [state.copy()] + [FieldState(state.x0, state.dx, state.n, phi, pi, t)
                             for (phi, pi), t in zip(rows, times)]


def single_kink_state(dx=0.05, half=40.0):
    n = int(round(2 * half / dx)) + 1
    x = -half + dx * np.arange(n)
    return FieldState(x0=-half, dx=dx, n=n, phi=kink_value(x), pi=np.zeros(n), t=0.0)


class TestInit:
    def test_resting_pair(self):
        n = int(round(92 / 0.05)) + 1
        st = two_kink_state((-46.0, 0.05, n), -6.0, 6.0)
        assert np.all(st.pi == 0.0)
        x = st.x
        i1 = int(round((-6.0 - st.x0) / st.dx))
        i2 = int(round((6.0 - st.x0) / st.dx))
        assert st.phi[i1] == pytest.approx(-1 / SQRT2 + kink_value(-12.0), abs=1e-12)
        assert st.phi[i2] == pytest.approx(1 / SQRT2 + -kink_value(-12.0), abs=1e-12)
        assert st.phi[0] == pytest.approx(-1.0, abs=1e-6)
        assert st.phi[-1] == pytest.approx(1.0, abs=1e-6)

    def test_contracted_momentum_matches_time_difference(self):
        # exact boost derivative vs finite difference of the traveling profile
        # H((x - a - v t)/sqrt(1 - v^2)), the antikink being -H(-xi)
        def traveling_pair(x, t):
            xi1 = (x + 6.0 - v1 * t) / math.sqrt(1.0 - v1 * v1)
            xi2 = (x - 6.0 - v2 * t) / math.sqrt(1.0 - v2 * v2)
            return -kink_value(-xi1) + kink_value(xi2)

        n = int(round(92 / 0.05)) + 1
        v1, v2 = 0.3, -0.1
        st = two_kink_state((-46.0, 0.05, n), -6.0, 6.0, v1, v2)
        x = st.x
        h = 1e-5
        np.testing.assert_allclose(st.phi, traveling_pair(x, 0.0), rtol=0, atol=1e-15)
        expected = (traveling_pair(x, h) - traveling_pair(x, -h)) / (2 * h)
        np.testing.assert_allclose(st.pi, expected, atol=1e-8)

    def test_zero_perturbation_is_identity(self):
        n = int(round(92 / 0.05)) + 1
        a = two_kink_state((-46.0, 0.05, n), -6.0, 6.0)
        for channel in ("g0", "g1"):
            zero = GaussianPerturbation(0.0, channel=channel)
            b = two_kink_state((-46.0, 0.05, n), -6.0, 6.0, perturbation=zero)
            np.testing.assert_array_equal(a.phi, b.phi)
            np.testing.assert_array_equal(a.pi, b.pi)

    def test_rejects_bad_input(self):
        grid = GridSpec(-46.0, 0.05, int(round(92 / 0.05)) + 1)
        with pytest.raises(ValueError):
            ScenarioConfig(KinkArrangement(6.0, -6.0), grid=grid)
        with pytest.raises(ValueError):
            KinkArrangement(-6.0, 6.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(KinkArrangement(-6.0, 6.0), grid=GridSpec(-10.0, 0.05, 401))

    def test_rejects_superluminal(self, tmp_path, capsys):
        for v1, v2 in ((1.0, 0.0), (0.0, -1.0), (1.5, 0.0), (math.nan, 0.0)):
            with pytest.raises(ValueError, match=r"\|v\| < 1"):
                KinkArrangement(-6.0, 6.0, v1, v2)
        # a JSON config with |v| >= 1 exits 2 as it is loaded, naming the speed check
        path = tmp_path / "superluminal.json"
        path.write_text(json.dumps({"kinks": {"x1": -6.0, "x2": 6.0, "v1": 1.0}, "t_end": 1.0}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: kink speeds must satisfy |v| < 1\n"
        assert not (tmp_path / "out").exists()


class TestGridNodes:
    """FieldState.x is one read-only array per grid, shared by its states."""

    def test_one_array_per_grid(self):
        st = single_kink_state()
        assert st.x is st.x
        assert st.copy().x is st.x
        snaps = run(st, SolverConfig(dt=0.02), 0.2, unmeasured, frame_cadence=3)
        assert len(snaps) == 5
        assert all(s.x is st.x for s in snaps)
        assert single_kink_state(dx=0.04).x is not st.x

    def test_bytes_equal_the_formula(self):
        for x0, dx, n in ((-40.0, 0.05, 1601), (-46.0, 0.05, 1841), (-12.5, 0.025, 4241)):
            st = FieldState(x0=x0, dx=dx, n=n, phi=np.zeros(n), pi=np.zeros(n))
            assert st.x.tobytes() == (x0 + dx * np.arange(n)).tobytes()

    def test_read_only(self):
        x = single_kink_state().x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            x += 1.0


class TestStep:
    def test_vacuum_is_fixed_point(self):
        n = 201
        st = FieldState(x0=0, dx=0.05, n=n, phi=np.ones(n), pi=np.zeros(n), t=0.0)
        out = evolve_in_process(st, SolverConfig(dt=0.02), 0.02, 1)[-1]
        np.testing.assert_array_equal(out.phi, st.phi)
        np.testing.assert_array_equal(out.pi, st.pi)

    def test_nan_detection(self):
        st = single_kink_state()
        bad = dataclasses.replace(st, phi=st.phi.copy())
        bad.phi[100] = np.nan
        with pytest.raises(FloatingPointError):
            evolve_in_process(bad, SolverConfig(dt=0.02), 0.02, 1)

    def test_run_names_last_finite_time_of_mid_run_blowup(self):
        # an interior phi of 10 stays finite for three steps, then overflows
        st = single_kink_state()
        bad = dataclasses.replace(st, phi=st.phi.copy())
        bad.phi[800] = 10.0
        cfg = SolverConfig(dt=0.02)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = run(bad, cfg, 0.06, unmeasured, frame_cadence=1)
            assert len(finite) == 4
            assert all(np.isfinite(s.phi).all() and np.isfinite(s.pi).all() for s in finite)
            with pytest.raises(FloatingPointError, match=r"last valid time t=0\.060000"):
                list(run(bad, cfg, 1.0, unmeasured, frame_cadence=1))

    @pytest.mark.parametrize("cadence", [2, 4, 50])
    def test_snapshot_check_names_the_same_last_finite_time(self, cadence):
        # the fields are checked only at snapshots; at cadence 4 the overflow
        # lands on a snapshot step, at 2 and 50 between two of them
        st = single_kink_state()
        bad = dataclasses.replace(st, phi=st.phi.copy())
        bad.phi[800] = 10.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"last valid time t=0\.060000"):
                list(run(bad, SolverConfig(dt=0.02), 1.0, unmeasured, frame_cadence=cadence))

    def test_non_finite_initial_field_names_the_start_time(self):
        st = dataclasses.replace(single_kink_state(), t=0.7)
        bad = dataclasses.replace(st, phi=st.phi.copy())
        bad.phi[100] = np.nan
        with pytest.raises(FloatingPointError, match=r"last valid time t=0\.700000"):
            list(run(bad, SolverConfig(dt=0.02), 2.0, unmeasured, frame_cadence=50))

    def test_run_checks_the_fields_once_per_snapshot(self, monkeypatch):
        # in this process: a counter patched in here is not the stepper process's
        calls = []

        def counting(a):
            calls.append(a.shape)
            return np.isfinite(a).all()

        monkeypatch.setattr(pde, "_all_finite", counting)
        st = single_kink_state()
        snaps = evolve_in_process(st, SolverConfig(dt=0.02), 150 * 0.02, frame_cadence=50)
        assert len(snaps) == 4
        assert len(calls) == 2 * 3  # phi and pi at each of the 3 snapshots after the start

    def test_boundaries_clamped(self):
        st = single_kink_state()
        out = evolve_in_process(st, SolverConfig(dt=0.02), 0.02, 1)[-1]
        assert out.phi[0] == st.phi[0]
        assert out.phi[-1] == st.phi[-1]
        assert out.pi[0] == 0.0 and out.pi[-1] == 0.0


class TwoArgs(Exception):
    """Pickles by name, but pickle rebuilds it as TwoArgs("ab"), which fails."""

    def __init__(self, a, b):
        super().__init__(f"{a}{b}")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def assert_released():
    """Fail unless the block leaves no child unreaped and no file descriptor
    open that was not open before it, such as an end of either stream pipe."""
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert_no_child()
    assert sorted(os.listdir("/proc/self/fd")) == before


class TestStream:
    """run steps in a forked process and streams its snapshots."""

    @pytest.mark.parametrize("cadence", [1, 40])
    def test_forked_snapshots_are_the_in_process_loops(self, cadence):
        n = int(round(96 / 0.05)) + 1
        st = two_kink_state((-48.0, 0.05, n), -8.0, 8.0, 0.3, -0.3)
        st = dataclasses.replace(st, t=0.7)
        cfg = SolverConfig(dt=0.02)
        t_end = st.t + 150 * cfg.dt
        forked = list(run(st, cfg, t_end, unmeasured, frame_cadence=cadence))
        local = evolve_in_process(st, cfg, t_end, cadence)
        assert len(forked) == len(local) == -(-150 // cadence) + 1
        for got, want in zip(forked, local):
            assert got.t == want.t
            assert got.phi.tobytes() == want.phi.tobytes()
            assert got.pi.tobytes() == want.pi.tobytes()

    @staticmethod
    def rows_overwritten_under_a_slow_reader():
        """Stream 150 snapshots, more than the ring's rows, reading each 1 ms
        late, and list the ones that differ from the in-process loop's bits
        as they arrive."""
        n = int(round(96 / 0.05)) + 1
        st = two_kink_state((-48.0, 0.05, n), -8.0, 8.0, 0.3, -0.3)
        cfg = SolverConfig(dt=0.02)
        local = evolve_in_process(st, cfg, 150 * cfg.dt, 1)
        arrived, differ = 0, []
        for got in run(st, cfg, 150 * cfg.dt, unmeasured, frame_cadence=1):
            time.sleep(1e-3)
            want = local[arrived]
            if (got.t, got.phi.tobytes(), got.pi.tobytes()) != (
                    want.t, want.phi.tobytes(), want.pi.tobytes()):
                differ.append(arrived)
            arrived += 1
        assert arrived == len(local) == 151 > pde._RING
        return differ

    def test_the_ring_keeps_each_row_until_it_is_released(self):
        assert self.rows_overwritten_under_a_slow_reader() == []
        assert_no_child()

    def test_a_stepper_that_does_not_wait_overwrites_rows(self, monkeypatch):
        evolve = pde._evolve

        def planted(kernel, t0, n_steps, frame_cadence, rows, emit, wait):
            evolve(kernel, t0, n_steps, frame_cadence, rows, emit, lambda: None)

        monkeypatch.setattr(pde, "_evolve", planted)
        assert self.rows_overwritten_under_a_slow_reader() != []
        assert_no_child()

    def test_a_stepper_whose_release_pipe_ends_exits(self):
        snaps = run(single_kink_state(), SolverConfig(dt=0.02), 2.0, unmeasured, frame_cadence=1)
        # end the release pipe as the parent's death would, keeping the fd number open
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, snaps._release.fileno())
        os.close(devnull)
        seen = []
        with pytest.raises(ChildProcessError,
                           match=rf"ended after {pde._RING} of 100 snapshots with wait status 0"):
            for s in snaps:
                seen.append(s.t)
        assert len(seen) == pde._RING + 1
        assert_no_child()

    def test_a_streamed_run_cannot_be_read_again(self):
        snaps = run(single_kink_state(), SolverConfig(dt=0.02), 2.0, unmeasured, frame_cadence=1)
        assert [s.t for s in snaps][-1] == pytest.approx(2.0)
        with pytest.raises(ValueError, match="streamed once"):
            len(snaps)
        with pytest.raises(ValueError, match="streamed once"):
            next(iter(snaps))
        assert_no_child()

    def test_snapshots_before_a_blowup_arrive_in_order(self):
        st = single_kink_state()
        bad = dataclasses.replace(st, phi=st.phi.copy())
        bad.phi[800] = 10.0  # finite for three steps, then overflows
        with np.errstate(over="ignore", invalid="ignore"):
            snaps = run(bad, SolverConfig(dt=0.02), 1.0, unmeasured, frame_cadence=1)
        seen = []
        with pytest.raises(FloatingPointError, match=r"last valid time t=0\.060000"):
            for s in snaps:
                assert np.isfinite(s.phi).all() and np.isfinite(s.pi).all()
                seen.append(s.t)
        assert seen == pytest.approx([0.0, 0.02, 0.04, 0.06], abs=1e-12)
        assert seen == sorted(seen)
        with pytest.raises(FloatingPointError, match=r"last valid time t=0\.060000"):
            len(snaps)
        assert_no_child()

    @staticmethod
    def stream_ending_after_one(monkeypatch, end):
        """The snapshots of a stepper that emits one of its 10 snapshots after
        the start and then calls end(), in the stepper process."""
        evolve = pde._evolve

        def planted(kernel, t0, n_steps, frame_cadence, rows, emit, wait):
            evolve(kernel, t0, frame_cadence, frame_cadence, rows, emit, wait)
            end()

        monkeypatch.setattr(pde, "_evolve", planted)
        return run(single_kink_state(), SolverConfig(dt=0.02), 2.0, unmeasured, frame_cadence=10)

    def test_a_stepper_that_dies_is_named(self, monkeypatch):
        snaps = self.stream_ending_after_one(monkeypatch, lambda: os._exit(3))
        seen = []
        with pytest.raises(ChildProcessError, match=r"ended after 1 of 10 snapshots"):
            for s in snaps:
                seen.append(s.t)
        assert seen == pytest.approx([0.0, 0.2])
        assert_no_child()

    def test_any_stepper_exception_arrives_as_itself(self, monkeypatch):
        def fail():
            raise ValueError("planted")

        snaps = self.stream_ending_after_one(monkeypatch, fail)
        seen = []
        with pytest.raises(ValueError, match="^planted$"):
            for s in snaps:
                seen.append(s.t)
        assert seen == pytest.approx([0.0, 0.2])
        with pytest.raises(ValueError, match="^planted$"):
            len(snaps)
        assert_no_child()

    def test_an_unpicklable_stepper_exception_ends_the_stream(self, monkeypatch):
        class Local(Exception):
            """Defined in a function, so pickle cannot name its class."""

        def fail():
            raise Local("cannot be pickled")

        snaps = self.stream_ending_after_one(monkeypatch, fail)
        seen = []
        with pytest.raises(ChildProcessError, match=r"ended after 1 of 10 snapshots"):
            for s in snaps:
                seen.append(s.t)
        assert seen == pytest.approx([0.0, 0.2])
        assert_no_child()

    def test_an_exception_that_cannot_be_rebuilt_ends_the_stream(self, monkeypatch):
        def fail():
            raise TwoArgs("a", "b")

        snaps = self.stream_ending_after_one(monkeypatch, fail)
        seen = []
        with pytest.raises(ChildProcessError, match=r"ended after 1 of 10 snapshots"):
            for s in snaps:
                seen.append(s.t)
        assert seen == pytest.approx([0.0, 0.2])
        assert_no_child()

    @staticmethod
    def placed(measure):
        """measure(snapshot) together with the pid of the process that ran it,
        as a run's measure, which these tests pass no further argument."""
        return lambda snapshot: (measure(snapshot), os.getpid())

    @staticmethod
    def measure_each(snapshots, before=lambda k: None):
        """Iterate, calling before(k) and then handing the k-th snapshot to
        ``snapshots.measure``; the snapshots' times, and their measures in
        order."""
        times = []
        for k, s in enumerate(snapshots):
            before(k)
            snapshots.measure(s)
            times.append(s.t)
        return times, snapshots.results()

    @staticmethod
    def late(k):
        """Wait 0.2 s before measuring the first snapshot, by when the stepper
        has filled its ring, and 2 ms before each later one: a reader that is
        behind from the first snapshot after the start."""
        time.sleep(0.2 if k == 0 else 2e-3)

    @staticmethod
    def probe_run(measure):
        """The eps = 1e-2 probe's run: 6,908 steps at cadence 25, so its last
        snapshot falls off the cadence's grid."""
        config = probe_scenario_config(1e-2)
        assert round(config.t_end / config.solver.dt) == 6908 and config.frame_cadence == 25
        return run(build_initial_state(config), config.solver, config.t_end, measure,
                   config.frame_cadence)

    @staticmethod
    def bits(breakdown):
        return [float(v).hex() for v in dataclasses.astuple(breakdown)]

    @pytest.mark.parametrize("late", [False, True])
    def test_each_streamed_snapshot_carries_its_energy(self, late):
        # each measure, wherever it ran, is the energy of its own snapshot: a
        # stepper that measured the wrong row or t would fail
        caller, wanted = os.getpid(), []
        snaps = self.probe_run(self.placed(energy_breakdown))
        for k, s in enumerate(snaps):
            if late:
                self.late(k)
            wanted.append(self.bits(energy_breakdown(s)))
            snaps.measure(s)
            assert s.t == pytest.approx(min(k * 25, 6908) * 0.02)
        measured = snaps.results()
        assert len(measured) == 1 + 277 > pde._RING
        assert [self.bits(breakdown) for breakdown, _ in measured] == wanted
        in_stepper = [pid != caller for _, pid in measured]
        assert not in_stepper[0]  # the first snapshot is the caller's own copy
        if late:
            assert sum(in_stepper) > len(in_stepper) // 2 and in_stepper[-1]

    def test_copied_snapshots_carry_their_energy(self):
        # measured in the caller, each the energy of its own snapshot: the
        # first owns its arrays, not a row, so it is measured here even while
        # the stepper waits; so are the copies of len and indexing
        caller, snaps = os.getpid(), self.probe_run(self.placed(energy_breakdown))
        first = next(iter(snaps))
        time.sleep(0.2)  # the stepper has filled its ring and waits
        assert snaps._idle[0] == 1.0
        snaps.measure(first)
        assert snaps._handed == {} and snaps._results[0][1] == caller
        snaps.close()

        snaps = self.probe_run(self.placed(energy_breakdown))
        assert len(snaps) == 1 + 277
        for k in (0, 1, 277):
            snaps.measure(snaps[k])
        times, measured = self.measure_each(snaps)
        assert len(times) == 1 + 277
        assert snaps.results() is measured and len(measured) == 3 + 1 + 277
        assert {pid for _, pid in measured} == {caller}
        copies = [snaps[0], snaps[1], snaps[277], *snaps]
        for (breakdown, _), s in zip(measured, copies):
            assert self.bits(breakdown) == self.bits(energy_breakdown(s)), s.t

    def test_a_reader_that_falls_behind_leaves_the_measure_to_the_stepper(self):
        # 20 ms before each measure: the stepper has filled the ring and waits
        caller = os.getpid()
        times, measured = self.measure_each(
            run(single_kink_state(), SolverConfig(dt=0.02), 0.32,
                self.placed(lambda s: s.t), frame_cadence=1),
            lambda k: time.sleep(2e-2))
        assert len(times) == 17
        assert [t for t, _ in measured] == times
        assert [pid != caller for _, pid in measured] == [False] + [True] * 16

    def test_a_reader_that_keeps_up_measures_itself(self):
        # 1,000 steps per snapshot, tens of ms, while the reader only waits:
        # the stepper is never blocked on the ring, only done after the last
        caller = os.getpid()
        times, measured = self.measure_each(
            run(single_kink_state(), SolverConfig(dt=0.02), 200.0,
                self.placed(lambda s: s.t), frame_cadence=1000))
        assert len(times) == 11
        assert [t for t, _ in measured] == times
        assert [pid != caller for _, pid in measured[:-1]] == [False] * 10

    def test_a_measure_that_raises_in_the_stepper_arrives_as_itself(self):
        caller = os.getpid()

        def measure(state):
            if 0.5 < state.t < 0.7:  # the snapshot at t = 0.6, in either process
                raise ArithmeticError(f"planted at t={state.t:.1f}", os.getpid() != caller)
            return state.t

        with assert_released():
            snaps = run(single_kink_state(), SolverConfig(dt=0.02), 2.0, measure,
                        frame_cadence=10)
            seen = []
            with pytest.raises(ArithmeticError) as raised:
                for k, s in enumerate(snaps):
                    if k:
                        time.sleep(2e-2)  # the stepper waits on its ring, or is done
                    snaps.measure(s)
                    seen.append(s.t)
            assert type(raised.value) is ArithmeticError
            assert raised.value.args == ("planted at t=0.6", True)  # raised in the stepper
            assert seen[:4] == pytest.approx([0.0, 0.2, 0.4, 0.6])
            with pytest.raises(ArithmeticError, match="planted at t=0.6"):
                len(snaps)
            with pytest.raises(ArithmeticError, match="planted at t=0.6"):
                snaps.results()

    def test_a_measure_that_raises_in_the_caller_arrives_as_itself(self):
        caller = os.getpid()

        def measure(state):
            if state.t > 50.0:
                raise ArithmeticError(f"planted at t={state.t:.0f}", os.getpid() == caller)
            return state.t

        with assert_released():  # the raise stops the stepper: nothing closes it here
            # 2,000 steps per snapshot while the reader only waits: it measures
            snaps = run(single_kink_state(), SolverConfig(dt=0.02), 200.0, measure,
                        frame_cadence=2000)
            seen = []
            with pytest.raises(ArithmeticError) as raised:
                for s in snaps:
                    seen.append(s.t)
                    snaps.measure(s)
            assert type(raised.value) is ArithmeticError
            assert raised.value.args == ("planted at t=80", True)  # raised in the caller
            assert seen == [0.0, pytest.approx(40.0), pytest.approx(80.0)]
            with pytest.raises(ArithmeticError, match="planted at t=80"):
                len(snaps)

    def test_close_with_a_measure_in_the_stepper_reaps_it(self):
        with assert_released():
            snaps = run(single_kink_state(), SolverConfig(dt=0.02), 2.0,
                        lambda s: time.sleep(60.0), frame_cadence=10)
            streamed = iter(snaps)
            next(streamed)
            s = next(streamed)
            time.sleep(0.2)  # the stepper is done and waits
            assert snaps._idle[0] == 1.0  # so the measure goes to it: here it would sleep
            snaps.measure(s)
            assert snaps._handed == {1: 0}
            start = time.perf_counter()
            snaps.close()
            assert time.perf_counter() - start < 10.0
            with pytest.raises(ValueError, match="ready once the stream has ended"):
                snaps.results()

    def test_no_child_after_a_snapshot_measure_fails(self, monkeypatch):
        energy = scenarios.energy_breakdown

        def measure(state):
            if 0.0 < state.t < 3.0:  # the frame at t = 2, in either process
                raise ArithmeticError(f"planted at t={state.t:g}")
            return energy(state)

        # run_scenario reads the measure through its module global
        monkeypatch.setattr(scenarios, "energy_breakdown", measure)
        with assert_released():
            with pytest.raises(ArithmeticError, match="^planted at t=2$"):
                run_scenario(ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0),
                                            t_end=8.0, frame_cadence=100))

    def test_reading_past_close_raises(self):
        snaps = run(single_kink_state(), SolverConfig(dt=0.02), 400.0, unmeasured,
                    frame_cadence=100)
        first = next(iter(snaps))
        snaps.close()
        assert_no_child()
        assert first.t == 0.0
        with pytest.raises(ValueError, match="closed"):
            snaps[-1]

    def test_no_child_after_a_completed_scenario(self):
        with assert_released():
            report = run_scenario(ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0),
                                                 t_end=2.0, frame_cadence=25))
        assert len(report.rows) == 5

    def test_no_child_after_track_fails_on_frame_0(self, monkeypatch):
        def fail(state):
            raise ModulationError("planted failure on frame 0")

        monkeypatch.setattr(modulation, "initial_center_guess", fail)
        with assert_released():
            with pytest.raises(ModulationError, match="planted") as raised:
                run_scenario(ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0),
                                            t_end=400.0, frame_cadence=100))
            # the traceback keeps run_scenario's snapshots alive: only its close reaps
            assert raised.traceback

    def test_no_child_after_a_mid_run_blowup(self):
        st = single_kink_state()
        bad = dataclasses.replace(st, phi=st.phi.copy())
        bad.phi[800] = 10.0
        with assert_released(), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                list(run(bad, SolverConfig(dt=0.02), 1.0, unmeasured, frame_cadence=4))

    def test_no_child_after_an_unread_result_is_dropped(self):
        with assert_released():
            snaps = run(single_kink_state(), SolverConfig(dt=0.02), 400.0, unmeasured,
                        frame_cadence=100)
            del snaps


def _kdk_oracle(state, cfg, n_steps):
    """Kick-drift-kick velocity Verlet written out of place, with the operands
    and order of the stepper's arithmetic before it carried p = dt * pi."""
    dt, inv = cfg.dt, 1.0 / (state.dx * state.dx)

    def acc(phi):
        a = np.zeros_like(phi)
        a[2:-2] = ((((16.0 * phi[1:-3] - phi[:-4]) - 30.0 * phi[2:-2]) + 16.0 * phi[3:-1])
                   - phi[4:]) * (inv / 12.0)
        a[1] = (phi[0] - 2.0 * phi[1] + phi[2]) * inv
        a[-2] = (phi[-3] - 2.0 * phi[-2] + phi[-1]) * inv
        p = phi[1:-1]
        a[1:-1] -= (((6.0 * p) * p - 8.0) * p * p + 2.0) * p
        return a

    phi, pi = state.phi.copy(), state.pi.copy()
    a = acc(phi)
    for _ in range(n_steps):
        half = pi + 0.5 * dt * a
        phi = phi + dt * half
        phi[0], phi[-1] = state.phi[0], state.phi[-1]
        a = acc(phi)
        pi = half + 0.5 * dt * a
        pi[0] = pi[-1] = 0.0
    return phi, pi


def _pair_window(v, half):
    """A +-6 pair at speeds +-v on [-half, half]: the margin-checked initial
    state cut down to a short grid, to keep long runs cheap."""
    dx = 0.05
    n = int(round(96 / dx)) + 1
    st = two_kink_state((-48.0, dx, n), -6.0, 6.0, v, -v)
    lo = int(round((48.0 - half) / dx))
    hi = n - lo
    return FieldState(x0=st.x[lo], dx=dx, n=hi - lo, phi=st.phi[lo:hi], pi=st.pi[lo:hi])


ORDERS = [SolverConfig(dt=0.02)]  # the 4th-order stencil, the one the solver has


class TestLeapfrog:
    @pytest.mark.parametrize("cfg", ORDERS, ids=["order4"])
    def test_snapshots_do_not_depend_on_the_cadence(self, cfg):
        n = int(round(96 / 0.05)) + 1
        st = two_kink_state((-48.0, 0.05, n), -8.0, 8.0, 0.3, -0.3)
        st = dataclasses.replace(st, t=0.7)
        steps, cadence = 150, 40
        sparse = run(st, cfg, st.t + steps * cfg.dt, unmeasured, frame_cadence=cadence)
        dense = run(st, cfg, st.t + steps * cfg.dt, unmeasured, frame_cadence=1)
        assert len(sparse) == 5 and len(dense) == steps + 1
        for got, k in zip(sparse, (0, 40, 80, 120, 150)):
            want = dense[k]
            assert got.t == want.t
            assert got.phi.tobytes() == want.phi.tobytes()
            assert got.pi.tobytes() == want.pi.tobytes()

    @pytest.mark.parametrize("v", [0.0, 0.3], ids=["resting", "moving"])
    @pytest.mark.parametrize("cfg", ORDERS, ids=["order4"])
    def test_matches_kick_drift_kick_to_round_off(self, cfg, v):
        # the same trajectory in exact arithmetic; after 10,000 steps the four
        # runs differ by at most 2.1e-12 in phi and 7.4e-13 in pi
        st = _pair_window(v, 24.0)
        steps = 10_000
        got = run(st, cfg, steps * cfg.dt, unmeasured, frame_cadence=steps)[-1]
        phi, pi = _kdk_oracle(st, cfg, steps)
        assert np.max(np.abs(got.phi - phi)) < 1e-11
        assert np.max(np.abs(got.pi - pi)) < 2e-12

    @pytest.mark.parametrize("vacuum", [1.0, -1.0])
    @pytest.mark.parametrize("cfg", ORDERS, ids=["order4"])
    def test_vacuum_is_a_fixed_point_of_run(self, cfg, vacuum):
        n = 201
        st = FieldState(x0=0, dx=0.05, n=n, phi=np.full(n, vacuum), pi=np.zeros(n), t=0.0)
        snaps = run(st, cfg, 1000 * cfg.dt, unmeasured, frame_cadence=250)
        assert len(snaps) == 5
        for s in snaps:
            assert s.phi.tobytes() == st.phi.tobytes()
            assert s.pi.tobytes() == st.pi.tobytes()


def _increment_oracle(phi, dx, dt):
    """dt^2 (d_xx phi - U'(phi)) with the stepper's stencil sum written out,
    ((-phi[i-2] + 16 phi[i-1]) - 30 phi[i] + 16 phi[i+1]) - phi[i+2], and its
    factorised U'; 0 on the edge nodes."""
    dt2 = dt * dt
    scale = dt2 / (dx * dx)
    inc = np.zeros_like(phi)
    inc[2:-2] = ((((-phi[:-4] + 16.0 * phi[1:-3]) - 30.0 * phi[2:-2]) + 16.0 * phi[3:-1])
                 - phi[4:]) * (scale / 12.0)
    inc[1] = (phi[0] - 2.0 * phi[1] + phi[2]) * scale
    inc[-2] = (phi[-3] - 2.0 * phi[-2] + phi[-1]) * scale
    core = phi[1:-1]
    sq = core * core - 1.0
    inc[1:-1] -= ((sq * (6.0 * dt2) + 4.0 * dt2) * sq) * core
    return inc


class TestStencilBits:
    """The stepper's one-call stencil sums the same operands in the same order
    as the stencil written out: a numpy or BLAS build that reorders it fails
    here instead of moving every report."""

    @staticmethod
    def _fields():
        rng = np.random.default_rng(1818)
        n = int(round(112 / 0.05)) + 1
        pair = two_kink_state((-56.0, 0.05, n), -8.0, 8.0)
        noise = FieldState(x0=-5.0, dx=0.05, n=201, phi=rng.uniform(-1.5, 1.5, 201),
                           pi=rng.uniform(-1.0, 1.0, 201))
        return {"random": noise, "resting-pair": pair}

    @pytest.mark.parametrize("name", ["random", "resting-pair"])
    def test_increment_is_the_ordered_stencil_sum(self, name):
        state = self._fields()[name]
        cfg = SolverConfig(dt=0.02)
        kernel = pde._Leapfrog(state, cfg)
        assert kernel.inc.tobytes() == _increment_oracle(state.phi, state.dx, cfg.dt).tobytes()
        for _ in range(3):
            kernel.advance()
            want = _increment_oracle(kernel.phi, state.dx, cfg.dt)
            assert kernel.inc.tobytes() == want.tobytes()

    @pytest.mark.parametrize("vacuum", [1.0, -1.0])
    def test_vacuum_increment_is_exactly_zero(self, vacuum):
        n = 201
        state = FieldState(x0=0, dx=0.05, n=n, phi=np.full(n, vacuum), pi=np.zeros(n))
        kernel = pde._Leapfrog(state, SolverConfig(dt=0.02))
        for _ in range(3):
            assert not kernel.inc.any() and not kernel.p.any()
            assert kernel.phi.tobytes() == state.phi.tobytes()
            kernel.advance()


class TestEvolution:
    def test_static_kink_short_run(self):
        st = single_kink_state()
        snaps = run(st, SolverConfig(dt=0.02), 20.0, unmeasured, frame_cadence=10**6)
        err = np.max(np.abs(snaps[-1].phi - kink_value(st.x)))
        assert err < 1e-4

    def test_snapshot_count_and_order(self):
        st = single_kink_state()
        snaps = run(st, SolverConfig(dt=0.02), 1.0, unmeasured, frame_cadence=10)
        assert len(snaps) == 6  # initial + 5 cadence frames (last is final)
        ts = [s.t for s in snaps]
        assert ts == sorted(ts)
        assert snaps[0].t == 0.0
        assert snaps[-1].t == pytest.approx(1.0, abs=1e-12)

    def test_large_cadence_gives_two_snapshots(self):
        st = single_kink_state()
        snaps = run(st, SolverConfig(dt=0.02), 1.0, unmeasured, frame_cadence=10**9)
        assert len(snaps) == 2

    def test_snapshots_are_independent_copies(self):
        st = single_kink_state()
        snaps = run(st, SolverConfig(dt=0.02), 0.2, unmeasured, frame_cadence=5)
        snaps[0].phi[:] = 0.0
        assert snaps[1].phi[10] != 0.0

    def test_energy_conservation_moving_pair(self):
        n = int(round(96 / 0.05)) + 1
        st = two_kink_state((-48.0, 0.05, n), -8.0, 8.0, 0.05, -0.05)
        snaps = run(st, SolverConfig(dt=0.02), 40.0, unmeasured, frame_cadence=500)
        e0 = energy_breakdown(snaps[0]).e_total
        drift = max(abs(energy_breakdown(s).e_total - e0) for s in snaps)
        assert drift / e0 < 1e-5

    def test_time_reversibility(self):
        n = int(round(96 / 0.05)) + 1
        st = two_kink_state((-48.0, 0.05, n), -8.0, 8.0, 0.05, -0.05)
        cfg = SolverConfig(dt=0.02)
        cur = run(st, cfg, st.t + 1000 * cfg.dt, unmeasured, frame_cadence=1000)[-1]
        cur = dataclasses.replace(cur, pi=-cur.pi)
        cur = run(cur, cfg, cur.t + 1000 * cfg.dt, unmeasured, frame_cadence=1000)[-1]
        cur = dataclasses.replace(cur, pi=-cur.pi)
        assert np.max(np.abs(cur.phi - st.phi)) < 1e-10
        assert np.max(np.abs(cur.pi - st.pi)) < 1e-10

    def test_vacuum_mode_frequency(self):
        # linearized mass about phi=1 is U''(1)=8: a standing sin(kx) mode
        # oscillates at omega^2 = k^2 + 8
        length = 2 * math.pi
        k = 1.0
        n = 629
        dx = length / (n - 1)
        x = dx * np.arange(n)
        amp = 1e-6
        st = FieldState(x0=0.0, dx=dx, n=n, phi=1.0 + amp * np.sin(k * x),
                        pi=np.zeros(n), t=0.0)
        cfg = SolverConfig(dt=0.005)
        weights = np.sin(k * x)
        snaps = run(st, cfg, 1200 * cfg.dt, unmeasured, frame_cadence=1)
        series = np.array([float(np.sum((s.phi - 1.0) * weights) / np.sum(weights**2))
                           for s in snaps[1:]])
        sign = np.sign(series)
        crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        times = [
            (i + 1) * cfg.dt + cfg.dt * series[i] / (series[i] - series[i + 1])
            for i in crossings
        ]
        omega = 2 * math.pi / (2 * np.mean(np.diff(times)))
        assert omega == pytest.approx(math.sqrt(k * k + 8.0), rel=0.01)


class TestConvergence:
    def test_second_order_in_space_time(self):
        # a resting kink's error is the 4th-order stencil's: halving (dx, dt)
        # divides it by 16 (15.87 measured, 15.99 one level finer)
        def sup_err(dx, dt):
            n = int(round(80 / dx)) + 1
            x = -40 + dx * np.arange(n)
            s = FieldState(x0=-40, dx=dx, n=n, phi=kink_value(x),
                           pi=np.zeros(n), t=0.0)
            snaps = run(s, SolverConfig(dt=dt), 10.0, unmeasured, frame_cadence=10**9)
            return np.max(np.abs(snaps[-1].phi - kink_value(x)))

        coarse = sup_err(0.05, 0.02)
        fine = sup_err(0.025, 0.01)
        assert 14.0 <= coarse / fine <= 18.0
