"""Time evolution of d_tt phi = d_xx phi - U'(phi) on a finite grid.

Stormer leapfrog in time, which is velocity Verlet (kick-drift-kick) in exact
arithmetic, carried as phi and p = dt * pi at half steps; centered
4th-order Laplacian in space.  Boundary nodes are clamped to the vacuum values
of the initial data.  A run's snapshots stream from a forked stepper through
a ring of _RING shared rows, so its memory does not grow with its length.
The run's measure of a snapshot runs in the stepper when the stepper would
otherwise wait on the caller, and in the caller otherwise.
"""
from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import signal
import weakref
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

_CFL_LIMIT = 0.7
_RING = 8  # shared snapshot rows per run, reused once the parent releases them
# 12 dx^2 times the 4th-order Laplacian's weights; symmetric, so np.convolve
# and np.correlate read it alike
_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


@functools.lru_cache(maxsize=32)
def grid_nodes(x0: float, dx: float, n: int) -> np.ndarray:
    """x0 + dx * arange(n), built once per grid and shared, so read-only."""
    x = x0 + dx * np.arange(n)
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class FieldState:
    """Discretized (phi, d_t phi) on a uniform grid at one instant."""

    x0: float
    dx: float
    n: int
    phi: np.ndarray
    pi: np.ndarray
    t: float = 0.0

    @property
    def x(self) -> np.ndarray:
        """The grid nodes, one read-only array shared by every state on this grid."""
        return grid_nodes(float(self.x0), float(self.dx), self.n)

    def copy(self) -> "FieldState":
        return replace(self, phi=self.phi.copy(), pi=self.pi.copy())


@dataclass(frozen=True)
class SolverConfig:
    """Time step of the leapfrog; the Laplacian is always the 4th-order stencil."""

    dt: float = 0.02

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    def validate_cfl(self, dx: float) -> None:
        if self.dt / dx > _CFL_LIMIT:
            raise ValueError(f"CFL violation: dt/dx = {self.dt / dx:.3f} exceeds {_CFL_LIMIT}")


class _Leapfrog:
    """Stormer leapfrog kernel that owns its field, half-step momentum and buffers.

    Built once per run: the stencil constants and the slice views are fixed
    here.  Between snapshots it carries phi_k and p = dt * pi_{k+1/2}, and a
    step is phi += p, inc = dt^2 (d_xx phi - U'(phi)), p += inc: the
    trajectory of kick-drift-kick velocity Verlet, in three updates.  The
    edge entries of p and inc stay 0, so the clamped edges of phi never move.
    """

    def __init__(self, state: FieldState, cfg: SolverConfig):
        dt2 = cfg.dt * cfg.dt
        self.dt = cfg.dt
        self.scale = dt2 / (state.dx * state.dx)
        self.scale12 = self.scale / 12.0
        self.du_coeffs = (6.0 * dt2, 4.0 * dt2)
        self.phi = phi = np.array(state.phi, dtype=float)
        self.inc = inc = np.zeros(state.n)
        self.lap = inc[2:-2]
        self.inner = (phi[1:-1], np.empty(state.n - 2), np.empty(state.n - 2), inc[1:-1])
        self._update_increment()
        self.p = p = np.multiply(state.pi, self.dt, dtype=float)
        p += 0.5 * inc
        p[0] = p[-1] = 0.0

    def _update_increment(self) -> None:
        """inc = dt^2 (d_xx phi - U'(phi)) on the interior nodes.

        The stencil sum is ((-phi[i-2] + 16 phi[i-1]) - 30 phi[i] + 16 phi[i+1])
        - phi[i+2], which np.convolve with _STENCIL forms in that order, scaled
        by dt^2/(12 dx^2) (2nd order next to the edges).  dt^2 U'(phi) is
        2 dt^2 phi (phi^2 - 1)(3 phi^2 - 1), formed as
        (6 dt^2 (phi^2 - 1) + 4 dt^2)(phi^2 - 1) phi, which is exactly 0 at
        phi = +-1.
        """
        phi, inc = self.phi, self.inc
        np.multiply(np.convolve(phi, _STENCIL, "valid"), self.scale12, out=self.lap)
        at = phi.item  # a Python float: the same arithmetic, at half the call cost
        inc[1] = (at(0) - 2.0 * at(1) + at(2)) * self.scale
        inc[-2] = (at(-3) - 2.0 * at(-2) + at(-1)) * self.scale
        core, sq, du, inc_in = self.inner
        c6, c4 = self.du_coeffs
        np.multiply(core, core, out=sq)
        sq -= 1.0
        np.multiply(sq, c6, out=du)
        du += c4
        du *= sq
        du *= core
        inc_in -= du

    def advance(self) -> None:
        """One leapfrog step; it does not check the result."""
        self.phi += self.p
        self._update_increment()
        self.p += self.inc

    def pi(self, out: np.ndarray) -> None:
        """pi at the current phi, (p - inc/2)/dt, into ``out``; a readout that
        never feeds back."""
        np.multiply(self.inc, -0.5, out=out)
        out += self.p
        out /= self.dt

    def restart(self, phi: np.ndarray, p: np.ndarray) -> None:
        np.copyto(self.phi, phi)
        np.copyto(self.p, p)

    def finite(self) -> bool:
        return _all_finite(self.phi) and _all_finite(self.p)

    def check(self, t: float) -> None:
        """Raise unless the fields are finite, naming t as the last valid time."""
        if not self.finite():
            raise FloatingPointError(f"non-finite field detected; last valid time t={t:.6f}")


def _all_finite(a: np.ndarray) -> bool:
    """Exactly np.isfinite(a).all(); the one-pass a @ a decides unless it
    overflows or a holds a non-finite value."""
    return math.isfinite(a @ a) or bool(np.isfinite(a).all())


def _evolve(kernel: _Leapfrog, t0: float, n_steps: int, frame_cadence: int,
            rows: np.ndarray, emit, wait) -> None:
    """The stepping loop: snapshot i after the start goes into
    row = rows[i % len(rows)] as (phi, pi), and then emit(t, row) announces
    it.  Before it reuses a row, for i >= len(rows), wait() returns once
    snapshot i - len(rows) is released.

    The fields phi and p are checked once per snapshot; a non-finite field
    raises FloatingPointError naming the last time at which both were
    finite, as a check after every step would.
    """
    last_phi, last_p = kernel.phi.copy(), kernel.p.copy()
    dt = kernel.dt
    for k in range(1, n_steps + 1):
        kernel.advance()
        if k % frame_cadence == 0 or k == n_steps:
            if not kernel.finite():
                # x += y keeps a value non-finite, so the first bad step follows the
                # previous snapshot: replay from its phi and p, checking each step
                kernel.restart(last_phi, last_p)
                for j in range((k - 1) // frame_cadence * frame_cadence, k):
                    kernel.advance()
                    kernel.check(t0 + j * dt)
            i = (k - 1) // frame_cadence
            if i >= len(rows):
                wait()
            last_phi, pi = row = rows[i % len(rows)]
            np.copyto(last_phi, kernel.phi)
            kernel.pi(out=pi)
            np.copyto(last_p, kernel.p)
            emit(t0 + k * dt, row)


def _stop(pid: int, pipe, release) -> int | None:
    """Kill the stepper process unless it has exited, reap it and close both
    of its pipes; its wait status, or None if it was reaped elsewhere."""
    try:
        done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    except ChildProcessError:
        status = None
    pipe.close()
    release.close()
    return status


class Snapshots(Sequence):
    """The snapshots of one ``run``, FieldStates that a stepper process fills,
    and the run's measures of them, taken where ``measure`` places them.

    Iterating yields each snapshot as soon as it arrives.  The first owns
    its arrays; each later one is a view of its row in the ring, valid only
    until the next item is requested, from when the stepper may reuse the
    row, and iteration keeps no view, so a second one raises ValueError.
    ``len`` and indexing wait for all the snapshots, copying each row out as
    it lands and releasing it at once; iteration after them yields those
    copies.  Any exception that stops the stepper is raised as itself where
    the stream reaches it; a stream that ends early raises ChildProcessError.
    Past the last snapshot the stepper answers the measures handed to it and
    is reaped; it is also reaped on ``close()``, or when the sequence is
    collected.
    """

    def __init__(self, first: FieldState, measure, rows: np.ndarray, idle: np.ndarray,
                 count: int, pid: int, fd: int, release: int):
        self._first = first
        self._measure = measure
        self._rows = rows
        self._idle = idle  # the stepper's flag: 1 while it can take up a measure
        self._count = count  # snapshots after the start
        self._arrived = 0
        self._copies: list[FieldState] = []
        self._view: FieldState | None = None  # the streamed snapshot being read
        self._results: list = []
        self._handed: dict[int, int] = {}  # k: result slot, of measures the stepper owes
        self._failure: Exception | None = None
        self._pipe = os.fdopen(fd, "rb")
        self._release = os.fdopen(release, "wb", buffering=0)
        self._reap = weakref.finalize(self, _stop, pid, self._pipe, self._release)

    def _take(self):
        """The stream's next item: a snapshot's t, or the (k, result) of a
        measure handed to the stepper, whose result is kept; the stepper's
        exception, or ChildProcessError for a stream that ended, is raised."""
        try:
            item = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):
            item = None  # the stream ended early or mid-object: the stepper died
        if item is None or isinstance(item, BaseException):
            status = self._reap()
            self._failure = item if item is not None else ChildProcessError(
                f"the stepper process ended after {self._arrived} of {self._count} "
                f"snapshots with wait status {status}")
            raise self._failure
        if isinstance(item, tuple):
            k, result = item
            self._results[self._handed.pop(k)] = result
        return item

    def _receive(self) -> FieldState | None:
        """Wait for the next snapshot, a view of its row; None once all have
        arrived, when the stepper, sent None down the release pipe, answers
        the measures still handed to it, exits and is reaped."""
        k = self._arrived
        if k == self._count:
            if self._reap.alive:
                self._send(None)  # not the pipe's end: a stepper forked since holds it open too
                while self._handed:
                    self._take()
                self._pipe.read()  # to the end of the stream: the stepper has exited
                self._reap()
            return None
        while isinstance(t := self._take(), tuple):
            pass
        self._arrived = k + 1
        phi, pi = self._rows[k % len(self._rows)]
        return FieldState(self._first.x0, self._first.dx, self._first.n, phi, pi, t)

    def _release_rows(self) -> None:
        """Let the stepper reuse the rows of the snapshots that have arrived,
        half a ring at a time: a write that wakes the waiting stepper costs
        a few microseconds, so it wakes once per _RING // 2 snapshots."""
        if self._arrived % (_RING // 2) == 0 and self._reap.alive:
            self._send(_RING // 2)

    def _send(self, item) -> None:
        """Write an item down the release pipe, unless the stepper has exited:
        then any failure of it is raised next."""
        with suppress(BrokenPipeError):
            self._release.write(pickle.dumps(item))

    def _unstreamed(self) -> None:
        """Raise the stepper's failure, or ValueError once an iteration has
        streamed a view, which it did not keep."""
        if self._failure is not None:
            raise self._failure
        if self._arrived > len(self._copies):
            raise ValueError("the snapshots were streamed once, and iteration keeps none")

    def __iter__(self):
        self._unstreamed()
        yield self._first
        yield from self._copies
        while (snapshot := self._receive()) is not None:
            self._view = snapshot
            yield snapshot
            self._view = None
            self._release_rows()

    def _all(self) -> list[FieldState]:
        self._unstreamed()
        while (snapshot := self._receive()) is not None:
            self._copies.append(snapshot.copy())
            self._release_rows()
        return [self._first, *self._copies]

    def __len__(self) -> int:
        return len(self._all())

    def __getitem__(self, index):
        return self._all()[index]

    def measure(self, snapshot: FieldState, *args) -> None:
        """Take the run's measure(snapshot, *args): the stepper runs it on the
        snapshot's row if its flag is set and ``snapshot`` is the view that
        iteration yielded last; else it runs in this process, now.  So the
        first snapshot and the copies of ``len`` and indexing are always
        measured here.  An exception raised here stops the stepper."""
        if snapshot is self._view and self._idle[0]:
            self._idle[0] = 0.0  # until the stepper takes this one up
            # ahead of the release of its row, so the stepper has not reused it
            self._handed[self._arrived] = len(self._results)
            self._results.append(None)
            self._send((self._arrived, snapshot.t, *args))
            return
        try:
            self._results.append(self._measure(snapshot, *args))
        except Exception as exc:
            self._reap()
            self._failure = exc
            raise

    def results(self) -> list:
        """The values of ``measure``'s calls, in call order, once iteration
        has passed the last snapshot."""
        if self._failure is not None:
            raise self._failure
        if self._reap.alive or self._handed or self._arrived < self._count:
            raise ValueError("the measures' results are ready once the stream has ended")
        return self._results

    def close(self) -> None:
        """Stop and reap the stepper; reading a snapshot that had not arrived
        then raises ValueError."""
        self._reap()


def run(state: FieldState, cfg: SolverConfig, t_end: float, measure,
        frame_cadence: int) -> Snapshots:
    """Evolve to t_end, with snapshots every frame_cadence steps, and take
    measure(snapshot, *args) of the snapshots that the caller passes to
    ``Snapshots.measure``, in the stepper or in the caller.

    The snapshots always include the initial and final states.  The
    arguments are trusted, as a ScenarioConfig has checked them (a positive
    cadence, one step or more, the CFL condition).  The steps run in a
    forked process (POSIX only), which writes each later snapshot's phi and
    pi into a ring of min(_RING, snapshots) rows of one shared anonymous
    mapping and sends its t down a pipe, pickled.  Before it reuses a row it
    waits on a second pipe, the release pipe, until the parent has released
    the snapshot there.  So the mapping does not grow with the run.  While
    the stepper waits there, and once it has sent its last snapshot, it sets
    a flag in the mapping.  A measure that the parent hands it then goes
    down the release pipe as (k, t, *args), ahead of the release of
    snapshot k's row, and the stepper sends (k, value) back down the first
    pipe.  The parent clears the flag as it hands a measure and the stepper
    sets it again as it takes the measure up, so at most one waits behind
    the one it runs.  So the measure runs in the stepper while the parent is
    behind, on the copies of its arguments that pickling carried there, and
    in the parent otherwise, on the arguments themselves.  After its last
    snapshot the stepper serves measures until the parent sends None, once
    iteration has passed the last snapshot, or until the release pipe ends,
    the parent being gone; then it exits.  The returned Snapshots yield each
    snapshot as it lands, so the caller works on one core while the stepper
    runs on another.  The first snapshot owns its arrays; the others are views of
    their rows (see Snapshots), and each pi is read out from the half-step
    momentum.  The fields are checked once per snapshot, and a non-finite
    field raises FloatingPointError naming the last time at which they were
    finite.  Any exception that stops the stepper, a measure's included,
    goes down the pipe pickled and reaches the caller as itself; one that
    cannot be pickled and rebuilt ends the stream early.
    """
    n_steps = int(round((t_end - state.t) / cfg.dt))
    first = state.copy()
    kernel = _Leapfrog(state, cfg)
    count = -(-n_steps // frame_cadence)
    shape = (min(_RING, count), 2, state.n)
    shared = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape) + 8), dtype=float)
    rows, idle = shared[:-1].reshape(shape), shared[-1:]
    r, w = os.pipe()
    release_r, release_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (r, w, release_r, release_w):
            os.close(fd)
        raise
    if pid == 0:  # the stepper process: it never returns
        try:
            os.close(r)
            os.close(release_w)
            requests, released = os.fdopen(release_r, "rb"), 0

            def serve() -> int:
                """Take the parent's next item off the release pipe: run a
                measure, or return the rows a release frees.  At None, or at
                the pipe's end, the parent is done or gone: exit."""
                try:
                    item = pickle.load(requests)
                except EOFError:
                    item = None
                if item is None:
                    os._exit(0)
                if isinstance(item, int):
                    return item
                k, t, *args = item
                idle[0] = 1.0  # taken up: the parent may queue one more
                phi, pi = rows[(k - 1) % len(rows)]
                snapshot = FieldState(state.x0, state.dx, state.n, phi, pi, t)
                os.write(w, pickle.dumps((k, measure(snapshot, *args))))
                return 0

            def wait() -> None:
                nonlocal released
                if not released:
                    idle[0] = 1.0
                    while not released:
                        released += serve()
                    idle[0] = 0.0
                released -= 1

            try:
                _evolve(kernel, state.t, n_steps, frame_cadence, rows,
                        lambda t, row: os.write(w, pickle.dumps(t)), wait)
                idle[0] = 1.0
                while True:
                    serve()
            except Exception as exc:
                item = pickle.dumps(exc)
                pickle.loads(item)  # one that cannot be rebuilt ends the stream instead
                os.write(w, item)
        finally:
            os._exit(0)
    os.close(w)
    os.close(release_r)
    return Snapshots(first, measure, rows, idle, count, pid, r, release_w)
