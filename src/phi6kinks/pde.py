"""Time evolution of d_tt phi = d_xx phi - U'(phi) on a finite grid.

Stormer leapfrog in time, which is velocity Verlet (kick-drift-kick) in exact
arithmetic, carried as phi and p = dt * pi at half steps; centered
4th-order Laplacian in space.  Boundary nodes are clamped to the vacuum values
of the initial data.
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
from dataclasses import dataclass, replace

import numpy as np

from .model import MARGIN, kink_mode, kink_value

_CFL_LIMIT = 0.7
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

    def __post_init__(self):
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.n < 5:
            raise ValueError(f"grid too small: n={self.n} < 5")
        if len(self.phi) != self.n or len(self.pi) != self.n:
            raise ValueError("phi/pi length does not match n")

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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def validate_cfl(self, dx: float) -> None:
        if self.dt / dx > _CFL_LIMIT:
            raise ValueError(f"CFL violation: dt/dx = {self.dt / dx:.3f} exceeds {_CFL_LIMIT}")


class _Leapfrog:
    """Stormer leapfrog kernel that owns its field, half-step momentum and buffers.

    Built once per run: the CFL check, the stencil constants and the slice
    views are fixed here.  Between snapshots it carries phi_k and
    p = dt * pi_{k+1/2}, and a step is phi += p, inc = dt^2 (d_xx phi - U'(phi)),
    p += inc: the trajectory of kick-drift-kick velocity Verlet, in three
    updates.  The edge entries of p and inc stay 0, so the clamped edges of
    phi never move.
    """

    def __init__(self, state: FieldState, cfg: SolverConfig):
        cfg.validate_cfl(state.dx)
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


def step(state: FieldState, cfg: SolverConfig) -> FieldState:
    """One leapfrog step with clamped boundary nodes: the stepping loop of a
    one-step ``run``, in this process, since forking costs more than a step."""
    rows, times = np.empty((1, 2, state.n)), []
    _evolve(_Leapfrog(state, cfg), state.t, 1, 1, rows, times.append)
    return FieldState(state.x0, state.dx, state.n, *rows[0], times[0])


def _evolve(kernel: _Leapfrog, t0: float, n_steps: int, frame_cadence: int,
            rows: np.ndarray, emit) -> None:
    """The stepping loop: snapshot i after the start goes into rows[i] as
    (phi, pi), and then emit(t) announces it.

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
            last_phi, pi = rows[(k - 1) // frame_cadence]
            np.copyto(last_phi, kernel.phi)
            kernel.pi(out=pi)
            np.copyto(last_p, kernel.p)
            emit(t0 + k * dt)


def _stop(pid: int, pipe) -> int | None:
    """Kill the stepper process unless it has exited, reap it and close its
    pipe; its wait status, or None if it was reaped elsewhere."""
    try:
        done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    except ChildProcessError:
        status = None
    pipe.close()
    return status


class Snapshots(Sequence):
    """The snapshots of one ``run``, FieldStates that a stepper process fills.

    Iterating yields each snapshot as soon as it arrives; ``len`` and
    indexing wait for all of them.  Any exception that stops the stepper is
    raised as itself where the stream reaches it; a stream that ends early
    raises ChildProcessError.  The stepper is reaped when the stream ends,
    on ``close()``, or when the sequence is collected.
    """

    def __init__(self, first: FieldState, rows: np.ndarray, pid: int, fd: int):
        self._states = [first]
        self._rows = rows
        self._failure: Exception | None = None
        self._pipe = os.fdopen(fd, "rb")
        self._reap = weakref.finalize(self, _stop, pid, self._pipe)

    def _receive(self) -> bool:
        """Wait for the next snapshot and keep it; False once all have arrived."""
        k = len(self._states) - 1  # snapshots after the start received so far
        if k == len(self._rows):
            return False
        if self._failure is not None:
            raise self._failure
        try:
            item = pickle.load(self._pipe)  # a snapshot's t, or the stepper's exception
        except (EOFError, pickle.UnpicklingError):
            item = None  # the stream ended early or mid-object: the stepper died
        if isinstance(item, float):
            first = self._states[0]
            self._states.append(FieldState(first.x0, first.dx, first.n, *self._rows[k], item))
            if k + 1 == len(self._rows):
                self._pipe.read()  # to the end of the stream: the stepper has exited
                self._reap()
            return True
        status = self._reap()
        self._failure = item if item is not None else ChildProcessError(
            f"the stepper process ended after {k} of {len(self._rows)} snapshots "
            f"with wait status {status}")
        raise self._failure

    def __iter__(self):
        i = 0
        while i < len(self._states) or self._receive():
            yield self._states[i]
            i += 1

    def _all(self) -> list[FieldState]:
        while self._receive():
            pass
        return self._states

    def __len__(self) -> int:
        return len(self._all())

    def __getitem__(self, index):
        return self._all()[index]

    def close(self) -> None:
        """Stop and reap the stepper; reading a snapshot that had not arrived
        then raises ValueError."""
        self._reap()


def run(state: FieldState, cfg: SolverConfig, t_end: float, frame_cadence: int = 50) -> Snapshots:
    """Evolve to t_end, with snapshots every frame_cadence steps.

    The snapshots always include the initial and final states.  The
    arguments and the CFL condition are checked here; the steps then run in
    a forked process (POSIX only), which writes each snapshot's phi and pi
    into one shared anonymous mapping, a row per snapshot, and sends its t
    down a pipe, pickled.  The returned Snapshots yield each snapshot as it
    lands, so the caller works on one core while the stepper runs on
    another.  The first snapshot owns its arrays; the others are views of
    their rows, and each pi is read out from the half-step momentum.  The
    fields are checked once per snapshot, and a non-finite field raises
    FloatingPointError naming the last time at which they were finite.  Any
    exception that stops the stepper goes down the pipe pickled and reaches
    the caller as itself, at the snapshot where the stream stops.
    """
    if t_end <= state.t:
        raise ValueError(f"t_end={t_end} must exceed state.t={state.t}")
    if frame_cadence < 1:
        raise ValueError("frame_cadence must be >= 1")
    n_steps = int(round((t_end - state.t) / cfg.dt))
    if n_steps < 1:
        raise ValueError("t_end too close to state.t for one step")
    kernel = _Leapfrog(state, cfg)
    shape = (-(-n_steps // frame_cadence), 2, state.n)
    rows = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the stepper process: it never returns
        try:
            os.close(r)
            try:
                _evolve(kernel, state.t, n_steps, frame_cadence, rows,
                        lambda t: os.write(w, pickle.dumps(t)))
            except Exception as exc:
                os.write(w, pickle.dumps(exc))
        finally:
            os._exit(0)
    os.close(w)
    return Snapshots(state.copy(), rows, pid, r)


def check_margins(x0: float, x_max: float, x1: float, x2: float) -> None:
    """Raise unless the grid [x0, x_max] reaches MARGIN beyond both kink centers."""
    if x1 - x0 < MARGIN or x_max - x2 < MARGIN:
        raise ValueError(
            f"grid [{x0}, {x_max}] must cover kinks ({x1}, {x2}) with {MARGIN:g}-unit margins"
        )


def _boosted_kink(x: np.ndarray, center: float, v: float, reflect: bool):
    """Value and time derivative at t=0 of the Lorentz-boosted kink at center.

    The moving kink is H((x - center - v t)/sqrt(1 - v^2)), whose time
    derivative is -(v/sqrt(1 - v^2)) H'; the antikink (``reflect``) is
    -H(-xi), whose slope is H'(-xi).
    """
    gamma_inv = np.sqrt(1.0 - v * v)
    xi = (x - center) / gamma_inv
    h = kink_value(-xi if reflect else xi)
    return (-h if reflect else h), -(v / gamma_inv) * kink_mode(h)


def init_two_kink_state(
    grid: tuple[float, float, int],
    x1: float,
    x2: float,
    v1: float = 0.0,
    v2: float = 0.0,
    perturbation: tuple[np.ndarray, np.ndarray] | None = None,
) -> FieldState:
    """Antikink at x1 plus kink at x2 with boost speeds v1, v2 at t=0.

    Each profile is the exact Lorentz-contracted traveling wave with its
    exact time derivative.  An optional perturbation (g0, g1) is added
    pointwise to (phi, pi).
    """
    x0, dx, n = grid
    if x1 >= x2:
        raise ValueError(f"kinks out of order: x1={x1} must be < x2={x2}")
    if not (abs(v1) < 1.0 and abs(v2) < 1.0):
        raise ValueError("kink speeds must satisfy |v| < 1")
    check_margins(x0, x0 + dx * (n - 1), x1, x2)
    x = grid_nodes(float(x0), float(dx), n)
    a_val, a_dot = _boosted_kink(x, x1, v1, reflect=True)
    k_val, k_dot = _boosted_kink(x, x2, v2, reflect=False)
    phi = a_val + k_val
    pi = a_dot + k_dot
    if perturbation is not None:
        g0, g1 = perturbation
        phi = phi + np.asarray(g0, dtype=float)
        pi = pi + np.asarray(g1, dtype=float)
    return FieldState(x0=x0, dx=dx, n=n, phi=phi, pi=pi, t=0.0)
