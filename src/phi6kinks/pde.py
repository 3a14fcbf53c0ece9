"""Time evolution of d_tt phi = d_xx phi - U'(phi) on a finite grid.

Velocity Verlet (kick-drift-kick) in time, centered 2nd- or 4th-order
Laplacian in space.  Boundary nodes are clamped to the vacuum values of the
initial data.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import MARGIN, kink_mode, kink_value

_CFL_LIMIT = {2: 0.9, 4: 0.7}


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
    """Time step and spatial scheme."""

    dt: float = 0.02
    stencil_order: int = 4

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.stencil_order not in (2, 4):
            raise ValueError(f"stencil_order must be 2 or 4, got {self.stencil_order}")

    def validate_cfl(self, dx: float) -> None:
        limit = _CFL_LIMIT[self.stencil_order]
        if self.dt / dx > limit:
            raise ValueError(
                f"CFL violation: dt/dx = {self.dt / dx:.3f} exceeds {limit} "
                f"for stencil order {self.stencil_order}"
            )


class _Verlet:
    """Velocity-Verlet kernel that owns its field, acceleration and scratch buffers.

    Built once per run: the CFL check, the stencil constants, the clamped
    edge values and the slice views are fixed here, and each advance updates
    the buffers in place.  ``acc`` always holds the acceleration of the
    current ``phi`` and ``kick`` its half kick acc*dt/2, which ends one
    advance and starts the next, so an advance evaluates each once.
    """

    def __init__(self, state: FieldState, cfg: SolverConfig):
        cfg.validate_cfl(state.dx)
        self.dt = cfg.dt
        self.half_dt = 0.5 * cfg.dt
        self.order = cfg.stencil_order
        self.inv = 1.0 / (state.dx * state.dx)
        self.inv12 = self.inv / 12.0
        self.phi = phi = np.array(state.phi, dtype=float)
        self.pi = np.array(state.pi, dtype=float)
        self.edges = (phi[0], phi[-1])
        self.acc = acc = np.zeros(state.n)  # edge entries stay zero: the edges are clamped
        self.scratch = scratch = np.empty(state.n)
        self.kick = np.empty(state.n)
        if self.order == 4:  # the operands of each stencil term, in order
            self.phi16 = phi16 = np.empty(state.n)
            self.lap = (acc[2:-2], scratch[2:-2], phi16[1:-3], phi[:-4], phi[2:-2],
                        phi16[3:-1], phi[4:])
        else:
            self.lap = (acc[1:-1], scratch[1:-1], phi[:-2], phi[1:-1], phi[2:])
        self.inner = (phi[1:-1], scratch[1:-1], acc[1:-1])
        self._update_acceleration()
        np.multiply(acc, self.half_dt, out=self.kick)

    def _update_acceleration(self) -> None:
        """acc = d_xx phi - U'(phi) on the interior nodes.

        The operations and their order are those of the 4th-order stencil
        ((-phi[i-2] + 16 phi[i-1]) - 30 phi[i] + 16 phi[i+1]) - phi[i+2]
        scaled by inv/12 (2nd-order next to the edges), and of the Horner
        form (((6 phi) phi - 8) phi phi + 2) phi of eval_potential_derivative
        without its final addition of 0.0, which changes no value.  16 phi is
        formed once for both of its terms; a power of two scales exactly.
        """
        phi, acc, inv = self.phi, self.acc, self.inv
        if self.order == 4:
            lap, tmp, left16, left2, mid, right16, right2 = self.lap
            np.multiply(phi, 16.0, out=self.phi16)
            np.subtract(left16, left2, out=lap)
            np.multiply(mid, 30.0, out=tmp)
            lap -= tmp
            lap += right16
            lap -= right2
            lap *= self.inv12
            at = phi.item  # a Python float: the same arithmetic, at half the call cost
            acc[1] = (at(0) - 2.0 * at(1) + at(2)) * inv
            acc[-2] = (at(-3) - 2.0 * at(-2) + at(-1)) * inv
        else:
            lap, tmp, left, mid, right = self.lap
            np.multiply(mid, 2.0, out=tmp)
            np.subtract(left, tmp, out=lap)
            lap += right
            lap *= inv
        p, du, acc_in = self.inner
        np.multiply(p, 6.0, out=du)
        du *= p
        du -= 8.0
        du *= p
        du *= p
        du += 2.0
        du *= p
        acc_in -= du

    def advance(self) -> None:
        """One kick-drift-kick update; it does not check the result."""
        phi, pi, kick, tmp = self.phi, self.pi, self.kick, self.scratch
        pi += kick
        np.multiply(pi, self.dt, out=tmp)
        phi += tmp
        phi[0], phi[-1] = self.edges
        self._update_acceleration()
        np.multiply(self.acc, self.half_dt, out=kick)
        pi += kick
        pi[0] = pi[-1] = 0.0

    def finite(self) -> bool:
        return _all_finite(self.phi) and _all_finite(self.pi)

    def check(self, t: float) -> None:
        """Raise unless the fields are finite, naming t as the last valid time."""
        if not self.finite():
            raise FloatingPointError(f"non-finite field detected; last valid time t={t:.6f}")


def _all_finite(a: np.ndarray) -> bool:
    """Exactly np.isfinite(a).all(); the one-pass a @ a decides unless it
    overflows or a holds a non-finite value."""
    return math.isfinite(a @ a) or bool(np.isfinite(a).all())


def step(state: FieldState, cfg: SolverConfig) -> FieldState:
    """One velocity-Verlet update with clamped boundary nodes."""
    kernel = _Verlet(state, cfg)
    kernel.advance()
    kernel.check(state.t)
    return replace(state, phi=kernel.phi, pi=kernel.pi, t=state.t + cfg.dt)


def run(state: FieldState, cfg: SolverConfig, t_end: float, frame_cadence: int = 50):
    """Evolve to t_end, returning snapshots every frame_cadence steps.

    The returned list always includes the initial and final states; each
    snapshot owns its arrays.  The fields are checked once per snapshot; a
    non-finite field raises FloatingPointError naming the last time at
    which every field was finite, as a check after every step would.
    """
    if t_end <= state.t:
        raise ValueError(f"t_end={t_end} must exceed state.t={state.t}")
    if frame_cadence < 1:
        raise ValueError("frame_cadence must be >= 1")
    n_steps = int(round((t_end - state.t) / cfg.dt))
    if n_steps < 1:
        raise ValueError("t_end too close to state.t for one step")
    kernel = _Verlet(state, cfg)
    snapshots = [state.copy()]
    t0 = state.t
    for k in range(1, n_steps + 1):
        kernel.advance()
        if k % frame_cadence == 0 or k == n_steps:
            if not kernel.finite():
                # x += y keeps a value non-finite, so the first bad step follows
                # the previous snapshot: replay from it, checking each step
                kernel = _Verlet(snapshots[-1], cfg)
                for j in range((k - 1) // frame_cadence * frame_cadence, k):
                    kernel.advance()
                    kernel.check(t0 + j * cfg.dt)
            snapshots.append(FieldState(state.x0, state.dx, state.n, kernel.phi.copy(),
                                        kernel.pi.copy(), t0 + k * cfg.dt))
    return snapshots


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
