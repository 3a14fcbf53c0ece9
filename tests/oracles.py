"""Reference values that the tests judge the package against.

No command, script or benchmark workload calls these names: the evolve ->
track -> verify pipeline never reads them.  They live here, outside the
package they check, so that an oracle does not share the code it judges:
the antikink profiles and slopes, the Bogomolny rest energy, the interaction
energy A(z) with its derivative and the derivation of its expansion, an RK4
integrator of the reduced law with its first integral, an orthogonality
check that re-measures a frame's projections, and the tracked frames of a
scenario with their snapshots kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from phi6kinks.functionals import (
    energy_breakdown,
    integrate,
    odd_sample_count,
    potential_energy_samples,
    simpson_weights,
)
from phi6kinks.model import (
    MARGIN,
    SQRT2,
    eval_potential,
    eval_potential_derivative,
    kink_mode,
    kink_value,
)
from phi6kinks.modulation import _ORTHO_ATOL, _ORTHO_RTOL, ModulationFrame, track
from phi6kinks.pde import run
from phi6kinks.scenarios import build_initial_state

# ---------------------------------------------------------------------------
# kink slopes and the antikink
# ---------------------------------------------------------------------------


def kink_derivative(x):
    """Kink slope H'(x) = kink_mode(H(x)); H'' is U'(H(x))."""
    return kink_mode(kink_value(x))


def antikink_value(x):
    """Antikink profile rising monotonically from -1 at -inf to 0 at +inf."""
    return -kink_value(-np.asarray(x, dtype=float))


def antikink_derivative(x):
    """Antikink slope, a positive bump: H'(-x)."""
    return kink_derivative(-np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# rest energy and interaction energy of the superposed pair
# ---------------------------------------------------------------------------


def bogomolny_rest_energy() -> float:
    """Independent 1-D oracle for the single-kink potential energy.

    Integrates sqrt(2 U(phi)) over the vacuum interval [0, 1]; the exact
    value is 1/(2 sqrt(2)).
    """
    n = 20001
    phi = np.linspace(0.0, 1.0, n)
    return integrate(np.sqrt(2.0 * eval_potential(phi)), 1.0 / (n - 1))


_A_DEFAULT_DX = 0.01


def _pair_grid(z: float, dx: float):
    half = 0.5 * z + MARGIN
    return -half + dx * np.arange(odd_sample_count(2.0 * half, dx))


def interaction_energy_A(z: float, dx: float = _A_DEFAULT_DX) -> float:
    """E_pot of antikink at -z/2 plus kink at +z/2.

    With E = 1/(2 sqrt2) the rest energy of one kink, the continuum value is

        A(z) = 2E + 2 sqrt2 e^{-sqrt2 z} - (12 z - 15/sqrt2) e^{-2 sqrt2 z}
               + O(z e^{-3 sqrt2 z}).

    Derivation: let a(x) = antikink_value(x + z/2) and b(x) = kink_value(x - z/2).
    Since a'' = U'(a), integrating the cross term a'b' by parts gives

        A - 2E = int [U(a+b) - U(a) - U(b) - U'(a) b] dx
               = int (-8ab^3 + 6ab^5) + int (-12a^2b^2 + 15a^4b^2 + 15a^2b^4)
                 + 20 int a^3b^3.

    - The first integral is 2 sqrt2 e^{-sqrt2 z} + O(z e^{-3 sqrt2 z}): near the
      kink a = -e^{-sqrt2 (x + z/2)} to leading order, and
      int (8H^3 - 6H^5) e^{-sqrt2 u} du = 2 sqrt2 for the kink profile H.
    - Exactly, with s = x + z/2,
      a^2 b^2 = e^{-2 sqrt2 z} / ((1 + e^{-2 sqrt2 s})(1 + e^{2 sqrt2 (s - z)})),
      whose integral is z e^{-2 sqrt2 z} / (1 - e^{-2 sqrt2 z}).
    - int a^4 b^2 = int a^2 b^4 = e^{-2 sqrt2 z} int H^4 e^{-2 sqrt2 u} du
      = e^{-2 sqrt2 z} / (2 sqrt2), up to O(z e^{-4 sqrt2 z}).
    - int a^3 b^3 = O(z e^{-3 sqrt2 z}).

    On the grid the gradient is the 4th-order stencil, so A(z, dx) alone
    carries its bias, about -9.5e-10 at dx = 0.01: do not compare it with
    the exact 2E = 1/sqrt2.  Only A(z, dx) - 2 reference_kink_energy(dx) at
    the same dx is accurate (about 3e-12), since the same stencil's bias
    cancels there.
    """
    if z <= 0:
        raise ValueError(f"separation must be positive, got {z}")
    x = _pair_grid(z, dx)
    phi = antikink_value(x + 0.5 * z) + kink_value(x - 0.5 * z)
    return potential_energy_samples(phi, dx)


def interaction_energy_A_prime(z: float, dx: float = _A_DEFAULT_DX) -> float:
    """dA/dz from its integral form (analytic profile derivatives, no FD)."""
    if z <= 0:
        raise ValueError(f"separation must be positive, got {z}")
    x = _pair_grid(z, dx)
    anti = antikink_value(x + 0.5 * z)
    kink = kink_value(x - 0.5 * z)
    dkink = kink_derivative(x - 0.5 * z)
    integrand = dkink * (
        eval_potential_derivative(1, anti) - eval_potential_derivative(1, anti + kink)
    )
    return integrate(integrand, dx)


# ---------------------------------------------------------------------------
# the reduced law z'' = 16 sqrt2 e^{-sqrt2 z} by RK4
# ---------------------------------------------------------------------------

_FORCE_COEFF = 16.0 * SQRT2  # separation acceleration prefactor


@dataclass(frozen=True)
class ReducedTrajectory:
    t: np.ndarray
    z: np.ndarray
    zdot: np.ndarray


def conserved_quantity(z, zdot):
    """First integral zdot^2/4 + 8 exp(-sqrt2 z); equals v^2 on exact orbits."""
    return np.asarray(zdot, dtype=float) ** 2 / 4.0 + 8.0 * np.exp(
        -SQRT2 * np.asarray(z, dtype=float)
    )


def _rhs(y):
    return np.array([y[1], _FORCE_COEFF * math.exp(-SQRT2 * y[0])])


def integrate_reduced(z0: float, zdot0: float, t_end: float, dt: float) -> ReducedTrajectory:
    """Classic fixed-step RK4 for the separation equation, sampled every step."""
    if z0 <= 0:
        raise ValueError(f"initial separation must be positive, got {z0}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = int(round(t_end / dt))
    t = dt * np.arange(n_steps + 1)
    z = np.empty(n_steps + 1)
    zdot = np.empty(n_steps + 1)
    y = np.array([z0, zdot0], dtype=float)
    z[0], zdot[0] = y
    for k in range(1, n_steps + 1):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * dt * k1)
        k3 = _rhs(y + 0.5 * dt * k2)
        k4 = _rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        z[k], zdot[k] = y
    return ReducedTrajectory(t=t, z=z, zdot=zdot)


# ---------------------------------------------------------------------------
# orthogonality of a tracked frame
# ---------------------------------------------------------------------------


def orthogonality_ok(frame: ModulationFrame) -> bool:
    """Scaled orthogonality test with a small absolute floor for g ~ 0.

    Re-measures <g, K1'> and <g, K2'> with Simpson weights, from the frame's
    rebuilt g and this module's own slopes, not with the solve's arithmetic:
    a frame whose centers are off fails it.
    """
    g = frame.g
    w = simpson_weights(len(g), frame.dx)
    modes = antikink_derivative(frame.x - frame.x1), kink_derivative(frame.x - frame.x2)
    mode_l2 = math.sqrt(float(w @ (modes[0] ** 2)))
    g_l2 = math.sqrt(max(float(w @ (g ** 2)), 0.0))
    tol = _ORTHO_RTOL * mode_l2 * g_l2 + _ORTHO_ATOL
    return all(abs(float(w @ (g * mode))) <= tol for mode in modes)


# ---------------------------------------------------------------------------
# frames that keep their snapshots
# ---------------------------------------------------------------------------


def tracked_frames(config) -> list[ModulationFrame]:
    """The valid frames of ``run_scenario(config)``, each holding a copy of
    its snapshot.

    The frames that track returns keep no snapshot after the first, so this
    tracks ``run(build_initial_state(config), ...)`` again and copies each
    valid frame's snapshot in the hook.  The stepper is deterministic, so
    these are the frames the scenario's report was made from.
    """
    snapshots = run(build_initial_state(config), config.solver, config.t_end,
                    energy_breakdown, config.frame_cadence)
    frames = []
    try:
        track(snapshots, lambda frame, pair: frames.append(
            replace(frame, state=frame.state.copy())))
    finally:
        snapshots.close()
    return frames
