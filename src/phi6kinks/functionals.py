"""Discrete quadrature, energy functionals, interaction energy and diagnostics.

Everything here is a pure function of sampled data.  Quadrature is composite
Simpson on the solver grid; domains carry MARGIN (40 units) beyond the
outermost kink so the truncated tails contribute below 1e-24.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (
    MARGIN,
    antikink_value,
    eval_potential,
    eval_potential_derivative,
    kink_derivative,
    kink_value,
)

# ---------------------------------------------------------------------------
# quadrature and discrete derivatives
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Composite Simpson weights for n samples at spacing dx.

    Requires n >= 3.  For even n the last interval is closed with a
    trapezoid; exactness claims in tests always use odd n.  The weights are
    built once per (n, dx) and shared, so the array is read-only.
    """
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    m = n if n % 2 == 1 else n - 1
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= dx / 3.0
    if m < n:
        full = np.zeros(n)
        full[:m] = w
        full[m - 1] += 0.5 * dx
        full[m] = 0.5 * dx
        w = full
    w.flags.writeable = False
    return w


def odd_sample_count(span: float, dx: float) -> int:
    """Samples of a grid covering ``span`` at spacing dx, bumped to odd so
    that simpson_weights never needs its trapezoid end interval."""
    n = int(round(span / dx)) + 1
    return n if n % 2 == 1 else n + 1


def integrate(samples, dx: float) -> float:
    """Composite Simpson approximation of an integral from uniform samples."""
    samples = np.asarray(samples, dtype=float)
    return float(simpson_weights(samples.size, dx) @ samples)


# 12 dx times the 4th-order first derivative's weights: np.correlate sums
# ((f[i-2] - 8 f[i-1]) + 0 f[i] + 8 f[i+1]) - f[i+2]: on finite input, the bits
# of the sliced form
_D1_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])


def spatial_derivative(f, dx: float, order: int = 4) -> np.ndarray:
    """First derivative on a uniform grid: centered interior, one-sided edges."""
    f = np.asarray(f, dtype=float)
    if f.size < 5:
        raise ValueError("grid too small for finite differences (need >= 5 points)")
    out = np.empty_like(f)
    if order == 4:
        np.divide(np.correlate(f, _D1_STENCIL, "valid"), 12.0 * dx, out=out[2:-2])
        out[1] = (f[2] - f[0]) / (2.0 * dx)
        out[-2] = (f[-1] - f[-3]) / (2.0 * dx)
    elif order == 2:
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    else:
        raise ValueError(f"derivative order must be 2 or 4, got {order}")
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return out


# ---------------------------------------------------------------------------
# smooth cut functions
# ---------------------------------------------------------------------------


_STEP_EDGE = 1e-3


def smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly monotone between.

    Inside (0, 1) it is a / (a + b) with the bumps a = exp(-1/s) and
    b = exp(-1/(1 - s)), whose derivatives all vanish at 0 and 1; one of the
    two is at least e^-2 there, so a + b > 0.  a is exactly 0 for s <= 1e-3
    and b for s >= 1 - 1e-3 (exp underflows below -745), so clamping s to
    that range, without a mask, changes no value; fmax reads NaN as 0.
    """
    s = np.fmin(np.fmax(s, _STEP_EDGE), 1.0 - _STEP_EDGE)
    a = np.exp(-1.0 / s)
    b = np.exp(-1.0 / (1.0 - s))
    return a / (a + b)


def cut_function(xi, upper: float, lower: float):
    """Smooth transition equal to 1 for xi <= lower and 0 for xi >= upper."""
    if not upper > lower:
        raise ValueError("cut window must have upper > lower")
    return smooth_step((upper - np.asarray(xi, dtype=float)) / (upper - lower))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBreakdown:
    e_kin: float
    e_pot: float
    e_total: float
    epsilon: float


def potential_energy_samples(phi, dx: float) -> float:
    """E_pot of a sampled field: Simpson of (1/2)(d_x phi)^2 + U(phi), with the
    4th-order d_x phi."""
    dphi = spatial_derivative(phi, dx)
    return integrate(0.5 * dphi * dphi + eval_potential(phi), dx)


def kinetic_energy_samples(pi, dx: float) -> float:
    pi = np.asarray(pi, dtype=float)
    return integrate(0.5 * pi * pi, dx)


def bogomolny_rest_energy() -> float:
    """Independent 1-D oracle for the single-kink potential energy.

    Integrates sqrt(2 U(phi)) over the vacuum interval [0, 1]; the exact
    value is 1/(2 sqrt(2)).
    """
    n = 20001
    phi = np.linspace(0.0, 1.0, n)
    return integrate(np.sqrt(2.0 * eval_potential(phi)), 1.0 / (n - 1))


@functools.lru_cache(maxsize=64)
def reference_kink_energy(dx: float) -> float:
    """Single-kink E_pot measured with the same grid operators as states.

    Using the identical spacing and difference stencil makes the
    finite-difference bias cancel when the value anchors the energy excess
    of multi-kink states.
    """
    x = -MARGIN + dx * np.arange(odd_sample_count(2.0 * MARGIN, dx))
    return potential_energy_samples(kink_value(x), dx)


def energy_breakdown(state) -> EnergyBreakdown:
    """Kinetic/potential/total energy and the excess over two resting kinks."""
    e_kin = kinetic_energy_samples(state.pi, state.dx)
    e_pot = potential_energy_samples(state.phi, state.dx)
    e_total = e_kin + e_pot
    eps = e_total - 2.0 * reference_kink_energy(state.dx)
    return EnergyBreakdown(e_kin=e_kin, e_pot=e_pot, e_total=e_total, epsilon=eps)


# ---------------------------------------------------------------------------
# interaction energy of the superposed pair
# ---------------------------------------------------------------------------

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
# per-frame diagnostics: remainder norms and the Lyapunov functional
# ---------------------------------------------------------------------------


# transition window for the momentum-correction weight: 1 up to 3/4 of the
# normalized gap coordinate, 0 beyond 4/5
_OMEGA_LOWER = 0.75
_OMEGA_UPPER = 0.80


@dataclass(frozen=True)
class PairTerms:
    """Full-grid terms of one frame that its remainder norms, lyapunov_F and
    coercivity_ratio share; built per frame and dropped after its
    diagnostics."""

    x: np.ndarray
    g: np.ndarray         # phi - K1 - K2
    g_t: np.ndarray       # d_t g
    dd_anti: np.ndarray   # K1'' = U'(K1)
    dd_kink: np.ndarray   # K2'' = U'(K2)
    total: np.ndarray     # K1 + K2
    dg: np.ndarray        # d_x g, 2nd order
    gt_sq: np.ndarray     # g_t g_t
    dg_sq: np.ndarray     # d_x g d_x g
    upp_g_sq: np.ndarray  # (U''(K1 + K2) g) g
    g_h1_sq: float        # int g^2 + (d_x g)^2 = ||g||_H1^2
    gt_l2: float          # ||g_t||_L2


def pair_terms(frame, pair) -> PairTerms:
    """The superposed pair's terms and the remainder norms at a frame's
    centers, once per frame.

    ``pair`` is the modulation.PairFields at those centers: the arrays of
    the center solve's last residual evaluation, or frame.fields().  With
    K1 = antikink_value(x - x1) = -h1 and K2 = kink_value(x - x2) = h2, the
    profile curvatures are the solve's mode derivatives K1'' and K2'', which
    are U'(K1) and U'(K2) bit for bit.  The squares that the norms, F and the
    coercivity ratio each sum are formed here once.
    """
    if frame.z <= 0:
        raise ValueError("frame separation must be positive")
    g, dx = pair.g, frame.dx
    g_t = frame.remainder_rate(pair)
    total = pair.h2 - pair.h1
    dg = spatial_derivative(g, dx, order=2)
    gt_sq, dg_sq = g_t * g_t, dg * dg
    upp_g_sq = eval_potential_derivative(2, total) * g * g
    return PairTerms(frame.x, g, g_t, pair.dm1, pair.dm2, total, dg, gt_sq, dg_sq, upp_g_sq,
                     integrate(g * g + dg_sq, dx), float(np.sqrt(integrate(gt_sq, dx))))


def lyapunov_F(frame, terms: PairTerms) -> float:
    """Corrected quadratic-form functional of a modulation frame.

    Five pieces: the quadratic form of the energy Hessian at the superposed
    pair, a linear interaction correction, a centripetal correction, the
    momentum correction weighted by a smooth partition moving with each
    kink, and the cubic term of the potential expansion.  ``terms`` is
    pair_terms(frame, pair).
    """
    x = terms.x
    dx = frame.dx
    g = terms.g
    g_t = terms.g_t
    xdot1, xdot2 = frame.xdot1, frame.xdot2
    dd_anti, dd_kink, total, dg = terms.dd_anti, terms.dd_kink, terms.total, terms.dg

    f1 = integrate(terms.gt_sq + terms.dg_sq + terms.upp_g_sq, dx)
    interaction = dd_anti + dd_kink - eval_potential_derivative(1, total)
    f2 = -2.0 * integrate(g * interaction, dx)
    f3 = 2.0 * integrate(g * (xdot1 * xdot1 * dd_anti + xdot2 * xdot2 * dd_kink), dx)
    # omega is exactly 1 left of x1 + 0.75z and 0 right of x1 + 0.8z, and a node that rounding
    # puts on the wrong side reads the same: exp(-1/(1 - s)) underflows near s = 1, as near 0
    lo, hi = np.searchsorted(x, frame.x1 + frame.z * np.array([_OMEGA_LOWER, _OMEGA_UPPER]))
    omega = cut_function((x[lo:hi] - frame.x1) / frame.z, _OMEGA_UPPER, _OMEGA_LOWER)
    weight = np.full_like(x, xdot1 + xdot2 * 0.0)
    weight[lo:hi], weight[hi:] = xdot1 * omega + xdot2 * (1.0 - omega), xdot1 * 0.0 + xdot2
    f4 = 2.0 * integrate(g_t * dg * weight, dx)
    f5 = integrate(eval_potential_derivative(3, total) * (g * g * g), dx) / 3.0
    return float(f1 + f2 + f3 + f4 + f5)


def coercivity_ratio(frame, terms: PairTerms) -> float:
    """Empirical ratio of the energy-Hessian quadratic form to ||g||_H1^2;
    ``terms`` is pair_terms(frame, pair)."""
    quad = integrate(terms.dg_sq + terms.upp_g_sq, frame.dx)
    if terms.g_h1_sq <= 0.0:
        return float("nan")
    return float(quad / terms.g_h1_sq)
