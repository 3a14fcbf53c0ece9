"""Reduced two-body dynamics of the kink pair.

The separation obeys z'' = 16 sqrt(2) exp(-sqrt(2) z), a repulsive law with
the closed-form solution z(t) = (1/sqrt2) ln((8/v^2) cosh^2(sqrt2 v t + c));
the centers split this symmetrically around a drifting midpoint a + b t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SQRT2

_ARCTANH_GUARD = 1e-15


@dataclass(frozen=True)
class EffectiveParams:
    """Parameters (v, c, a, b) of the closed-form center trajectories."""

    v: float
    c: float
    a: float
    b: float


def params_from_initial(
    x1_0: float, x2_0: float, xdot1_0: float, xdot2_0: float
) -> EffectiveParams:
    """Fit (v, c, a, b) so the trajectories match positions and velocities
    at t = 0."""
    z0 = x2_0 - x1_0
    if z0 <= 0:
        raise ValueError(f"initial separation must be positive, got {z0}")
    zdot0 = xdot2_0 - xdot1_0
    bound = 8.0 * math.exp(-SQRT2 * z0)
    v = math.sqrt(0.25 * zdot0 * zdot0 + bound)
    # c = atanh(r), r = zdot0/(2v): 1 - |r| = 2 bound/(v (2v + |zdot0|)) has no
    # cancellation, and atanh(r) = sign(r) log1p(2|r|/(1 - |r|))/2
    delta = 2.0 * bound / (v * (2.0 * v + abs(zdot0)))
    if delta < _ARCTANH_GUARD:
        raise ValueError(
            "free-streaming initial data: |zdot/(2v)| is within 1e-15 of 1, "
            "the interaction term has underflowed"
        )
    c = math.copysign(0.5 * math.log1p(abs(zdot0) / (v * delta)), zdot0)
    return EffectiveParams(
        v=v, c=c, a=0.5 * (x1_0 + x2_0), b=0.5 * (xdot1_0 + xdot2_0)
    )


def _log_cosh(y):
    """ln cosh(y), overflow-safe for |y| up to ~1e308."""
    ay = np.abs(y)
    return ay + np.log1p(np.exp(-2.0 * ay)) - math.log(2.0)


def separation_d(t, p: EffectiveParams):
    """Closed-form separation d(t)."""
    arg = SQRT2 * p.v * np.asarray(t, dtype=float) + p.c
    return (math.log(8.0 / (p.v * p.v)) + 2.0 * _log_cosh(arg)) / SQRT2


def separation_d_dot(t, p: EffectiveParams):
    """d'(t) = 2 v tanh(sqrt2 v t + c); approaches +-2v as t -> +-inf."""
    arg = SQRT2 * p.v * np.asarray(t, dtype=float) + p.c
    return 2.0 * p.v * np.tanh(arg)


def centers_d1_d2(t, p: EffectiveParams):
    """Center trajectories d1 < d2 splitting the separation around a + b t."""
    mid = p.a + p.b * np.asarray(t, dtype=float)
    half = 0.5 * separation_d(t, p)
    return mid - half, mid + half


def centers_velocities(t, p: EffectiveParams):
    half = 0.5 * separation_d_dot(t, p)
    return p.b - half, p.b + half
