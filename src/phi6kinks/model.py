"""Closed-form phi^6 potential, kink/antikink profiles, and Lorentz boosts.

The model is fixed: U(phi) = phi^2 (1 - phi^2)^2, with vacua at -1, 0, +1.
The kink profile joins the vacua 0 and 1; the antikink is its reflection
joining -1 and 0.  All functions are pure and accept scalars or numpy
arrays.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# k-th derivative of U(phi) = phi^2 - 2 phi^4 + phi^6, as coefficient arrays
# for powers [phi^0, phi^1, ..., phi^5].
_U_DERIV_COEFFS = {
    1: (0.0, 2.0, 0.0, -8.0, 0.0, 6.0),
    2: (2.0, 0.0, -24.0, 0.0, 30.0, 0.0),
    3: (0.0, -48.0, 0.0, 120.0, 0.0, 0.0),
    4: (-48.0, 0.0, 360.0, 0.0, 0.0, 0.0),
    5: (0.0, 720.0, 0.0, 0.0, 0.0, 0.0),
    6: (720.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}


def eval_potential(phi):
    """U(phi) = phi^2 (1 - phi^2)^2."""
    phi = np.asarray(phi, dtype=float)
    out = phi * phi * (1.0 - phi * phi) ** 2
    return out if out.ndim else float(out)


def eval_potential_derivative(k, phi):
    """k-th derivative of U for 1 <= k <= 6 (U is a sextic, so U^(k>=7) = 0)."""
    if k not in _U_DERIV_COEFFS:
        raise ValueError(f"derivative order must be in 1..6, got {k}")
    phi = np.asarray(phi, dtype=float)
    coeffs = _U_DERIV_COEFFS[k]
    out = np.full_like(phi, coeffs[5])
    for power in range(4, -1, -1):
        out = out * phi + coeffs[power]
    return out if out.ndim else float(out)


def kink_value(x):
    """Kink profile rising monotonically from 0 at -inf to 1 at +inf.

    Evaluated with only decaying exponentials on each side so that large
    |x| cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    q = np.exp(-2.0 * SQRT2 * np.abs(x))
    right = 1.0 / np.sqrt(1.0 + q)          # x >= 0
    left = np.exp(SQRT2 * np.minimum(x, 0.0)) / np.sqrt(1.0 + q)  # x < 0
    out = np.where(x >= 0.0, right, left)
    return out if out.ndim else float(out)


def kink_mode(h):
    """Kink slope H' = sqrt(2) H (1 - H^2) from profile values h = H(x).

    This is the first integral of the static equation.  The slope's own
    derivative is the force balance H'' = U'(H), so the translation mode and
    its derivative both follow from one profile evaluation.
    """
    return SQRT2 * h * (1.0 - h * h)


def kink_derivative(order, x):
    """Spatial derivative of the kink profile: H' = kink_mode(H), H'' = U'(H)."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    h = kink_value(x)
    out = kink_mode(h) if order == 1 else eval_potential_derivative(1, h)
    return out if np.ndim(out) else float(out)


def antikink_value(x):
    """Antikink profile rising monotonically from -1 at -inf to 0 at +inf."""
    out = -kink_value(-np.asarray(x, dtype=float))
    return out if np.ndim(out) else float(out)


def antikink_derivative(order, x):
    """Spatial derivative of the antikink; order 1 is a positive bump."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    x = np.asarray(x, dtype=float)
    if order == 1:
        out = kink_derivative(1, -x)
    else:
        out = -kink_derivative(2, -x)
    return out if np.ndim(out) else float(out)


class Orientation(enum.Enum):
    KINK = "kink"          # joins vacua 0 -> 1
    ANTIKINK = "antikink"  # joins vacua -1 -> 0


@dataclass(frozen=True)
class KinkSpec:
    """A single (possibly moving) kink: orientation, center and boost speed."""

    orientation: Orientation
    center: float = 0.0
    boost_velocity: float = 0.0

    def __post_init__(self):
        if not abs(self.boost_velocity) < 1.0:
            raise ValueError(f"|boost_velocity| must be < 1, got {self.boost_velocity}")


def boosted_kink_field(spec: KinkSpec, x, t):
    """Value and exact time derivative of a Lorentz-boosted profile.

    The moving solution is H((x - a - v t)/sqrt(1 - v^2)); its time
    derivative is -(v/sqrt(1 - v^2)) H'(xi) at the contracted coordinate.
    """
    v = spec.boost_velocity
    gamma_inv = np.sqrt(1.0 - v * v)
    xi = (np.asarray(x, dtype=float) - spec.center - v * t) / gamma_inv
    if spec.orientation is Orientation.KINK:
        value = kink_value(xi)
        slope = kink_derivative(1, xi)
    else:
        value = antikink_value(xi)
        slope = antikink_derivative(1, xi)
    dvalue_dt = -(v / gamma_inv) * np.asarray(slope, dtype=float)
    if np.ndim(value):
        return value, dvalue_dt
    return float(value), float(dvalue_dt)
