"""Closed-form phi^6 potential and kink/antikink profiles.

The model is fixed: U(phi) = phi^2 (1 - phi^2)^2, with vacua at -1, 0, +1.
The kink profile joins the vacua 0 and 1; the antikink is its reflection
joining -1 and 0.  All functions are pure, accept scalars or numpy arrays
and return numpy values.
"""
from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Every grid reaches this far beyond the outermost kink center, where the
# profile tails are below e^{-40 sqrt2} ~ 3e-25.
MARGIN = 40.0

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
# the power each Horner evaluation starts from: the highest non-zero one, or 1
_U_DERIV_TOP = {
    k: max((p for p in range(2, 6) if coeffs[p]), default=1)
    for k, coeffs in _U_DERIV_COEFFS.items()
}


def eval_potential(phi):
    """U(phi) = phi^2 (1 - phi^2)^2."""
    phi = np.asarray(phi, dtype=float)
    return phi * phi * (1.0 - phi * phi) ** 2


def eval_potential_derivative(k, phi):
    """k-th derivative of U for 1 <= k <= 6 (U is a sextic, so U^(k>=7) = 0).

    Horner from the highest non-zero power (at least phi^1), skipping the
    additions of interior zeros: adding 0.0 only turns -0.0 into +0.0, which
    a later addition, the final + c_0 at the latest, erases.  So the bytes
    are those of the six-term loop on finite and NaN input; +-inf, which
    profile values in [-1, 1] never reach, may differ.
    """
    if k not in _U_DERIV_COEFFS:
        raise ValueError(f"derivative order must be in 1..6, got {k}")
    phi = np.asarray(phi, dtype=float)
    coeffs = _U_DERIV_COEFFS[k]
    top = _U_DERIV_TOP[k]
    out = coeffs[top] * phi
    for power in range(top - 1, 0, -1):  # Horner, in place
        if coeffs[power]:
            out += coeffs[power]
        out *= phi
    out += coeffs[0]
    return out


def kink_value(x):
    """Kink profile rising monotonically from 0 at -inf to 1 at +inf.

    Evaluated with only decaying exponentials so that large |x| cannot
    overflow: e^{sqrt2 x} / sqrt(1 + e^{2 sqrt2 x}) for x < 0, and for
    x >= 0 the numerator is exp(0) = 1 exactly.
    """
    x = np.asarray(x, dtype=float)
    return np.exp(SQRT2 * np.minimum(x, 0.0)) / np.sqrt(1.0 + np.exp(-2.0 * SQRT2 * np.abs(x)))


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
    return kink_mode(h) if order == 1 else eval_potential_derivative(1, h)


def antikink_value(x):
    """Antikink profile rising monotonically from -1 at -inf to 0 at +inf."""
    return -kink_value(-np.asarray(x, dtype=float))


def antikink_derivative(order, x):
    """Spatial derivative of the antikink; order 1 is a positive bump."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    x = np.asarray(x, dtype=float)
    return kink_derivative(1, -x) if order == 1 else -kink_derivative(2, -x)
