"""Closed-form phi^6 potential and kink/antikink profiles.

The model is fixed: U(phi) = phi^2 (1 - phi^2)^2, with vacua at -1, 0, +1,
and U', U'' and U''' in one closed form each.  The kink profile joins the
vacua 0 and 1; the antikink is its reflection joining -1 and 0.  All
functions are pure, accept scalars or numpy arrays and return numpy values.
"""
from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Every grid reaches this far beyond the outermost kink center, where the
# profile tails are below e^{-40 sqrt2} ~ 3e-25.
MARGIN = 40.0


def eval_potential(phi):
    """U(phi) = phi^2 (1 - phi^2)^2."""
    phi = np.asarray(phi, dtype=float)
    return phi * phi * (1.0 - phi * phi) ** 2


def eval_potential_derivative(k, phi):
    """U', U'' or U''' (k = 1, 2, 3), each in one closed form.

    U' = 2 phi s (3 s - 2) with s = 1 - phi^2 is ((3 s - 2) kink_mode(phi)) sqrt2,
    formed in the operations of the center solve's K'' = U'(K), so the two
    agree bit for bit; it is exactly 0 at the vacua and, unlike the expanded
    2 phi - 8 phi^3 + 6 phi^5, does not cancel near them.
    U'' = (30 phi^2 - 24) phi^2 + 2 and U''' = (120 phi^2 - 48) phi.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {k}")
    phi = np.asarray(phi, dtype=float)
    # each form in place, in the operations and order written above, on the
    # buffer of phi^2: an array even for scalar phi
    out = np.multiply(phi, phi, out=np.empty_like(phi))
    if k == 1:
        np.subtract(1.0, out, out=out)  # s, shared with the mode sqrt2 phi s, as in kink_mode
        mode = phi * SQRT2
        mode *= out
        out *= 3.0
        out -= 2.0
        out *= mode
        out *= SQRT2
    elif k == 2:
        sq, out = out, out * 30.0
        out -= 24.0
        out *= sq
        out += 2.0
    else:
        out *= 120.0
        out -= 48.0
        out *= phi
    return out[()]  # a numpy scalar for scalar phi, as out-of-place operations give


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
