"""Center extraction by orthogonal decomposition.

Given a field state in the two-kink sector, a Newton iteration finds
centers (x1, x2) such that the remainder g = phi - K1 - K2 is orthogonal
(in the Simpson-weighted discrete L^2 product) to both translation modes.
The center velocities follow from projecting d_t phi on the same modes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import simpson_weights
from .model import SQRT2, kink_value
from .pde import FieldState

MAX_NEWTON_ITERS = 50
MIN_SEPARATION = 1.0          # Newton stops before a step below this separation
TRACK_VALID_SEPARATION = 2.0  # frames closer than this are marked invalid
_DET_FLOOR = 1e-8
_ORTHO_RTOL = 1e-10
_ORTHO_ATOL = 1e-13


class ModulationError(RuntimeError):
    """Raised when the center solve cannot produce a valid frame."""


@dataclass(frozen=True)
class PairFields:
    """The superposed pair at a pair of centers, its translation modes and
    the remainder it leaves: what one residual evaluation of the center
    solve forms.  ``block`` holds g, K1', K2', K1'' and K2'' as its rows."""

    h1: np.ndarray     # H(x1 - x) = -K1
    h2: np.ndarray     # H(x - x2) = K2
    block: np.ndarray  # (5, n)

    g = property(lambda self: self.block[0])    # phi - K1 - K2
    m1 = property(lambda self: self.block[1])   # K1' = kink_mode(h1)
    m2 = property(lambda self: self.block[2])   # K2' = kink_mode(h2)
    dm1 = property(lambda self: self.block[3])  # K1'' = U'(K1)
    dm2 = property(lambda self: self.block[4])  # K2'' = U'(K2)


def _pair_fields(state, x1, x2) -> PairFields:
    """The pair, its modes and g = phi + h1 - h2 = phi - K1 - K2 at (x1, x2).

    One profile evaluation per kink: the antikink is the reflection
    K1(x) = -H(x1 - x) = -h1, and K2 = H(x - x2) = h2.  Each mode and its
    derivative follow from the profile value h and its square s = 1 - h^2:
    the mode is kink_mode(h) = sqrt2 h s and the curvature
    K2'' = ((3 s - 2) K2') sqrt2 and K1'' = ((3 s - 2) K1') (-sqrt2), in the
    operations of model.eval_potential_derivative, so K'' is U'(K) bit for bit.
    """
    x = state.x
    h1 = kink_value(x1 - x)
    h2 = kink_value(x - x2)
    block = np.empty((5, state.n))
    g, m1, m2, dm1, dm2 = block
    np.add(state.phi, h1, out=g)
    g -= h2
    for h, m, dm, sign in ((h1, m1, dm1, -SQRT2), (h2, m2, dm2, SQRT2)):
        s = h * h
        np.subtract(1.0, s, out=s)
        np.multiply(h, SQRT2, out=m)
        m *= s
        np.multiply(s, 3.0, out=dm)
        dm -= 2.0
        dm *= m
        dm *= sign
    return PairFields(h1, h2, block)


@dataclass
class ModulationFrame:
    """Extracted centers and solve diagnostics of one snapshot.

    ``state`` is the snapshot it was solved on, and ``pair`` the PairFields
    of the solve's last residual evaluation, which ``fields()`` returns and
    otherwise rebuilds from the snapshot, with the same bits.  A frame whose
    solve failed reads g = 0.  The frames that ``track`` returns carry no
    pair, and no snapshot after the first (``state`` is None), as a streamed
    snapshot's row is reused once the next one is requested.  A frame
    pickles its scalars alone.
    """

    t: float
    x1: float
    x2: float
    z: float
    newton_iters: int
    matrix_det: float
    xdot1: float
    xdot2: float
    state: FieldState | None
    valid: bool = True
    pair: PairFields | None = field(default=None, repr=False, compare=False)

    def __reduce__(self):
        return ModulationFrame, (self.t, self.x1, self.x2, self.z, self.newton_iters,
                                 self.matrix_det, self.xdot1, self.xdot2, None, self.valid)

    @property
    def dx(self) -> float:
        return self.state.dx

    @property
    def x(self) -> np.ndarray:
        return self.state.x

    @property
    def solved(self) -> bool:
        """False for the placeholder that track records when every solve failed."""
        return not math.isnan(self.matrix_det)

    def fields(self) -> PairFields:
        """The pair at the frame's centers: the solve's, or rebuilt from the snapshot."""
        return self.pair if self.pair is not None else _pair_fields(self.state, self.x1, self.x2)

    def remainder_rate(self, pair: PairFields) -> np.ndarray:
        """d_t g = pi + xdot1 K1' + xdot2 K2' from the pair at the frame's centers."""
        return self.state.pi + self.xdot1 * pair.m1 + self.xdot2 * pair.m2

    @property
    def g(self) -> np.ndarray:
        return self.fields().g if self.solved else np.zeros(self.state.n)


def _residual_and_matrix(state, w, x1, x2):
    """Orthogonality residuals (r1, r2), their symmetric Jacobian's entries
    (a11, a12, a22), (int K1'^2, int g^2) (Python floats) and the pair they
    came from.

    The eight integrals are entries of one product: the rows g, K1', K2',
    weighted, against the five rows of the pair's block.
    """
    pair = _pair_fields(state, x1, x2)
    block = pair.block
    (gg, g1, g2, gd1, gd2), (_, m11, m12, _, _), (_, _, m22, _, _) = (
        (block[:3] * w) @ block.T).tolist()
    return (g1, g2), (m11 - gd1, m12, m22 - gd2), (m11, gg), pair


def _solve(jac, b1, b2):
    """det A and the u with A u = (b1, b2) for A = [[a11, a12], [a12, a22]],
    by Cramer's rule; u is NaN when det = 0."""
    a11, a12, a22 = jac
    det = a11 * a22 - a12 * a12
    d = det or math.nan  # a zero det would raise ZeroDivisionError
    return det, (a22 * b1 - a12 * b2) / d, (a11 * b2 - a12 * b1) / d


def _max_abs(r) -> float:
    """max(|r1|, |r2|), NaN if either is: Python's max drops a NaN 2nd argument."""
    return max(abs(r[0]), abs(r[1])) if r[1] == r[1] else math.nan


def decompose(state, guess: tuple[float, float]) -> ModulationFrame:
    """Solve the orthogonality conditions for the kink centers.

    ``guess`` is an ordered pair (x1, x2) with separation >= 2.  Newton
    iteration with the exact 2x2 Jacobian refines it, one full step per
    iteration, until the orthogonality residuals reach numerical floor: the
    solve stops at the first step that does not lower the residual or that
    would bring the separation below MIN_SEPARATION.  A solve of k accepted
    steps evaluates the residual at most k + 2 times.  Steps, determinant
    and center velocities are closed 2x2 formulas in Python floats.  The
    frame carries the pair of the last residual evaluation.
    """
    x1, x2 = float(guess[0]), float(guess[1])
    if x2 - x1 < TRACK_VALID_SEPARATION:
        raise ModulationError(f"initial guess separation {x2 - x1:.3f} < 2")
    w = simpson_weights(state.n, state.dx)
    res, jac, (m11, gg), pair = _residual_and_matrix(state, w, x1, x2)
    res_norm = _max_abs(res)
    iters = 0
    g_l2 = math.sqrt(max(gg, 0.0))
    while iters < MAX_NEWTON_ITERS and res_norm > max(1e-16, 1e-13 * g_l2):
        det, d1, d2 = _solve(jac, -res[0], -res[1])
        if abs(det) < _DET_FLOOR:
            raise ModulationError(f"modulation matrix near-singular: det={det:.2e}")
        nx1, nx2 = x1 + d1, x2 + d2
        if nx2 - nx1 < MIN_SEPARATION:
            break
        new_res, new_jac, (_, gg), new_pair = _residual_and_matrix(state, w, nx1, nx2)
        new_norm = _max_abs(new_res)
        if not new_norm < res_norm:
            break  # residual at numerical floor (or not finite)
        x1, x2, res, jac, pair = nx1, nx2, new_res, new_jac, new_pair
        res_norm = new_norm
        g_l2 = math.sqrt(max(gg, 0.0))
        iters += 1
    if not math.isfinite(res_norm) or res_norm > _ORTHO_RTOL * math.sqrt(m11) * g_l2 + _ORTHO_ATOL:
        raise ModulationError(
            f"Newton stopped after {iters} iterations with residual {res_norm:.2e} "
            f"above tolerance"
        )

    det, xdot1, xdot2 = _solve(jac, -float(w @ (state.pi * pair.m1)),
                               -float(w @ (state.pi * pair.m2)))
    if not math.isfinite(det) or det < _DET_FLOOR:
        raise ModulationError(f"modulation matrix not positive: det={det:.2e}")
    if not (math.isfinite(xdot1) and math.isfinite(xdot2)):
        raise ModulationError(f"center velocities not finite: ({xdot1}, {xdot2})")
    return ModulationFrame(
        t=state.t,
        x1=x1,
        x2=x2,
        z=x2 - x1,
        newton_iters=iters,
        matrix_det=det,
        xdot1=xdot1,
        xdot2=xdot2,
        state=state,
        pair=pair,
    )


def initial_center_guess(state) -> tuple[float, float]:
    """Heuristic centers from the -1/sqrt2 and +1/sqrt2 level crossings."""
    target = 1.0 / math.sqrt(2.0)
    x = state.x
    phi = state.phi
    x1 = _first_crossing(x, phi, -target)
    x2 = _first_crossing(x, phi, target)
    if x1 is None or x2 is None or x1 >= x2:
        raise ModulationError("could not locate two ordered level crossings")
    return x1, x2


def _first_crossing(x, phi, level):
    below = phi < level
    idx = np.nonzero(below[:-1] & ~below[1:])[0]
    if idx.size == 0:
        return None
    i = int(idx[0])
    frac = (level - phi[i]) / (phi[i + 1] - phi[i])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def track(snapshots, on_valid) -> list[ModulationFrame]:
    """Decompose a chronological iterable of snapshots, one at a time as it
    yields them, seeding each solve with the previous centers.

    A first-frame failure raises; later frames entering the collision
    regime (z < 2) or failing to converge are marked invalid and the last
    valid centers keep seeding subsequent attempts.  ``on_valid(frame)`` is
    called for each valid frame, in order and before the next snapshot is
    requested, while the frame carries its solve's pair.  Each frame holds
    its pair and its snapshot only until then: the returned frames carry no
    pair and keep the first snapshot, which a ``pde.run`` stream owns, and
    every later frame holds ``state=None``, so none exposes a row that the
    stepper has reused.
    """
    snapshots = iter(snapshots)
    first = next(snapshots, None)
    if first is None:
        raise ValueError("no snapshots to track")
    prev = decompose(first, initial_center_guess(first))
    on_valid(prev)
    prev.pair = None
    frames = [prev]
    for snap in snapshots:
        dt = snap.t - prev.t
        seed = (prev.x1 + prev.xdot1 * dt, prev.x2 + prev.xdot2 * dt)
        frame = None
        for attempt in (seed, None):
            try:
                g = attempt if attempt is not None else initial_center_guess(snap)
                frame = decompose(snap, g)
                break
            except ModulationError:
                continue
        if frame is None:
            frame = _invalid_frame(snap, (prev.x1, prev.x2))
        elif frame.z < TRACK_VALID_SEPARATION:
            frame.valid = False
        else:
            on_valid(frame)
            prev = frame
        frame.state = frame.pair = None
        frames.append(frame)
    return frames


def _invalid_frame(state, seed) -> ModulationFrame:
    nan = float("nan")
    return ModulationFrame(
        t=state.t,
        x1=seed[0],
        x2=seed[1],
        z=seed[1] - seed[0],
        newton_iters=0,
        matrix_det=nan,
        xdot1=nan,
        xdot2=nan,
        state=state,
        valid=False,
    )
