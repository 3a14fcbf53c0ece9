"""Scenario runner: build initial data, evolve, track, compare, verify.

A scenario evolves two-kink initial data, extracts centers per frame,
anchors the reduced two-body trajectories to the frame-0 modulation data,
and emits a ComparisonReport.  The verify_* functions turn a report into
pass/fail verdicts with the measured constants attached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .effective import (
    centers_d1_d2,
    centers_velocities,
    params_from_initial,
    separation_d,
)
from .functionals import (
    coercivity_ratio,
    energy_breakdown,
    lyapunov_F,
    odd_sample_count,
    pair_terms,
)
from .model import MARGIN, SQRT2, kink_mode, kink_value
from .modulation import track
from .pde import FieldState, SolverConfig, grid_nodes, run
from .reporting import ComparisonReport, FrameRow, write_report

STABILITY_C_LIMIT = 10.0  # max ||g||_H1 / sqrt(eps) allowed by verify_orbital_stability
TRACKING_C_LIMIT = 20.0   # max |z - d| / min(sqrt(eps) t, eps t^2) allowed by verify_tracking
MIN_GROWTH_FRAMES = 20    # frames verify_remainder_growth needs for a fit
LYAPUNOV_A2 = 0.1         # coefficient of ||(g, g_t)||^2 in the lower bound on F
DEFAULT_DX = 0.05         # grid spacing of the shipped scenarios and the probe
GRID_SLACK = 5.0          # grid reach beyond MARGIN on each side


@dataclass(frozen=True)
class GridSpec:
    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not 0 < self.dx < math.inf:
            raise ValueError(f"grid dx must be positive and finite, got {self.dx}")
        if self.n < 5:
            raise ValueError(f"grid n must be >= 5, got {self.n}")


@dataclass(frozen=True)
class KinkArrangement:
    x1: float
    x2: float
    v1: float = 0.0
    v2: float = 0.0

    def __post_init__(self):
        if not (abs(self.v1) < 1.0 and abs(self.v2) < 1.0):
            raise ValueError("kink speeds must satisfy |v| < 1")


@dataclass(frozen=True)
class GaussianPerturbation:
    amplitude: float
    width: float = 1.0
    center: float = 0.0
    channel: str = "g0"  # "g0" perturbs phi, "g1" perturbs pi

    def __post_init__(self):
        if self.channel not in ("g0", "g1"):
            raise ValueError(f"channel must be 'g0' or 'g1', got {self.channel}")
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")

    def sample(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-(((x - self.center) / self.width) ** 2))


@dataclass(frozen=True)
class ScenarioConfig:
    kinks: KinkArrangement
    grid: GridSpec | None = None
    perturbation: GaussianPerturbation | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    t_end: float = 100.0
    frame_cadence: int = 50
    outputs: str | None = None
    seed_label: str = "scenario"

    def __post_init__(self):
        if self.kinks.x1 >= self.kinks.x2:
            raise ValueError("config must place the antikink left of the kink")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if round(self.t_end / self.solver.dt) < 1:
            raise ValueError(f"t_end={self.t_end} rounds to no step of dt={self.solver.dt}")
        if self.frame_cadence < 1:
            raise ValueError("frame_cadence must be >= 1")
        grid, (x1, x2) = self.resolved_grid(), (self.kinks.x1, self.kinks.x2)
        self.solver.validate_cfl(grid.dx)
        x_max = grid.x0 + grid.dx * (grid.n - 1)
        if x1 - grid.x0 < MARGIN or x_max - x2 < MARGIN:
            raise ValueError(f"grid [{grid.x0}, {x_max}] must cover kinks ({x1}, {x2}) "
                             f"with {MARGIN:g}-unit margins")

    def resolved_grid(self) -> GridSpec:
        return self.grid if self.grid is not None else auto_grid(self.kinks)


def auto_grid(kinks: KinkArrangement, dx: float = DEFAULT_DX) -> GridSpec:
    """Symmetric grid covering the kinks with MARGIN plus GRID_SLACK."""
    half = max(abs(kinks.x1), abs(kinks.x2)) + MARGIN + GRID_SLACK
    return GridSpec(x0=-half, dx=dx, n=odd_sample_count(2.0 * half, dx))


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


def build_initial_state(config: ScenarioConfig) -> FieldState:
    """Antikink at x1 plus kink at x2 with boost speeds v1, v2 at t=0 on the
    config's grid, plus its perturbation in phi (g0) or pi (g1).

    Each profile is the exact Lorentz-contracted traveling wave with its
    exact time derivative.
    """
    grid, kinks = config.resolved_grid(), config.kinks
    x = grid_nodes(float(grid.x0), float(grid.dx), grid.n)
    a_val, a_dot = _boosted_kink(x, kinks.x1, kinks.v1, reflect=True)
    k_val, k_dot = _boosted_kink(x, kinks.x2, kinks.v2, reflect=False)
    phi, pi = a_val + k_val, a_dot + k_dot
    if config.perturbation is not None:
        bump = config.perturbation.sample(x)
        # adding 0.0 to the field left alone is not a no-op: it turns -0.0
        # into +0.0, and the snapshots keep those bits
        g0, g1 = (bump, 0.0) if config.perturbation.channel == "g0" else (0.0, bump)
        phi, pi = phi + g0, pi + g1
    return FieldState(x0=grid.x0, dx=grid.dx, n=grid.n, phi=phi, pi=pi)


def run_scenario(config: ScenarioConfig) -> ComparisonReport:
    """init -> evolve -> track, with each valid frame's diagnostics taken from
    the arrays of its center solve -> anchor reduced dynamics -> report.

    The stepper runs in its own process while track solves each snapshot as
    it lands; each snapshot's energy is measured by whichever process would
    otherwise wait."""
    state = build_initial_state(config)
    snapshots = run(state, config.solver, config.t_end, energy_breakdown, config.frame_cadence)

    params = None
    rows: list[FrameRow] = []
    d1_dots: list[float] = []
    d2_dots: list[float] = []
    coer_min = math.inf

    def diagnose(frame, pair):
        nonlocal params, coer_min
        if params is None:  # frame 0, which track raises on unless it is valid
            params = params_from_initial(frame.x1, frame.x2, frame.xdot1, frame.xdot2)
        d = separation_d(frame.t, params)
        d1, d2 = centers_d1_d2(frame.t, params, d)
        d1dot, d2dot = centers_velocities(frame.t, params)
        eps_t = frame.state.measured.epsilon  # energy_breakdown, run by pde.run
        terms = pair_terms(frame, pair)
        norm_g_h1 = float(np.sqrt(terms.g_h1_sq))
        f_t = lyapunov_F(frame, terms)
        rows.append(
            FrameRow(
                t=frame.t,
                x1=frame.x1,
                x2=frame.x2,
                z=frame.z,
                d1=d1,
                d2=d2,
                d=d,
                z_minus_d=frame.z - d,
                xdot1=frame.xdot1,
                xdot2=frame.xdot2,
                norm_g_h1=norm_g_h1,
                norm_gt_l2=terms.gt_l2,
                eps_t=eps_t,
                F_t=f_t,
            )
        )
        d1_dots.append(d1dot)
        d2_dots.append(d2dot)
        if norm_g_h1 > 1e-9:
            coer_min = min(coer_min, coercivity_ratio(frame, terms))

    try:
        frames = track(snapshots, diagnose)
    finally:
        snapshots.close()  # stops the stepper if track raised before the stream ended
    failed_at = next((idx for idx, frame in enumerate(frames) if not frame.valid), None)

    report = ComparisonReport(
        rows=rows,
        epsilon=rows[0].eps_t,  # frame 0 is valid: track raises otherwise
        v=params.v,
        c=params.c,
        a=params.a,
        b=params.b,
        seed_label=config.seed_label,
        failed_at_frame=failed_at,
        coercivity_ratio_min=coer_min if coer_min < math.inf else float("nan"),
        d1_dots=d1_dots,
        d2_dots=d2_dots,
        frames=frames,
    )
    report.fitted_C_growth = fit_growth_constant(report)
    if config.outputs:
        write_report(report, config.outputs)
    return report


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityVerdict:
    c_stability: float        # max ||g||_H1 / sqrt(eps)
    separation_margin: float  # max exp(-sqrt2 z) / (eps / 2), must be <= 1
    t2_ratio_min: float
    t2_ratio_max: float
    passed: bool


def verify_orbital_stability(report: ComparisonReport) -> StabilityVerdict:
    """Check the stability envelope and the two-sided energy-excess bracket.

    (a) max_t ||g||_H1 <= C sqrt(eps) with C <= STABILITY_C_LIMIT; (b) the
    minimal separation satisfies exp(-sqrt2 z) <= eps/2 at every frame; (c) the
    combination exp(-sqrt2 z) + ||(g, g_t)||^2 + xdot1^2 + xdot2^2 stays
    within a factor 10 of eps.
    """
    eps = report.epsilon
    if not eps > 0 or not report.rows:
        return StabilityVerdict(math.nan, math.nan, math.nan, math.nan, False)
    c_stab = max(r.norm_g_h1 for r in report.rows) / math.sqrt(eps)
    sep = max(math.exp(-SQRT2 * r.z) for r in report.rows) / (0.5 * eps)
    ratios = [
        (
            math.exp(-SQRT2 * r.z)
            + r.remainder**2
            + r.xdot1**2
            + r.xdot2**2
        )
        / eps
        for r in report.rows
    ]
    passed = (c_stab <= STABILITY_C_LIMIT and sep <= 1.0
              and min(ratios) >= 0.1 and max(ratios) <= 10.0)
    return StabilityVerdict(
        c_stability=c_stab,
        separation_margin=sep,
        t2_ratio_min=min(ratios),
        t2_ratio_max=max(ratios),
        passed=passed,
    )


@dataclass(frozen=True)
class GrowthVerdict:
    fitted_C: float
    frames_used: int
    passed: bool


def fit_growth_constant(report: ComparisonReport) -> float:
    """Smallest C with ||(g,g_t)||^2 <= C (||(g,g_t)(0)||^2 + eps^2)
    exp(C sqrt(eps) |t| / ln(1/eps)) across all frames (bisection)."""
    eps = report.epsilon
    if not 0 < eps < math.exp(-1.0) or not report.rows:
        return float("nan")
    y = np.array([r.remainder ** 2 for r in report.rows])
    t = np.abs([r.t for r in report.rows])
    base = float(y[0]) + eps * eps
    rate = math.sqrt(eps) / math.log(1.0 / eps)

    def holds(c: float) -> bool:
        # math.exp decides rows within 1e-12 of their bound, where np.exp may round otherwise
        with np.errstate(over="ignore", invalid="ignore"):  # inf, as in the scalar product
            bound = c * base * np.exp(np.minimum(c * rate * t, 700.0))
            close = np.abs(y - bound) <= 1e-12 * bound
        return not (y > bound)[~close].any() and not any(
            y[i] > c * base * math.exp(min(c * rate * t[i], 700.0))
            for i in np.flatnonzero(close))

    lo, hi = 0.0, 1.0
    while not holds(hi):
        hi *= 2.0
        if hi > 1e12:
            return float("inf")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: the bracket can no longer move
            break
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def verify_remainder_growth(report: ComparisonReport) -> GrowthVerdict:
    """Fit the exponential growth envelope and confirm one constant covers
    the run including the final frame."""
    eps = report.epsilon
    if not eps > 0:
        raise ValueError(f"degenerate fit: energy excess {eps} is not a positive number")
    if math.log(1.0 / eps) <= 1.0:
        raise ValueError(f"degenerate fit: energy excess {eps} has ln(1/eps) <= 1")
    if len(report.rows) < MIN_GROWTH_FRAMES:
        raise ValueError(f"need >= {MIN_GROWTH_FRAMES} frames, got {len(report.rows)}")
    c = fit_growth_constant(report)
    return GrowthVerdict(fitted_C=c, frames_used=len(report.rows), passed=math.isfinite(c))


@dataclass(frozen=True)
class TrackingVerdict:
    fitted_C: float
    max_abs_z_minus_d: float
    passed: bool


def verify_tracking(report: ComparisonReport, t_window: float | None = None) -> TrackingVerdict:
    """Fit C in |z - d| <= C min(sqrt(eps) t, eps t^2) over t in (0, window]
    and pass when C <= TRACKING_C_LIMIT.  Without a positive excess there
    is no envelope, and without a frame in the window no evidence: either
    way the verdict fails with C = nan."""
    eps = report.epsilon
    rows = [r for r in report.rows if r.t > 0.0 and (t_window is None or r.t <= t_window)]
    if not eps > 0 or not rows:
        return TrackingVerdict(math.nan, math.nan, False)
    c_fit = 0.0
    max_dev = 0.0
    for r in rows:
        bound = min(math.sqrt(eps) * r.t, eps * r.t * r.t)
        dev = abs(r.z_minus_d)
        max_dev = max(max_dev, dev)
        if bound > 0:
            c_fit = max(c_fit, dev / bound)
    return TrackingVerdict(
        fitted_C=c_fit,
        max_abs_z_minus_d=max_dev,
        passed=c_fit <= TRACKING_C_LIMIT,
    )


@dataclass(frozen=True)
class LyapunovDiagnostics:
    """Fitted constants of the corrected-functional control inequalities.

    a1_fit: smallest A1 with F + A1 eps^2 >= LYAPUNOV_A2 ||(g, g_t)||^2 at
    the frames after t = 0 (the lower-bound shape at the conventional A2 = 0.1).
    fdot_ratio_max: fitted A3 bounding the finite-difference |dF/dt| by
    A3 (eps^{3/2} ||(g,g_t)|| + eps^{1/2} ||(g,g_t)||^2 / ln(1/eps)).
    Both are recordings; regressions show up as constant inflation.
    """

    a1_fit: float
    fdot_ratio_max: float


def lyapunov_diagnostics(report: ComparisonReport) -> LyapunovDiagnostics:
    eps = report.epsilon
    if not eps > 0 or math.log(1.0 / eps) <= 1.0 or len(report.rows) < 2:
        return LyapunovDiagnostics(float("nan"), float("nan"))
    log_inv = math.log(1.0 / eps)
    a1 = 0.0
    fdot_ratio = 0.0
    for prev, cur in zip(report.rows, report.rows[1:]):
        norm = cur.remainder
        a1 = max(a1, (LYAPUNOV_A2 * norm**2 - cur.F_t) / (eps * eps))
        budget = eps**1.5 * norm + math.sqrt(eps) * norm**2 / log_inv
        if budget > 0 and cur.t > prev.t:
            fdot = abs(cur.F_t - prev.F_t) / (cur.t - prev.t)
            fdot_ratio = max(fdot_ratio, fdot / budget)
    return LyapunovDiagnostics(a1_fit=a1, fdot_ratio_max=fdot_ratio)


# ---------------------------------------------------------------------------
# optimality probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRecord:
    eps_target: float
    eps_measured: float
    z0: float
    t_max: float
    t_hit: float | None
    hit: bool
    hit_ratio: float | None  # t_hit / (ln(1/eps)/sqrt(eps))


def probe_scenario_config(eps_target: float) -> ScenarioConfig:
    """Resting kinks whose interaction energy alone supplies the excess."""
    if not (0.0 < eps_target < math.exp(-1.0)):
        raise ValueError(f"probe target must lie in (0, 1/e), got {eps_target}")
    z0 = math.log(2.0 * SQRT2 / eps_target) / SQRT2
    t_max = 3.0 * math.log(1.0 / eps_target) / math.sqrt(eps_target)
    # outgoing kinks approach speed sqrt(8 e^{-sqrt2 z0}) each side
    v_out = math.sqrt(8.0 * math.exp(-SQRT2 * z0))
    half = 0.5 * z0 + MARGIN + v_out * t_max + GRID_SLACK
    return ScenarioConfig(
        kinks=KinkArrangement(x1=-0.5 * z0, x2=0.5 * z0),
        grid=GridSpec(x0=-half, dx=DEFAULT_DX, n=odd_sample_count(2.0 * half, DEFAULT_DX)),
        t_end=t_max,
        frame_cadence=25,
        seed_label=f"probe-eps{eps_target:g}",
    )


def optimality_probe(epsilon_list, kappa: float = 0.1) -> list[ProbeRecord]:
    """For each target excess, run resting kinks and record the first time
    the remainder norm reaches kappa * eps (or report that it never does)."""
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    records = []
    for eps_target in epsilon_list:
        config = probe_scenario_config(eps_target)
        report = run_scenario(config)
        eps = report.epsilon
        threshold = kappa * eps
        t_hit = None
        for r in report.rows:
            if r.remainder >= threshold:
                t_hit = r.t
                break
        scale = math.log(1.0 / eps) / math.sqrt(eps)
        records.append(
            ProbeRecord(
                eps_target=eps_target,
                eps_measured=eps,
                z0=config.kinks.x2 - config.kinks.x1,
                t_max=config.t_end,
                t_hit=t_hit,
                hit=t_hit is not None,
                hit_ratio=(t_hit / scale) if t_hit is not None else None,
            )
        )
    return records


# ---------------------------------------------------------------------------
# default suite
# ---------------------------------------------------------------------------


def default_suite(outputs: str | None = None) -> list[ScenarioConfig]:
    """The shipped scenario suite: resting pairs, head-on approaches, and
    Gaussian-perturbed resting pairs."""
    solver = SolverConfig(dt=0.02)
    configs = []
    for z0 in (12.0, 16.0):
        configs.append(
            ScenarioConfig(
                kinks=KinkArrangement(x1=-0.5 * z0, x2=0.5 * z0),
                solver=solver,
                t_end=100.0,
                seed_label=f"static-z{z0:g}",
            )
        )
    for v in (0.03, 0.05, 0.08):
        z0 = 16.0
        z_min = math.log(8.0 / (v * v)) / SQRT2
        t_coll = (z0 - z_min) / (2.0 * v)
        configs.append(
            ScenarioConfig(
                kinks=KinkArrangement(x1=-0.5 * z0, x2=0.5 * z0, v1=v, v2=-v),
                solver=solver,
                t_end=round(2.0 * t_coll + 10.0),
                seed_label=f"headon-v{v:g}",
            )
        )
    for amp in (1e-4, 1e-3):
        z0 = 12.0
        configs.append(
            ScenarioConfig(
                kinks=KinkArrangement(x1=-0.5 * z0, x2=0.5 * z0),
                perturbation=GaussianPerturbation(amplitude=amp, width=1.0, center=0.5 * z0),
                solver=solver,
                t_end=100.0,
                seed_label=f"perturbed-a{amp:g}",
            )
        )
    if outputs:
        configs = [
            replace(c, outputs=f"{outputs}/{c.seed_label}") for c in configs
        ]
    return configs
