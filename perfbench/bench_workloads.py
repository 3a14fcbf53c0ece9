"""Workloads of the phi6kinks benchmark and the correctness gate of each operation.

A workload is a fixed list of operations built from a seed:

* one *scenario* operation per generated ``ScenarioConfig`` (evolve, track,
  compare, write the report),
* one *verify* operation (``phi6kinks verify`` over the reports written),
* on ``suite`` one *probe* operation (``optimality_probe``).

The seed picks one of ``VARIANTS`` jitter variants (seed modulo
``VARIANTS``); variant 0 is the nominal configuration.  A variant jitters
every kink center by up to +-0.25, every kink speed by up to +-2 % and the
perturbation center by up to +-0.25.  The grid, time step, end time and
frame cadence never change with the seed, so the amount of work is the same
for every seed.  Each variant has reference values stored in
``reference.json`` (written by ``make_reference.py``), which is why the seed
space is finite.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from phi6kinks import cli, scenarios
from phi6kinks.pde import SolverConfig
from phi6kinks.reporting import CSV_HEADER, SUMMARY_KEYS
from phi6kinks.scenarios import KinkArrangement, ScenarioConfig

VARIANTS = 16
CENTER_JITTER = 0.25
SPEED_JITTER = 0.02
SIZES = ("full", "tiny")

# Suite limits, as scripts/run_default_suite.py checks them.
SUITE_TRACKING_C_LIMIT = 20.0
SUITE_STABILITY_C_LIMIT = 10.0

# |got - ref| <= rtol * |ref| + atol, per value.  Chosen from the measured
# response to two round-off-level changes, on variants 0-2 of every
# workload: U'(phi) in the stepper evaluated in Horner form, and the
# integrals of lyapunov_F and coercivity_ratio split into one per term.
# Lengths moved by <= 2.7e-11, velocities by <= 1.4e-13, remainder norms by
# <= 1e-13, F by <= 1.6e-15 where it is ~0.1 and by <= 2.5e-19 where it is
# ~1e-9, and the growth constant, fdot_ratio_max and the coercivity
# minimum by <= 6.3e-8, 4.9e-8 and 1.5e-7 relative, since the resting
# pairs' remainders are themselves ~1e-7.  Each tolerance below admits that
# with a margin of 37x or more.  A center solve loosened from 1e-13 to
# 1e-7 relative residual moves collision-dense's centers by ~4e-9 and
# fails; so does lyapunov_F with a 4th- instead of a 2nd-order derivative
# (F moves by >= 1e-3 relative).  tracking_C and stability_C divide z - d
# by ~eps and are gated by their limits only.
LENGTH = (1e-9, 1e-9)
VELOCITY = (1e-9, 1e-11)
NORM = (1e-9, 1e-11)
DEFAULT_TOLERANCE = (1e-9, 1e-12)
TOLERANCE = {
    "a": LENGTH,
    "c": LENGTH,
    "max_abs_z_minus_d": LENGTH,
    "z0": LENGTH,
    "max_remainder": NORM,
    "fitted_C_growth": (1e-5, 0.0),
    "coercivity_ratio_min": (1e-5, 0.0),
    "fdot_ratio_max": (1e-5, 0.0),
}
# tolerance of the mean_abs.<column> and max_abs.<column> aggregates
COLUMN_TOLERANCE = {
    **dict.fromkeys(("t", "x1", "x2", "z", "d1", "d2", "d", "z_minus_d"), LENGTH),
    **dict.fromkeys(("xdot1", "xdot2", "d1_dot", "d2_dot"), VELOCITY),
    "norm_g_h1": NORM,
    "norm_gt_l2": NORM,
    "F_t": (1e-9, 1e-17),
}


def tolerance(key: str) -> tuple[float, float]:
    if key in TOLERANCE:
        return TOLERANCE[key]
    column = key.partition(".")[2]
    return COLUMN_TOLERANCE.get(column, DEFAULT_TOLERANCE)

WHY = {
    "suite": (
        "the acceptance path users run to reproduce the paper: 7 shipped "
        "scenarios, verify, optimality probe; mixes evolve, track and diagnostics"
    ),
    "fine-longrun": (
        "one resting pair on the fine grid for 40k steps and 81 frames: the "
        "Verlet step dominates, so only stepper changes move it"
    ),
    "collision-dense": (
        "head-on collisions tracked every 2 steps: center solves, failing "
        "solves with retries, diagnostics and the most snapshot memory"
    ),
}


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload and how its operations are gated."""

    name: str
    size: str
    variant: int
    configs: tuple[ScenarioConfig, ...]
    suite_verdicts: bool   # gate each report on the suite's verdict limits
    verify_must_pass: bool  # verify exit 0; otherwise it must only complete (0 or 1)
    probe_eps: tuple[float, ...] = ()

    @property
    def operations(self) -> int:
        return len(self.configs) + 1 + (1 if self.probe_eps else 0)

    @property
    def max_n(self) -> int:
        return max(c.resolved_grid().n for c in self.configs)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


class _Jitter:
    def __init__(self, variant: int):
        self._rng = random.Random(variant) if variant else None

    def shift(self, value: float, amount: float) -> float:
        return value if self._rng is None else value + self._rng.uniform(-amount, amount)

    def scale(self, value: float, share: float) -> float:
        return value if self._rng is None else value * (1.0 + self._rng.uniform(-share, share))

    def kinks(self, k: KinkArrangement) -> KinkArrangement:
        return KinkArrangement(
            x1=self.shift(k.x1, CENTER_JITTER),
            x2=self.shift(k.x2, CENTER_JITTER),
            v1=self.scale(k.v1, SPEED_JITTER),
            v2=self.scale(k.v2, SPEED_JITTER),
        )


def _suite(jitter: _Jitter, size: str) -> list[ScenarioConfig]:
    configs = []
    for c in scenarios.default_suite():
        pert = c.perturbation
        if pert is not None:
            pert = replace(pert, center=jitter.shift(pert.center, CENTER_JITTER))
        configs.append(
            replace(
                c,
                kinks=jitter.kinks(c.kinks),
                grid=c.resolved_grid(),  # the nominal grid, whatever the jitter
                perturbation=pert,
                t_end=c.t_end if size == "full" else 20.0,
            )
        )
    return configs


def _fine_longrun(jitter: _Jitter, size: str) -> list[ScenarioConfig]:
    kinks = KinkArrangement(x1=-8.0, x2=8.0)
    return [
        ScenarioConfig(
            kinks=jitter.kinks(kinks),
            grid=scenarios.auto_grid(kinks, dx=0.025),
            solver=SolverConfig(dt=0.01),
            t_end=400.0 if size == "full" else 20.0,
            frame_cadence=500,
            seed_label="fine-z16",
        )
    ]


def _collision_dense(jitter: _Jitter, size: str) -> list[ScenarioConfig]:
    configs = []
    for v in (0.3, 0.5, 0.75):
        kinks = KinkArrangement(x1=-6.0, x2=6.0, v1=v, v2=-v)
        configs.append(
            ScenarioConfig(
                kinks=jitter.kinks(kinks),
                grid=scenarios.auto_grid(kinks),
                solver=SolverConfig(dt=0.02),
                t_end=40.0 if size == "full" else 4.0,
                frame_cadence=2,
                seed_label=f"collide-v{v:g}",
            )
        )
    return configs


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}, got {size!r}")
    variant = variant_of(seed)
    jitter = _Jitter(variant)
    if name == "suite":
        return Workload(name, size, variant, tuple(_suite(jitter, size)),
                        suite_verdicts=True, verify_must_pass=True,
                        probe_eps=(1e-2,) if size == "full" else (5e-2,))
    if name == "fine-longrun":
        return Workload(name, size, variant, tuple(_fine_longrun(jitter, size)),
                        suite_verdicts=False, verify_must_pass=True)
    if name == "collision-dense":
        # verify's verdict on reports with invalid-frame windows is about to
        # change (it should fail them); the gate reads the in-memory report
        return Workload(name, size, variant, tuple(_collision_dense(jitter, size)),
                        suite_verdicts=False, verify_must_pass=False)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")


# ---------------------------------------------------------------------------
# operations and their gates
# ---------------------------------------------------------------------------


def _expected_counts(config: ScenarioConfig) -> dict:
    steps = int(round(config.t_end / config.solver.dt))
    return {
        "n": config.resolved_grid().n,
        "steps": steps,
        "frames": math.ceil(steps / config.frame_cadence) + 1,
    }


def compare(values: dict, reference: dict) -> list[str]:
    """Differences between measured values and their reference values; a
    measured value without a reference value is one too."""
    problems = [f"{key}={values[key]!r} has no reference value"
                for key in sorted(values.keys() - reference.keys())]
    for key, ref in reference.items():
        got = values.get(key)
        if isinstance(ref, float) and isinstance(got, float):
            if math.isnan(ref) or math.isnan(got) or math.isinf(ref) or math.isinf(got):
                same = (math.isnan(ref) and math.isnan(got)) or ref == got
            else:
                rtol, atol = tolerance(key)
                same = abs(got - ref) <= rtol * abs(ref) + atol
        else:
            same = got == ref
        if not same:
            problems.append(f"{key}={got!r}, reference {ref!r}")
    return problems


def report_aggregates(report) -> dict:
    """Aggregates of every report output that the summary does not carry.

    Mean and maximum of |value| over the rows of every CSV column and of the
    in-memory center velocities, the smallest coercivity ratio and the
    Lyapunov diagnostics fitted from the rows.  A layer that is wrong on any
    one frame moves a mean; the summary alone would not see it.
    """
    columns = {name: [getattr(r, name) for r in report.rows]
               for name in CSV_HEADER.split(",")}
    columns["d1_dot"] = report.d1_dots
    columns["d2_dot"] = report.d2_dots
    out = {}
    for name, column in columns.items():
        out[f"mean_abs.{name}"] = math.fsum(abs(float(v)) for v in column) / max(len(column), 1)
        out[f"max_abs.{name}"] = max((abs(float(v)) for v in column), default=0.0)
    diag = scenarios.lyapunov_diagnostics(report)
    out["coercivity_ratio_min"] = float(report.coercivity_ratio_min)
    out["a1_fit"] = float(diag.a1_fit)
    out["fdot_ratio_max"] = float(diag.fdot_ratio_max)
    return out


def scenario_op(config: ScenarioConfig, workload: Workload,
                reference: dict | None) -> tuple[dict, list[str]]:
    """Run one scenario and gate it; returns (measured values, problems)."""
    report = scenarios.run_scenario(config)
    frames = report.frames
    values = {
        "n": len(frames[0].g),
        "steps": int(round((frames[-1].t - frames[0].t) / config.solver.dt)),
        "frames": len(frames),
        "rows": len(report.rows),
        "invalid_frames": sum(not f.valid for f in frames),
        "failed_at_frame": report.failed_at_frame,
    }
    summary = report.summary()
    values.update({key: float(summary[key]) for key in SUMMARY_KEYS})
    values.update(report_aggregates(report))
    problems = [
        f"{key}={values[key]} but the workload defines {want}"
        for key, want in _expected_counts(config).items()
        if values[key] != want
    ]
    if workload.suite_verdicts:
        stability = scenarios.verify_orbital_stability(report)
        window = 2.0 / abs(config.kinks.v1) if config.kinks.v1 else None
        tracking = scenarios.verify_tracking(report, t_window=window)
        scenarios.verify_remainder_growth(report)
        if not (stability.passed and stability.c_stability <= SUITE_STABILITY_C_LIMIT):
            problems.append(f"stability verdict failed: C={stability.c_stability:.4g}")
        if not (tracking.passed and tracking.fitted_C <= SUITE_TRACKING_C_LIMIT):
            problems.append(f"tracking verdict failed: C={tracking.fitted_C:.4g}")
    if reference is not None:
        problems += compare(values, reference)
    return values, problems


def verify_op(report_root: Path, workload: Workload, span=None) -> tuple[dict, list[str]]:
    """``phi6kinks verify`` in-process over every report of one pass.

    ``span(name)`` returns a context manager that times the call when the
    run is traced.
    """
    span = span or (lambda name: contextlib.nullcontext())
    with span("cli.verify"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--report", str(report_root)])
    allowed = (0,) if workload.verify_must_pass else (0, 1)
    problems = [] if code in allowed else [f"verify exited {code}, expected {allowed}"]
    return {"exit": code}, problems


def probe_op(workload: Workload, reference: dict | None) -> tuple[dict, list[str]]:
    (record,) = scenarios.optimality_probe(list(workload.probe_eps))
    values = {
        "eps_measured": float(record.eps_measured),
        "z0": float(record.z0),
        "t_max": float(record.t_max),
        "hit": record.hit,
        "t_hit": None if record.t_hit is None else float(record.t_hit),
    }
    return values, ([] if reference is None else compare(values, reference))
