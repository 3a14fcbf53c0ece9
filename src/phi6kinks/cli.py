"""Command line interface: run scenarios, verify reports, probe remainder growth.

Exit codes: 0 on success/pass, 1 on any verdict failure, 2 on runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .functionals import odd_sample_count
from .pde import SolverConfig
from .reporting import FAILURE_PREFIX, ComparisonReport, load_report
from .scenarios import (
    GaussianPerturbation,
    GridSpec,
    KinkArrangement,
    ScenarioConfig,
    lyapunov_diagnostics,
    optimality_probe,
    run_scenario,
    verify_orbital_stability,
    verify_remainder_growth,
    verify_tracking,
)


# what a JSON value must be to fill a field declared with each type name
_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int)),
    "float": ("a finite number",
              lambda v: isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "None": ("null", lambda v: v is None),
}


def _check_section(section: str, data, cls, *extra: str) -> None:
    """Raise unless data is a JSON object whose keys are fields of cls (or
    extra) and whose values have their field's declared type.

    A bool is never a number.  A field declared as another dataclass is a
    section of its own and is checked as one.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, got {json.dumps(data)}")
    declared = {f.name: f.type.split(" | ") for f in fields(cls)}
    unknown = sorted(set(data) - set(declared) - set(extra))
    if unknown:
        raise ValueError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")
    for key, types in declared.items():
        if key not in data or not set(types) <= _JSON_TYPES.keys():
            continue
        value = data[key]
        if isinstance(value, bool) or not any(_JSON_TYPES[t][1](value) for t in types):
            expected = " or ".join(_JSON_TYPES[t][0] for t in types)
            raise ValueError(f"{section}.{key} must be {expected}, got {json.dumps(value)}")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Scenario from a parsed JSON config whose sections pass _check_section;
    a null grid, solver or perturbation section means it is absent."""
    _check_section("config", data, ScenarioConfig)
    top = dict(data)
    sections = [top.pop(s, None) for s in ("kinks", "grid", "solver", "perturbation")]
    kinks, grid, solver, pert = ({} if value is None else value for value in sections)
    for section, values, cls in (("kinks", kinks, KinkArrangement), ("grid", grid, GridSpec),
                                 ("solver", solver, SolverConfig)):
        _check_section(section, values, cls)
    _check_section("perturbation", pert, GaussianPerturbation, "kind")
    perturbation = None
    kind = pert.get("kind", "none")
    if kind not in ("none", "gaussian"):
        raise ValueError(f"unknown perturbation kind {kind!r}; use 'none' or 'gaussian'")
    if kind == "gaussian":
        if "amplitude" not in pert:
            raise ValueError("perturbation.amplitude is required for a gaussian perturbation")
        perturbation = GaussianPerturbation(
            amplitude=pert["amplitude"],
            width=pert.get("width", 1.0),
            center=pert.get("center", 0.0),
            channel=pert.get("channel", "g0"),
        )
    return ScenarioConfig(
        kinks=KinkArrangement(**kinks),
        grid=GridSpec(**grid) if grid else None,
        perturbation=perturbation,
        solver=SolverConfig(**solver),
        **top,  # t_end, frame_cadence, outputs, seed_label: only those given
    )


def _cmd_run(args) -> int:
    data = json.loads(Path(args.config).read_text())
    config = config_from_dict(data)
    if args.out:
        config = replace(config, outputs=args.out)
    if args.dx is not None:
        grid = config.resolved_grid()
        span = grid.dx * (grid.n - 1)
        grid = replace(grid, dx=args.dx)  # rejects dx <= 0 before it divides below
        config = replace(config, grid=replace(grid, n=odd_sample_count(span, args.dx)))
    if args.dt is not None:
        config = replace(config, solver=replace(config.solver, dt=args.dt))
    if args.t_end is not None:
        config = replace(config, t_end=args.t_end)
    report = run_scenario(config)
    summary = report.summary()
    for key, value in summary.items():
        print(f"{key}: {value}")
    if config.outputs:
        print(f"report written to {config.outputs}")
    return 0


@dataclass(frozen=True)
class Verdict:
    """A measured constant, passed (None: skipped or only recorded) and the line verify prints."""

    name: str
    constant: float
    passed: bool | None
    text: str


def verdicts(report: ComparisonReport, window: float | None = None) -> list[Verdict]:
    """Every verdict on a report, in the order verify prints them: tracking is
    fitted over t <= window, and lyapunov's constant is A1.  The verify_*
    calls go through this module's names because perfbench's tracer wraps them."""
    records = []

    def add(name: str, constant: float, passed: bool | None, text: str) -> None:
        if passed is not None:
            text += f" -> {'pass' if passed else 'FAIL'}"
        records.append(Verdict(name, constant, passed, text))

    if report.failed_at_frame is not None:
        add("invalid", report.failed_at_frame, False, f"{FAILURE_PREFIX}{report.failed_at_frame}")
    stab = verify_orbital_stability(report)
    add("stability", stab.c_stability, stab.passed,
        f"stability: C={stab.c_stability:.3g} sep={stab.separation_margin:.3g} "
        f"t2=[{stab.t2_ratio_min:.3g}, {stab.t2_ratio_max:.3g}]")
    track = verify_tracking(report, t_window=window)
    add("tracking", track.fitted_C, track.passed,
        f"tracking: C={track.fitted_C:.3g} max|z-d|={track.max_abs_z_minus_d:.3g}")
    try:
        growth = verify_remainder_growth(report)
        add("growth", growth.fitted_C, growth.passed,
            f"growth envelope: C={growth.fitted_C:.3g} ({growth.frames_used} frames)")
    except ValueError as exc:
        add("growth", math.nan, None, f"growth envelope: skipped ({exc})")
    lyap = lyapunov_diagnostics(report)
    add("lyapunov", lyap.a1_fit, None,
        f"lyapunov: A1={lyap.a1_fit:.3g} A3={lyap.fdot_ratio_max:.3g}")
    return records


def print_verdicts(label: str, records: list[Verdict]) -> bool:
    """Print each record under the label; True unless one failed."""
    for record in records:
        print(f"[{label}] {record.text}")
    return all(record.passed is not False for record in records)


def _cmd_verify(args) -> int:
    root = Path(args.report)
    if (root / "summary.json").exists():
        dirs = [root]
    else:
        dirs = sorted(d for d in root.iterdir() if (d / "summary.json").exists())
    if not dirs:
        raise FileNotFoundError(f"no reports found under {root}")
    all_ok = all([print_verdicts(d.name, verdicts(load_report(d))) for d in dirs])
    return 0 if all_ok else 1


def _cmd_probe(args) -> int:
    eps_values = [float(v) for v in args.eps.replace(",", " ").split()]
    if not eps_values:
        raise ValueError(f"--eps {args.eps!r} lists no excess")
    records = optimality_probe(eps_values, kappa=args.kappa)
    for rec in records:
        outcome = (f"t_hit={rec.t_hit:.2f} of t_max={rec.t_max:.2f} ratio={rec.hit_ratio:.3f}"
                   if rec.hit else f"no hit within t_max={rec.t_max:.2f}")
        print(f"eps={rec.eps_measured:.4g} (target {rec.eps_target:g}) z0={rec.z0:.3f} {outcome}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phi6kinks", description="Kink-pair dynamics: run, verify, probe"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--dx", type=float, default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="verify stability envelopes of reports")
    p_verify.add_argument("--report", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_probe = sub.add_parser("probe", help="remainder-growth probe at given excesses")
    p_probe.add_argument("--eps", required=True, help="comma/space separated list")
    p_probe.add_argument("--kappa", type=float, default=0.1)
    p_probe.set_defaults(func=_cmd_probe)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure -> exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
