"""Scenario runner, report formats, verdicts, and the growth probe."""
import json
import math
import os
import pickle
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from phi6kinks import functionals, modulation, pde, scenarios
from phi6kinks.functionals import (
    coercivity_ratio,
    cut_function,
    integrate,
    lyapunov_F,
    pair_terms,
    spatial_derivative,
)
from phi6kinks.model import SQRT2, eval_potential_derivative, kink_value
from phi6kinks.pde import SolverConfig, run
from phi6kinks.reporting import (
    CSV_HEADER,
    SUMMARY_KEYS,
    ComparisonReport,
    FrameRow,
    emit_csv,
    load_report,
    parse_csv,
    write_report,
)
from phi6kinks.scenarios import (
    GaussianPerturbation,
    GridSpec,
    KinkArrangement,
    ScenarioConfig,
    auto_grid,
    build_initial_state,
    default_suite,
    fit_growth_constant,
    lyapunov_diagnostics,
    optimality_probe,
    run_scenario,
    verify_orbital_stability,
    verify_remainder_growth,
    verify_tracking,
)
from conftest import SRC, unmeasured
from oracles import antikink_derivative, antikink_value, g_t, kink_derivative, tracked_frames


def quick_config(**overrides) -> ScenarioConfig:
    base = dict(
        kinks=KinkArrangement(x1=-6.0, x2=6.0),
        solver=SolverConfig(dt=0.02),
        t_end=10.0,
        frame_cadence=25,
        seed_label="quick",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def quick_report():
    return run_scenario(quick_config())


def append_line(path, *fields):
    """Append one line to a file, in one write, so that this process and a
    forked stepper can both log to it."""
    with open(path, "a") as f:
        f.write(" ".join(map(str, fields)) + "\n")


class TestConfigValidation:
    def test_rejects_unordered_kinks(self):
        with pytest.raises(ValueError):
            quick_config(kinks=KinkArrangement(x1=6.0, x2=-6.0))

    def test_rejects_insufficient_margins(self):
        with pytest.raises(ValueError):
            quick_config(grid=GridSpec(x0=-20.0, dx=0.05, n=801))

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            quick_config(t_end=-1.0)

    def test_rejects_non_advancing(self):
        # a t_end that rounds to no step of dt
        with pytest.raises(ValueError, match=r"t_end=0\.001 rounds to no step of dt=0\.02"):
            quick_config(t_end=0.001)

    def test_rejects_cfl_violation(self):
        # dt/dx = 1 on the auto grid's dx = 0.05
        with pytest.raises(ValueError, match="CFL violation"):
            quick_config(solver=SolverConfig(dt=0.05))

    def test_rejects_grid_too_fine_for_dt(self):
        # dt/dx = 1 on a given grid at the solver's dt = 0.02
        with pytest.raises(ValueError, match=r"CFL violation: dt/dx = 1\.000"):
            quick_config(grid=GridSpec(x0=-50.0, dx=0.02, n=5001))

    def test_rejects_non_finite_inputs(self):
        for t_end in (math.nan, math.inf):
            message = f"t_end must be positive and finite, got {t_end}"
            with pytest.raises(ValueError, match=message):
                quick_config(t_end=t_end)
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
                SolverConfig(dt=dt)
        with pytest.raises(ValueError, match="grid dx must be positive and finite, got inf"):
            GridSpec(x0=-50.0, dx=math.inf, n=5)
        with pytest.raises(ValueError, match="grid n must be >= 5, got 1"):
            GridSpec(x0=-50.0, dx=0.05, n=1)
        with pytest.raises(ValueError, match="width must be positive, got nan"):
            GaussianPerturbation(amplitude=1e-3, width=math.nan)

    def test_auto_grid_covers_margins(self):
        grid = auto_grid(KinkArrangement(x1=-7.0, x2=9.0))
        assert grid.x0 <= -7.0 - 40.0
        assert grid.x0 + grid.dx * (grid.n - 1) >= 9.0 + 40.0
        assert grid.n % 2 == 1

    def test_perturbation_channels(self):
        from phi6kinks.scenarios import build_initial_state

        g0 = quick_config(
            perturbation=GaussianPerturbation(amplitude=1e-3, width=1.0, center=0.0)
        )
        g1 = quick_config(
            perturbation=GaussianPerturbation(
                amplitude=1e-3, width=1.0, center=0.0, channel="g1"
            )
        )
        plain = build_initial_state(quick_config())
        s0 = build_initial_state(g0)
        s1 = build_initial_state(g1)
        assert np.max(np.abs(s0.phi - plain.phi)) == pytest.approx(1e-3, rel=1e-6)
        assert np.all(s0.pi == plain.pi)
        assert np.max(np.abs(s1.pi - plain.pi)) == pytest.approx(1e-3, rel=1e-6)
        assert np.all(s1.phi == plain.phi)
        with pytest.raises(ValueError):
            GaussianPerturbation(amplitude=1e-3, width=1.0, center=0.0, channel="bad")


class TestRunScenario:
    def test_rows_monotone_and_finite(self, quick_report):
        rows = quick_report.rows
        assert len(rows) == 21
        ts = [r.t for r in rows]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        for r in rows:
            for name in FrameRow.__dataclass_fields__:
                assert math.isfinite(getattr(r, name)), name

    def test_energy_excess_conserved_across_frames(self, quick_report):
        # drift bounded by the solver's total-energy conservation, which is
        # far below the 1e-5 relative bound on E_total ~ 0.71
        eps = [r.eps_t for r in quick_report.rows]
        assert max(eps) - min(eps) < 1e-8

    def test_reduced_trajectory_anchored_at_frame_zero(self, quick_report):
        r0 = quick_report.rows[0]
        assert r0.z_minus_d == pytest.approx(0.0, abs=1e-9)
        assert r0.d1 == pytest.approx(r0.x1, abs=1e-9)
        assert r0.d2 == pytest.approx(r0.x2, abs=1e-9)

    def test_epsilon_matches_interaction_prediction(self, quick_report):
        assert quick_report.epsilon == pytest.approx(
            2 * SQRT2 * math.exp(-12 * SQRT2), rel=1e-2
        )

    def test_the_caller_measures_each_snapshot_at_most_once(self, monkeypatch):
        caller, calls = os.getpid(), []

        def counted(state):
            if os.getpid() == caller:  # a forked stepper appends to its own copy
                calls.append(state.t)
            return functionals.energy_breakdown(state)

        monkeypatch.setattr(scenarios, "energy_breakdown", counted)
        report = run_scenario(quick_config())
        assert len(report.rows) == 21
        assert calls[0] == 0.0  # frame 0, always measured in the caller
        assert calls == sorted(set(calls)) and len(calls) <= 21

    def test_eps_column_is_each_frames_energy(self):
        # a fast head-on: its collision frames are invalid, so the rows skip snapshots
        config = quick_config(kinks=KinkArrangement(x1=-6.0, x2=6.0, v1=0.5, v2=-0.5),
                              t_end=20.0, frame_cadence=10)
        report = run_scenario(config)
        assert report.failed_at_frame is not None
        frames = tracked_frames(config)
        assert len(frames) == len(report.rows) < 1 + 1000 // 10
        assert [r.eps_t.hex() for r in report.rows] == [
            float(functionals.energy_breakdown(f.state).epsilon).hex() for f in frames]

    def test_determinism(self, tmp_path, quick_report):
        rep2 = run_scenario(quick_config())
        p1 = emit_csv(quick_report, tmp_path / "a.csv")
        p2 = emit_csv(rep2, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestPlacement:
    """Which process runs each valid frame's diagnostics in run_scenario."""

    @staticmethod
    def placed_run(monkeypatch, tmp_path, config, solve_delay=0.0):
        """run_scenario(config) with each center solve in this process slowed
        by solve_delay; the report, and for each frame diagnosed, in order of
        t, whether the stepper ran its diagnostics."""
        log, caller = tmp_path / "placement", os.getpid()
        diagnostics, decompose = scenarios._diagnostics, modulation.decompose

        def logged(snapshot, frame):
            append_line(log, int(os.getpid() != caller), float(frame.t).hex())
            return diagnostics(snapshot, frame)

        def slowed(*args):
            time.sleep(solve_delay)
            return decompose(*args)

        monkeypatch.setattr(scenarios, "_diagnostics", logged)
        monkeypatch.setattr(modulation, "decompose", slowed)
        report = run_scenario(config)
        placement = sorted((float.fromhex(t), where == "1")
                           for where, t in (line.split() for line in log.read_text().splitlines()))
        assert [t for t, _ in placement] == [r.t for r in report.rows]
        return report, [in_stepper for _, in_stepper in placement]

    @staticmethod
    def bits(report):
        return ([[float(v).hex() for v in astuple(r)] for r in report.rows],
                [float(v).hex() for v in (report.epsilon, report.coercivity_ratio_min,
                                          *report.d1_dots, *report.d2_dots)])

    @staticmethod
    def head_on():
        # its collision frames are invalid, so the rows skip snapshots
        return quick_config(kinks=KinkArrangement(x1=-6.0, x2=6.0, v1=0.5, v2=-0.5),
                            t_end=20.0, frame_cadence=10)

    def drained(self, monkeypatch, tmp_path):
        """The head-on's report with its stream drained by len as soon as run
        returns, as perfbench's tracer does, and where its diagnostics ran."""
        run = scenarios.run

        def draining(*args):
            snapshots = run(*args)
            len(snapshots)
            return snapshots

        with monkeypatch.context() as patched:
            patched.setattr(scenarios, "run", draining)
            return self.placed_run(patched, tmp_path, self.head_on())

    def test_a_drained_stream_runs_every_job_in_the_caller(self, monkeypatch, tmp_path):
        report, in_stepper = self.drained(monkeypatch, tmp_path)
        assert report.failed_at_frame is not None
        assert len(in_stepper) == len(report.rows) and not any(in_stepper)

    def test_a_reader_that_keeps_up_runs_every_job_itself(self, monkeypatch, tmp_path):
        # 250 steps per snapshot, several ms, against well under 1 ms per frame
        # here: only the last frame's may find the stepper done and waiting
        report, in_stepper = self.placed_run(monkeypatch, tmp_path,
                                             quick_config(t_end=100.0, frame_cadence=250))
        assert len(report.rows) == 21
        assert in_stepper[:-1] == [False] * 20

    def test_a_reader_that_sleeps_hands_its_jobs_to_the_stepper(self, monkeypatch, tmp_path):
        # 5 ms per center solve against 10 steps per snapshot: the stepper
        # waits on its ring from the start, and is done before the last frames
        (tmp_path / "drained").mkdir()
        want, _ = self.drained(monkeypatch, tmp_path / "drained")
        report, in_stepper = self.placed_run(monkeypatch, tmp_path, self.head_on(), 5e-3)
        assert self.bits(report) == self.bits(want)
        assert not in_stepper[0]  # frame 0 is the caller's own snapshot
        assert sum(in_stepper) > len(in_stepper) // 2 and in_stepper[-1]

    def test_a_job_that_raises_in_the_stepper_reaches_the_caller_as_itself(self, monkeypatch):
        caller, diagnostics = os.getpid(), scenarios._diagnostics
        decompose = modulation.decompose

        def planted(snapshot, frame):
            if os.getpid() != caller:
                raise ArithmeticError(f"planted at t={frame.t:g}")
            return diagnostics(snapshot, frame)

        def slowed(*args):
            time.sleep(5e-3)  # the stepper waits on its ring: frames are handed to it
            return decompose(*args)

        monkeypatch.setattr(scenarios, "_diagnostics", planted)
        monkeypatch.setattr(modulation, "decompose", slowed)
        with pytest.raises(ArithmeticError, match="^planted at t="):
            run_scenario(self.head_on())


class TestReporting:
    def test_csv_round_trip_bit_exact(self, quick_report, tmp_path):
        path = emit_csv(quick_report, tmp_path / "t.csv")
        rows = parse_csv(path)
        assert rows == quick_report.rows

    def test_empty_report_writes_header_only(self, tmp_path):
        empty = ComparisonReport(rows=[], epsilon=1e-3, v=0.1, c=0.0, a=0.0, b=0.0)
        path = emit_csv(empty, tmp_path / "e.csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_three_rows_in_order(self, tmp_path):
        rows = [
            FrameRow(t, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1e-3, 0) for t in (0.0, 1.0, 2.0)
        ]
        rep = ComparisonReport(rows=rows, epsilon=1e-3, v=0.1, c=0.0, a=0.0, b=0.0)
        path = emit_csv(rep, tmp_path / "three.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 1.0, 2.0]

    def test_summary_keys(self, quick_report, tmp_path):
        out = write_report(quick_report, tmp_path / "rep")
        summary = json.loads((out / "summary.json").read_text())
        assert set(SUMMARY_KEYS) <= set(summary)
        loaded = load_report(out)
        assert loaded.epsilon == quick_report.epsilon
        assert loaded.rows == quick_report.rows

    def test_failure_entry_round_trip(self, quick_report, tmp_path):
        assert load_report(write_report(quick_report, tmp_path / "ok")).failed_at_frame is None
        out = write_report(replace(quick_report, failed_at_frame=7), tmp_path / "failed")
        assert load_report(out).failed_at_frame == 7
        summary = out / "summary.json"
        summary.write_text(summary.read_text().replace("tracking invalid", "tracking lost"))
        with pytest.raises(ValueError, match="tracking lost"):
            load_report(out)

    @pytest.mark.parametrize("growth", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_summary_is_strict_json(self, quick_report, tmp_path, growth):
        # an empty report has NaN maxima; a growth constant can be NaN or infinite
        rep = replace(quick_report, rows=[], fitted_C_growth=growth)
        assert all(isinstance(v, float) for v in rep.summary().values())
        out = write_report(rep, tmp_path / "rep")

        def reject(token):
            raise ValueError(f"summary.json holds the bare constant {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["fitted_C_growth"] == str(growth)
        assert summary["max_abs_z_minus_d"] == summary["max_remainder"] == "nan"
        loaded = load_report(out)
        for key in ("epsilon", "v", "c", "a", "b", "fitted_C_growth"):
            want, got = getattr(rep, key), getattr(loaded, key)
            assert got == want or (math.isnan(got) and math.isnan(want)), key

    def test_header_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(bad)

    def test_short_row_names_file_line_and_width(self, quick_report, tmp_path):
        path = emit_csv(quick_report, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        width = len(CSV_HEADER.split(","))
        with pytest.raises(ValueError, match=f"t.csv line 3: {width - 1} fields, expected {width}"):
            parse_csv(path)

    def test_non_numeric_field_names_file_line_and_column(self, quick_report, tmp_path):
        path = emit_csv(quick_report, tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="t.csv line 4: field F_t is 'x', not a number"):
            parse_csv(path)

    def test_missing_summary_key_names_file_and_key(self, quick_report, tmp_path):
        out = write_report(quick_report, tmp_path / "rep")
        summary = json.loads((out / "summary.json").read_text())
        del summary["epsilon"]
        (out / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ValueError, match="summary.json lacks key.* 'epsilon'"):
            load_report(out)

    @pytest.mark.parametrize("failure", [7, "tracking invalid from frame x"],
                             ids=["not-a-string", "not-an-index"])
    def test_malformed_failure_entry_names_file_and_entry(self, quick_report, tmp_path,
                                                          failure):
        out = write_report(quick_report, tmp_path / "rep")
        summary = json.loads((out / "summary.json").read_text())
        summary["failure"] = failure
        (out / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ValueError) as err:
            load_report(out)
        assert str(err.value).startswith(f"{out / 'summary.json'}: failure entry "
                                         f"{json.dumps(failure)} is not")

    @pytest.mark.parametrize("value", ["x", [1], None, True, {"v": 1}, 10**400],
                             ids=["string", "list", "null", "bool", "object", "huge-int"])
    def test_malformed_summary_value_names_file_and_key(self, quick_report, tmp_path, value):
        out = write_report(quick_report, tmp_path / "rep")
        summary = json.loads((out / "summary.json").read_text())
        summary["epsilon"] = value
        (out / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ValueError) as err:
            load_report(out)
        assert str(err.value) == (f"{out / 'summary.json'}: epsilon is {json.dumps(value)}, "
                                  "not a number")

    def test_integer_summary_value_loads_as_float(self, quick_report, tmp_path):
        out = write_report(quick_report, tmp_path / "rep")
        summary = json.loads((out / "summary.json").read_text())
        summary["c"] = 3
        (out / "summary.json").write_text(json.dumps(summary))
        c = load_report(out).c
        assert type(c) is float and c == 3.0

    def test_summary_that_is_not_an_object_names_file(self, quick_report, tmp_path):
        out = write_report(quick_report, tmp_path / "rep")
        (out / "summary.json").write_text("5\n")
        with pytest.raises(ValueError) as err:
            load_report(out)
        assert str(err.value) == f"{out / 'summary.json'} must hold a JSON object, got 5"

    def test_invalid_summary_json_names_file(self, quick_report, tmp_path):
        out = write_report(quick_report, tmp_path / "rep")
        (out / "summary.json").write_text("{epsilon: 1}\n")
        with pytest.raises(ValueError) as err:
            load_report(out)
        assert str(err.value).startswith(f"{out / 'summary.json'} is not valid JSON: "
                                         "Expecting property name")


class TestStabilityVerdict:
    def test_quick_scenario_passes(self, quick_report):
        verdict = verify_orbital_stability(quick_report)
        assert verdict.passed
        assert verdict.c_stability <= 10.0
        assert verdict.separation_margin <= 1.0
        assert 0.1 <= verdict.t2_ratio_min <= verdict.t2_ratio_max <= 10.0

    def test_inflated_remainder_flagged(self, quick_report):
        # push the g-columns far beyond the envelope: verdict must flip
        scale = 20.0 * math.sqrt(quick_report.epsilon) / max(
            r.norm_g_h1 for r in quick_report.rows
        )
        rows = [
            replace(r, norm_g_h1=r.norm_g_h1 * scale, norm_gt_l2=r.norm_gt_l2 * scale)
            for r in quick_report.rows
        ]
        tampered = replace(quick_report, rows=rows)
        assert not verify_orbital_stability(tampered).passed

    def test_doubled_remainder_changes_reported_constant(self, quick_report):
        rows = [
            replace(r, norm_g_h1=2 * r.norm_g_h1, norm_gt_l2=2 * r.norm_gt_l2)
            for r in quick_report.rows
        ]
        doubled = replace(quick_report, rows=rows)
        base = verify_orbital_stability(quick_report).c_stability
        assert verify_orbital_stability(doubled).c_stability == pytest.approx(
            2 * base, rel=1e-12
        )


class TestGrowthVerdict:
    def test_quick_scenario_envelope(self, quick_report):
        verdict = verify_remainder_growth(quick_report)
        assert verdict.passed
        assert math.isfinite(verdict.fitted_C)
        # by construction of the fit the envelope holds at every frame
        eps = quick_report.epsilon
        c = verdict.fitted_C
        y0 = (quick_report.rows[0].norm_g_h1 + quick_report.rows[0].norm_gt_l2) ** 2
        rate = math.sqrt(eps) / math.log(1 / eps)
        for r in quick_report.rows:
            y = (r.norm_g_h1 + r.norm_gt_l2) ** 2
            assert y <= c * (y0 + eps**2) * math.exp(c * rate * r.t) * (1 + 1e-9)

    def test_zero_initial_remainder_still_fits(self, quick_report):
        rows = [
            replace(quick_report.rows[0], norm_g_h1=0.0, norm_gt_l2=0.0)
        ] + quick_report.rows[1:]
        rep = replace(quick_report, rows=rows)
        verdict = verify_remainder_growth(rep)
        assert verdict.passed and math.isfinite(verdict.fitted_C)

    def test_time_reflection_fits_same_envelope(self, quick_report):
        rows = [replace(r, t=-r.t) for r in quick_report.rows]
        rep = replace(quick_report, rows=rows)
        forward = verify_remainder_growth(quick_report).fitted_C
        backward = verify_remainder_growth(rep).fitted_C
        assert backward == pytest.approx(forward, rel=1e-9)

    def test_requires_enough_frames(self, quick_report):
        rep = replace(quick_report, rows=quick_report.rows[:5])
        with pytest.raises(ValueError):
            verify_remainder_growth(rep)

    @pytest.mark.parametrize("growth", [0.0, 1e-3, 0.05, 3.0])
    def test_early_stop_matches_full_bisection(self, growth):
        def full_bisection(report):
            # the fit's bisection run for all 200 halvings
            eps = report.epsilon
            base = (report.rows[0].norm_g_h1 + report.rows[0].norm_gt_l2) ** 2 + eps * eps
            rate = math.sqrt(eps) / math.log(1.0 / eps)

            def holds(c):
                return all((r.norm_g_h1 + r.norm_gt_l2) ** 2
                           <= c * base * math.exp(min(c * rate * abs(r.t), 700.0))
                           for r in report.rows)

            lo, hi = 0.0, 1.0
            while not holds(hi):
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if holds(mid):
                    hi = mid
                else:
                    lo = mid
            return hi

        eps = 1e-3
        rows = [FrameRow(t=t, x1=0, x2=1, z=1, d1=0, d2=1, d=1, z_minus_d=0, xdot1=0,
                         xdot2=0, norm_g_h1=eps * (1.0 + math.sin(t)) * math.exp(growth * t),
                         norm_gt_l2=1e-5 * eps, eps_t=eps, F_t=0)
                for t in np.linspace(0.0, 50.0, 41)]
        rep = ComparisonReport(rows=rows, epsilon=eps, v=0.0, c=0.0, a=0.0, b=0.0)
        assert fit_growth_constant(rep) == full_bisection(rep)

    def test_degenerate_epsilon_rejected(self, quick_report):
        rep = replace(quick_report, epsilon=0.9)
        with pytest.raises(ValueError):
            verify_remainder_growth(rep)

    def test_nan_epsilon_fits_nothing(self, quick_report):
        rep = replace(quick_report, epsilon=math.nan)
        assert math.isnan(fit_growth_constant(rep))
        diag = lyapunov_diagnostics(rep)
        assert math.isnan(diag.a1_fit) and math.isnan(diag.fdot_ratio_max)
        with pytest.raises(ValueError, match="energy excess nan is not a positive number"):
            verify_remainder_growth(rep)


def scalar_fit_growth_constant(report) -> float:
    """fit_growth_constant as a scalar loop over the rows with math.exp: the
    oracle of the vectorized fit."""
    eps = report.epsilon
    if not 0 < eps < math.exp(-1.0) or not report.rows:
        return float("nan")
    samples = [(r.remainder ** 2, abs(r.t)) for r in report.rows]
    base = samples[0][0] + eps * eps
    rate = math.sqrt(eps) / math.log(1.0 / eps)

    def holds(c: float) -> bool:
        for y, t in samples:
            if y > c * base * math.exp(min(c * rate * t, 700.0)):
                return False
        return True

    lo, hi = 0.0, 1.0
    while not holds(hi):
        hi *= 2.0
        if hi > 1e12:
            return float("inf")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def same_float(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestVectorizedGrowthFit:
    """fit_growth_constant tests all rows in one numpy expression and must
    return the scalar loop's constant to the bit."""

    def test_every_suite_report(self, suite_reports):
        for label, (_, report) in suite_reports.items():
            assert fit_growth_constant(report) == scalar_fit_growth_constant(report), label

    def test_short_collision_report(self):
        report = run_scenario(TestSharedPairTerms._collision())
        assert len(report.rows) == 101
        assert fit_growth_constant(report) == scalar_fit_growth_constant(report)

    @pytest.mark.parametrize("c0", np.linspace(1.5, 3.0, 31))
    def test_every_row_at_its_bound(self, c0):
        # every row sits at the envelope of c0 to round-off, so the bisection
        # ends on rows whose comparison one ULP of exp can flip: with numpy
        # 2.4's AVX-512 exp, a plain np.exp fit moves the constant for
        # c0 = 2.05 and 2.4
        eps, rate = 1e-3, math.sqrt(1e-3) / math.log(1e3)
        base = 2.0 * eps * eps
        rows = [FrameRow(t=t, x1=0, x2=1, z=1, d1=0, d2=1, d=1, z_minus_d=0, xdot1=0, xdot2=0,
                         norm_g_h1=math.sqrt(c0 * base * math.exp(c0 * rate * t)) if t else eps,
                         norm_gt_l2=0.0, eps_t=eps, F_t=0)
                for t in np.linspace(0.0, 50.0, 41)]
        rep = ComparisonReport(rows=rows, epsilon=eps, v=0.0, c=0.0, a=0.0, b=0.0)
        assert fit_growth_constant(rep) == scalar_fit_growth_constant(rep)

    def test_infinite_constant(self, quick_report):
        # a row at t = 0 far above the first one: no c <= 1e12 bounds it
        rows = list(quick_report.rows)
        rows[1] = replace(rows[1], t=0.0, norm_g_h1=1e8 * (rows[0].remainder + 1.0))
        rep = replace(quick_report, rows=rows)
        assert fit_growth_constant(rep) == scalar_fit_growth_constant(rep) == math.inf

    def test_overflowing_bound_warns_nothing(self, quick_report):
        # base ~ 1 and t = 50: doubling c toward 1e12 overflows c base e^700
        rows = [replace(quick_report.rows[0], t=t, norm_g_h1=h, norm_gt_l2=0.0)
                for t, h in [(0.0, 1.0), (0.0, 1e7), (50.0, 1.0), (50.0, math.inf)]]
        rep = replace(quick_report, rows=rows, epsilon=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_growth_constant(rep) == scalar_fit_growth_constant(rep) == math.inf

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1e-3, 0.5])
    def test_epsilon_outside_the_fit(self, quick_report, eps):
        rep = replace(quick_report, epsilon=eps)
        assert math.isnan(fit_growth_constant(rep)) and math.isnan(scalar_fit_growth_constant(rep))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rows(self, quick_report, bad):
        rows = list(quick_report.rows)
        rows[5] = replace(rows[5], norm_gt_l2=bad)
        rows[7] = replace(rows[7], t=bad)
        rep = replace(quick_report, rows=rows)
        assert same_float(fit_growth_constant(rep), scalar_fit_growth_constant(rep))


class TestTrackingVerdict:
    def test_quick_scenario_tracks(self, quick_report):
        verdict = verify_tracking(quick_report)
        assert verdict.passed
        assert verdict.fitted_C <= 20.0

    def test_window_restricts_frames(self, quick_report):
        full = verify_tracking(quick_report)
        windowed = verify_tracking(quick_report, t_window=2.0)
        assert windowed.fitted_C <= full.fitted_C + 1e-15

    def test_no_frame_in_the_window_fails(self, quick_report):
        # a fit over no frame has no evidence: it fails like a fit without an excess
        first = quick_report.rows[1].t
        for report, window in ((quick_report, 0.5 * first),
                               (replace(quick_report, rows=quick_report.rows[:1]), None)):
            verdict = verify_tracking(report, t_window=window)
            assert math.isnan(verdict.fitted_C) and not verdict.passed


@pytest.fixture(scope="module")
def headon_report():
    cfg = [c for c in default_suite() if c.seed_label == "headon-v0.08"][0]
    return cfg, run_scenario(cfg)


class TestHeadOnCollision:
    def test_separation_dips_and_recovers(self, headon_report):
        _, report = headon_report
        zs = [r.z for r in report.rows]
        i_min = zs.index(min(zs))
        assert 0 < i_min < len(zs) - 1
        assert min(zs) < zs[0] - 2.0
        assert zs[-1] > min(zs) + 2.0

    def test_collision_is_nearly_elastic(self, headon_report):
        # outgoing relative speed matches incoming to the radiated fraction
        _, report = headon_report
        incoming = report.rows[0].xdot2 - report.rows[0].xdot1
        outgoing = report.rows[-1].xdot2 - report.rows[-1].xdot1
        assert abs(outgoing) == pytest.approx(abs(incoming), rel=1e-2)

    def test_lyapunov_diagnostics_fit(self, headon_report):
        _, report = headon_report
        diag = lyapunov_diagnostics(report)
        assert math.isfinite(diag.a1_fit) and diag.a1_fit < 50.0
        assert math.isfinite(diag.fdot_ratio_max) and diag.fdot_ratio_max < 50.0

    def test_minimum_separation_matches_reduced_model(self, headon_report):
        _, report = headon_report
        z_min = min(r.z for r in report.rows)
        predicted = math.log(8.0 / report.v**2) / SQRT2
        assert z_min == pytest.approx(predicted, abs=0.05)

    def test_fast_collision_enters_and_leaves_cutoff(self):
        # at +-0.75 the pair dips below separation 2: those frames are
        # marked invalid (skipped from rows) and tracking re-acquires after
        # the bounce; the report carries the failure marker
        cfg = ScenarioConfig(
            kinks=KinkArrangement(x1=-6.0, x2=6.0, v1=0.75, v2=-0.75),
            solver=SolverConfig(dt=0.02),
            t_end=16.0,
            frame_cadence=10,
            seed_label="crash",
        )
        report = run_scenario(cfg)
        assert report.failed_at_frame is not None
        assert "failure" in report.summary()
        assert min(r.z for r in report.rows) >= 2.0
        assert report.rows[-1].z > 10.0  # bounced back out
        ts = [r.t for r in report.rows]
        assert max(b - a for a, b in zip(ts, ts[1:])) > 1.0  # cutoff window skipped


class TestSharedPairTerms:
    """F and the coercivity ratio from one pair_terms evaluation per frame
    equal a fresh evaluation that rebuilds the profiles for each."""

    @staticmethod
    def _pair(frame):
        x = frame.x
        anti = antikink_value(x - frame.x1)
        kink = kink_value(x - frame.x2)
        return x, anti, kink, anti + kink, spatial_derivative(frame.g, frame.dx, order=2)

    def _lyapunov_F(self, frame, cube=lambda g: g * g * g):
        x, anti, kink, total, dg = self._pair(frame)
        g, gt, dx = frame.g, g_t(frame), frame.dx
        xdot1, xdot2 = frame.xdot1, frame.xdot2
        # U'(K) = +-sqrt2 K' (3 (1 - K^2) - 2), the center solve's arithmetic
        mode1, mode2 = antikink_derivative(x - frame.x1), kink_derivative(x - frame.x2)
        dd_anti = ((3.0 * (1.0 - anti * anti) - 2.0) * mode1) * -SQRT2
        dd_kink = ((3.0 * (1.0 - kink * kink) - 2.0) * mode2) * SQRT2
        f1 = integrate(gt * gt + dg * dg + eval_potential_derivative(2, total) * g * g, dx)
        interaction = dd_anti + dd_kink - eval_potential_derivative(1, total)
        f2 = -2.0 * integrate(g * interaction, dx)
        f3 = 2.0 * integrate(g * (xdot1 * xdot1 * dd_anti + xdot2 * xdot2 * dd_kink), dx)
        omega = cut_function((x - frame.x1) / frame.z, 0.80, 0.75)
        f4 = 2.0 * integrate(gt * dg * (xdot1 * omega + xdot2 * (1.0 - omega)), dx)
        f5 = integrate(eval_potential_derivative(3, total) * cube(g), dx) / 3.0
        return float(f1 + f2 + f3 + f4 + f5)

    def _coercivity_ratio(self, frame):
        _, _, _, total, dg = self._pair(frame)
        g = frame.g
        quad = integrate(dg * dg + eval_potential_derivative(2, total) * g * g, frame.dx)
        return float(quad / integrate(g * g + dg * dg, frame.dx))

    @staticmethod
    def _remainder_norms(frame):
        """||g||_H1 and ||g_t||_L2 as the center solve measured them before
        the per-frame diagnostics took them over."""
        dg = spatial_derivative(frame.g, frame.dx, order=2)
        h1 = float(np.sqrt(integrate(frame.g * frame.g + dg * dg, frame.dx)))
        gt = g_t(frame)
        l2 = float(np.sqrt(integrate(gt * gt, frame.dx)))
        return h1, l2

    @staticmethod
    def _collision():
        return ScenarioConfig(
            kinks=KinkArrangement(x1=-6.0, x2=6.0, v1=0.5, v2=-0.5),
            solver=SolverConfig(dt=0.02),
            t_end=4.0,
            frame_cadence=2,
            seed_label="collide-short",
        )

    def test_collision_frames_match_fresh_evaluation(self):
        report = run_scenario(self._collision())
        frames = tracked_frames(self._collision())
        assert len(frames) == len(report.rows) == 101
        ratios = []
        for frame, row in zip(frames, report.rows):
            terms = pair_terms(frame)
            assert row.F_t == lyapunov_F(frame, terms) == self._lyapunov_F(frame)
            assert (row.norm_g_h1, row.norm_gt_l2) == self._remainder_norms(frame)
            ratio = coercivity_ratio(frame, terms)
            assert ratio == self._coercivity_ratio(frame)
            if row.norm_g_h1 > 1e-9:
                ratios.append(ratio)
        assert ratios and report.coercivity_ratio_min == min(ratios)

    def test_one_remainder_derivative_per_valid_frame(self, monkeypatch, tmp_path):
        log = tmp_path / "orders"  # appended to by this process and the stepper

        def counted(f, dx, order=4):
            append_line(log, order)
            return spatial_derivative(f, dx, order=order)

        monkeypatch.setattr(functionals, "spatial_derivative", counted)
        report = run_scenario(self._collision())
        orders = log.read_text().split()
        assert orders.count("2") == len(report.rows) == sum(f.valid for f in report.frames)

    def test_cube_within_two_ulp_of_pow(self):
        # g * g * g rounds twice where g**3 rounds once
        report = run_scenario(self._collision())
        frames = tracked_frames(self._collision())
        assert len(frames) == len(report.rows)
        for frame, row in zip(frames, report.rows):
            pow_form = self._lyapunov_F(frame, cube=lambda g: g**3)
            assert abs(row.F_t - pow_form) <= 2 * np.spacing(abs(pow_form))

    def test_diagnostics_never_rebuild_the_pair(self, monkeypatch):
        # in this process, where each frame carries its solve's pair: every
        # pair is built by a residual evaluation; the stepper rebuilds one for
        # each frame handed to it, and appends to its own copies of the lists
        built, residuals = [], []
        pair_fields, residual_and_matrix = modulation._pair_fields, modulation._residual_and_matrix

        def counted_pair(*args):
            built.append(args[0].t)
            return pair_fields(*args)

        def counted_residual(*args):
            residuals.append(args[0].t)
            return residual_and_matrix(*args)

        monkeypatch.setattr(modulation, "_pair_fields", counted_pair)
        monkeypatch.setattr(modulation, "_residual_and_matrix", counted_residual)
        report = run_scenario(self._collision())
        assert len(report.rows) == 101 and built == residuals

    def test_the_stepper_job_equals_the_callers_bit_for_bit(self):
        # _diagnostics on a frame unpickled as the stepper gets it, which
        # rebuilds its pair from the snapshot, against the frame that carries
        # its solve's pair
        config, got = self._collision(), []

        def both(frame):
            handed = pickle.loads(pickle.dumps(frame))
            assert frame.pair is not None and handed.pair is None
            got.append([[float(v).hex() for v in scenarios._diagnostics(frame.state, f)]
                        for f in (frame, handed)])

        snapshots = run(build_initial_state(config), config.solver, config.t_end, unmeasured,
                        config.frame_cadence)
        try:
            modulation.track(snapshots, both)
        finally:
            snapshots.close()
        assert len(got) == 101 and all(here == there for here, there in got)

    def test_two_profile_evaluations_per_residual_evaluation(self, monkeypatch):
        profiles, residuals = [], []
        kink_value_, residual_and_matrix = modulation.kink_value, modulation._residual_and_matrix

        def counted_profile(x):
            profiles.append(len(x))
            return kink_value_(x)

        def counted_residual(*args):
            residuals.append(args[2:])
            return residual_and_matrix(*args)

        monkeypatch.setattr(modulation, "kink_value", counted_profile)
        monkeypatch.setattr(modulation, "_residual_and_matrix", counted_residual)
        report = run_scenario(self._collision())
        assert report.rows and len(profiles) == 2 * len(residuals)


class TestFrameMemory:
    """A run's frames keep no full-grid copy of (g, g_t), and after the first
    no snapshot: the stepper's rows are a ring that it reuses, so a run's
    memory does not grow with its snapshots."""

    def test_frames_after_the_first_hold_no_snapshot(self):
        report = run_scenario(TestSharedPairTerms._collision())
        assert len(report.frames) == 101 > pde._RING
        first = report.frames[0].state
        assert first.phi.flags.owndata and first.pi.flags.owndata
        assert all(frame.state is None for frame in report.frames[1:])

    def test_peak_rss_does_not_grow_with_the_snapshots(self):
        """ru_maxrss, in a fresh interpreter, across a 1,001-snapshot head-on
        after a warm-up run.  test_peak_memory_near_the_snapshots's
        tracemalloc bound cannot see the stepper's mapped rows, so only this
        test bounds them: a row per snapshot would grow it by 31 MiB."""
        script = textwrap.dedent("""
            import resource
            from phi6kinks.pde import SolverConfig
            from phi6kinks.scenarios import KinkArrangement, ScenarioConfig, run_scenario

            def headon(t_end):
                return ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0, v1=0.5, v2=-0.5),
                                      solver=SolverConfig(dt=0.02), t_end=t_end,
                                      frame_cadence=2)

            run_scenario(headon(4.0))  # warm-up: imports and the cached weights and energies
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            report = run_scenario(headon(40.0))
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            print(len(report.frames), len(report.frames[0].state.phi), grown)
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        frames, n, grown_kib = map(int, out.split())
        assert (frames, n) == (1001, 2041)
        assert grown_kib <= 8 * 1024

    def test_peak_memory_near_the_snapshots(self, arrays_held):
        config = TestSharedPairTerms._collision()
        run_scenario(config)  # warm-up: weight and reference-energy caches
        tracemalloc.start()
        try:
            report = run_scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = config.resolved_grid().n
        assert (n, len(report.frames)) == (2041, 101)
        snapshot_bytes = len(report.frames) * 2 * n * 8
        assert peak <= 1.3 * snapshot_bytes
        for frame in report.frames:
            assert arrays_held(frame) == []


class TestProbe:
    def test_kappa_zero_hits_immediately(self):
        records = optimality_probe([0.05], kappa=0.0)
        assert records[0].hit and records[0].t_hit == 0.0

    def test_moderate_excess_probe(self):
        # at this large excess the separation is ~2.9 and the subleading
        # interaction terms depress the measured value by ~15%
        records = optimality_probe([0.05])
        rec = records[0]
        assert rec.eps_measured == pytest.approx(0.05, rel=0.25)
        assert rec.hit
        assert rec.t_hit <= rec.t_max
        assert rec.hit_ratio is not None and rec.hit_ratio < 3.0

    def test_rejects_large_target(self):
        with pytest.raises(ValueError):
            optimality_probe([0.5])

    def test_hit_time_scaling_across_excesses(self):
        # across a 4x spread in excess, the first-crossing time stays
        # consistent with the ln(1/eps)/sqrt(eps) scale to within a factor 3
        recs = optimality_probe([1e-2, 4e-2])
        assert all(r.hit for r in recs)
        ratios = [r.hit_ratio for r in recs]
        assert max(ratios) / min(ratios) < 3.0


class TestDefaultSuite:
    def test_suite_composition(self):
        suite = default_suite()
        labels = [c.seed_label for c in suite]
        assert len(suite) == 7
        assert sum("static" in l for l in labels) == 2
        assert sum("headon" in l for l in labels) == 3
        assert sum("perturbed" in l for l in labels) == 2
        for c in suite:
            grid = c.resolved_grid()
            assert grid.n % 2 == 1

    def test_failure_marker_on_partial_tracking(self, quick_report):
        rep = replace(quick_report, failed_at_frame=7)
        assert "failure" in rep.summary()
        assert "7" in rep.summary()["failure"]
