"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Criteria 6, 7 and 9 share one run of the default scenario suite (the
session-scope ``suite_reports`` fixture of conftest.py), and criterion 4
reads the frames of one more run, which keep their snapshots
(``suite_frames``).  Stated runtime
budgets are asserted; they carry large margins on commodity hardware.
"""
import dataclasses
import math
import time

import numpy as np

from phi6kinks import effective, scenarios
from phi6kinks.cli import verdicts
from phi6kinks.effective import params_from_initial, separation_d, separation_d_dot
from phi6kinks.functionals import integrate, reference_kink_energy
from phi6kinks.model import SQRT2, kink_value
from phi6kinks.modulation import decompose
from phi6kinks.pde import FieldState, SolverConfig, run
from phi6kinks.scenarios import (
    auto_grid,
    default_suite,
    optimality_probe,
    run_scenario,
    verify_orbital_stability,
    verify_tracking,
)
from conftest import two_kink_state, unmeasured
from oracles import (
    antikink_value,
    conserved_quantity,
    integrate_reduced,
    interaction_energy_A,
    kink_derivative,
    orthogonality_ok,
)


def _verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_closed_form_identities():
    start = time.time()
    dx = 0.01
    x = np.arange(-40.0, 40.0 + 1e-12, dx)
    slope_sq = integrate(kink_derivative(x) ** 2, dx)
    h = kink_value(x)
    moment = integrate((8 * h**3 - 6 * h**5) * np.exp(-SQRT2 * x), dx)
    elapsed = time.time() - start
    err1 = abs(slope_sq - 1.0 / (2 * SQRT2))
    err2 = abs(moment - 2 * SQRT2)
    ok = err1 <= 1e-8 and err2 <= 1e-8 and elapsed < 1.0
    _verdict(1, ok, f"|slope^2 - 1/(2sqrt2)|={err1:.2e}, "
                    f"|moment - 2sqrt2|={err2:.2e}, {elapsed:.2f}s")
    assert err1 <= 1e-8
    assert err2 <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_interaction_energy_asymptotics():
    start = time.time()
    e_ref = reference_kink_energy(0.01)
    residuals = {}
    for z in (6.0, 8.0, 10.0, 12.0):
        resid = interaction_energy_A(z) - 2 * e_ref - 2 * SQRT2 * math.exp(-SQRT2 * z)
        residuals[z] = (resid, 12 * z * math.exp(-2 * SQRT2 * z) + 1e-10)
    ratio10 = (interaction_energy_A(10.0) - 2 * e_ref) / (2 * SQRT2 * math.exp(-10 * SQRT2))
    elapsed = time.time() - start
    ok = all(abs(r) <= tol for r, tol in residuals.values()) and 0.99 <= ratio10 <= 1.01
    detail = ", ".join(
        f"z={z:g}: |resid|={abs(r):.2e} vs tol={tol:.2e} "
        f"(|resid|/(z e^(-2sqrt2 z))={abs(r) / (z * math.exp(-2 * SQRT2 * z)):.2f})"
        for z, (r, tol) in residuals.items()
    )
    _verdict(2, ok and elapsed < 5.0, detail + f", ratio(z=10)={ratio10:.6f}, {elapsed:.1f}s")
    assert 0.99 <= ratio10 <= 1.01
    assert elapsed < 5.0
    for z, (resid, tol) in residuals.items():
        # NOTE: resid = -(12 z - 15/sqrt2) e^{-2 sqrt2 z} + O(z e^{-3 sqrt2 z}).
        # Sketch: A - 2E = int[U(a+b) - U(a) - U(b) - U'(a) b] after parts; the
        # -12 a^2 b^2 term integrates exactly to -12 z e^{-2 sqrt2 z}/(1 - e^{-2 sqrt2 z})
        # and 15(a^4 b^2 + a^2 b^4) to (15/sqrt2) e^{-2 sqrt2 z}.  So
        # |resid| / (z e^{-2 sqrt2 z}) rises towards 12 from below, and 12 is the
        # sharp constant of this bound form (docstring of interaction_energy_A).
        assert abs(resid) <= tol, (
            f"z={z}: |A - 2E_ref - 2sqrt2 e^(-sqrt2 z)| = {abs(resid):.3e} exceeds "
            f"12 z e^(-2 sqrt2 z) + 1e-10 = {tol:.3e}; the derived expansion is "
            f"resid = -(12 z - 15/sqrt2) e^(-2 sqrt2 z) + O(z e^(-3 sqrt2 z))"
        )


def test_criterion_3_solver_integrity():
    start = time.time()
    dx, dt = 0.05, 0.02
    n = int(round(80 / dx)) + 1
    x = -40 + dx * np.arange(n)
    kink = kink_value(x)
    state = FieldState(x0=-40, dx=dx, n=n, phi=kink.copy(), pi=np.zeros(n), t=0.0)
    cfg = SolverConfig(dt=dt)
    snaps = run(state, cfg, 200.0, unmeasured, frame_cadence=1000)
    sup_err = float(np.max(np.abs(snaps[-1].phi - kink)))

    from phi6kinks.functionals import energy_breakdown

    n2 = int(round(96 / dx)) + 1
    moving = two_kink_state((-48.0, dx, n2), -8.0, 8.0, 0.05, -0.05)
    msnaps = run(moving, cfg, 200.0, unmeasured, frame_cadence=1000)
    e0 = energy_breakdown(msnaps[0]).e_total
    drift = max(abs(energy_breakdown(s).e_total - e0) for s in msnaps) / e0

    cur = run(moving, cfg, moving.t + 1000 * cfg.dt, unmeasured, frame_cadence=1000)[-1]
    cur = dataclasses.replace(cur, pi=-cur.pi)
    cur = run(cur, cfg, cur.t + 1000 * cfg.dt, unmeasured, frame_cadence=1000)[-1]
    cur = dataclasses.replace(cur, pi=-cur.pi)
    rev_err = max(
        float(np.max(np.abs(cur.phi - moving.phi))),
        float(np.max(np.abs(cur.pi - moving.pi))),
    )

    def order4_sup_err(dxc, dtc):
        nc = int(round(80 / dxc)) + 1
        xc = -40 + dxc * np.arange(nc)
        sc = FieldState(x0=-40, dx=dxc, n=nc, phi=kink_value(xc), pi=np.zeros(nc), t=0.0)
        out = run(sc, SolverConfig(dt=dtc), 10.0, unmeasured, frame_cadence=10**9)
        return float(np.max(np.abs(out[-1].phi - kink_value(xc))))

    ratio = order4_sup_err(0.05, 0.02) / order4_sup_err(0.025, 0.01)
    elapsed = time.time() - start
    ok = sup_err <= 1e-4 and drift <= 1e-5 and rev_err <= 1e-10 and 14.0 <= ratio <= 18.0
    _verdict(3, ok and elapsed < 120.0,
             f"sup_err={sup_err:.2e}, energy drift={drift:.2e}, "
             f"reversibility={rev_err:.2e}, convergence ratio={ratio:.2f}, {elapsed:.0f}s")
    assert sup_err <= 1e-4
    assert drift <= 1e-5
    assert rev_err <= 1e-10
    assert 14.0 <= ratio <= 18.0
    assert elapsed < 120.0


def test_criterion_4_modulation_correctness(suite_frames):
    dx = 0.05
    n = int(round(110 / dx)) + 1
    x = -55 + dx * np.arange(n)
    phi = antikink_value(x + 5.1) + kink_value(x - 5.3)
    exact = FieldState(x0=-55, dx=dx, n=n, phi=phi, pi=np.zeros(n), t=0.0)
    frame = decompose(exact, (-5.0, 5.0))
    center_err = max(abs(frame.x1 + 5.1), abs(frame.x2 - 5.3))

    perturbed = FieldState(
        x0=-55, dx=dx, n=n, phi=phi + 0.01 * np.exp(-((x - 5.3) ** 2)),
        pi=np.zeros(n), t=0.0,
    )
    pframe = decompose(perturbed, (-5.0, 5.0))
    shift = max(abs(pframe.x1 + 5.1), abs(pframe.x2 - 5.3))

    ortho_all = True
    frame_count = 0
    for frames in suite_frames.values():
        for f in frames:
            frame_count += 1
            ortho_all = ortho_all and orthogonality_ok(f)

    ok = center_err <= 1e-10 and ortho_all and shift <= 0.1
    _verdict(4, ok, f"planted-center err={center_err:.2e}, orthogonality on "
                    f"{frame_count} suite frames={'ok' if ortho_all else 'violated'}, "
                    f"perturbation shift={shift:.3f}")
    assert center_err <= 1e-10
    assert ortho_all
    assert shift <= 0.1


def test_criterion_4_fails_frames_with_a_shifted_center(suite_frames):
    # orthogonality_ok re-measures the projections, so centers off the solve
    # fail it although the frames still carry the solve's own residuals
    frames = [f for frames in suite_frames.values() for f in frames]
    shifted = [dataclasses.replace(f, x2=f.x2 + 1e-3, z=f.z + 1e-3) for f in frames]
    passing = sum(orthogonality_ok(f) for f in shifted)
    _verdict(4, passing == 0, f"x2 shifted by 1e-3: orthogonality holds on {passing} "
                              f"of {len(shifted)} suite frames")
    assert shifted and passing == 0


def test_criterion_5_reduced_dynamics():
    start = time.time()
    p = params_from_initial(-5.0, 5.0, 0.05, -0.05)
    traj = integrate_reduced(10.0, -0.1, 100.0, 0.01)
    rk4_err = float(np.max(np.abs(traj.z - separation_d(traj.t, p))))
    q = conserved_quantity(traj.z, traj.zdot)
    drift_rate = float(np.max(np.abs(q - q[0]))) / 100.0

    p_open = params_from_initial(-3.0, 3.0, -0.025, 0.025)
    h = 0.01
    fd_rel = 0.0
    for t in (0.0, 5.0, 50.0):
        fd = (
            separation_d(t + h, p_open) - 2 * separation_d(t, p_open)
            + separation_d(t - h, p_open)
        ) / h**2
        force = 16 * SQRT2 * math.exp(-SQRT2 * separation_d(t, p_open))
        fd_rel = max(fd_rel, abs(fd - force) / force)

    round_trip = max(
        abs(separation_d(0.0, p) - 10.0), abs(separation_d_dot(0.0, p) + 0.1)
    )
    elapsed = time.time() - start
    ok = (rk4_err <= 1e-8 and drift_rate <= 1e-10 and fd_rel <= 1e-6
          and round_trip <= 1e-12 and elapsed < 5.0)
    _verdict(5, ok, f"rk4 vs closed form={rk4_err:.2e}, conserved drift/t={drift_rate:.2e}, "
                    f"acceleration fd rel={fd_rel:.2e}, round trip={round_trip:.2e}, "
                    f"{elapsed:.1f}s")
    assert rk4_err <= 1e-8
    assert drift_rate <= 1e-10
    assert fd_rel <= 1e-6
    assert round_trip <= 1e-12
    assert elapsed < 5.0


def test_criterion_6_tracking_bound(suite_reports):
    start = time.time()
    fitted = {}
    for label, (_, report) in suite_reports.items():
        (tracking,) = [v for v in verdicts(report) if v.name == "tracking"]
        fitted[label] = tracking.constant
    suite_c = max(fitted.values())
    elapsed = time.time() - start
    ok = suite_c <= 20.0
    detail = ", ".join(f"{k}: C={v:.3g}" for k, v in fitted.items())
    _verdict(6, ok, f"single C={suite_c:.3g} (limit 20); {detail}; "
                    f"{elapsed:.0f}s beyond shared suite run")
    assert "headon-v0.05" in fitted
    assert suite_c <= 20.0


def test_criterion_7_stability_envelopes(suite_reports):
    c_values = {}
    ratio_lo, ratio_hi = math.inf, -math.inf
    all_passed = True
    for label, (cfg, report) in suite_reports.items():
        verdict = verify_orbital_stability(report)
        c_values[label] = verdict.c_stability
        ratio_lo = min(ratio_lo, verdict.t2_ratio_min)
        ratio_hi = max(ratio_hi, verdict.t2_ratio_max)
        all_passed = all_passed and verdict.passed
    suite_c = max(c_values.values())
    ok = suite_c <= 10.0 and ratio_lo >= 0.1 and ratio_hi <= 10.0 and all_passed
    _verdict(7, ok, f"remainder C={suite_c:.3g} (limit 10), "
                    f"excess bracket=[{ratio_lo:.3f}, {ratio_hi:.3f}] within [0.1, 10]")
    assert suite_c <= 10.0
    assert ratio_lo >= 0.1
    assert ratio_hi <= 10.0
    assert all_passed


def test_criterion_8_remainder_growth_probe(suite_reports):
    start = time.time()
    record = optimality_probe([1e-2])[0]
    eps = record.eps_measured
    budget = 3.0 * math.log(1.0 / eps) / math.sqrt(eps)
    hit_ok = record.hit and record.t_hit <= budget

    # envelope-fit stability across two resolutions on the perturbed scenario
    coarse_cfg, coarse_report = suite_reports["perturbed-a0.001"]
    fine_cfg = dataclasses.replace(
        coarse_cfg,
        grid=auto_grid(coarse_cfg.kinks, dx=0.025),
        solver=SolverConfig(dt=0.01),
        frame_cadence=100,
    )
    fine_report = run_scenario(fine_cfg)
    c_coarse = coarse_report.fitted_C_growth
    c_fine = fine_report.fitted_C_growth
    stability = max(c_coarse / c_fine, c_fine / c_coarse)
    elapsed = time.time() - start
    ok = hit_ok and stability <= 2.0
    _verdict(8, ok, f"probe eps={eps:.3e}, t_hit={record.t_hit} <= {budget:.0f}: "
                    f"{'yes' if hit_ok else 'no'}; growth C {c_coarse:.3g} vs {c_fine:.3g} "
                    f"(x{stability:.3f} across resolutions), {elapsed:.0f}s")
    assert hit_ok
    assert stability <= 2.0


HEADON_K = 1.5  # criterion 9's limit on max|z - d| in units of eps ln(1/eps)


def _headon_ratios(reports):
    """max|z - d|/(eps ln(1/eps)) over the whole run of each symmetric
    head-on (v1 = -v2 != 0, so the midpoint rests), by label."""
    ratios = {}
    for label, (cfg, report) in reports.items():
        if cfg.kinks.v1 and cfg.kinks.v1 == -cfg.kinks.v2:
            eps = report.epsilon
            ratios[label] = verify_tracking(report).max_abs_z_minus_d / (eps * math.log(1.0 / eps))
    return ratios


def test_criterion_9_headon_tracks_the_force_law(suite_reports):
    ratios = _headon_ratios(suite_reports)
    ok = all(r <= HEADON_K for r in ratios.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in ratios.items())
    _verdict(9, ok, f"max|z-d|/(eps ln 1/eps) <= {HEADON_K} over the whole run; {detail}")
    assert len(ratios) == 3
    assert ok


def test_criterion_9_fails_a_force_law_one_percent_strong(monkeypatch):
    # 8 -> 8.08 in effective's v^2 = zdot0^2/4 + 8 e^{-sqrt2 z0} and ln(8/v^2)
    # (a force 1 % stronger) is the unplanted law started from a separation
    # shorter by s = ln(1.01)/sqrt2, whose d(t) is then read s longer; the
    # centers split the d that they are handed
    s = math.log(1.01) / SQRT2

    def params(x1, x2, xdot1, xdot2):
        return effective.params_from_initial(x1 + 0.5 * s, x2 - 0.5 * s, xdot1, xdot2)

    monkeypatch.setattr(scenarios, "params_from_initial", params)
    monkeypatch.setattr(scenarios, "separation_d", lambda t, p: effective.separation_d(t, p) + s)
    reports = {cfg.seed_label: (cfg, run_scenario(cfg)) for cfg in default_suite()
               if cfg.kinks.v1}
    ratios = _headon_ratios(reports)
    assert len(ratios) == 3
    assert all(r > HEADON_K for r in ratios.values()), ratios
