#!/usr/bin/env python3
"""Run the shipped scenario suite, write reports, and print all verdicts.

Usage: python scripts/run_default_suite.py [out_dir]
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phi6kinks.scenarios import (  # noqa: E402
    STABILITY_C_LIMIT,
    TRACKING_C_LIMIT,
    default_suite,
    lyapunov_diagnostics,
    run_scenario,
    verify_orbital_stability,
    verify_remainder_growth,
    verify_tracking,
)


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/default-suite"
    suite = default_suite(outputs=out_dir)
    suite_track_c = 0.0
    suite_stab_c = 0.0
    all_ok = True
    suite_start = time.perf_counter()
    for config in suite:
        start = time.perf_counter()
        report = run_scenario(config)
        stability = verify_orbital_stability(report)
        window = 2.0 / abs(config.kinks.v1) if config.kinks.v1 else None
        tracking = verify_tracking(report, t_window=window)
        growth = verify_remainder_growth(report)
        lyap = lyapunov_diagnostics(report)
        iters = [f.newton_iters for f in report.frames if f.valid]
        suite_track_c = max(suite_track_c, tracking.fitted_C)
        suite_stab_c = max(suite_stab_c, stability.c_stability)
        all_ok = (all_ok and report.failed_at_frame is None
                  and stability.passed and tracking.passed and growth.passed)
        print(
            f"{config.seed_label:18s} eps={report.epsilon:10.3e} "
            f"trackC={tracking.fitted_C:9.3g} stabC={stability.c_stability:8.3g} "
            f"t2=[{stability.t2_ratio_min:.3f},{stability.t2_ratio_max:.3f}] "
            f"growthC={growth.fitted_C:8.3g} "
            f"coercivity>={report.coercivity_ratio_min:.3f} "
            f"lyapA1={lyap.a1_fit:.3g} lyapA3={lyap.fdot_ratio_max:.3g} "
            f"newton mean/max={sum(iters) / len(iters):.2f}/{max(iters)} "
            f"({time.perf_counter() - start:.1f}s)"
        )
    print(
        f"\nsuite constants: tracking C={suite_track_c:.3g} (limit {TRACKING_C_LIMIT:g}), "
        f"remainder C={suite_stab_c:.3g} (limit {STABILITY_C_LIMIT:g}) -> "
        f"{'pass' if all_ok else 'FAIL'}"
    )
    print(f"reports written under {out_dir}/")
    print(f"suite wall time: {time.perf_counter() - suite_start:.1f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
