#!/usr/bin/env python3
"""Run the shipped scenario suite, write reports, and print all verdicts.

Usage: python scripts/run_default_suite.py [out_dir]
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phi6kinks.cli import print_verdicts, verdicts  # noqa: E402
from phi6kinks.scenarios import (  # noqa: E402
    STABILITY_C_LIMIT,
    TRACKING_C_LIMIT,
    default_suite,
    run_scenario,
    tracking_window,
)


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/default-suite"
    suite_c = {"tracking": 0.0, "stability": 0.0}
    all_ok = True
    suite_start = time.perf_counter()
    for config in default_suite(outputs=out_dir):
        start = time.perf_counter()
        report = run_scenario(config)
        records = verdicts(report, window=tracking_window(config))
        iters = [f.newton_iters for f in report.frames if f.valid]
        print(f"{config.seed_label}: eps={report.epsilon:.3e} "
              f"coercivity>={report.coercivity_ratio_min:.3f} "
              f"newton mean/max={sum(iters) / len(iters):.2f}/{max(iters)} "
              f"({time.perf_counter() - start:.1f}s)")
        all_ok = print_verdicts(config.seed_label, records) and all_ok
        constants = {record.name: record.constant for record in records}
        suite_c = {name: max(c, constants[name]) for name, c in suite_c.items()}
    print(
        f"\nsuite constants: tracking C={suite_c['tracking']:.3g} (limit {TRACKING_C_LIMIT:g}), "
        f"remainder C={suite_c['stability']:.3g} (limit {STABILITY_C_LIMIT:g}) -> "
        f"{'pass' if all_ok else 'FAIL'}"
    )
    print(f"reports written under {out_dir}/")
    print(f"suite wall time: {time.perf_counter() - suite_start:.1f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
