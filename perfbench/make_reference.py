#!/usr/bin/env python3
"""Regenerate the reference values in reference.json from the current program.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py                       # every workload, all variants, full size
    python3 perfbench/make_reference.py --size tiny --variants 0
    python3 perfbench/make_reference.py --workload suite --variants 3 4

Entries are merged into the existing file.  A variant whose run fails its
gate (counts, verdicts, verify exit code) is refused, not stored.  Run this
only when a change of results is intended, and say why in the change.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # puts src/ of this checkout on sys.path

import bench_workloads as bw


def reference_values(workload, out_dir) -> dict:
    """Values of every scenario and probe of one ungated pass; verify's exit
    code is gated but not stored."""
    p = run.run_pass(bw, workload, None, out_dir)
    if p.failed:
        raise SystemExit(f"{workload.name} variant {workload.variant}: "
                         + "; ".join(p.problems))
    return {label: v for label, v in p.values.items() if label != "verify"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=bw.SIZES, default="full")
    parser.add_argument("--workload", nargs="*", default=sorted(bw.WHY))
    parser.add_argument("--variants", type=int, nargs="*", default=list(range(bw.VARIANTS)))
    args = parser.parse_args(argv)

    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    out_dir = run.OUT / "reference"
    try:
        for name in args.workload:
            for variant in args.variants:
                workload = bw.build(name, variant, args.size)
                entry = reference_values(workload, out_dir)
                data.setdefault(args.size, {}).setdefault(name, {})[str(variant)] = entry
                run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
                print(f"{args.size} {name} variant {variant}: stored", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if run.OUT.is_dir() and not any(run.OUT.iterdir()):
            run.OUT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
