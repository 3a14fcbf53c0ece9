#!/usr/bin/env python3
"""Digest the reports of the benchmark's configs, or compare two digested runs.

Usage, from the root of a checkout:

    python scripts/report_digest.py write OUT_DIR
    python scripts/report_digest.py compare OLD_DIR NEW_DIR

``write`` runs the 7 scenarios of ``default_suite()``, the eps = 1e-2 probe
scenario and every config of the ``VARIANTS`` seed variants (0 .. 15) of the
three benchmark workloads (``perfbench/bench_workloads.build``), with the
phi6kinks of this checkout.  Each report goes to OUT_DIR/<group>/<label>/
with an extras.json next to it: ``coercivity_ratio_min``, the
``lyapunov_diagnostics`` constants, the d1/d2 velocities and
``snapshots_sha256``, one sha256 of the phi, pi and t bytes of every
snapshot the run took, which the report files do not hold.  As the frames
keep no snapshot, that hash is taken from a second ``pde.run`` of the
config, each snapshot as it streams; the stepper is deterministic.
OUT_DIR/digest.json records one sha256 per ``trajectory.csv`` column, per
``summary.json`` and per extras entry.

``compare`` digests both directories again, names every entry that moved,
with the number of values that moved and their largest difference in units
in the last place (ULP), or as a moved hash for ``snapshots_sha256``.  Then
it totals each entry name over the reports: how many moved, the largest ULP
distance and the largest |difference| over the largest |value| of the
report's column.  It exits 1 when anything moved.  To compare two commits,
run ``write`` from a checkout of each (copy this script into the older one
if it lacks it).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_workloads  # noqa: E402
from phi6kinks.pde import run  # noqa: E402
from phi6kinks.reporting import write_report  # noqa: E402
from phi6kinks.scenarios import (  # noqa: E402
    build_initial_state,
    default_suite,
    lyapunov_diagnostics,
    probe_scenario_config,
    run_scenario,
)

CSV = "trajectory.csv"
SUMMARY = "summary.json"
EXTRAS = "extras.json"
SNAPSHOTS = "snapshots_sha256"


def benchmark_configs() -> dict:
    """{"<group>/<label>": ScenarioConfig} of every config the digest covers."""
    configs = {f"suite/{c.seed_label}": c for c in default_suite()}
    probe = probe_scenario_config(1e-2)
    configs[f"probe/{probe.seed_label}"] = probe
    for name in bench_workloads.WHY:
        for variant in range(bench_workloads.VARIANTS):
            for c in bench_workloads.build(name, variant).configs:
                configs[f"{name}-v{variant}/{c.seed_label}"] = c
    return configs


def write_reports(out_dir: Path, configs: dict) -> dict:
    """Run every config, write its report and extras, and write the digest."""
    for key, config in configs.items():
        report = run_scenario(config)
        write_report(report, out_dir / key)
        diag = lyapunov_diagnostics(report)
        extras = {
            "coercivity_ratio_min": report.coercivity_ratio_min,
            "a1_fit": diag.a1_fit,
            "fdot_ratio_max": diag.fdot_ratio_max,
            "d1_dots": report.d1_dots,
            "d2_dots": report.d2_dots,
            SNAPSHOTS: snapshot_digest(config),
        }
        (out_dir / key / EXTRAS).write_text(json.dumps(extras))
    digest = digest_dir(out_dir)
    (out_dir / "digest.json").write_text(json.dumps(digest, indent=1, sort_keys=True))
    return digest


def snapshot_digest(config) -> str:
    """sha256 of the phi, pi and t bytes of every snapshot of the config's
    run, valid frame or not, hashed as each streams from ``pde.run``."""
    digest = hashlib.sha256()
    for state in run(build_initial_state(config), config.solver, config.t_end,
                     lambda state: None, config.frame_cadence):
        digest.update(state.phi.tobytes())
        digest.update(state.pi.tobytes())
        digest.update(struct.pack("<d", state.t))
    return digest.hexdigest()


def _report_values(report_dir: Path) -> dict:
    """{entry: list of the values as text} of one written report."""
    header, *lines = (report_dir / CSV).read_text().splitlines()
    rows = [line.split(",") for line in lines]
    entries = {f"{CSV}:{name}": [row[i] for row in rows]
               for i, name in enumerate(header.split(","))}
    entries[SUMMARY] = [(report_dir / SUMMARY).read_text()]
    for name, value in json.loads((report_dir / EXTRAS).read_text()).items():
        if name == SNAPSHOTS:
            entries[f"extras:{name}"] = [value]
            continue
        values = value if isinstance(value, list) else [value]
        entries[f"extras:{name}"] = [repr(float(v)) for v in values]
    return entries


def _report_dirs(root: Path) -> list[Path]:
    return sorted(p.parent for p in root.rglob(SUMMARY))


def digest_dir(root: Path) -> dict:
    """{"<report>/<entry>": sha256} over every report under root."""
    out = {}
    for report_dir in _report_dirs(root):
        key = report_dir.relative_to(root).as_posix()
        for entry, values in _report_values(report_dir).items():
            out[f"{key}/{entry}"] = hashlib.sha256("\n".join(values).encode()).hexdigest()
    return out


def ulp_distance(a: float, b: float) -> float:
    """Representable doubles from a to b; inf when exactly one is NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf

    def ordered(x: float) -> int:
        (bits,) = struct.unpack("<q", struct.pack("<d", x))
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return float(abs(ordered(a) - ordered(b)))


def _largest(values) -> float:
    """The largest value that is not NaN; 0 for none."""
    return max((v for v in values if not math.isnan(v)), default=0.0)


def _moved(entry: str, old: list[str], new: list[str]) -> tuple[str, float, float]:
    """How one entry moved: the summary keys, or the count of values that
    moved and their largest ULP difference; with, for numbers of one length,
    that ULP difference and the largest |difference| over the largest old
    |value| (NaN otherwise).  A NaN on one side is an infinite move."""
    if entry == SUMMARY:
        old_keys, new_keys = json.loads(old[0]), json.loads(new[0])
        keys = sorted(k for k in old_keys.keys() | new_keys.keys()
                      if old_keys.get(k) != new_keys.get(k))
        return "keys " + ", ".join(keys), math.nan, math.nan
    if entry == f"extras:{SNAPSHOTS}":
        return "hash moved", math.nan, math.nan
    if len(old) != len(new):
        return f"{len(old)} -> {len(new)} values", math.nan, math.nan
    pairs = [(float(a), float(b)) for a, b in zip(old, new) if a != b]
    ulps = _largest(ulp_distance(a, b) for a, b in pairs)
    change = _largest(math.inf if math.isnan(b - a) else abs(b - a) for a, b in pairs)
    scale = _largest(abs(float(v)) for v in old)
    relative = change / scale if scale > 0 else math.inf
    return f"{len(pairs)} of {len(old)} values, max {ulps:g} ULP", ulps, relative


def compare(old_root: Path, new_root: Path) -> list[str]:
    """One line per entry that moved or exists on one side only, then one
    line per entry name that moved in any report, totalled over the reports."""
    old_digest, new_digest = digest_dir(old_root), digest_dir(new_root)
    lines = [f"{key}: only in {old_root if key in old_digest else new_root}"
             for key in sorted(old_digest.keys() ^ new_digest.keys())]
    moved = sorted(k for k in old_digest.keys() & new_digest.keys()
                   if old_digest[k] != new_digest[k])
    sizes = {}  # entry name -> (ULP, relative change) of each report it moved in
    for key in moved:
        report, _, entry = key.rpartition("/")
        old = _report_values(old_root / report)[entry]
        new = _report_values(new_root / report)[entry]
        text, ulps, relative = _moved(entry, old, new)
        lines.append(f"{key}: {text}")
        sizes.setdefault(entry, []).append((ulps, relative))
    reports = len({key.rpartition("/")[0] for key in old_digest.keys() & new_digest.keys()})
    for entry, moves in sorted(sizes.items()):
        line = f"{entry}: {len(moves)} of {reports} reports moved"
        if any(not math.isnan(ulps) for ulps, _ in moves):
            line += (f", max {_largest(u for u, _ in moves):g} ULP, max |change| "
                     f"{_largest(r for _, r in moves):.2g} of the column's largest |value|")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    write = sub.add_parser("write", help="run the configs and digest their reports")
    write.add_argument("out_dir", type=Path)
    cmp_ = sub.add_parser("compare", help="name the entries that moved between two runs")
    cmp_.add_argument("old_dir", type=Path)
    cmp_.add_argument("new_dir", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        digest = write_reports(args.out_dir, benchmark_configs())
        print(f"{len(digest)} digests of {len(_report_dirs(args.out_dir))} reports "
              f"in {args.out_dir / 'digest.json'}")
        return 0
    lines = compare(args.old_dir, args.new_dir)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
