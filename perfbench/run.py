#!/usr/bin/env python3
"""phi6kinks benchmark: run one workload in this process and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 35 --trace 0

Workloads: suite, fine-longrun, collision-dense (see bench_workloads.py).
``--trace 0`` repeats the workload untraced for about ``--seconds`` seconds
and prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of the time until the workload is ready to run), ``wall_s``
(median pass time) and ``peak_rss_mb``.  Both times are given at the host's
reference speed (see ``HostClock``).  ``--trace 1`` runs one untraced warm-up
pass, then traced and untraced passes in turn, and prints the per-layer
metrics in plain seconds.

Every operation is gated (see bench_workloads.py), and every pass's
trajectory.csv and summary.json must be byte-identical to the first pass's.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program exits 2
without printing it when phi6kinks cannot be imported from ``src/`` of this
checkout or the reference values are missing.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_SAMPLES = 9
# Seconds that calibrate() takes on the host where the benchmark was defined
# (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6) at its usual speed.
CALIBRATION_S = 0.125

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))

sys.path.insert(0, str(SRC))


def calibrate(iterations: int = 3000, n: int = 2041) -> float:
    """Seconds for a fixed kernel of the program's kind of work (a 4th-order
    stencil, U'(phi), a Verlet update and a dot product on n points, from
    Python) that calls no phi6kinks code, so no change to the program moves it."""
    phi = np.tanh(np.linspace(-50.0, 50.0, n))
    pi = np.zeros(n)
    w = np.full(n, 0.05)
    start = time.perf_counter()
    for _ in range(iterations):
        lap = np.zeros_like(phi)
        lap[2:-2] = (-phi[:-4] + 16.0 * phi[1:-3] - 30.0 * phi[2:-2]
                     + 16.0 * phi[3:-1] - phi[4:]) * 33.3
        p2 = phi * phi
        acc = lap - phi * (2.0 + p2 * (6.0 * p2 - 8.0))
        pi = pi + 1e-4 * acc
        phi = phi + 1e-4 * pi
        float(w @ (phi * acc))
    return time.perf_counter() - start


class HostClock:
    """Converts measured seconds to seconds at the host's reference speed.

    The speed of a shared machine drifts by tens of percent over minutes, and
    the program and the calibration kernel slow down together.  Each interval
    is scaled by ``CALIBRATION_S`` over the mean of the kernel's times just
    before and just after it.  On the defining host this cut the spread of
    medians of 5 repeats of one scenario from ~20 % to ~6 %.  A slowdown that
    the program leaves behind in the process (busy BLAS threads, a larger
    heap) also slows the kernel after it, so it is partly scaled away;
    ``drifts`` records how much the kernel's time changed across each
    interval, so that shows.
    """

    def __init__(self):
        self.calibrations = [calibrate()]
        self.drifts: list[float] = []

    def scale(self, seconds: float) -> float:
        self.calibrations.append(calibrate())
        before, after = self.calibrations[-2:]
        self.drifts.append(after / before - 1.0)
        return seconds * CALIBRATION_S / statistics.fmean((before, after))


@dataclass
class Pass:
    attempted: int
    wall: float = 0.0    # seconds, summed over operations
    scaled: float = 0.0  # the same at the reference host speed, when calibrated
    failed: set[str] = field(default_factory=set)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    values: dict[str, dict] = field(default_factory=dict)

    def attempt(self, label: str, op, clock: HostClock | None = None) -> None:
        """Run and time one gated operation; ``op()`` returns (values, problems)."""
        start = time.perf_counter()
        try:
            self.values[label], found = op()
        except Exception as exc:  # a crashing operation is a failed operation
            found = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        self.wall += elapsed
        self.scaled += clock.scale(elapsed) if clock is not None else elapsed
        if found:
            self.failed.add(label)
            self.problems += [f"{label}: {p}" for p in found]


def run_pass(bw, workload, reference: dict | None, out_dir: Path, tracer=None,
             clock: HostClock | None = None) -> Pass:
    """One pass over every operation of the workload."""
    shutil.rmtree(out_dir, ignore_errors=True)
    p = Pass(attempted=workload.operations)
    ref = reference or {}
    ops = [
        (c.seed_label, functools.partial(
            bw.scenario_op, replace(c, outputs=str(out_dir / c.seed_label)),
            workload, ref.get(c.seed_label)))
        for c in workload.configs
    ]
    span = tracer.span if tracer is not None else None
    ops.append(("verify", functools.partial(bw.verify_op, out_dir, workload, span)))
    if workload.probe_eps:
        ops.append(("probe", functools.partial(bw.probe_op, workload, ref.get("probe"))))
    for label, op in ops:
        p.attempt(label, op, clock)
    p.digests = {
        f.relative_to(out_dir).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.rglob("*")) if f.is_file()
    }
    shutil.rmtree(out_dir, ignore_errors=True)
    return p


def check_identical(first: Pass, later: Pass) -> None:
    """Mark the scenarios whose report files differ from the first pass's."""
    for path in sorted(set(first.digests) | set(later.digests)):
        if first.digests.get(path) != later.digests.get(path):
            label = path.split("/", 1)[0]
            later.failed.add(label)
            later.problems.append(f"{label}: {path} differs from the first pass")


def repeat(deadline, passes, one_round) -> None:
    """Append the passes that ``one_round()`` returns, each checked against
    ``passes[0]``, until the next round would end after ``deadline`` (a
    ``perf_counter`` time); at least one round."""
    durations: list[float] = []
    while True:
        start = time.perf_counter()
        for p in one_round():
            if passes:
                check_identical(passes[0], p)
            passes.append(p)
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def setup_samples(args, clock: HostClock) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) from starting a fresh interpreter
    until the workload is built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code} with {line!r}")
        scaled = clock.scale(elapsed)
        if i:  # the first start also compiles bytecode; users pay that once
            samples.append((elapsed, scaled))
    return samples


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_record(workload) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    threads = next((int(line.split()[1]) for line in _read("/proc/self/status").splitlines()
                    if line.startswith("Threads:")), 0)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    field_kb = workload.max_n * 8 / 1e3
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # OpenBLAS computes on the main thread plus the workers it starts at
        # numpy import; this process starts no other threads
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": (
            f"largest field {field_kb:.0f} KB (n={workload.max_n} float64) is "
            f"cache-resident (L2 {caches.get('L2', '?')}); pde bytes are computed "
            f"from array sizes, not measured bandwidth"
        ),
    }


def measure(bw, workload, reference, args) -> tuple[list[Pass], dict, list[str]]:
    """Run the passes; returns them, the metrics and notes for the table."""
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    passes: list[Pass] = []
    try:
        if not args.trace:
            clock = HostClock()
            setup = setup_samples(args, clock)
            repeat(time.perf_counter() + args.seconds, passes,
                   lambda: [run_pass(bw, workload, reference, out_dir, clock=clock)])
            metrics = {
                "setup_s": statistics.median(s for _, s in setup),
                "wall_s": statistics.median(p.scaled for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes = [
                f"plain seconds: setup median {statistics.median(r for r, _ in setup):.4f}, "
                f"passes " + ", ".join(f"{p.wall:.3f}" for p in passes),
                f"calibration kernel median {statistics.median(clock.calibrations):.4f} s "
                f"(reference {CALIBRATION_S} s) over {len(clock.calibrations)} runs; "
                f"change across one interval: median {statistics.median(clock.drifts):+.1%}, "
                f"largest {max(clock.drifts, key=abs):+.1%}",
            ]
            return passes, {name: (metrics[name], unit) for name, unit in END_TO_END}, notes

        import bench_trace

        deadline = time.perf_counter() + args.seconds
        # the warm-up pass pays first-call costs; it is the reference of the
        # byte comparison but not of trace.overhead_s
        passes.append(run_pass(bw, workload, reference, out_dir))
        tracer = bench_trace.Tracer()

        def traced_then_untraced():
            with tracer:
                traced = run_pass(bw, workload, reference, out_dir, tracer)
            return [traced, run_pass(bw, workload, reference, out_dir)]

        repeat(deadline, passes, traced_then_untraced)
        traced, untraced = passes[1::2], passes[2::2]
        metrics = tracer.metrics(len(traced))
        metrics.update(bench_trace.model_costs(workload.max_n))
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in untraced)
        )
        notes = ["plain seconds: passes " + ", ".join(f"{p.wall:.3f}" for p in passes)]
        return passes, {name: (metrics[name], unit)
                        for name, unit, _ in bench_trace.PER_LAYER}, notes
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()


def load_reference(workload) -> dict:
    data = json.loads(REFERENCE.read_text())
    return data[workload.size][workload.name][str(workload.variant)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: short runs for the benchmark's own smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the workload, print 'ready' and exit (times setup_s)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        import phi6kinks

        if not Path(phi6kinks.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"phi6kinks imported from {phi6kinks.__file__}, not {SRC}")
        import bench_workloads as bw
    except ImportError as exc:
        print(f"error: cannot import phi6kinks from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = bw.build(args.workload, args.seed, args.size)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    try:
        reference = load_reference(workload)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference values for {args.workload} variant "
              f"{workload.variant} ({args.size}) in {REFERENCE}: {exc!r}", file=sys.stderr)
        return 2

    passes, metrics, notes = measure(bw, workload, reference, args)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}", file=sys.stderr)

    print(f"workload {workload.name} ({workload.size}) seed {args.seed} -> variant "
          f"{workload.variant}; trace {args.trace}; {len(passes)} passes")
    print(f"why: {bw.WHY[workload.name]}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print("machine " + json.dumps(machine_record(workload)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
