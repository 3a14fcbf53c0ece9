"""Per-layer tracing of phi6kinks from outside the program.

The tracer replaces module attributes with timing wrappers at the points
where the pipeline looks them up: ``scenarios`` calls its layers through
its module globals, ``modulation.track`` calls ``decompose`` through the
``modulation`` globals and ``cli`` calls ``load_report`` and the verdicts
through its own.  Each wrapped call is a span; a span's self time is its
duration minus the time of the spans it encloses.  A name that is missing
raises at once, so a renamed layer can never read as zero work.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from phi6kinks import cli, model, modulation, scenarios

VERDICTS = ("verify_orbital_stability", "verify_tracking", "verify_remainder_growth")
EFFECTIVE = ("params_from_initial", "centers_d1_d2", "centers_velocities", "separation_d")
FUNCTIONALS = ("energy_breakdown", "lyapunov_F", "coercivity_ratio")

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("pde.run_s", "s", "lower"),
    ("pde.steps", "count", "lower"),
    ("pde.us_per_step", "us", "lower"),
    ("pde.ns_per_site", "ns", "lower"),
    ("pde.init_ms", "ms", "lower"),
    ("pde.snapshot_mb", "MiB", "lower"),
    ("modulation.track_s", "s", "lower"),
    ("modulation.frames", "count", "lower"),
    ("modulation.invalid_frames", "count", "lower"),
    ("modulation.decompose_calls", "count", "lower"),
    ("modulation.decompose_failed", "count", "lower"),
    ("modulation.valid_per_call", "ratio", "higher"),
    ("modulation.decompose_ms_p50", "ms", "lower"),
    ("modulation.decompose_ms_p99", "ms", "lower"),
    ("modulation.decompose_samples", "count", "higher"),
    ("modulation.newton_iters_mean", "count", "lower"),
    ("modulation.newton_iters_max", "count", "lower"),
    ("functionals.energy_ms", "ms", "lower"),
    ("functionals.lyapunov_ms", "ms", "lower"),
    ("functionals.coercivity_ms", "ms", "lower"),
    ("functionals.diag_s", "s", "lower"),
    ("effective.s", "s", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("scenarios.fit_growth_ms", "ms", "lower"),
    ("scenarios.verdict_ms", "ms", "lower"),
    ("reporting.write_ms", "ms", "lower"),
    ("reporting.bytes_written", "B", "lower"),
    ("reporting.load_ms", "ms", "lower"),
    ("cli.verify_ms", "ms", "lower"),
    ("model.kink_value_ns_per_point", "ns", "lower"),
    ("model.upot_ns_per_point", "ns", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder; use as a context manager to install and remove wrappers."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.failures: Counter = Counter()
        self.steps = 0
        self.site_steps = 0
        self.snapshot_bytes = 0
        self.frames = 0
        self.invalid_frames = 0
        self.newton_iters: list[int] = []
        self.bytes_written = 0
        self._open: list[float] = []  # time covered by children of each open span
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.failures[name] += 1
            raise
        finally:
            duration = time.perf_counter() - start
            children = self._open.pop()
            self.durations[name].append(duration)
            self.self_time[name] += duration - children
            if self._open:
                self._open[-1] += duration

    def wrap(self, module, attr: str, observe=None) -> None:
        """Time every call of ``module.attr``; ``observe(args, result)`` sees
        each successful call outside the timed span."""
        original = getattr(module, attr)  # AttributeError: the layer moved
        if not callable(original):
            raise TypeError(f"{module.__name__}.{attr} is not callable")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(attr):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        try:
            observers = {"run": self._on_run, "track": self._on_track,
                         "write_report": self._on_write}
            for name in ("build_initial_state", "run", "track", "fit_growth_constant",
                         "write_report", "run_scenario", *FUNCTIONALS, *EFFECTIVE,
                         *VERDICTS, "lyapunov_diagnostics"):
                self.wrap(scenarios, name, observe=observers.get(name))
            self.wrap(modulation, "decompose", observe=self._on_decompose)
            self.wrap(cli, "load_report")
            for name in VERDICTS:
                self.wrap(cli, name)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- counters taken from the layers' results -----------------------------

    def _on_run(self, args, snapshots) -> None:
        cfg = args[1]
        n = snapshots[0].n
        steps = int(round((snapshots[-1].t - snapshots[0].t) / cfg.dt))
        self.steps += steps
        self.site_steps += steps * n
        # phi and pi of every snapshot, float64; computed, not measured
        self.snapshot_bytes = max(self.snapshot_bytes, len(snapshots) * 2 * n * 8)

    def _on_track(self, args, frames) -> None:
        self.frames += len(frames)
        self.invalid_frames += sum(not f.valid for f in frames)

    def _on_decompose(self, args, frame) -> None:
        self.newton_iters.append(frame.newton_iters)

    def _on_write(self, args, out_dir) -> None:
        self.bytes_written += sum(p.stat().st_size for p in Path(out_dir).iterdir())

    # -- metrics -------------------------------------------------------------

    def _total(self, *names: str) -> float:
        return sum(sum(self.durations[n]) for n in names)

    def _mean_ms(self, *names: str) -> float:
        calls = [d for n in names for d in self.durations[n]]
        if not calls:
            raise RuntimeError(f"no calls recorded for {names}")
        return 1e3 * statistics.fmean(calls)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics; totals and counts are per traced pass."""
        decompose = self.durations["decompose"]
        if not decompose or not self.newton_iters or not self.steps:
            raise RuntimeError("traced run recorded no steps or no center solves")
        q = statistics.quantiles(decompose, n=100, method="inclusive")
        valid = self.frames - self.invalid_frames
        return {
            "pde.run_s": self._total("run") / passes,
            "pde.steps": self.steps / passes,
            "pde.us_per_step": 1e6 * self._total("run") / self.steps,
            "pde.ns_per_site": 1e9 * self._total("run") / self.site_steps,
            "pde.init_ms": self._mean_ms("build_initial_state"),
            "pde.snapshot_mb": self.snapshot_bytes / 2**20,
            "modulation.track_s": self._total("track") / passes,
            "modulation.frames": self.frames / passes,
            "modulation.invalid_frames": self.invalid_frames / passes,
            "modulation.decompose_calls": len(decompose) / passes,
            "modulation.decompose_failed": self.failures["decompose"] / passes,
            "modulation.valid_per_call": valid / len(decompose),
            "modulation.decompose_ms_p50": 1e3 * statistics.median(decompose),
            "modulation.decompose_ms_p99": 1e3 * q[98],
            "modulation.decompose_samples": len(decompose),
            "modulation.newton_iters_mean": statistics.fmean(self.newton_iters),
            "modulation.newton_iters_max": max(self.newton_iters),
            "functionals.energy_ms": self._mean_ms("energy_breakdown"),
            "functionals.lyapunov_ms": self._mean_ms("lyapunov_F"),
            "functionals.coercivity_ms": self._mean_ms("coercivity_ratio"),
            "functionals.diag_s": self._total(*FUNCTIONALS) / passes,
            "effective.s": self._total(*EFFECTIVE) / passes,
            "scenarios.self_s": self.self_time["run_scenario"] / passes,
            "scenarios.fit_growth_ms": self._mean_ms("fit_growth_constant"),
            "scenarios.verdict_ms": self._mean_ms(*VERDICTS, "lyapunov_diagnostics"),
            "reporting.write_ms": self._mean_ms("write_report"),
            "reporting.bytes_written": self.bytes_written / passes,
            "reporting.load_ms": self._mean_ms("load_report"),
            "cli.verify_ms": self._mean_ms("cli.verify"),
        }


def model_costs(n: int, batch_seconds: float = 0.05, batches: int = 7) -> dict[str, float]:
    """ns per grid point of ``kink_value`` and of U'(phi), at grid size n."""
    x = np.linspace(-50.0, 50.0, n)
    phi = model.kink_value(x) - model.kink_value(-x)
    out = {}
    for name, fn in (("model.kink_value_ns_per_point", lambda: model.kink_value(x)),
                     ("model.upot_ns_per_point",
                      lambda: model.eval_potential_derivative(1, phi))):
        fn()
        reps = 1
        while True:
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            if time.perf_counter() - start >= batch_seconds / 4:
                break
            reps *= 2
        samples = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            samples.append((time.perf_counter() - start) / (reps * n))
        out[name] = 1e9 * statistics.median(samples)
    return out
