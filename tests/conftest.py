import contextlib
import ctypes
import dataclasses
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

from phi6kinks.pde import FieldState  # noqa: E402  (needs SRC on the path)
from phi6kinks.scenarios import (  # noqa: E402
    GridSpec,
    KinkArrangement,
    ScenarioConfig,
    build_initial_state,
    default_suite,
    run_scenario,
)
from oracles import tracked_frames  # noqa: E402


def two_kink_state(grid, x1, x2, v1=0.0, v2=0.0, perturbation=None):
    """The t = 0 state of a scenario with an antikink at x1 and a kink at x2,
    boosted to v1 and v2, on the (x0, dx, n) grid."""
    config = ScenarioConfig(KinkArrangement(x1, x2, v1, v2), grid=GridSpec(*grid),
                            perturbation=perturbation)
    return build_initial_state(config)


def unmeasured(snapshot, *args):
    """The measure of a ``pde.run`` whose test hands the stepper none."""
    return None


def running_descendants(root: int) -> set[int]:
    """The pids of the running processes whose parent links in /proc/*/stat
    lead to ``root``, at any depth; exited processes not yet reaped are left
    out."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            with contextlib.suppress(OSError):  # the process has gone
                with open(f"/proc/{entry}/stat") as f:
                    state, ppid = f.read().rpartition(")")[2].split()[:2]
                if state != "Z":
                    parents[int(entry)] = int(ppid)
    found, frontier = set(), {root}
    while frontier:
        frontier = {pid for pid, ppid in parents.items() if ppid in frontier} - found
        found |= frontier
    return found


@pytest.fixture(scope="session", autouse=True)
def adopt_orphans():
    """Make this process the subreaper of its descendants (Linux), so that a
    process whose parent has exited becomes its child, not init's, and
    ``no_child_left`` still finds it."""
    if sys.platform == "linux":
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                          ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        if prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
            raise OSError(ctypes.get_errno(), "PR_SET_CHILD_SUBREAPER failed")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves any process it started still running, at any
    depth, such as either stepper process of a run whose snapshots were
    neither read to the end nor closed, or a child process unreaped.  The
    processes found are killed and reaped, so the next test starts clean."""
    yield
    running = running_descendants(os.getpid())
    for pid in running:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    unreaped = []
    with contextlib.suppress(ChildProcessError):
        while pid := os.waitpid(-1, 0 if running else os.WNOHANG)[0]:
            if pid not in running:
                unreaped.append(pid)
    if running or unreaped:
        pytest.fail(f"the test left processes still running {sorted(running)} "
                    f"and child processes unreaped {unreaped}")


@pytest.fixture(scope="session")
def suite_reports():
    """{label: (config, report)} of one run of the default suite, shared by
    the acceptance criteria and the growth-fit tests."""
    return {cfg.seed_label: (cfg, run_scenario(cfg)) for cfg in default_suite()}


@pytest.fixture(scope="session")
def suite_frames():
    """{label: valid frames with their snapshots} of one more run of the
    default suite, for the criteria that read a frame's fields after
    the run."""
    return {cfg.seed_label: tracked_frames(cfg) for cfg in default_suite()}


@pytest.fixture
def arrays_held():
    """A function listing every ndarray a value holds through dataclass
    fields, tuples and lists, except inside the snapshot a frame points at."""

    def held(value):
        if isinstance(value, np.ndarray):
            return [value]
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            if isinstance(value, FieldState):
                return []
            value = [getattr(value, f.name) for f in dataclasses.fields(value)]
        if isinstance(value, (tuple, list)):
            return [a for item in value for a in held(item)]
        return []

    return held
