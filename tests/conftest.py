import dataclasses
import os
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


def unmeasured(state):
    """The per-snapshot measure of a ``pde.run`` whose test reads none."""
    return None


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, such as a stepper
    process whose snapshots were neither read to the end nor closed."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid}, wait status {status}"
    pytest.fail(f"the test left a child process unreaped ({state})")


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
