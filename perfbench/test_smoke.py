"""Smoke test of the benchmark itself, on the tiny size of every workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ of this checkout on sys.path)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from phi6kinks import scenarios  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture
def out_dir():
    path = run.OUT / "smoke"
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if run.OUT.is_dir() and not any(run.OUT.iterdir()):
        run.OUT.rmdir()


def _failed_frac(workload, reference, out_dir) -> float:
    p = run.run_pass(bw, workload, reference, out_dir)
    return len(p.failed) / p.attempted


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.WHY)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == bw.WHY


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bw.WHY))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    table = "\n".join(lines[:-1])
    for m in spec:
        assert f"{m['name']} " in table and f" {m['unit']}\n" in table + "\n"
    assert "failed_frac" in table and "machine {" in table


@pytest.mark.parametrize("plant", ["wrong-reference", "coarser-grid", "fewer-frames"])
def test_planted_defects_make_operations_fail(plant, out_dir):
    workload = bw.build("fine-longrun", 0, "tiny")
    reference = run.load_reference(workload)
    assert _failed_frac(workload, reference, out_dir) == 0.0
    (config,) = workload.configs
    if plant == "wrong-reference":
        reference = copy.deepcopy(reference)
        reference["fine-z16"]["max_remainder"] *= 1.01
    elif plant == "coarser-grid":
        grid = config.resolved_grid()
        coarse = replace(grid, dx=2.0 * grid.dx, n=(grid.n - 1) // 2 + 1)
        workload = replace(workload, configs=(replace(config, grid=coarse),))
    else:
        workload = replace(workload, configs=(replace(config, frame_cadence=1000),))
    assert _failed_frac(workload, reference, out_dir) > 0.0


@pytest.mark.parametrize("layer", ["lyapunov_F", "coercivity_ratio"])
def test_a_wrong_functional_makes_operations_fail(layer, out_dir, monkeypatch):
    workload = bw.build("collision-dense", 0, "tiny")
    reference = run.load_reference(workload)
    original = getattr(scenarios, layer)
    monkeypatch.setattr(scenarios, layer, lambda *args: 1.01 * original(*args))
    assert _failed_frac(workload, reference, out_dir) > 0.0


def test_report_bytes_that_differ_between_passes_fail():
    first = run.Pass(2, digests={"fine-z16/summary.json": "a"})
    later = run.Pass(2, digests={"fine-z16/summary.json": "b"})
    run.check_identical(first, later)
    assert later.failed == {"fine-z16"}


def test_missing_traced_layer_fails_loudly(monkeypatch):
    original = scenarios.run
    monkeypatch.delattr(scenarios, "lyapunov_F")
    with pytest.raises(AttributeError):
        with bench_trace.Tracer():
            pass
    assert scenarios.run is original  # wrappers installed before the failure are removed


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "suite", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
