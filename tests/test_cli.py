"""CLI contract: subcommands, config parsing, exit codes, file outputs."""
import json

import pytest

from phi6kinks.cli import main
from phi6kinks.functionals import odd_sample_count
from phi6kinks.pde import SolverConfig
from phi6kinks.reporting import CSV_HEADER
from phi6kinks.scenarios import (
    GaussianPerturbation,
    GridSpec,
    KinkArrangement,
    ScenarioConfig,
    auto_grid,
    run_scenario,
)


def assert_same_reports(a, b):
    for report in ("trajectory.csv", "summary.json"):
        assert (a / report).read_bytes() == (b / report).read_bytes()


@pytest.fixture()
def config_path(tmp_path):
    config = {
        "kinks": {"x1": -6.0, "x2": 6.0, "v1": 0.0, "v2": 0.0},
        "solver": {"dt": 0.02},
        "t_end": 10.0,
        "frame_cadence": 25,
        "seed_label": "cli-test",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_run_writes_report(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").read_text().startswith(CSV_HEADER)
    summary = json.loads((out / "summary.json").read_text())
    assert "epsilon" in summary and "fitted_C_growth" in summary
    printed = capsys.readouterr().out
    assert "epsilon" in printed


def test_run_overrides_apply(tmp_path, config_path, capsys):
    out = tmp_path / "out2"
    code = main(
        ["run", "--config", str(config_path), "--out", str(out), "--t-end", "5.0",
         "--dt", "0.025", "--dx", "0.04"]
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    last_t = float(lines[-1].split(",")[0])
    assert last_t == pytest.approx(5.0, abs=1e-9)
    # --dx keeps the span of the config's grid and resamples it at the new spacing
    kinks = KinkArrangement(x1=-6.0, x2=6.0)
    grid = auto_grid(kinks)
    span = grid.dx * (grid.n - 1)
    run_scenario(ScenarioConfig(
        kinks=kinks,
        grid=GridSpec(grid.x0, 0.04, odd_sample_count(span, 0.04)),
        solver=SolverConfig(dt=0.025),
        t_end=5.0,
        frame_cadence=25,
        outputs=str(tmp_path / "oracle"),
    ))
    assert_same_reports(out, tmp_path / "oracle")


def test_gaussian_perturbation_config(tmp_path, capsys):
    config = {
        "kinks": {"x1": -6.0, "x2": 6.0},
        "perturbation": {"kind": "gaussian", "amplitude": 1e-3},
        "t_end": 1.0,
    }
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
    run_scenario(ScenarioConfig(
        kinks=KinkArrangement(x1=-6.0, x2=6.0),
        perturbation=GaussianPerturbation(1e-3, width=1.0, center=0.0),
        t_end=1.0,
        outputs=str(tmp_path / "oracle"),
    ))
    assert_same_reports(tmp_path / "cli", tmp_path / "oracle")


@pytest.mark.parametrize("flag", ["--dx", "--dt", "--t-end"])
def test_zero_override_is_runtime_error(tmp_path, config_path, capsys, flag):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--out", str(out), flag, "0"])
    assert code == 2
    assert f"{flag.lstrip('-').replace('-', '_')} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes_on_good_report(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    code = main(["verify", "--report", str(out)])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_verify_fails_on_tampered_report(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    csv = out / "trajectory.csv"
    lines = csv.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("norm_g_h1")
    tampered = [lines[0]]
    for line in lines[1:]:
        vals = line.split(",")
        vals[idx] = repr(float(vals[idx]) * 1e6 + 1.0)
        tampered.append(",".join(vals))
    csv.write_text("\n".join(tampered) + "\n")
    code = main(["verify", "--report", str(out)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("eps", [-1e-3, 0.0], ids=["negative", "zero"])
def test_verify_fails_tracking_without_positive_excess(tmp_path, config_path, capsys, eps):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    summary["epsilon"] = eps
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    (tracking,) = [line for line in capsys.readouterr().out.splitlines() if "tracking:" in line]
    assert "C=nan" in tracking and tracking.endswith("-> FAIL")


def test_verify_never_passes_growth_without_a_positive_excess(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    summary["epsilon"] = "nan"
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    (growth,) = [line for line in capsys.readouterr().out.splitlines() if "growth envelope:" in line]
    assert growth.endswith("growth envelope: skipped (degenerate fit: energy excess nan "
                           "is not a positive number)")


def test_verify_rejects_a_bool_excess(tmp_path, config_path, capsys):
    # a bool is no number: true must not read as an excess of 1.0
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    summary["epsilon"] = True
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out / 'summary.json'}: epsilon is true, not a number\n"


def test_verify_scans_directory_of_reports(tmp_path, config_path):
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "suite" / "a")])
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "suite" / "b")])
    assert main(["verify", "--report", str(tmp_path / "suite")]) == 0


@pytest.mark.parametrize("kappa, printed", [("0.1", "t_hit="), ("1e6", "no hit within t_max")],
                         ids=["hit", "no-hit"])
def test_probe_prints_records(capsys, kappa, printed):
    code = main(["probe", "--eps", "0.05", "--kappa", kappa])
    assert code == 0
    out = capsys.readouterr().out
    assert "eps=" in out and printed in out


@pytest.mark.parametrize("kappa", ["nan", "inf", "-1"])
def test_probe_rejects_bad_kappa(capsys, kappa):
    assert main(["probe", "--eps", "0.05", "--kappa", kappa]) == 2
    captured = capsys.readouterr()
    assert "kappa must be finite and >= 0" in captured.err and captured.out == ""


def test_probe_without_excess_is_runtime_error(capsys):
    assert main(["probe", "--eps", ","]) == 2
    assert "lists no excess" in capsys.readouterr().err


def test_null_sections_mean_absent(tmp_path, capsys):
    config = {"kinks": {"x1": -6.0, "x2": 6.0}, "t_end": 1.0}
    nulls = dict(config, grid=None, solver=None, perturbation=None)
    for name, data in (("absent", config), ("null", nulls)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    for report in ("trajectory.csv", "summary.json"):
        null = (tmp_path / "null" / report).read_bytes()
        assert null == (tmp_path / "absent" / report).read_bytes()


def test_missing_config_is_runtime_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_invalid_config_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kinks": {"x1": 6.0, "x2": -6.0}}))
    code = main(["run", "--config", str(path)])
    assert code == 2


@pytest.mark.parametrize("section, key", [
    (None, "t_ned"), ("kinks", "t_ned"), ("grid", "t_ned"), ("solver", "t_ned"),
    ("perturbation", "t_ned"),
    # settings that no longer exist: the uncontracted start and the sponge
    (None, "lorentz_contract"), ("solver", "sponge_width"), ("solver", "sponge_strength"),
], ids=["None", "kinks", "grid", "solver", "perturbation",
        "lorentz_contract", "solver.sponge_width", "solver.sponge_strength"])
def test_unknown_config_key_is_runtime_error(tmp_path, capsys, section, key):
    config = {
        "kinks": {"x1": -6.0, "x2": 6.0},
        "grid": {"x0": -51.0, "dx": 0.05, "n": 2041},
        "solver": {"dt": 0.02},
        "perturbation": {"kind": "gaussian", "amplitude": 1e-3, "width": 1.0},
        "t_end": 1.0,
    }
    (config if section is None else config[section])[key] = 5.0
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("frame_cadence", 2.5, "config.frame_cadence must be an integer, got 2.5"),
    ("frame_cadence", True, "config.frame_cadence must be an integer, got true"),
    ("solver", 5, "solver must be a JSON object, got 5"),
    ("t_end", None, "config.t_end must be a finite number, got null"),
    ("t_end", "5", 'config.t_end must be a finite number, got "5"'),
], ids=["cadence-float", "cadence-bool", "solver-int", "t_end-null", "t_end-str"])
def test_mistyped_config_value_is_runtime_error(tmp_path, capsys, key, value, message):
    config = {"kinks": {"x1": -6.0, "x2": 6.0}, "t_end": 1.0, key: value}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["gausian", "None"])
def test_unknown_perturbation_kind_is_runtime_error(tmp_path, capsys, kind):
    config = {
        "kinks": {"x1": -6.0, "x2": 6.0},
        "perturbation": {"kind": kind, "amplitude": 1e-3},
        "t_end": 1.0,
    }
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert repr(kind) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gaussian_without_amplitude_is_runtime_error(tmp_path, capsys):
    config = {"kinks": {"x1": -6, "x2": 6}, "t_end": 1, "perturbation": {"kind": "gaussian"}}
    path = tmp_path / "no_amplitude.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "perturbation.amplitude" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_fails_on_failed_tracking(tmp_path, capsys):
    # at +-0.75 the pair dips below separation 2 from frame 34 on: the rows
    # skip those frames, so only the failure entry of summary.json shows it
    config = {
        "kinks": {"x1": -6.0, "x2": 6.0, "v1": 0.75, "v2": -0.75},
        "solver": {"dt": 0.02},
        "t_end": 16.0,
        "frame_cadence": 10,
        "seed_label": "crash",
    }
    path = tmp_path / "crash.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "crash"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    assert "tracking invalid from frame 34 -> FAIL" in capsys.readouterr().out


def test_verify_fails_tracking_without_a_frame_after_t0(tmp_path, capsys):
    # cut to its t = 0 row, a moving pair's report holds no tracking evidence
    config = {"kinks": {"x1": -6.0, "x2": 6.0, "v1": 0.05, "v2": -0.05},
              "t_end": 2.0, "frame_cadence": 25}
    path = tmp_path / "moving.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "moving"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    csv = out / "trajectory.csv"
    csv.write_text("\n".join(csv.read_text().splitlines()[:2]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--report", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[moving] tracking: C=nan max|z-d|=nan -> FAIL" in lines
    assert any(line.startswith("[moving] stability:") and line.endswith("-> pass")
               for line in lines)
    assert "[moving] growth envelope: skipped (need >= 20 frames, got 1)" in lines
