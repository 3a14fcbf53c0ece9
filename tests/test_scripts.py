"""The suite script's exit status follows every verdict it prints."""
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from phi6kinks.scenarios import GrowthVerdict, KinkArrangement, ScenarioConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_default_suite.py"


@pytest.mark.parametrize("growth_passed, code", [(True, 0), (False, 1)],
                         ids=["growth-pass", "growth-fail"])
def test_suite_exit_status_follows_growth_verdict(tmp_path, monkeypatch, capsys,
                                                  growth_passed, code):
    spec = importlib.util.spec_from_file_location("run_default_suite", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def short_suite(outputs):
        return [ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0), t_end=5.0,
                               frame_cadence=25, outputs=f"{outputs}/rest",
                               seed_label="rest")]

    def growth(report):
        fitted = 1.0 if growth_passed else math.inf
        return GrowthVerdict(fitted_C=fitted, frames_used=len(report.rows),
                             passed=growth_passed)

    monkeypatch.setattr(script, "default_suite", short_suite)
    monkeypatch.setattr(script, "verify_remainder_growth", growth)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(tmp_path)])
    assert script.main() == code
    assert (tmp_path / "rest" / "summary.json").exists()
