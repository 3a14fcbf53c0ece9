"""The suite script's exit status follows every verdict it prints, and the
digest script names the report column or the snapshots that moved."""
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from phi6kinks import cli
from phi6kinks.reporting import CSV_HEADER
from phi6kinks.scenarios import GrowthVerdict, KinkArrangement, ScenarioConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "run_default_suite.py"


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def short_suite(outputs):
    """One resting pair with 11 frames, too few for the growth fit."""
    return [ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0), t_end=5.0,
                           frame_cadence=25, outputs=f"{outputs}/rest", seed_label="rest")]


@pytest.mark.parametrize("growth_passed, code", [(True, 0), (False, 1)],
                         ids=["growth-pass", "growth-fail"])
def test_suite_exit_status_follows_growth_verdict(tmp_path, monkeypatch, capsys,
                                                  growth_passed, code):
    script = load_script(SCRIPT)

    def growth(report):
        fitted = 1.0 if growth_passed else math.inf
        return GrowthVerdict(fitted_C=fitted, frames_used=len(report.rows),
                             passed=growth_passed)

    monkeypatch.setattr(script, "default_suite", short_suite)
    monkeypatch.setattr(cli, "verify_remainder_growth", growth)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(tmp_path)])
    assert script.main() == code
    assert (tmp_path / "rest" / "summary.json").exists()


def headon_and_short_suite(outputs):
    """A head-on pair that moves past t = 2/|v| = 4, then the resting pair."""
    headon = ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0, v1=0.5, v2=-0.5),
                            t_end=5.0, frame_cadence=25, outputs=f"{outputs}/headon",
                            seed_label="headon")
    return [headon, *short_suite(outputs)]


def test_suite_skips_growth_like_verify(tmp_path, monkeypatch, capsys):
    # the script and verify print the same verdict lines on each report,
    # tracking of the moving pair included
    script = load_script(SCRIPT)
    monkeypatch.setattr(script, "default_suite", headon_and_short_suite)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(tmp_path)])
    assert script.main() == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert "[rest] growth envelope: skipped (need >= 20 frames, got 11)" in printed
    assert [line.partition(" ")[2].partition(":")[0] for line in printed] == 2 * [
        "stability", "tracking", "growth envelope", "lyapunov"]
    assert cli.main(["verify", "--report", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_report_digest_names_the_column_that_moved(tmp_path, capsys):
    digest = load_script(SCRIPTS / "report_digest.py")
    config = ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0), t_end=2.0,
                            frame_cadence=25, seed_label="rest")
    for side in ("old", "new"):
        written = digest.write_reports(tmp_path / side, {"tiny/rest": config})
        assert json.loads((tmp_path / side / "digest.json").read_text()) == written
    assert len(written) == len(CSV_HEADER.split(",")) + 1 + 6
    assert digest.main(["compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out == "identical\n"

    csv = tmp_path / "new" / "tiny" / "rest" / "trajectory.csv"
    header, *rows = csv.read_text().splitlines()
    column = header.split(",").index("F_t")
    largest = max(abs(float(row.split(",")[column])) for row in rows)
    fields = rows[1].split(",")
    value = float(fields[column])
    fields[column] = repr(math.nextafter(value, math.inf))
    rows[1] = ",".join(fields)
    csv.write_text("\n".join([header, *rows]) + "\n")
    # the per-report line, then the entry's total over the reports
    relative = (math.nextafter(value, math.inf) - value) / largest
    assert digest.compare(tmp_path / "old", tmp_path / "new") == [
        f"tiny/rest/trajectory.csv:F_t: 1 of {len(rows)} values, max 1 ULP",
        f"trajectory.csv:F_t: 1 of 1 reports moved, max 1 ULP, "
        f"max |change| {relative:.2g} of the column's largest |value|",
    ]


def test_report_digest_names_a_moved_snapshot(tmp_path, monkeypatch):
    digest = load_script(SCRIPTS / "report_digest.py")
    configs = {"tiny/rest": ScenarioConfig(kinks=KinkArrangement(x1=-6.0, x2=6.0), t_end=2.0,
                                           frame_cadence=25, seed_label="rest")}
    digest.write_reports(tmp_path / "old", configs)
    run = digest.run

    def planted(*args):
        # 1 ULP in one pi of the last snapshot that the digest hashes, a run
        # apart from the one the report was measured on
        snapshots = list(run(*args))
        pi = snapshots[-1].pi
        pi[pi.size // 2] = math.nextafter(pi[pi.size // 2], math.inf)
        return snapshots

    monkeypatch.setattr(digest, "run", planted)
    digest.write_reports(tmp_path / "new", configs)
    assert digest.compare(tmp_path / "old", tmp_path / "new") == [
        "tiny/rest/extras:snapshots_sha256: hash moved",
        "extras:snapshots_sha256: 1 of 1 reports moved",
    ]
