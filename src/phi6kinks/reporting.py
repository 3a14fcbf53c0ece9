"""Machine-readable trajectory reports: CSV rows plus a JSON summary.

Floats are written with shortest round-trip formatting, so a written file
re-parses to bit-identical values.  summary.json is strict JSON: a
non-finite number is written as the string "nan", "inf" or "-inf".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

# summary.json's keys, in order; each is an attribute of ComparisonReport
SUMMARY_KEYS = (
    "epsilon",
    "v",
    "c",
    "a",
    "b",
    "max_abs_z_minus_d",
    "max_remainder",
    "fitted_C_growth",
)
# summary.json records a tracking failure as this prefix plus the frame index
FAILURE_PREFIX = "tracking invalid from frame "


@dataclass(frozen=True)
class FrameRow:
    """One tracked frame; the fields, in order, are the CSV columns."""

    t: float
    x1: float
    x2: float
    z: float
    d1: float
    d2: float
    d: float
    z_minus_d: float
    xdot1: float
    xdot2: float
    norm_g_h1: float
    norm_gt_l2: float
    eps_t: float
    F_t: float

    @property
    def remainder(self) -> float:
        """The energy norm ||(g, g_t)|| = ||g||_H1 + ||g_t||_L2."""
        return self.norm_g_h1 + self.norm_gt_l2


CSV_HEADER = ",".join(f.name for f in fields(FrameRow))


@dataclass
class ComparisonReport:
    """Per-frame comparison of the tracked PDE against the reduced dynamics."""

    rows: list[FrameRow]
    epsilon: float
    v: float
    c: float
    a: float
    b: float
    fitted_C_growth: float = float("nan")
    seed_label: str = ""
    failed_at_frame: int | None = None
    coercivity_ratio_min: float = float("nan")
    d1_dots: list[float] = field(default_factory=list)
    d2_dots: list[float] = field(default_factory=list)
    # in-memory only: the modulation frames behind the rows (not serialized)
    frames: list | None = field(default=None, repr=False, compare=False)

    @property
    def max_abs_z_minus_d(self) -> float:
        return max((abs(r.z_minus_d) for r in self.rows), default=float("nan"))

    @property
    def max_remainder(self) -> float:
        return max((r.remainder for r in self.rows), default=float("nan"))

    def summary(self) -> dict:
        out = {key: getattr(self, key) for key in SUMMARY_KEYS}
        if self.failed_at_frame is not None:
            out["failure"] = f"{FAILURE_PREFIX}{self.failed_at_frame}"
        return out


def emit_csv(report: ComparisonReport, path) -> Path:
    """Write the trajectory CSV; rows in time order, header always present."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in fields(FrameRow)]
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(",".join(repr(float(getattr(r, name))) for name in names))
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_summary(report: ComparisonReport, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    summary = {
        key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in report.summary().items()
    }
    path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return path


def write_report(report: ComparisonReport, out_dir) -> Path:
    """Write trajectory.csv and summary.json under out_dir."""
    out_dir = Path(out_dir)
    emit_csv(report, out_dir / "trajectory.csv")
    emit_summary(report, out_dir / "summary.json")
    return out_dir


def parse_csv(path) -> list[FrameRow]:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    names = CSV_HEADER.split(",")
    rows = []
    for lineno, line in enumerate(text[1:], start=2):
        vals = line.split(",")
        if len(vals) != len(names):
            raise ValueError(f"{path} line {lineno}: {len(vals)} fields, expected {len(names)}")
        values = []
        for name, val in zip(names, vals):
            try:
                values.append(float(val))
            except ValueError:
                raise ValueError(f"{path} line {lineno}: field {name} is {val!r}, "
                                 "not a number") from None
        rows.append(FrameRow(*values))
    return rows


def _summary_number(summary_path, key, value) -> float:
    """A summary value as emit_summary writes it: a JSON number (never a
    bool) or one of the strings "nan", "inf" and "-inf"."""
    if value in ("nan", "inf", "-inf") or (isinstance(value, (int, float))
                                           and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{summary_path}: {key} is {json.dumps(value)}, not a number")


def load_report(directory) -> ComparisonReport:
    """Rebuild a report from trajectory.csv + summary.json in a directory."""
    directory = Path(directory)
    rows = parse_csv(directory / "trajectory.csv")
    summary_path = directory / "summary.json"
    try:
        summary = json.loads(summary_path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{summary_path} is not valid JSON: {err}") from None
    if not isinstance(summary, dict):
        raise ValueError(f"{summary_path} must hold a JSON object, got {json.dumps(summary)}")
    required = ("epsilon", "v", "c", "a", "b")
    missing = [key for key in required if key not in summary]
    if missing:
        raise ValueError(f"{summary_path} lacks key(s) {', '.join(map(repr, missing))}")
    failure = summary.get("failure")
    failed_at = None
    if failure is not None:
        if not (isinstance(failure, str) and failure.startswith(FAILURE_PREFIX)
                and failure[len(FAILURE_PREFIX):].isdecimal()):
            raise ValueError(f"{summary_path}: failure entry {json.dumps(failure)} is not "
                             f"'{FAILURE_PREFIX}<frame>'")
        failed_at = int(failure[len(FAILURE_PREFIX):])
    numbers = {key: _summary_number(summary_path, key, summary.get(key, "nan"))
               for key in (*required, "fitted_C_growth")}
    return ComparisonReport(rows=rows, **numbers, seed_label=directory.name,
                            failed_at_frame=failed_at)
