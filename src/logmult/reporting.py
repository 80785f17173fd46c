"""Structured experiment records, deterministic text reports, and CSV emission.

Reports are rendered with insertion-ordered sections and shortest round-trip
float formatting, so running the same manifest twice produces byte-identical
files.  Wall-clock timing is deliberately kept out of rendered reports (it is
surfaced on the console instead); everything written to disk is a pure
function of the manifest.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["ExperimentReport", "RunManifest", "render_report", "write_csv", "format_value"]

TOOLKIT_VERSION = "0.1.0"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    return str(v)


@dataclass
class RunManifest:
    """Everything needed to reproduce one command run bit-identically."""

    command: str
    config: Dict[str, Dict[str, str]]
    seed: int
    grid_params: Dict[str, object]
    version: str = TOOLKIT_VERSION
    output_paths: Tuple[str, ...] = ()
    elapsed_seconds: Optional[float] = None  # console-only; never rendered to files

    def lines(self) -> List[str]:
        out = [f"command = {self.command}", f"seed = {self.seed}", f"version = {self.version}"]
        for key in sorted(self.grid_params):
            out.append(f"grid.{key} = {format_value(self.grid_params[key])}")
        for section in sorted(self.config):
            for key in sorted(self.config[section]):
                out.append(f"config.{section}.{key} = {self.config[section][key]}")
        for path in self.output_paths:
            out.append(f"output = {path}")
        return out


@dataclass
class ExperimentReport:
    """Measured norms, fitted exponents, pass/fail flags, and provenance."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    passed: Optional[bool] = None
    notes: Tuple[str, ...] = ()
    manifest: Optional[RunManifest] = None


def _row_header(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Every key of every row, in first-seen order."""
    return list(dict.fromkeys(key for row in rows for key in row))


def render_report(report: ExperimentReport) -> str:
    """Human-readable key/value rendering with nested sections; deterministic."""
    lines: List[str] = [f"report {report.name}"]
    if report.manifest is not None:
        lines.append("  manifest")
        lines.extend(f"    {line}" for line in report.manifest.lines())
    if report.params:
        lines.append("  params")
        lines.extend(f"    {k} = {format_value(v)}" for k, v in report.params.items())
    if report.rows:
        lines.append("  measurements")
        header = _row_header(report.rows)
        for row in report.rows:
            rendered = ", ".join(f"{k}={format_value(row.get(k, ''))}" for k in header)
            lines.append(f"    {rendered}")
    if report.summary:
        lines.append("  summary")
        lines.extend(f"    {k} = {format_value(v)}" for k, v in report.summary.items())
    for note in report.notes:
        lines.append(f"  note: {note}")
    if report.passed is not None:
        lines.append(f"  result = {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_csv(path, rows: Sequence[Mapping[str, object]]) -> None:
    """RFC-4180 CSV emission with deterministic formatting."""
    header = _row_header(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(row.get(k, "")) for k in header])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
