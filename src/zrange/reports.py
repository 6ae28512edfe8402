"""Deterministic CSV/JSON report writing for the command-line driver.

Floats are serialized with 12 significant digits, rows keep their sweep
order, and nothing time- or path-dependent enters the files, so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import __version__


def fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    return str(value)


@dataclass
class ReportRow:
    """One CSV row: its values by column name, and a status tag."""

    values: dict
    status: str = "ok"

    def __post_init__(self):
        if self.status not in ("ok", "flagged", "error"):
            raise ValueError(f"invalid status {self.status!r}")


def write_report(
    out_dir: Path,
    command: str,
    columns: list,
    rows: list,
    config_echo: dict,
    aggregates: dict,
) -> tuple:
    """Write <command>.csv and <command>_summary.json; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{command.replace('-', '_')}.csv"
    with csv_path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns + ["status"])
        for row in rows:
            writer.writerow([fmt(row.values[c]) for c in columns] + [row.status])
    summary = {
        "command": command,
        "config": config_echo,
        "aggregates": {k: (fmt(v) if isinstance(v, float) else v) for k, v in aggregates.items()},
        "n_rows": len(rows),
        "statuses": sorted({r.status for r in rows}),
        "toolkit_version": __version__,
    }
    json_path = out_dir / f"{command.replace('-', '_')}_summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
