"""Verdict records and report emission (JSON / CSV / SVG)."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class VerdictReport:
    """One inequality check: lhs <= rhs * (1 + tol)."""

    name: str
    lhs: float
    rhs: float
    tol: float = 0.0
    case: str = ""

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + self.tol)

    def to_dict(self) -> dict:
        return {
            "name": str(self.name),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "ratio": float(self.ratio),
            "pass": bool(self.passed),
            "tol": float(self.tol),
            "case": str(self.case),
        }


def _json_row(v: VerdictReport) -> dict:
    row = v.to_dict()
    return {**row, "ratio": row["ratio"] if math.isfinite(row["ratio"]) else None}


def write_json(doc, path) -> None:
    """Indented, key-sorted strict JSON of doc (verdicts as rows, a non-finite
    ratio as null) to path, or stdout for None; any other NaN or infinity raises
    ValueError."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_json_row)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def write_csv(verdicts, path) -> None:
    if not verdicts:
        raise ValueError("nothing to report")
    rows = [v.to_dict() for v in verdicts]
    write_table(path, list(rows[0]), (row.values() for row in rows))


def write_table(path, header, rows) -> None:
    """Write a header line and one CSV line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_svg(path, x, y, xlabel, ylabel, title) -> None:
    """Plot one series as a polyline with a marker on each point, in a
    standalone 640x420 SVG file."""
    if len(x) != len(y) or len(x) < 1:
        raise ValueError("need at least one point, and as many x as y values")
    width, height, pad = 640, 420, 60
    x0, x1 = min(x), max(x)
    y0, y1 = min(y), max(y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>',
        *(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="4" fill="steelblue"/>'
          for a, b in zip(x, y)),
        f'<text x="{width / 2:.0f}" y="{height - 15}" text-anchor="middle" font-size="14">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.0f})">{ylabel}</text>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{pad}" y="{height - pad + 18}" font-size="11">{_fmt(x0)}</text>',
        f'<text x="{width - pad}" y="{height - pad + 18}" text-anchor="end" font-size="11">{_fmt(x1)}</text>',
        f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end" font-size="11">{_fmt(y0)}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" font-size="11">{_fmt(y1)}</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
