"""Structured reports and deterministic CSV/SVG emission.

All numeric output is formatted with 17 significant digits so repeated runs
with equal inputs produce byte-identical files and diffs stay meaningful.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict
from typing import Iterable, Sequence


def fmt(x) -> str:
    """Canonical text for one CSV cell."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class Check:
    """One named assertion with its measured value and threshold.

    ``passed`` may be None for checks that were skipped (for example when a
    theorem hypothesis is violated and the conclusion is not asserted).
    """

    name: str
    passed: bool | None
    measured: float
    threshold: float
    comparator: str = "<="
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else ("SKIP" if self.passed is None else "FAIL")
        out = (f"{status} {self.name}: measured {fmt(self.measured)} "
               f"{self.comparator} {fmt(self.threshold)}")
        if self.note:
            out += f" ({self.note})"
        return out


@dataclass
class ExperimentReport:
    """An experiment's checks and series; ``tables`` and ``plots``, kept out
    of :meth:`to_dict`, declare what :func:`adwave.experiments.write` writes."""

    name: str
    parameters: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    tables: list = field(default_factory=list)
    plots: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    @property
    def first_failure(self) -> str | None:
        return next((c.name for c in self.checks if c.passed is False), None)

    def check(self, name: str, passed, measured, threshold,
              comparator: str = "<=", note: str = "") -> Check:
        c = Check(name, passed, float(measured), float(threshold), comparator, note)
        self.checks.append(c)
        return c

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "parameters": self.parameters,
            "checks": [asdict(c) for c in self.checks],
            "series": {k: list(v) for k, v in self.series.items()},
            "artifacts": list(self.artifacts),
        }

    def write(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.artifacts.append(path)
        return path

    def summary_lines(self) -> list[str]:
        lines = [f"experiment {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        lines.extend("  " + c.line() for c in self.checks)
        return lines


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence | str]) -> str:
    """Write ``header`` and then ``rows`` to ``path``; return ``path``.

    A sequence item is one row, each cell formatted with :func:`fmt`. A
    ``str`` item is text already formatted: one or more complete lines,
    each ending in ``"\\n"``, written verbatim. Items are written as they
    come, so a generator of blocks streams a large file.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(fmt(x) for x in row) + "\n")
    return path


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def svg_line_plot(path: str, x, series: dict, title: str = "",
                  xlabel: str = "", ylabel: str = "", hlines=()) -> str:
    """Minimal deterministic SVG line plot (fixed size, fixed palette)."""
    width, height = 720, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = [float(v) for v in x]
    all_y = [float(v) for ys in series.values() for v in ys]
    all_y.extend(float(v) for v in hlines)
    if not xs or not all_y:
        xs, all_y = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(all_y), max(all_y)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return ml + pw * (v - x0) / (x1 - x0)

    def py(v):
        return mt + ph * (1.0 - (v - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" '
                     f'y2="{mt + ph + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.6g}</text>')
    for ty in _ticks(y0, y1):
        parts.append(f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" '
                     f'y2="{py(ty):.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(ty):.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.6g}</text>')
    parts.append(f'<text x="{ml + pw // 2}" y="{height - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{mt + ph // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {mt + ph // 2})">{ylabel}</text>')
    for hv in hlines:
        parts.append(f'<line x1="{ml}" y1="{py(hv):.2f}" x2="{ml + pw}" '
                     f'y2="{py(hv):.2f}" stroke="#888888" stroke-dasharray="6,4"/>')
    for i, (label, ys) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(a):.2f},{py(float(b)):.2f}" for a, b in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 18 * i
        parts.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" x2="{ml + pw + 34}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 40}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
