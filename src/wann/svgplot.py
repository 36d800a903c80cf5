"""Self-contained SVG charts: polylines, shaded bands, scatter points.

No plotting dependency; output is deterministic for identical inputs
(fixed-precision coordinates, stable ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46


@dataclass
class Line:
    """One polyline; ``band`` is an optional symmetric half-width."""

    label: str
    xs: np.ndarray
    ys: np.ndarray
    band: np.ndarray | None = None


@dataclass
class Points:
    label: str
    xs: np.ndarray
    ys: np.ndarray


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = np.ceil(lo / step) * step
    return [start + k * step for k in range(int((hi - start) / step) + 1)]


def write_chart(path: str | Path, lines: list[Line] = (),
                points: list[Points] = (), x_label: str = "",
                y_label: str = "") -> None:
    """Write a line/scatter chart with linear axes and a legend.

    A series with a non-finite x, y or band value is a ``ValueError``
    that names its label, raised before the file is opened.
    """
    series = list(lines) + list(points)
    if not series:
        raise ValueError("chart needs at least one series")
    for s in series:
        band = s.band if isinstance(s, Line) else None
        for name, values in (("x", s.xs), ("y", s.ys), ("band", band)):
            if values is not None and not np.isfinite(
                    np.asarray(values, dtype=float)).all():
                raise ValueError(f"series {s.label!r} has a non-finite "
                                 f"{name} value")
    all_x = np.concatenate([np.asarray(s.xs, dtype=float) for s in series])
    ys_ext = []
    for s in series:
        ys = np.asarray(s.ys, dtype=float)
        ys_ext.append(ys)
        if isinstance(s, Line) and s.band is not None:
            ys_ext.append(ys + s.band)
            ys_ext.append(ys - s.band)
    all_y = np.concatenate(ys_ext)
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v):
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    axis_y = HEIGHT - MARGIN_B
    parts.append(f'<line x1="{MARGIN_L}" y1="{axis_y}" x2="{WIDTH - MARGIN_R}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{axis_y}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{axis_y}" x2="{_fmt(x)}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{axis_y + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{format(t, "g")}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" '
                     f'x2="{MARGIN_L}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{format(t, "g")}</text>')
    if x_label:
        parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {HEIGHT // 2})">{y_label}</text>')

    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        xs = np.asarray(s.xs, dtype=float)
        ys = np.asarray(s.ys, dtype=float)
        if isinstance(s, Line):
            if s.band is not None:
                upper = [(sx(x), sy(y + b)) for x, y, b in zip(xs, ys, s.band)]
                lower = [(sx(x), sy(y - b)) for x, y, b in zip(xs, ys, s.band)]
                ring = upper + lower[::-1]
                path_d = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in ring)
                parts.append(f'<polygon points="{path_d}" fill="{color}" '
                             f'fill-opacity="0.15" stroke="none"/>')
            path_d = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}"
                              for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{path_d}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        else:
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" '
                             f'r="2.2" fill="{color}" fill-opacity="0.6"/>')

    legend_y = MARGIN_T + 6
    legend_x = WIDTH - MARGIN_R - 150
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        y = legend_y + 16 * k
        parts.append(f'<rect x="{legend_x}" y="{y}" width="12" height="4" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 18}" y="{y + 6}" '
                     f'font-family="sans-serif" font-size="11">{s.label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
