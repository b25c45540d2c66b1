"""Minimal SVG line charts written by hand, no plotting dependency.

Each chart is a single <svg> document with axis lines, tick labels, one
polyline per series, and a legend. Coordinates are computed from the data
range, so callers just hand over named series of (x, y) points.
"""
from __future__ import annotations

import html
import math
from dataclasses import dataclass, field

__all__ = ["Series", "LineChart", "render_line_chart"]

_PALETTE = (
    "#1f6f8b", "#c0392b", "#27ae60", "#8e44ad", "#d4880c", "#2c3e50",
    "#16a085", "#7f8c8d",
)

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 56


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class LineChart:
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    log_y: bool = False
    floor: float = field(default=0.0)  # log charts clamp y at this positive floor


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def _escape(text: str) -> str:
    """Text content for the SVG: ``&``, ``<`` and ``>`` escaped, quotes kept."""
    return html.escape(text, quote=False)


def render_line_chart(chart: LineChart) -> str:
    xs = [p[0] for s in chart.series for p in s.points]
    ys = [p[1] for s in chart.series for p in s.points]

    def ty(v: float) -> float:
        if chart.log_y:
            return math.log10(max(v, chart.floor or 1e-12))
        return v

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ty(v) for v in ys), max(ty(v) for v in ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if not chart.log_y and y_lo > 0:
        y_lo = 0.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (ty(y) - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(chart.title)}</text>',
    ]

    axis_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="#333" stroke-width="1"/>'
    )

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 5}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_escape(_fmt(t))}</text>'
        )

    if chart.log_y:
        lo_exp = math.floor(y_lo)
        hi_exp = math.ceil(y_hi)
        y_ticks = [10.0 ** e for e in range(int(lo_exp), int(hi_exp) + 1)]
        tick_labels = [f"1e{e}" for e in range(int(lo_exp), int(hi_exp) + 1)]
    else:
        y_ticks = _ticks(y_lo, y_hi)
        tick_labels = [_fmt(t) for t in y_ticks]
    for t, label in zip(y_ticks, tick_labels):
        tv = math.log10(t) if chart.log_y else t
        if tv < y_lo - 1e-9 or tv > y_hi + 1e-9:
            continue
        y = _MARGIN_TOP + plot_h - (tv - y_lo) / (y_hi - y_lo) * plot_h
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.1f}" x2="{_MARGIN_LEFT}" '
            f'y2="{y:.1f}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{_escape(chart.x_label)}</text>"
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_escape(chart.y_label)}</text>"
    )

    for i, series in enumerate(chart.series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in series.points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        ly = _MARGIN_TOP + 6 + i * 16
        lx = _MARGIN_LEFT + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(series.name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
