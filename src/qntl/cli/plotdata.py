"""Turn experiment reports into per-series plot data files.

Each figure name maps to one source experiment, a recipe for slicing its
rows into named (x, y) series, and the line charts that draw them.  The
emitter writes one small CSV per series plus, on request, one self-contained
SVG per chart; it refuses reports from the wrong experiment rather than
guessing at column meanings.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..defaults import AGGREGATE_DISTANCE
from .config import ConfigError
from .report import ExperimentReport, rows_to_csv
from .svg import LineChart, Series, render_line_chart

__all__ = ["FIGURES", "emit_plotdata"]


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9.]+", "-", str(text).lower()).strip("-")


@dataclass(frozen=True)
class _SeriesData:
    """One (x, y) series, drawn by the figure's chart number ``chart``; a
    chart is drawn once per distinct ``group`` among its series."""

    name: str
    x_name: str
    y_name: str
    points: tuple[tuple[float, float], ...]
    chart: int = 0
    group: str = ""


def _cells(report: ExperimentReport) -> list[dict]:
    return [dict(zip(report.columns, row)) for row in report.rows]


def _pns_series(report: ExperimentReport) -> list[_SeriesData]:
    counts: dict[str, list[tuple[float, float]]] = {}
    zscores: dict[str, list[tuple[float, float]]] = {}
    for cell in _cells(report):
        target = counts if cell["record"] == "count" else zscores
        target.setdefault(cell["series"], []).append(
            (float(cell["bin"]), float(cell["value"]))
        )
    return [
        _SeriesData(name, "bin", "count", tuple(pts)) for name, pts in counts.items()
    ] + [
        _SeriesData(f"{name} z", "bin", "zscore", tuple(pts), chart=1)
        for name, pts in zscores.items()
    ]


def _trojan_series(report: ExperimentReport) -> list[_SeriesData]:
    grouped: dict[str, list[tuple[float, float]]] = {}
    for cell in _cells(report):
        grouped.setdefault(cell["policy"], []).append(
            (float(cell["photon_index"]), float(cell["cumulative_gain"]))
        )
    return [
        _SeriesData(name, "photon_index", "cumulative_gain", tuple(pts))
        for name, pts in grouped.items()
    ]


def _decay_series(by_distance: bool) -> Callable[[ExperimentReport], list[_SeriesData]]:
    """Mean viable paths per family (aggregate rows), or per family and
    distance with one chart group per family."""

    def build(report: ExperimentReport) -> list[_SeriesData]:
        grouped: dict[tuple, list[tuple[float, float]]] = {}
        for cell in _cells(report):
            distance = int(cell["distance"])
            if by_distance != (distance != AGGREGATE_DISTANCE):
                continue
            key = (cell["kind"], distance) if by_distance else (cell["kind"],)
            grouped.setdefault(key, []).append(
                (float(cell["fraction"]), float(cell["mean_count"]))
            )
        return [
            _SeriesData(
                f"{key[0]} d={key[1]}" if by_distance else key[0],
                "fraction",
                "mean_count",
                tuple(sorted(pts)),
                group=key[0] if by_distance else "",
            )
            for key, pts in grouped.items()
        ]

    return build


@dataclass(frozen=True)
class _Figure:
    """A figure's source experiment, series recipe, and charts: each is a
    file stem and a chart without series, with ``{figure}`` and ``{group}``
    filled in (the group slugged in the stem)."""

    experiment: str
    series: Callable[[ExperimentReport], list[_SeriesData]]
    charts: tuple[tuple[str, LineChart], ...]


_COUNT_PER_BIN = "photons per pulse"
_DECAY_AXES = ("untrusted node fraction", "mean viable paths")

FIGURES: dict[str, _Figure] = {
    "fig3": _Figure("pns", _pns_series, (
        ("{figure}", LineChart(
            "Received photon-number distributions", _COUNT_PER_BIN, "pulses", ())),
        ("{figure}-zscores", LineChart(
            "Per-bin deviation from the clean baseline", _COUNT_PER_BIN, "z-score", ())),
    )),
    "fig4": _Figure("trojan", _trojan_series, (
        ("{figure}", LineChart("Cumulative probe gain", "photon", "accumulated gain", ())),
    )),
    "fig6a": _Figure("topology-decay", _decay_series(by_distance=False), (
        ("{figure}", LineChart(
            "Viable paths vs untrusted fraction", *_DECAY_AXES, (), log_y=True, floor=1e-2)),
    )),
    "fig6b": _Figure("topology-decay", _decay_series(by_distance=True), (
        ("{figure}-{group}", LineChart(
            "Viable paths by endpoint distance ({group})", *_DECAY_AXES, (),
            log_y=True, floor=1e-2)),
    )),
}


def emit_plotdata(
    report: ExperimentReport,
    figure: str,
    out_dir: str,
    svg: bool = False,
) -> list[Path]:
    """Write the figure's series files (and optional SVG charts) to ``out_dir``.

    Returns the written paths: the series CSVs in recipe order, then the
    charts by chart number and group.  Raises :class:`ConfigError` when the
    figure name is unknown or the report comes from a different experiment.
    """
    spec = FIGURES.get(figure)
    if spec is None:
        listed = ", ".join(sorted(FIGURES))
        raise ConfigError(f"unknown figure {figure!r}; expected one of {listed}")
    experiment = report.config.get("experiment")
    if experiment != spec.experiment:
        raise ConfigError(
            f"figure {figure!r} needs a report from the {spec.experiment!r} experiment, "
            f"got {experiment!r}"
        )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    series_list = spec.series(report)
    for series in series_list:
        path = out / f"{figure}-{_slug(series.name)}.csv"
        text = rows_to_csv((series.x_name, series.y_name), series.points)
        path.write_text(text, encoding="utf-8")
        written.append(path)
    if svg:
        for chart, group in sorted({(s.chart, s.group) for s in series_list}):
            stem, template = spec.charts[chart]
            drawn = tuple(
                Series(s.name, s.points) for s in series_list
                if (s.chart, s.group) == (chart, group)
            )
            path = out / f"{stem.format(figure=figure, group=_slug(group))}.svg"
            filled = replace(template, title=template.title.format(group=group), series=drawn)
            path.write_text(render_line_chart(filled), encoding="utf-8")
            written.append(path)
    return written
