"""Tiny static SVG line plots on log-log axes.

Plots are written as plain XML with no scripts, stylesheets, or external
references, so a report directory stays self-contained and byte-stable.
Coordinates are formatted to fixed precision to keep reruns identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62.0, 16.0, 30.0, 46.0
_WIDTH, _HEIGHT = 640.0, 420.0


def escape(text: str) -> str:
    """XML-escape ``&``, ``<`` and ``>`` like ``xml.sax.saxutils.escape``.

    Local so that importing the plotter does not pull in ``xml.sax`` and,
    through it, ``urllib.request`` on every CLI start.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    for e in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1):
        t = 10.0**e
        if lo <= t <= hi:
            ticks.append(t)
    return ticks or [lo, hi]


def _tick_label(value: float) -> str:
    """A decade as 1eN; the ends of an axis that spans no decade as numbers."""
    exp = math.log10(value)
    if abs(exp - round(exp)) < 1e-9:
        return f"1e{int(round(exp))}"
    if value >= 1e4 or value < 1e-3:
        return f"{value:.1e}"
    return f"{value:g}"


@dataclass
class _Series:
    name: str
    xs: list[float]
    ys: list[float]
    color: str
    markers: bool
    dashed: bool


@dataclass
class SvgPlot:
    """Collects series, then renders one self-contained SVG document."""

    title: str
    x_label: str
    y_label: str
    _series: list[_Series] = field(default_factory=list)

    def add_series(
        self,
        name: str,
        xs,
        ys,
        markers: bool = False,
        dashed: bool = False,
        color: str | None = None,
    ) -> None:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys) or not xs:
            raise ValueError("series must be non-empty with matching lengths")
        if any(x <= 0 for x in xs):
            raise ValueError("log x-axis needs positive x values")
        if any(y <= 0 for y in ys):
            raise ValueError("log y-axis needs positive y values")
        chosen = color or _PALETTE[len(self._series) % len(_PALETTE)]
        self._series.append(_Series(name, xs, ys, chosen, markers, dashed))

    # -- rendering ---------------------------------------------------------

    def _scales(self):
        xs = [x for s in self._series for x in s.xs]
        ys = [y for s in self._series for y in s.ys]
        x_lo, x_hi = min(map(math.log10, xs)), max(map(math.log10, xs))
        y_lo, y_hi = min(map(math.log10, ys)), max(map(math.log10, ys))
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad_x = 0.04 * (x_hi - x_lo)
        pad_y = 0.06 * (y_hi - y_lo)
        x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
        plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
        plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

        def sx(v: float) -> float:
            return _MARGIN_L + (math.log10(v) - x_lo) / (x_hi - x_lo) * plot_w

        def sy(v: float) -> float:
            return _MARGIN_T + (y_hi - math.log10(v)) / (y_hi - y_lo) * plot_h

        return sx, sy, (x_lo, x_hi), (y_lo, y_hi)

    def render(self) -> str:
        if not self._series:
            raise ValueError("no series to plot")
        sx, sy, (x_lo, x_hi), (y_lo, y_hi) = self._scales()
        w, h = _WIDTH, _HEIGHT
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:g}" height="{h:g}" '
            f'viewBox="0 0 {w:g} {h:g}">',
            f'<rect x="0" y="0" width="{w:g}" height="{h:g}" fill="white"/>',
            f'<text x="{w / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(self.title)}</text>',
        ]

        # axes box
        out.append(
            f'<rect x="{_MARGIN_L:.1f}" y="{_MARGIN_T:.1f}" '
            f'width="{w - _MARGIN_L - _MARGIN_R:.1f}" '
            f'height="{h - _MARGIN_T - _MARGIN_B:.1f}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )

        for t in _log_ticks(10.0**x_lo, 10.0**x_hi):
            px = sx(t)
            out.append(
                f'<line x1="{_fmt(px)}" y1="{h - _MARGIN_B:.1f}" '
                f'x2="{_fmt(px)}" y2="{h - _MARGIN_B + 5:.1f}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{_fmt(px)}" y="{h - _MARGIN_B + 18:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">'
                f"{escape(_tick_label(t))}</text>"
            )
        for t in _log_ticks(10.0**y_lo, 10.0**y_hi):
            py = sy(t)
            out.append(
                f'<line x1="{_MARGIN_L - 5:.1f}" y1="{_fmt(py)}" '
                f'x2="{_MARGIN_L:.1f}" y2="{_fmt(py)}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{_MARGIN_L - 8:.1f}" y="{_fmt(py + 3)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">'
                f"{escape(_tick_label(t))}</text>"
            )

        out.append(
            f'<text x="{w / 2:.1f}" y="{h - 10:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{escape(self.x_label)}</text>'
        )
        out.append(
            f'<text x="16" y="{h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" '
            f'transform="rotate(-90 16 {h / 2:.1f})">{escape(self.y_label)}</text>'
        )

        for s in self._series:
            pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                f'stroke-width="1.6"{dash}/>'
            )
            if s.markers:
                for x, y in zip(s.xs, s.ys):
                    out.append(
                        f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.6" '
                        f'fill="{s.color}"/>'
                    )

        # legend, top-right inside the axes
        lx = w - _MARGIN_R - 150.0
        ly = _MARGIN_T + 10.0
        for i, s in enumerate(self._series):
            y = ly + 16.0 * i
            out.append(
                f'<line x1="{_fmt(lx)}" y1="{_fmt(y)}" x2="{_fmt(lx + 22)}" '
                f'y2="{_fmt(y)}" stroke="{s.color}" stroke-width="1.6"/>'
            )
            out.append(
                f'<text x="{_fmt(lx + 28)}" y="{_fmt(y + 3.5)}" '
                f'font-family="sans-serif" font-size="10">{escape(s.name)}</text>'
            )

        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.render(), encoding="utf-8")
