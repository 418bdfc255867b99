"""Minimal hand-emitted SVG line plots and heatmaps.

No plotting dependency. Both documents are built from one writer per
element kind: _head (svg tag, white background, title), _frame, _line,
_text and _axis_labels; only the polylines and the cell and colorbar
rects are their own.  Each document is yielded as text chunks for
output.write_chunks (one per series or per row of heatmap cells), so no
document is held whole in memory.  The heatmap colormap is a fixed
256-step lookup table interpolated linearly between the anchor colors
below (a perceptually ordered dark-violet -> teal -> yellow ramp); the
same table is always used, so heatmaps are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["LINE_COLORS", "COLORMAP", "FLAT_SPAN", "line_plot_chunks", "heatmap_chunks"]

LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# (value fraction, R, G, B) anchors of the 256-step colormap
_ANCHORS = (
    (0.00, 68, 1, 84),
    (0.12, 72, 36, 117),
    (0.25, 65, 68, 135),
    (0.38, 53, 95, 141),
    (0.50, 42, 120, 142),
    (0.62, 33, 145, 140),
    (0.75, 42, 176, 127),
    (0.88, 115, 208, 85),
    (1.00, 253, 231, 37),
)


def _build_colormap() -> tuple[str, ...]:
    table = []
    for i in range(256):
        x = i / 255.0
        for (x0, r0, g0, b0), (x1, r1, g1, b1) in zip(_ANCHORS[:-1], _ANCHORS[1:]):
            if x0 <= x <= x1:
                w = (x - x0) / (x1 - x0)
                r = round(r0 + w * (r1 - r0))
                g = round(g0 + w * (g1 - g0))
                b = round(b0 + w * (b1 - b0))
                table.append(f"#{r:02x}{g:02x}{b:02x}")
                break
    return tuple(table)


COLORMAP = _build_colormap()

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 46.0
_LINE_WIDTH, _LINE_HEIGHT = 640, 420
_PLOT_W = _LINE_WIDTH - _MARGIN_L - _MARGIN_R
_PLOT_H = _LINE_HEIGHT - _MARGIN_T - _MARGIN_B
_TICKS = 6  # ticks per line plot axis
# a heatmap whose values span at most this fraction of their magnitude is
# drawn flat, in one colour: round-off would otherwise colour a constant field
FLAT_SPAN = 1e-12


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _span(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi == lo:
        pad = abs(lo) * 0.1 or 1.0  # a zero or subnormal value pads by 1: its tenth may round to 0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _x_range(times: np.ndarray) -> tuple[float, float]:
    x_lo, x_hi = float(times[0]), float(times[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    return x_lo, x_hi


def _sx(x, x_lo: float, x_hi: float):
    """The line plot's x pixel of tau x, a float or an array."""
    return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * _PLOT_W


def _text(x, y, body: str, size: int, anchor: str = "", rotate: bool = False) -> str:
    """<text> at (x, y): a float prints with two decimals, a string as given.
    rotate turns it by -90 degrees about (x, y), as a y-axis label."""
    x = x if isinstance(x, str) else f"{x:.2f}"
    y = y if isinstance(y, str) else f"{y:.2f}"
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {x} {y})"' if rotate else ""
    return f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{turn}>{body}</text>'


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#333333", width: int = 1) -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="{stroke}" stroke-width="{width}"/>'


def _frame(plot_w: float, plot_h: float) -> str:
    return (
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )


def _head(width: float, height: float, title: str, title_x: float, frame: str = "") -> list[str]:
    """The svg tag, the white background, then frame and title when given."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if frame:
        parts.append(frame)
    if title:
        parts.append(_text(title_x, "20", title, 14, "middle"))
    return parts


def _lines(parts: list[str]) -> str:
    """The parts as one chunk of the document: one line each."""
    return "\n".join(parts) + "\n"


def _axis_labels(xlabel: str, ylabel: str, plot_w: float, plot_h: float, height: float) -> list[str]:
    y_label = [_text("16", _MARGIN_T + plot_h / 2, ylabel, 12, "middle", rotate=True)] if ylabel else []
    return [_text(_MARGIN_L + plot_w / 2, height - 10, xlabel, 12, "middle"), *y_label]


@functools.lru_cache(maxsize=1)
def _polyline_template(times: bytes) -> str:
    """Polyline points over the float64 tau grid whose bytes are given: each
    x pixel is formatted once by _sx, and each y pixel is left as a %.2f
    slot for one % per series.  The figures and the points of a sweep share
    one grid, so one entry serves them all."""
    t = np.frombuffer(times)
    return " ".join(["%.2f,%%.2f" % x for x in _sx(t, *_x_range(t)).tolist()])


def line_plot_chunks(
    times: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str = "",
    ylabel: str = "",
):
    """SVG document with one polyline per (label, values) pair over the tau
    axis, yielded in chunks: the frame and axes, then one per series.  An
    axis whose ticks would leave the floating-point range raises
    FloatingPointError naming the plot by its title."""
    times = np.asarray(times, dtype=float)
    x_lo, x_hi = _x_range(times)
    series = [(label, np.asarray(values, dtype=float)) for label, values in series]
    y_lo, y_hi = _span(np.concatenate([values for _, values in series]))
    # the largest product that _span and _ticks form: past it a tick or pixel is inf or nan
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not math.isfinite((hi - lo) * (_TICKS - 1)):
            raise FloatingPointError(f"plot {title!r}: its {axis} axis leaves the floating-point range")

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * _PLOT_H

    bottom = _MARGIN_T + _PLOT_H
    parts = _head(_LINE_WIDTH, _LINE_HEIGHT, title, _LINE_WIDTH / 2, _frame(_PLOT_W, _PLOT_H))
    for xt in _ticks(x_lo, x_hi):
        px = _sx(xt, x_lo, x_hi)
        parts += [_line(px, bottom, px, bottom + 5), _text(px, bottom + 18, f"{xt:.4g}", 11, "middle")]
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        parts += [_line(_MARGIN_L - 5, py, _MARGIN_L, py), _text(_MARGIN_L - 8, py + 4, f"{yt:.4g}", 11, "end")]
    parts += _axis_labels("tau", ylabel, _PLOT_W, _PLOT_H, _LINE_HEIGHT)
    yield _lines(parts)
    template = _polyline_template(times.tobytes())
    for idx, (label, values) in enumerate(series):
        color = LINE_COLORS[idx % len(LINE_COLORS)]
        pts = template % tuple(sy(values).tolist())
        parts = [f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>']
        if len(series) > 1:
            lx = _MARGIN_L + _PLOT_W - 70
            ly = _MARGIN_T + 16 + 16 * idx
            parts += [_line(lx, ly - 4, lx + 18, ly - 4, color, 2), _text(lx + 24, ly, label, 11)]
        yield _lines(parts)
    yield "</svg>\n"


def heatmap_chunks(axis: np.ndarray, levels: np.ndarray, index: np.ndarray, title: str = ""):
    """SVG heatmap over the square coherent-state patch whose Re beta and
    Im beta run along axis, of the values levels[index], index of shape
    (len(axis), len(axis)), every level used: one rect per grid cell,
    colored by the fixed 256-step table.  Yielded in chunks: the head, one
    per row of cells, then the frame, axes and colorbar."""
    n = len(axis)
    cell = max(1.0, min(4.0, 480.0 / n))
    plot_w = plot_h = n * cell
    bar_w = 18.0
    width = _MARGIN_L + plot_w + 70 + bar_w
    height = _MARGIN_T + plot_h + _MARGIN_B
    vmin, vmax = float(np.min(levels)), float(np.max(levels))
    span = vmax - vmin
    if span <= FLAT_SPAN * max(abs(vmin), abs(vmax)):
        span = 0.0

    yield _lines(_head(width, height, title, _MARGIN_L + plot_w / 2))
    # each level is shaded once; row 0 of index is the smallest y, drawn at the bottom
    shade = np.zeros(len(levels), dtype=int) if span == 0.0 else ((levels - vmin) / span * 255.0).astype(int)
    shade = np.clip(shade, 0, 255)
    # each column's x and each row's y are formatted once, and a row's
    # rects make one chunk
    heads = [f'<rect x="{_MARGIN_L + ix * cell:.2f}" y="' for ix in range(n)]
    size = f'" width="{cell:.2f}" height="{cell:.2f}" fill="'
    for iy, row in enumerate(index):
        middle = f"{_MARGIN_T + plot_h - (iy + 1) * cell:.2f}{size}"
        yield _lines([head + middle + COLORMAP[i] + '"/>' for head, i in zip(heads, shade[row].tolist())])
    parts = [_frame(plot_w, plot_h)]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tick = f"{float(axis[0]) + frac * (float(axis[-1]) - float(axis[0])):.4g}"
        parts.append(_text(_MARGIN_L + frac * plot_w, _MARGIN_T + plot_h + 16, tick, 11, "middle"))
        parts.append(_text(_MARGIN_L - 8, _MARGIN_T + plot_h - frac * plot_h + 4, tick, 11, "end"))
    parts += _axis_labels("Re beta", "Im beta", plot_w, plot_h, height)
    # colorbar
    bar_x = _MARGIN_L + plot_w + 30
    for i in range(256):
        frac = i / 255.0
        py = _MARGIN_T + plot_h * (1.0 - frac)
        parts.append(
            f'<rect x="{bar_x:.2f}" y="{py - plot_h / 255.0:.2f}" width="{bar_w:.2f}" '
            f'height="{plot_h / 255.0 + 0.5:.2f}" fill="{COLORMAP[i]}"/>'
        )
    for frac in (0.0, 0.5, 1.0):
        parts.append(_text(bar_x + bar_w + 4, _MARGIN_T + plot_h * (1.0 - frac) + 4, f"{vmin + frac * span:.3g}", 10))
    parts.append("</svg>")
    yield _lines(parts)
