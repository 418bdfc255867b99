"""Minimal hand-emitted SVG line plots and heatmaps.

No plotting dependency: documents are built from polylines and rects.
The heatmap colormap is a fixed 256-step lookup table interpolated
linearly between the anchor colors below (a perceptually ordered
dark-violet -> teal -> yellow ramp); the same table is always used, so
heatmaps are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LINE_COLORS", "COLORMAP", "FLAT_SPAN", "line_plot_svg", "heatmap_svg"]

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
                w = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
                r = round(r0 + w * (r1 - r0))
                g = round(g0 + w * (g1 - g0))
                b = round(b0 + w * (b1 - b0))
                table.append(f"#{r:02x}{g:02x}{b:02x}")
                break
    return tuple(table)


COLORMAP = _build_colormap()

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 46.0
_LINE_WIDTH, _LINE_HEIGHT = 640, 420
# a heatmap whose values span at most this fraction of their magnitude is
# drawn flat, in one colour: round-off would otherwise colour a constant field
FLAT_SPAN = 1e-12


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _span(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi == lo:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def line_plot_svg(
    times: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str = "",
    ylabel: str = "",
) -> str:
    """SVG document with one polyline per (label, values) pair over the tau axis."""
    width, height = _LINE_WIDTH, _LINE_HEIGHT
    x_lo, x_hi = float(times[0]), float(times[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = _span(np.concatenate([np.asarray(v, dtype=float) for _, v in series]))
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" font-family="sans-serif" '
            f'font-size="14">{title}</text>'
        )
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt:.4g}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        parts.append(
            f'<line x1="{_MARGIN_L - 5:.2f}" y1="{py:.2f}" x2="{_MARGIN_L:.2f}" y2="{py:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yt:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{height - 10:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">tau</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">{ylabel}</text>'
        )
    for idx, (label, values) in enumerate(series):
        color = LINE_COLORS[idx % len(LINE_COLORS)]
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times, values))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        if len(series) > 1:
            lx = _MARGIN_L + plot_w - 70
            ly = _MARGIN_T + 16 + 16 * idx
            parts.append(
                f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 18:.2f}" y2="{ly - 4:.2f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 24:.2f}" y="{ly:.2f}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap_svg(
    x_axis: np.ndarray,
    y_axis: np.ndarray,
    values: np.ndarray,
    title: str = "",
    cell_px: float | None = None,
) -> str:
    """SVG heatmap over the coherent-state plane (axes Re beta, Im beta): one
    rect per grid cell, colored by the fixed 256-step table."""
    ny, nx = values.shape
    if cell_px is None:
        cell_px = max(1.0, min(4.0, 480.0 / max(nx, ny)))
    plot_w = nx * cell_px
    plot_h = ny * cell_px
    bar_w = 18.0
    width = _MARGIN_L + plot_w + 70 + bar_w
    height = _MARGIN_T + plot_h + _MARGIN_B
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    span = vmax - vmin
    if span <= FLAT_SPAN * max(abs(vmin), abs(vmax)):
        span = 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # cells (row 0 of values is the smallest y, drawn at the bottom)
    if span == 0.0:
        idx = np.zeros((ny, nx), dtype=int)
    else:
        idx = np.clip(((values - vmin) / span * 255.0).astype(int), 0, 255)
    # each column's x and each row's y are formatted once, and a row's
    # rects are joined into one string as soon as they are built
    heads = [f'<rect x="{_MARGIN_L + ix * cell_px:.2f}" y="' for ix in range(nx)]
    size = f'" width="{cell_px:.2f}" height="{cell_px:.2f}" fill="'
    for iy, row in enumerate(idx.tolist()):
        middle = f"{_MARGIN_T + plot_h - (iy + 1) * cell_px:.2f}{size}"
        parts.append("\n".join([head + middle + COLORMAP[i] + '"/>' for head, i in zip(heads, row)]))
    parts.append(
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = float(x_axis[0]) + frac * (float(x_axis[-1]) - float(x_axis[0]))
        px = _MARGIN_L + frac * plot_w
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        yv = float(y_axis[0]) + frac * (float(y_axis[-1]) - float(y_axis[0]))
        py = _MARGIN_T + plot_h - frac * plot_h
        parts.append(
            f'<text x="{_MARGIN_L - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{height - 10:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">Re beta</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.2f})">Im beta</text>'
    )
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
        vv = vmin + frac * span
        py = _MARGIN_T + plot_h * (1.0 - frac)
        parts.append(
            f'<text x="{bar_x + bar_w + 4:.2f}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="10">{vv:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
