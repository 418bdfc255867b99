import numpy as np
import pytest

from djcm.figures import run_figure

from djcm.output import format_cells, write_csv, write_json
from djcm.svgplot import _MARGIN_L, _MARGIN_T, COLORMAP, heatmap_svg, line_plot_svg

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, np.nan, -np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 1e300, 2.0**-52]


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b"], [np.array([0.0, 1.5]), np.array([2.0, -3.25])])
    text = path.read_text()
    assert text == "a,b\n0,2\n1.5,-3.25\n"
    with pytest.raises(ValueError):
        write_csv(str(path), ["a"], [np.array([0.0]), np.array([1.0])])
    with pytest.raises(ValueError):
        write_csv(str(path), ["a", "b"], [np.array([0.0]), np.array([1.0, 2.0])])


def test_write_csv_matches_per_cell_17g_reference(tmp_path):
    edge = [-0.0, 5e-324, 2.0**-52, 0.1, 1.0 / 3.0, 1e16, 1e22, 1e300, -1e300, np.inf, np.nan]
    floats = np.array(edge + [123456789.123456789, -np.inf])
    ints = np.arange(len(floats), dtype=np.int64) * -(2**40)
    ints[-1] = 2**53 + 1  # rounds to 2**53 as float64
    path = tmp_path / "pin.csv"
    write_csv(str(path), ["f", "i"], [floats, ints])
    reference = "f,i\n" + "".join(f"{float(f):.17g},{float(i):.17g}\n" for f, i in zip(floats, ints))
    assert path.read_bytes() == reference.encode()
    # 17 significant digits round-trip every finite double exactly
    for line, v in zip(path.read_text().splitlines()[1:], floats):
        cell = line.split(",")[0]
        if np.isfinite(v):
            assert float(cell) == v and np.signbit(float(cell)) == np.signbit(v)
    assert path.read_text().splitlines()[4].startswith("0.10000000000000001,")
    # a 0-row file is the header only
    write_csv(str(path), ["a", "b"], [np.array([]), np.array([], dtype=np.int64)])
    assert path.read_bytes() == b"a,b\n"


def test_write_json_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "m.json"
    write_json(str(path), {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_colormap_table():
    assert len(COLORMAP) == 256
    assert COLORMAP[0] == "#440154"  # dark violet anchor
    assert COLORMAP[-1] == "#fde725"  # yellow anchor
    assert all(c.startswith("#") and len(c) == 7 for c in COLORMAP)


def test_line_plot_svg_structure():
    t = np.linspace(0.0, 10.0, 50)
    svg = line_plot_svg(t, [("P1", np.sin(t) ** 2), ("P2", np.cos(t) ** 2)], title="demo")
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert "demo" in svg
    assert svg.rstrip().endswith("</svg>")
    # flat series must not divide by zero
    flat = line_plot_svg(t, [("c", np.zeros_like(t))])
    assert "<polyline" in flat


def test_heatmap_svg_structure():
    x = np.linspace(-1, 1, 5)
    y = np.linspace(-1, 1, 4)
    values = np.outer(np.arange(4.0), np.arange(5.0))
    svg = heatmap_svg(x, y, values, title="grid")
    assert svg.count("<rect") >= 4 * 5
    assert "grid" in svg
    # constant field renders without error
    svg_const = heatmap_svg(x, y, np.ones((4, 5)))
    assert "<rect" in svg_const


def test_format_cells_matches_per_cell_17g():
    values = np.array(EDGE_VALUES * 3 + [0.1, 0.1, -0.0, 0.0])
    assert format_cells(values) == [f"{v:.17g}" for v in values.tolist()]
    assert format_cells(values[:2]) == ["-0", "0"]
    # any shape is taken in C order, and integers as float64
    grid = values[:12].reshape(3, 4)
    assert format_cells(grid) == [f"{v:.17g}" for v in grid.ravel().tolist()]
    assert format_cells(np.array([2**53 + 1, -3])) == ["9007199254740992", "-3"]
    assert format_cells(np.array([])) == []


def test_write_csv_list_columns_match_per_cell_17g(tmp_path):
    floats = np.array(EDGE_VALUES * 2)
    repeated = np.repeat(np.array([-0.0, 0.0, 0.25]), len(floats) // 3)
    ints = np.arange(len(floats), dtype=np.int64) * -(2**40)
    path = tmp_path / "cells.csv"
    write_csv(str(path), ["a", "b", "c"], [format_cells(floats), repeated, ints])
    reference = "a,b,c\n" + "".join(
        f"{float(a):.17g},{float(b):.17g},{float(c):.17g}\n" for a, b, c in zip(floats, repeated, ints)
    )
    assert path.read_bytes() == reference.encode()
    # every column a list: the same bytes again
    write_csv(str(path), ["a", "b", "c"], [format_cells(floats), format_cells(repeated), format_cells(ints)])
    assert path.read_bytes() == reference.encode()
    with pytest.raises(ValueError):
        write_csv(str(path), ["a", "b"], [format_cells(floats), floats[:-1]])


def reference_heatmap_cells(values, cell_px=None):
    """The heatmap's cell rects as one f-string per cell (the layout reference)."""
    ny, nx = values.shape
    if cell_px is None:
        cell_px = max(1.0, min(4.0, 480.0 / max(nx, ny)))
    plot_h = ny * cell_px
    vmin = float(np.min(values))
    span = float(np.max(values)) - vmin
    if span == 0.0:
        idx = np.zeros((ny, nx), dtype=int)
    else:
        idx = np.clip(((values - vmin) / span * 255.0).astype(int), 0, 255)
    lines = []
    for iy in range(ny):
        py = _MARGIN_T + plot_h - (iy + 1) * cell_px
        for ix in range(nx):
            lines.append(
                f'<rect x="{_MARGIN_L + ix * cell_px:.2f}" y="{py:.2f}" '
                f'width="{cell_px:.2f}" height="{cell_px:.2f}" fill="{COLORMAP[idx[iy, ix]]}"/>'
            )
    return lines


@pytest.mark.parametrize(
    "ny, nx, cell_px, seed",
    [(7, 11, None, 0), (201, 201, None, 1), (3, 5, 2.5, 2), (130, 90, None, 3), (4, 4, None, None)],
)
def test_heatmap_cells_match_per_cell_reference(ny, nx, cell_px, seed):
    if seed is None:
        values = np.full((ny, nx), 0.25)  # constant field: every cell takes colour 0
    else:
        rng = np.random.default_rng(seed)
        # values on the colour bins' edges and repeats among random ones
        values = rng.uniform(-1.0, 2.0, (ny, nx))
        values.flat[:: 3] = np.round(values.flat[:: 3] * 255.0) / 255.0
    x = np.linspace(-2.0, 2.0, nx)
    y = np.linspace(-1.0, 3.0, ny)
    svg = heatmap_svg(x, y, values, title="t", cell_px=cell_px)
    lines = svg.splitlines()
    cells = reference_heatmap_cells(values, cell_px)
    start = lines.index(cells[0])
    assert lines[start : start + len(cells)] == cells
    assert start == 3  # after the svg tag, the background and the title
    assert svg.count("<rect") == 1 + nx * ny + 1 + 256


def test_fig7_heatmaps_keep_the_full_colour_scale(tmp_path):
    # Husimi Q spans far more than FLAT_SPAN of its magnitude here, so the
    # flat-field rule leaves every fig7 cell as the layout reference draws it
    run_figure("fig7", str(tmp_path))
    for name in ("fig7a", "fig7b"):
        q = np.loadtxt(tmp_path / f"{name}.csv", delimiter=",", skiprows=1)[:, 2].reshape(121, 121)
        lines = (tmp_path / f"{name}.svg").read_text().splitlines()
        cells = reference_heatmap_cells(q)
        assert lines[3 : 3 + len(cells)] == cells
        assert len({cell.rsplit('fill="', 1)[1] for cell in cells}) > 200
