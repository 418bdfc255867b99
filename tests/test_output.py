import numpy as np
import pytest

from djcm.output import write_csv, write_json
from djcm.svgplot import COLORMAP, heatmap_svg, line_plot_svg


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
