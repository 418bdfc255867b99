import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from djcm.config import RunConfig
from djcm.figures import FIG7, ROWS, row_params, run_figure
from djcm.model import Kerr, ModelParams
from djcm.output import CELL_WIDTH, CSV_BLOCK_ROWS, csv_rows, format_cells, write_csv, write_json
from djcm.dynamics import tau_grid
from djcm.runner import run_simulation, time_axis, write_husimi
from djcm import svgplot
from djcm.svgplot import _MARGIN_L, _MARGIN_T, COLORMAP, heatmap_chunks, line_plot_chunks

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, np.nan, -np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 1e300, 2.0**-52]


def cell_texts(cells) -> list[str]:
    """The text of each cell: its row with the spaces removed."""
    return [bytes(row).decode().replace(" ", "") for row in cells]


def assert_cells_match_17g(values):
    """format_cells of values against one %.17g per value: each cell,
    once its spaces go, is the %.17g text itself."""
    values = np.asarray(values, dtype=np.float64)
    cells = format_cells(values)
    assert cells.dtype == np.uint8 and cells.shape == (values.size, CELL_WIDTH)
    assert cell_texts(cells) == ["%.17g" % v for v in values.tolist()]


def line_plot_svg(*args, **kwargs) -> str:
    return "".join(line_plot_chunks(*args, **kwargs))


def heatmap_svg(axis, values, **kwargs) -> str:
    """heatmap_chunks over a value grid: each cell its own level."""
    values = np.asarray(values, dtype=float)
    index = np.arange(values.size).reshape(values.shape)
    return "".join(heatmap_chunks(axis, values.ravel(), index, **kwargs))


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


def test_write_csv_blocks_match_per_cell_17g_reference(tmp_path):
    # three whole blocks and a partial one; float, int, cell and repeated
    # array columns, the repeated one given twice in a row and once apart
    n = 3 * CSV_BLOCK_ROWS + 17
    rng = np.random.default_rng(7)
    floats = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    floats[:: 97] = np.resize(EDGE_VALUES, floats[:: 97].size)
    ints = rng.integers(-(2**60), 2**60, n)
    preformatted = rng.uniform(-1.0, 1.0, n)
    texts = format_cells(preformatted)
    shared = np.repeat(rng.standard_normal(n // 7 + 1), 7)[:n]
    shared[5] = -0.0
    path = tmp_path / "blocks.csv"
    write_csv(str(path), ["f", "s1", "s2", "i", "t", "s3"], [floats, shared, shared, ints, texts, shared])
    rows = zip(floats.tolist(), shared.tolist(), ints.tolist(), preformatted.tolist())
    reference = "f,s1,s2,i,t,s3\n" + "".join(
        f"{f:.17g},{s:.17g},{s:.17g},{float(i):.17g},{t:.17g},{s:.17g}\n" for f, s, i, t in rows
    )
    assert path.read_bytes() == reference.encode()
    # one array for every column: each row its cell, three times
    write_csv(str(path), ["a", "b", "c"], [shared, shared, shared])
    assert path.read_text() == "a,b,c\n" + "".join(f"{s:.17g},{s:.17g},{s:.17g}\n" for s in shared.tolist())


def test_write_csv_memory_stays_below_its_file_size(tmp_path):
    # formatted in blocks, a file's text is never whole in memory: the peak
    # of traced allocations stays far below the ~16 MB that 200 000 rows of
    # four doubles print (~0.07x; formatting the whole file in one piece
    # peaked at 4x it)
    columns = [np.random.default_rng(k).standard_normal(200_000) for k in range(4)]
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), ["a", "b", "c", "d"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 15_000_000
    assert peak < size / 4


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


def reference_polyline_points(times, series):
    """line_plot_svg's per-point expression, over Python floats in place of
    NumPy scalars."""
    x_lo, x_hi = float(times[0]), float(times[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = svgplot._span(np.concatenate([np.asarray(v, dtype=float) for _, v in series]))
    plot_w = svgplot._LINE_WIDTH - _MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._LINE_HEIGHT - _MARGIN_T - svgplot._MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times.tolist(), np.asarray(values, dtype=float).tolist()))
        for _, values in series
    ]


def polyline_cases():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(2, 300))
        times = np.sort(rng.uniform(-1.0, 1.0, n)) * 10.0 ** rng.uniform(-5.0, 5.0)
        series = [
            (f"s{i}", 10.0 ** rng.uniform(-5.0, 5.0) * rng.standard_normal(n) + 10.0 ** rng.uniform(-5.0, 5.0))
            for i in range(int(rng.integers(1, 4)))
        ]
        yield times, series
    yield np.linspace(0.0, 60.0, 2000), [(name, np.full(2000, 0.25)) for name in ("a", "b")]  # constant
    yield np.array([0.0, 1e-5]), [("two", np.array([3e4, -7e-3]))]  # two samples
    yield np.zeros(3), [("same t", np.array([1.0, 2.0, 3.0]))]  # one time repeated
    tau = np.linspace(0.0, 60.0, 2000)
    yield tau, [(f"P{k}", np.sin((k + 1) * tau) ** 2 * 10.0 ** (2 * k - 5)) for k in range(6)]  # several
    # x pixels within an ulp or two of 64 + j/8, half of them on a rounding
    # tie of %.2f: these bytes change with the order of sx's operations
    ties = 0.3 + 1.4 * np.arange(4481) / 4480
    yield ties, [("ties", np.cos(ties))]
    # the same for the y pixels, 34 + k/8: the values span [0, 1], padded to [-0.05, 1.05]
    values = np.concatenate([[0.0, 1.0], 1.05 - 1.1 * np.arange(200, 2500) / 2720])
    yield np.arange(len(values), dtype=float), [("y ties", values)]


def test_polyline_points_match_the_per_point_reference():
    for times, series in polyline_cases():
        svg = line_plot_svg(times, series)
        assert re.findall(r'<polyline points="([^"]*)"', svg) == reference_polyline_points(times, series)


def test_polyline_template_follows_its_grid():
    # the template cache holds one grid: it must re-key on grids A, B, A in
    # turn and on a grid rewritten in place, and serve a one-sample grid
    def check(times):
        series = [("sin", np.sin(times)), ("cos", np.cos(3.0 * times) * 1e-3)]
        svg = line_plot_svg(times, series)
        assert re.findall(r'<polyline points="([^"]*)"', svg) == reference_polyline_points(times, series)

    a, b = np.linspace(0.0, 60.0, 2000), np.geomspace(1e-3, 60.0, 2000)
    for times in (a, b, a):
        check(times)
    grid = np.linspace(0.0, 10.0, 400)
    check(grid)
    grid **= 2  # the same array object and length, with new spacing
    check(grid)
    check(np.array([2.5]))


def test_heatmap_svg_structure():
    axis = np.linspace(-1, 1, 5)
    values = np.outer(np.arange(5.0), np.arange(5.0))
    svg = heatmap_svg(axis, values, title="grid")
    assert svg.count("<rect") >= 5 * 5
    assert "grid" in svg
    # both axes carry the same tick labels
    assert svg.count(">-0.5</text>") == 2
    # constant field renders without error
    svg_const = heatmap_svg(axis, np.ones((5, 5)))
    assert "<rect" in svg_const


def test_format_cells_matches_per_cell_17g():
    values = np.array(EDGE_VALUES * 3 + [0.1, 0.1, -0.0, 0.0])
    assert_cells_match_17g(values)
    assert cell_texts(format_cells(values[:2])) == ["-0", "0"]
    # any shape is taken in C order, and integers as float64
    grid = values[:12].reshape(3, 4)
    assert cell_texts(format_cells(grid)) == [f"{v:.17g}" for v in grid.ravel().tolist()]
    assert cell_texts(format_cells(np.array([2**53 + 1, -3]))) == ["9007199254740992", "-3"]
    assert len(format_cells(np.array([]))) == 0
    # several blocks, and rows taken by slice and by index
    values = np.random.default_rng(3).standard_normal(2 * CSV_BLOCK_ROWS + 5)
    assert_cells_match_17g(values)
    cells = format_cells(values)
    assert cell_texts(cells[3:9]) == [f"{v:.17g}" for v in values[3:9].tolist()]
    assert cell_texts(cells[np.array([7, 0, 7])]) == [f"{v:.17g}" for v in values[[7, 0, 7]].tolist()]


def test_time_axis_is_cached_read_only_and_formatted():
    def assert_axis(tau, cells, tau_max, samples):
        assert np.array_equal(tau, tau_grid(tau_max, samples))
        assert [bytes(row).replace(b" ", b"") for row in cells] == [("%.17g" % t).encode() for t in tau.tolist()]

    tau, cells = time_axis(7.5, 33)
    assert_axis(tau, cells, 7.5, 33)
    repeat = time_axis(7.5, 33)
    assert repeat[0] is tau and repeat[1] is cells
    for array in (tau, cells):
        with pytest.raises(ValueError):
            array[0] = 1
    # one axis is cached: a second replaces it, and the first is made afresh
    assert_axis(*time_axis(3.0, 5), 3.0, 5)
    again = time_axis(7.5, 33)
    assert again[0] is not tau and again[1] is not cells
    assert_axis(*again, 7.5, 33)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bits=arrays(np.uint64, st.integers(1, 50), elements=st.integers(0, 2**64 - 1)))
def test_format_cells_matches_17g_on_any_bit_pattern(bits):
    assert_cells_match_17g(bits.view(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(magnitudes=arrays(np.float64, st.integers(1, 50), elements=st.floats(1e-11, 2.0**53, exclude_max=True)))
def test_format_cells_matches_17g_in_the_exact_range(magnitudes):
    assert_cells_match_17g(magnitudes * np.where(np.arange(magnitudes.size) % 2, -1.0, 1.0))


def test_format_cells_matches_17g_on_its_edges():
    powers = np.array([float(f"1e{k}") for k in range(-12, 17)])
    assert_cells_match_17g(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))
    # exact half-way cases for 17 digits: 16-digit integers plus a quarter
    # (held exactly below 2**51), 15-digit ones plus an eighth
    rng = np.random.default_rng(11)
    sixteen = rng.integers(10**15, 2**51, 200).astype(np.float64)
    fifteen = rng.integers(10**14, 10**15, 200).astype(np.float64)
    ties = [sixteen + 0.25, sixteen + 0.75] + [fifteen + f for f in (0.125, 0.375, 0.625, 0.875)]
    for tie in ties:
        assert np.all(tie % 1.0 > 0.0)  # the fraction survived: each is an exact tie
    assert_cells_match_17g(np.concatenate(ties))
    # the ends of the exact range and their neighbours, and the values beyond it
    ends = np.array([1e-11, 2.0**53])
    assert_cells_match_17g(np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf), -ends]))
    assert_cells_match_17g([-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])
    # the doubles next below powers of ten, and digits cut back to one
    assert_cells_match_17g([9.9999999999999991e-6, 0.099999999999999992, 999999999999999.88, 0.5, 1e-5, 2.0, 1234.0])


def test_format_cells_matches_17g_on_dyadic_multiples():
    # k * 2**j has short texts (0.5, 1234.5, 3.0517578125e-05) that random
    # bit patterns almost never give: every decimal exponent of the exact
    # range, every digit count and 172 (E, digits) layouts, both signs
    k = np.arange(1, 1000, dtype=np.float64)
    values = (k[:, None] * 2.0 ** np.arange(-50, 51)).ravel()
    values = values[(values >= 1e-11) & (values < 2.0**53)]
    assert values.size == 89_521
    assert_cells_match_17g(np.concatenate([values, -values]))
    mantissas, exponents = zip(*(("%.16e" % v).split("e") for v in values.tolist()))
    layouts = {(int(x), len(m.replace(".", "").rstrip("0"))) for m, x in zip(mantissas, exponents)}
    assert len({x for x, _ in layouts}) == 27 and len({s for _, s in layouts}) == 17 and len(layouts) == 172


@pytest.mark.parametrize("error", [-1e-9, 1e-9])
def test_format_cells_sets_the_exponent_exactly(monkeypatch, error):
    # the decimal exponent read off log10 is set against exact powers of
    # ten: a log10 a little low or high still gives every digit
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda values: log10(values) + error)
    powers = np.array([float(f"1e{k}") for k in range(-11, 16)])
    assert_cells_match_17g(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


def test_format_cells_block_of_only_fallback_values():
    # every value outside the exact range: one % call formats the block
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
            rng.uniform(1e-300, 9e-12, 50),
            -(10.0 ** rng.uniform(16, 300, 50)),
            np.nextafter(np.array([1e-11]), 0.0),
        ]
    )
    assert_cells_match_17g(values)
    assert_cells_match_17g(np.resize(values, CSV_BLOCK_ROWS + 3))


def test_csv_rows_repeats_a_one_cell_column():
    # write_husimi passes one y cell per grid row: the same bytes as that
    # cell gathered once per x
    axis = format_cells(np.linspace(-3.0, 3.0, 7))
    levels = format_cells(np.array([0.25, 1e-20, 0.0, 5e-324, 1.0, 0.5, 0.125]))
    for y in range(len(axis)):
        gathered = csv_rows([axis, axis[np.full(len(axis), y)], levels])
        assert csv_rows([axis, axis[y], levels]) == gathered
        assert gathered.count(b"\n") == len(axis)


def test_csv_files_match_their_golden_digests(tmp_path):
    # digests of files written by the %-per-cell formatter: a benchmark
    # sweep point's six CSVs (seed 5, its first point) and fig7b.csv.  They
    # pin the solved values as well, as computed with Python 3.11, NumPy 2.4
    # and OpenBLAS 0.3 on an AVX-512 x86-64 CPU.  Their last bits follow the
    # CPU: this is the one test that fails under AVX2-only NumPy dispatch
    # (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") or under
    # OPENBLAS_CORETYPE=Haswell on that CPU.  Which of these the bytes may
    # depend on is ROADMAP item 2
    params = ModelParams(
        omega_cavity=0.2,
        omega_levels=(0.3, 0.4, 0.5),
        g1=0.04,
        g2=0.06,
        omega_e=0.026,
        deformation=Kerr(0.011),
        sector_n=1,
    )
    observables = ("populations", "inversion", "g2", "entropy", "mandel_q", "squeezing")
    cfg = RunConfig(params=params, tau_max=50.0, samples=2000, observables=observables, svg=False)
    run_simulation(cfg, str(tmp_path))
    write_husimi(str(tmp_path), "fig7b", "", row_params(ROWS[1]), FIG7, svg=False)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.glob("*.csv")}
    likely_cause = "the solved values' last bits moved: likely NumPy's SIMD dispatch target or OpenBLAS's core type"
    assert digests == {
        "entropy.csv": "ed80346fe813dc97a8455faed3b60004daf9aedccff3f2b8f7115ecd24a0d9f6",
        "g2.csv": "cbe3d755594173e27ca34461a6495e43727a46591eeea3c3fe0eb2a95e96e3b5",
        "inversion.csv": "266947c268f45d1122dcacd304c986240fdb3381d68f68a37893224566e51a6d",
        "mandel_q.csv": "b541b030040cef13184ebea3fc906aab13dcbb3de9dfb0879635fb3bc2915655",
        "populations.csv": "8d7ccae169207b21b80ad4c286c5d20be4613ae7475add70729e9431f2c692c1",
        "squeezing.csv": "7f30f19b9712ea02468c4c033bd88e2dccb150a60e93d6564b208c34b67f9797",
        "fig7b.csv": "eeb78c1ce91207d0e75cf9a236b3e5b6f489cf84ae2949bd20105766766ee1b7",
    }, likely_cause


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
    # every column a cell array: the same bytes again
    write_csv(str(path), ["a", "b", "c"], [format_cells(floats), format_cells(repeated), format_cells(ints)])
    assert path.read_bytes() == reference.encode()
    with pytest.raises(ValueError):
        write_csv(str(path), ["a", "b"], [format_cells(floats), floats[:-1]])


def reference_heatmap_cells(values):
    """The heatmap's cell rects as one f-string per cell (the layout reference)."""
    ny, nx = values.shape
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


@pytest.mark.parametrize("n, seed", [(7, 0), (201, 1), (3, 2), (130, 3), (4, None)])
def test_heatmap_cells_match_per_cell_reference(n, seed):
    if seed is None:
        values = np.full((n, n), 0.25)  # constant field: every cell takes colour 0
    else:
        rng = np.random.default_rng(seed)
        # values on the colour bins' edges and repeats among random ones
        values = rng.uniform(-1.0, 2.0, (n, n))
        values.flat[:: 3] = np.round(values.flat[:: 3] * 255.0) / 255.0
    svg = heatmap_svg(np.linspace(-2.0, 2.0, n), values, title="t")
    lines = svg.splitlines()
    cells = reference_heatmap_cells(values)
    start = lines.index(cells[0])
    assert lines[start : start + len(cells)] == cells
    assert start == 3  # after the svg tag, the background and the title
    assert svg.count("<rect") == 1 + n * n + 1 + 256
    # cells that share a level, as the Husimi grid's radii do: the same document
    levels, index = np.unique(values, return_inverse=True)
    assert "".join(heatmap_chunks(np.linspace(-2.0, 2.0, n), levels, index.reshape(n, n), title="t")) == svg


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


def golden_documents():
    """Whole SVG documents from inputs built with + - * / alone, so that every
    NumPy version computes the same pixels."""
    t = np.arange(41) * 0.25
    three = [("P1", t / 10.0), ("P2", 1.0 - t / 10.0), ("P3", (t - 5.0) * (t - 5.0) / 25.0 - 0.5)]
    axis = np.arange(9) * 0.5 - 2.0
    return {
        "one series": line_plot_svg(t, [("P1", t * (10.0 - t) / 25.0)], title="one series", ylabel="P1"),
        "legend": line_plot_svg(t, three, title="three series", ylabel="P"),
        "flat, untitled": line_plot_svg(t, [("flat", t * 0.0 + 0.5)]),
        "heatmap": heatmap_svg(axis, axis[:, None] * axis[None, :] / 4.0 + axis[:, None] / 8.0, title="grid"),
        "flat heatmap, untitled": heatmap_svg(axis, np.zeros((9, 9)) + 0.25),
    }


def test_svg_documents_match_their_golden_digests():
    digests = {name: hashlib.sha256(doc.encode()).hexdigest() for name, doc in golden_documents().items()}
    assert digests == {
        "one series": "dff93a2e6dbd4f2ad3f5babb872da15d9b2bf0873efd22154b813246b3c7817e",
        "legend": "f0ab044dbfcfce02f289b17d313d16ff7eccccc7d848ddba459346cd8b2388de",
        "flat, untitled": "3dbcf10049d038cc47e175d8062e21665bea2ca0c0777c7d4364ae2bb61a2095",
        "heatmap": "77629828a5a5891728a4b5e51bea3ffb412d8b74fa57d4d9d3258f5209608f58",
        "flat heatmap, untitled": "4592394ae9deaf5420e0bb35ea5b26dfb6df3076d07f4fa3f4a65d5b74562e44",
    }
