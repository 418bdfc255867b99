import contextlib
import csv
import errno
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import djcm
from djcm import cli, dynamics, output
from djcm.cli import main
from djcm.config import MAX_HUSIMI_N_MAX, load_config_file, run_config_from_dict, sweep_from_dict
from djcm.dynamics import PHASE_ERROR_LIMIT
from djcm.figures import FIGURE_IDS, run_figure
from djcm.observables import OBSERVABLE_NAMES
from djcm import runner
from djcm.runner import QUALITY_KEYS

BASE_CONFIG = {
    "params": {
        "omega_cavity": 0.2,
        "omega_levels": [0.3, 0.4, 0.5],
        "g1": 0.04,
        "g2": 0.06,
        "omega_e": 0.04,
        "chi": 0.0,
        "sector_n": 1,
    },
    "tau_max": 50.0,
    "samples": 2000,
}


def write_config(tmp_path, name="run.json", **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv_columns(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, row)) for row in reader]
    data = np.array(rows)
    return header, {name: data[:, i] for i, name in enumerate(header)}


def tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_simulate_fig_row_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, cols = read_csv_columns(out / "populations.csv")
    assert header == ["tau", "P1", "P2", "P3"]
    assert len(cols["tau"]) == 2000
    for name in ("P1", "P2", "P3"):
        assert cols[name].min() >= 0.0
        assert cols[name].max() <= 1.0 + 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "Analytic"
    assert manifest["version"]
    assert "backend" not in manifest and "method" not in manifest["config"]
    assert manifest["norm_drift_max"] <= 1e-9
    assert 0.0 < manifest["phase_error_bound"] <= 1e-12
    assert manifest["config"]["params"]["omega_levels"] == [0.3, 0.4, 0.5]
    assert "populations.csv" in manifest["outputs"]


def test_simulate_boundary_two_samples(tmp_path):
    cfg = write_config(tmp_path, tau_max=1.0, samples=2, observables=["populations"], svg=False)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, cols = read_csv_columns(out / "populations.csv")
    assert len(cols["tau"]) == 2
    assert cols["tau"][0] == 0.0
    assert cols["P2"][0] == 1.0
    assert cols["P1"][0] == 0.0


def test_simulate_force_oracle(tmp_path):
    cfg = write_config(tmp_path, observables=["inversion"], svg=False, samples=200, tau_max=10.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--force-oracle", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "Oracle"
    assert manifest["phase_error_bound"] is None
    assert manifest["ode_steps_accepted"] > 0
    assert manifest["ode_steps_rejected"] >= 0


def test_simulate_degenerate_spectrum_runs_analytic(tmp_path):
    params = dict(BASE_CONFIG["params"], g1=0.0, g2=0.0, omega_e=0.0)
    cfg = write_config(tmp_path, params=params, observables=["populations"], svg=False, samples=50)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "Analytic"
    # K = diag(0, -s, 0) with s = 0.1: the bound is u * s * t_max, t_max = 50 / 0.2
    assert manifest["phase_error_bound"] == pytest.approx(2.0**-53 * 0.1 * 250.0, rel=1e-12)


def test_overflowed_constants_exit_2_on_both_routes(tmp_path):
    # the oracle used to step forever on the NaN step these constants give;
    # the Husimi sum at t = 0 used to skip the solve, and with it this check
    params = dict(BASE_CONFIG["params"], omega_cavity=1e300, chi=1e10, sector_n=0)
    cfg = write_config(tmp_path, params=params, observables=["populations"], svg=False, samples=50)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(djcm.__file__)))
    simulate = ["simulate", "--config", cfg]
    husimi = ["husimi", "--resolution", "3", "--all-sectors", "10", "--config", cfg, "--t"]
    out = tmp_path / "out"
    for argv in (simulate, simulate + ["--force-oracle"], husimi + ["0"], husimi + ["1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "djcm.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "numerical range error: the constants of sector 0 overflow the floating-point range\n"
        assert not out.exists()


def test_oracle_step_budget_exits_2(tmp_path, capsys, monkeypatch):
    # omega_cavity 1e-6 stretches tau <= 50 to t <= 5e7, far past any step
    # budget of the oracle; the analytic route takes a fraction of a second
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
    params = dict(BASE_CONFIG["params"], omega_cavity=1e-6, g1=0.06, g2=0.08, omega_e=0.08, chi=0.2)
    cfg = write_config(tmp_path, params=params, observables=["populations"], svg=False, samples=50)
    assert main(["simulate", "--config", cfg, "--force-oracle", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical range error: sector 1 ODE oracle: used up its budget of")
    # the model time, and the tau the config set
    assert err.endswith(
        "before t = 50000000.0; the analytic route solves these parameters (tau = 50; t = tau / omega_cavity)\n"
    )
    assert err.count("\n") == 1


VACUUM = dict(BASE_CONFIG["params"], sector_n=0)
# with BASE_CONFIG's omega_cavity and sector_n: every frequency 0.2, sector 1
ORACLE_REFERENCE = dict(omega_levels=[0.0, 0.2, 0.4], g1=0.2, g2=0.2, omega_e=0.2, chi=0.2)
VACUUM_G2 = "observables: g2 is undefined for sector_n 0 with |ic[0]|^2 = 0, where <A+A> = 0 at tau = 0"
RAW_TIME = "tau_max / params.omega_cavity = {} overflows the raw time t = tau / omega_cavity"
# near the top of the double range: s2 = 1.55e308 at chi 1.1e153
HUGE_S2 = {"ic": [1, 0, 0], "tau_max": 1e-150, "observables": ["squeezing"]}


def with_params(**fields):
    return {"params": dict(BASE_CONFIG["params"], **fields)}


def sweep_over(*axes):
    return {"sweep": {"axes": list(axes)}}


def config_error(line):
    return re.escape(f"configuration error: {line}")


def range_error(line):
    return re.escape(f"numerical range error: {line}")


# no coupling, and a tau axis near the top of the double range
WIDE_TAU = with_params(omega_cavity=1.0, g1=0.0, g2=0.0, omega_e=0.0) | {"tau_max": 1e308, "observables": ["populations"]}


# single simulate runs that exit 2 and need no setup of their own, by id:
# config overrides (a string is the whole document), flags, and a regular
# expression for the whole of the one stderr line; first the document's shape
MALFORMED_CONFIG = {
    "top-level": ("[1, 2]", [], config_error("run.json: top-level JSON value must be an object")),
    "number": ({"tau_max": "10"}, [], config_error("tau_max: expected a number, got '10'")),
    "integer": ({"samples": 2.5}, [], config_error("samples: expected an integer, got 2.5")),
    "params": ({"params": [0.2]}, [], config_error("params: expected an object")),
    "omega_levels": (
        with_params(omega_levels=[0.3, 0.4]), [], config_error("params.omega_levels: expected a list of three frequencies")
    ),
    "ic-length": ({"ic": [1, 0]}, [], config_error("ic: expected a list of three amplitudes")),
    "ic-entry": ({"ic": [0, "1", 0]}, [], config_error("ic[1]: expected a real number or an [re, im] pair, got '1'")),
    "observables": (
        {"observables": ["inversion", 3]}, [], config_error("observables: expected a list of observable names")
    ),
    "svg": ({"svg": "yes"}, [], config_error("svg: expected true or false, got 'yes'")),
    "husimi": ({"husimi": []}, [], config_error("husimi: expected an object")),
    "sweep": ({"sweep": []}, [], config_error("sweep: expected an object")),
    "axis": (sweep_over(["chi"]), [], config_error("sweep.axes[0]: expected [name, values]")),
    "axis-values": (sweep_over(["chi", 0.1]), [], config_error("sweep.axes[0]: values must be a list")),
}
FAILED_SIMULATE = {
    # the document's values
    "infinite-tau_max": ({"tau_max": math.inf}, [], config_error("tau_max: expected a finite number, got inf")),
    "unknown-observable": (
        {"observables": ["populations", "wigner"]},
        [],
        config_error(f"observables: unknown name 'wigner'; valid names are {', '.join(OBSERVABLE_NAMES)}"),
    ),
    "duplicate-observable": (
        {"observables": ["inversion", "populations", "inversion"]},
        [],
        config_error("observables: 'inversion' is listed more than once"),
    ),
    "negative-n_max": (
        {"observables": ["husimi"], "husimi": {"n_max": -1}}, [], config_error("husimi.n_max must be >= 0, got -1")
    ),
    "n_max-limit": (
        {"observables": ["husimi"], "husimi": {"n_max": 200_000}},
        [],
        config_error("husimi.n_max must be <= 10000, got 200000"),
    ),
    "negative-chi": (
        with_params(chi=-1.0), [], config_error("params: Kerr constant chi must be finite and >= 0, got -1.0")
    ),
    # a sector number the engine cannot hold in a double, named before any point runs
    "huge-sector_n": (
        with_params(sector_n=10**400), [], r"configuration error: params\.sector_n: expected a finite number, got 10{400}"
    ),
    "huge-sector_n-axis": (
        sweep_over(["sector_n", [1, 10**400]]),
        [],
        r"configuration error: sweep\.axes\[0\]: expected a finite number, got 10{400}",
    ),
    # a second axis of one name would override the first in every point
    "duplicate-axis": (
        sweep_over(["g1", [0.1, 0.3]], ["g1", [0.2]]), [], config_error("sweep.axes: axis 'g1' is listed more than once")
    ),
    "label-collision": (
        sweep_over(["chi", [0, 0.0, 0.1, 0.1000001]]),
        [],
        config_error("sweep.axes: two points share the label 'chi=0'; labels print each value to 6 significant digits"),
    ),
    # a sweep point's error names the point
    "point-chi": (
        sweep_over(["chi", [0.1, -1]]),
        [],
        config_error("sweep point chi=-1: Kerr constant chi must be finite and >= 0, got -1.0"),
    ),
    "point-g1": (sweep_over(["g1", [0.1, -0.5]]), [], config_error("sweep point g1=-0.5: g1, g2 and omega_e must be >= 0")),
    "point-omega_cavity": (
        sweep_over(["omega_cavity", [0.2, 0]]),
        [],
        config_error("sweep point omega_cavity=0: params.omega_cavity must be > 0 for the tau = omega_cavity*t axis"),
    ),
    "point-sector_n": (
        sweep_over(["sector_n", [1, -2]]),
        [],
        config_error("sweep point sector_n=-2: sector_n must be a non-negative integer, got -2"),
    ),
    # the entry state |2,0> has <A+A> = 0 at tau = 0: rejected before any solve
    "vacuum-g2": ({"params": VACUUM}, [], config_error(VACUUM_G2)),
    "point-vacuum-g2": (sweep_over(["sector_n", [1, 0]]), [], config_error(f"sweep point sector_n=0: {VACUUM_G2}")),
    # tau_max / omega_cavity is the last raw time; an infinite one used to
    # reach the solver and print NumPy's overflow warnings first
    "raw-time-subnormal-omega": (with_params(omega_cavity=1e-320), [], config_error(RAW_TIME.format("50.0 / 1e-320"))),
    "raw-time-huge-tau": (
        with_params(omega_cavity=1e-300) | {"tau_max": 1e300}, [], config_error(RAW_TIME.format("1e+300 / 1e-300"))
    ),
    "raw-time-point": (
        sweep_over(["omega_cavity", [0.2, 1e-320]]),
        [],
        config_error("sweep point omega_cavity=9.99989e-321: " + RAW_TIME.format("50.0 / 1e-320")),
    ),
    # the solve
    "phase-bound-overflow": (
        with_params(omega_cavity=1e-300, g1=1e150),
        [],
        range_error("sector 1 propagator: phase error bound inf exceeds 1e-06"),
    ),
    "oracle-step-underflow": (
        with_params(g1=1e15, g2=1e15),
        ["--force-oracle"],
        range_error(
            "sector 1 ODE oracle: step size underflow while integrating to t = 250.0; "
            "tolerances unreachable for these parameters (tau = 50; t = tau / omega_cavity)"
        ),
    ),
    # the oracle's initial-step probe overflows (r1**2) or divides by a zero
    # step: one message for both, without Python's own texts
    **{
        f"oracle-{field}-{value:g}": (
            with_params(**{**ORACLE_REFERENCE, field: value}) | {"tau_max": 0.2, "samples": 2},
            ["--force-oracle"],
            range_error(
                "sector 1 ODE oracle: the integration left the floating-point range before t = 1.0 "
                "(tau = 0.2; t = tau / omega_cavity)"
            ),
        )
        for field, value in [("g1", 1e150), ("chi", 1e300), ("omega_e", 1e150), ("omega_e", 1e300)]
    },
    # populations is written, then the Husimi solve at tau = 1e300 (a
    # finite raw time) exceeds the phase error bound
    "husimi-phase-bound": (
        {"observables": ["populations", "husimi"], "husimi": {"tau": 1e300}},
        [],
        range_error("sector 1 propagator: phase error bound 8.26e+283 exceeds 1e-06"),
    ),
    # the series; sector 0 with ic[0] = 1e-160: <A+A> = 1e-320 passes the
    # vacuum check, and its square underflows to 0, so g2 is 0/0 at tau = 0
    "g2-underflow": (
        {"params": VACUUM, "ic": [1e-160, 1, 0], "observables": ["g2"]},
        [],
        range_error("series 'g2' contains non-finite values"),
    ),
    # chi = 1e200 overflows the moment weights' Python float **, whose
    # own message is an errno tuple: the line names the series instead
    **{
        f"weights-{name}": (
            with_params(chi=1e200) | {"tau_max": 1e-200, "observables": ["populations", name]},
            [],
            range_error(f"series {name!r} leaves the floating-point range"),
        )
        for name in ("g2", "mandel_q", "squeezing")
    },
    # one column of a multi-column observable
    "s2_x": (with_params(chi=1.2e153) | HUGE_S2, [], range_error("series 's2_x' contains non-finite values")),
    # the plot: a finite series whose padded y range, times five for the
    # ticks, leaves the range (test_huge_series_without_svg_writes_its_csv)
    "plot-y-axis": (
        with_params(chi=1.1e153) | HUGE_S2, [], range_error("plot 'squeezing': its y axis leaves the floating-point range")
    ),
    # ... and a tau axis whose span, times five, does (the analytic route's
    # phase error bound refuses this run before its plot)
    "plot-x-axis": (
        WIDE_TAU, ["--force-oracle"], range_error("plot 'populations': its x axis leaves the floating-point range")
    ),
    # checked before any solve
    "output-budget": (
        {"samples": 100_000_000},
        [],
        config_error("output budget: the run would write 1700000000 CSV cells, above the limit of 50000000"),
    ),
    # a grid of more intervals than the oracle's step budget (dynamics.MAX_STEPS),
    # refused before its first step
    "oracle-long-grid": (
        {"samples": 150_001, "observables": ["populations"], "svg": False},
        ["--force-oracle"],
        range_error(
            "sector 1 ODE oracle: used up its budget of 100000 steps before t = 250.0; "
            "the analytic route solves these parameters (tau = 50; t = tau / omega_cavity)"
        ),
    ),
}
HUSIMI_RAW_TIME = ["husimi", "--t", "5", "--resolution", "3", "--config", "run.json"]
HUSIMI_OVERFLOW = range_error(
    "the Husimi range x (-1e+200, 1e+200), y (-1e+200, 1e+200) overflows: |beta|^2 at the grid corner is not finite"
)
# every other command line that exits 2 without setup of its own, by id:
# argv without --out, the config document of run.json (None: no file) as
# in the tables above, and the regular expression for the one stderr line
FAILED_COMMAND = {
    "missing-config": (
        ["simulate", "--config", "none.json"],
        None,
        config_error("cannot read config file 'none.json': [Errno 2] No such file or directory: 'none.json'"),
    ),
    "husimi-output-budget": (
        ["husimi", "--t", "1", "--resolution", "100000"],
        None,
        config_error("output budget: --resolution 100000 would write 30000000000 CSV cells, above the limit of 50000000"),
    ),
    # the husimi command checks its flags by the rules of simulate's husimi section
    "husimi-negative-t": (["husimi", "--t", "-1"], None, config_error("--t must be finite and >= 0, got -1.0")),
    "husimi-nan-t": (["husimi", "--t", "nan"], None, config_error("--t must be finite and >= 0, got nan")),
    "husimi-infinite-t": (["husimi", "--t", "inf"], None, config_error("--t must be finite and >= 0, got inf")),
    "husimi-zero-range": (
        ["husimi", "--t", "1", "--range", "0"], None, config_error("--range must be finite and > 0, got 0.0")
    ),
    "husimi-nan-range": (
        ["husimi", "--t", "1", "--range", "nan"], None, config_error("--range must be finite and > 0, got nan")
    ),
    "husimi-resolution-1": (
        ["husimi", "--t", "1", "--resolution", "1"], None, config_error("--resolution must be >= 2, got 1")
    ),
    "husimi-negative-all-sectors": (
        ["husimi", "--t", "1", "--all-sectors", "-1"], None, config_error("--all-sectors must be >= 0, got -1")
    ),
    "husimi-all-sectors-limit": (
        ["husimi", "--t", "1", "--all-sectors", "200000"], None, config_error("--all-sectors must be <= 10000, got 200000")
    ),
    # |beta|^2 at the corner of the grid overflows, for one sector or their sum
    "husimi-range-overflow": (["husimi", "--t", "1", "--range", "1e200", "--resolution", "3"], None, HUSIMI_OVERFLOW),
    "husimi-range-overflow-all-sectors": (
        ["husimi", "--t", "1", "--range", "1e200", "--resolution", "3", "--all-sectors", "2"], None, HUSIMI_OVERFLOW
    ),
    # the config's omega_cavity sets the raw time of --t
    "husimi-zero-omega_cavity": (
        HUSIMI_RAW_TIME,
        with_params(omega_cavity=0.0),
        config_error("params.omega_cavity must be > 0 for the tau = omega_cavity*t axis"),
    ),
    "husimi-raw-time": (
        HUSIMI_RAW_TIME,
        with_params(omega_cavity=1e-320),
        config_error("--t / params.omega_cavity = 5.0 / 1e-320 overflows the raw time t = tau / omega_cavity"),
    ),
    # checked before the worker pool starts, not by NumPy's seeding
    "validate-negative-seed": (["validate", "--seed", "-1"], None, config_error("--seed must be >= 0, got -1")),
    "validate-zero-tuples": (["validate", "--tuples", "0"], None, config_error("--tuples must be >= 1, got 0")),
    "validate-tuples-limit": (
        ["validate", "--tuples", "100001"], None, config_error("--tuples must be <= 100000, got 100001")
    ),
}


@pytest.fixture
def exits_2(tmp_path, monkeypatch, capsys):
    """check(argv, config, stderr) runs main(argv) in tmp_path and asserts
    exit 2, an empty stdout, one stderr line that the regular expression
    stderr matches whole, and nothing beside the inputs: no --out (argv
    names none, so the command's default lands in tmp_path) and no .djcm-*
    staging directory.  Unless config is None it is written to run.json
    first: a string is the whole document, a dict overrides BASE_CONFIG
    at 50 samples."""
    monkeypatch.chdir(tmp_path)

    def check(argv, config, stderr):
        inputs = []
        if config is not None:
            if not isinstance(config, str):
                config = json.dumps({**BASE_CONFIG, "samples": 50, **config})
            (tmp_path / "run.json").write_text(config)
            inputs = ["run.json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"{stderr}\n", captured.err)
        assert os.listdir(tmp_path) == inputs

    return check


def assert_simulate_fails(exits_2, config, flags, stderr):
    exits_2(["simulate", "--config", "run.json", *flags], config, stderr)


@pytest.mark.parametrize("config, flags, stderr", MALFORMED_CONFIG.values(), ids=MALFORMED_CONFIG)
def test_malformed_config_field_exits_2_naming_it(exits_2, config, flags, stderr):
    assert_simulate_fails(exits_2, config, flags, stderr)


@pytest.mark.parametrize("config, flags, stderr", FAILED_SIMULATE.values(), ids=FAILED_SIMULATE)
def test_failed_simulate_writes_nothing(exits_2, config, flags, stderr):
    assert_simulate_fails(exits_2, config, flags, stderr)


@pytest.mark.parametrize("argv, config, stderr", FAILED_COMMAND.values(), ids=FAILED_COMMAND)
def test_failed_command_writes_nothing(exits_2, argv, config, stderr):
    exits_2(argv, config, stderr)


def test_huge_series_without_svg_writes_its_csv(tmp_path):
    # the plot-y-axis and plot-x-axis rows' runs without their plots: every series is finite
    cfg = write_config(tmp_path, samples=50, svg=False, **with_params(chi=1.1e153), **HUGE_S2)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "y")]) == 0
    _, cols = read_csv_columns(tmp_path / "y" / "squeezing.csv")
    assert cols["s2_x"].max() == 1.5487999999999999e308
    cfg = write_config(tmp_path, "wide.json", samples=50, svg=False, **WIDE_TAU)
    assert main(["simulate", "--config", cfg, "--force-oracle", "--out", str(tmp_path / "x")]) == 0
    _, cols = read_csv_columns(tmp_path / "x" / "populations.csv")
    assert cols["tau"][-1] == 1e308 and all(np.all(np.isfinite(col)) for col in cols.values())


def _fail_after_first_chunk(write_chunks, target):
    """write_chunks, except that the chunks of a file named target stop with
    a float division by zero after the first one, as a formatter's would."""

    def wrapper(path, chunks):
        if os.path.basename(path) != target:
            return write_chunks(path, chunks)

        def failing():
            yield next(iter(chunks))
            raise ZeroDivisionError("float division by zero")

        return write_chunks(path, failing())

    return wrapper


@pytest.mark.parametrize(
    "argv, target",
    [
        (["simulate", "--config", "single.json"], "inversion.svg"),
        (["simulate", "--config", "sweep.json"], "inversion.csv"),
        (["figures", "fig3"], "fig3b.svg"),
        (["husimi", "--t", "5", "--resolution", "21"], "husimi.svg"),
    ],
    ids=["simulate", "sweep", "figures", "husimi"],
)
def test_failed_write_publishes_nothing(tmp_path, monkeypatch, capsys, argv, target):
    # a file that fails half-written ends the run with exit 2: a fresh --out
    # is not made, an existing one keeps its bytes, and no staging is left
    observables = ["populations", "inversion"]
    write_config(tmp_path, "single.json", samples=50, observables=observables)
    write_config(tmp_path, "sweep.json", samples=50, observables=observables, sweep={"axes": [["chi", [0.0, 0.2]]]})
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    existing = tmp_path / "existing"
    assert main([*argv, "--out", str(existing)]) == 0
    before = tree_bytes(existing)
    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    for module in (output, runner):
        monkeypatch.setattr(module, "write_chunks", _fail_after_first_chunk(module.write_chunks, target))
    for out in (tmp_path / "fresh" / "nested", existing):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical range error: ") and err.endswith("float division by zero\n")
        assert err.count("\n") == 1
    assert tree_bytes(existing) == before
    assert sorted(os.listdir(tmp_path)) == ["existing", "single.json", "sweep.json"]


@pytest.mark.parametrize(
    "argv, blocked, message",
    [
        (["husimi", "--t", "5", "--resolution", "5"], "husimi.csv", "[Errno 21] Is a directory"),
        (["simulate", "--config", "sweep.json"], "chi=0.1", "[Errno 20] Not a directory"),
    ],
    ids=["file over directory", "directory over file"],
)
def test_blocked_publish_moves_nothing(tmp_path, capsys, argv, blocked, message):
    # a staged entry that os.replace cannot put over its target in --out
    # ends the run with exit 3 before the first move: --out keeps its
    # entries and bytes, and no staging directory is left
    write_config(tmp_path, "sweep.json", samples=50, observables=["inversion"], sweep={"axes": [["chi", [0.0, 0.1]]]})
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    out = tmp_path / "out"
    out.mkdir()
    if blocked.endswith(".csv"):
        (out / blocked).mkdir()
        (out / blocked / "kept").write_text("a directory\n")
    else:
        (out / blocked).write_text("a file\n")
    before = tree_bytes(out)
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert tree_bytes(out) == before and os.listdir(out) == [blocked]
    assert err == f"i/o error: {message}: {str(out / blocked)!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["out", "sweep.json"]


def test_staging_goes_in_the_nearest_existing_directory(tmp_path, monkeypatch):
    # an existing --out holds its own staging directory, so --out . stages in
    # the working directory, not in its parent; a fresh --out stages in the
    # nearest directory above it that exists
    staged_in = []
    mkdtemp = tempfile.mkdtemp

    def spy(**kwargs):
        staged_in.append(kwargs["dir"])
        return mkdtemp(**kwargs)

    monkeypatch.setattr(runner.tempfile, "mkdtemp", spy)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["husimi", "--t", "5", "--resolution", "5", "--out", "."]) == 0
    assert main(["husimi", "--t", "5", "--resolution", "5", "--out", str(tmp_path / "a" / "b")]) == 0
    assert staged_in == [str(work), str(tmp_path)]
    assert sorted(os.listdir(work)) == ["husimi.csv", "husimi.svg", "husimi_manifest.json"]
    assert tree_bytes(work) == tree_bytes(tmp_path / "a" / "b")


def test_constant_subnormal_series_plots(tmp_path):
    # with no coupling the inversion stays at its t = 0 value, 5e-324, the
    # smallest subnormal: a tenth of it rounds to 0, and the y range must not
    cfg = write_config(
        tmp_path,
        params=dict(BASE_CONFIG["params"], g1=0, g2=0, omega_e=0),
        ic=[2.3e-162, 1, 0],
        samples=50,
        observables=["inversion"],
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "nan" not in (out / "inversion.svg").read_text()


def test_long_config_integer_names_its_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG).replace('"sector_n": 1', '"sector_n": ' + "7" * 5000))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: invalid JSON: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_empty_sweep_exits_2_and_leaves_out_dir_alone(tmp_path, capsys):
    # with no axes the one point's label is "", so its directory would be
    # out_dir itself, replaced whole by the point's files
    cfg = write_config(tmp_path, samples=20, svg=False, sweep={"axes": []})
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    mode = out.stat().st_mode
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep.axes: ") and err.count("\n") == 1
    assert tree_bytes(out) == {"notes.txt": b"kept\n"}
    assert out.stat().st_mode == mode
    assert sorted(os.listdir(tmp_path)) == ["out", "run.json"]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"tau_maxx": 10.0}, "config: unknown field 'tau_maxx'; valid fields are params, ic, tau_max,"),
        ({"params": dict(BASE_CONFIG["params"], kappa=0.1)}, "params: unknown field 'kappa'; valid fields are"),
        ({"husimi": {"rnage": 5}}, "husimi: unknown field 'rnage'; valid fields are tau, range, resolution, n_max"),
        ({"sweep": {"axes": [["chi", [0.0]]], "labels": []}}, "sweep: unknown field 'labels'; valid fields are axes"),
    ],
    ids=["top-level", "params", "husimi", "sweep"],
)
def test_unknown_config_field_exits_2_naming_it(tmp_path, capsys, overrides, message):
    # simulate and husimi --config share the parse, so both reject the document
    cfg = write_config(tmp_path, samples=20, svg=False, **overrides)
    out = tmp_path / "out"
    for argv in (["simulate", "--config", cfg], ["husimi", "--t", "1", "--resolution", "3", "--config", cfg]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "params, message",
    [
        ({k: v for k, v in BASE_CONFIG["params"].items() if k != "g1"}, "params: missing required field 'g1'"),
        (dict(BASE_CONFIG["params"], g1="x"), "params.g1: expected a number, got 'x'"),
        (dict(BASE_CONFIG["params"], omega_cavity=math.nan), "params.omega_cavity: expected a finite number, got nan"),
        (dict(BASE_CONFIG["params"], omega_levels=[0.3, "a", 0.5]), "params.omega_levels: expected a number, got 'a'"),
    ],
    ids=["missing", "not-a-number", "not-finite", "level"],
)
def test_params_field_error_names_it_once(tmp_path, capsys, params, message):
    # the exact line: a field's own error is not prefixed with "params: " again
    cfg = write_config(tmp_path, samples=20, svg=False, params=params)
    out = tmp_path / "out"
    for argv in (["simulate", "--config", cfg], ["husimi", "--t", "1", "--resolution", "3", "--config", cfg]):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--force-oracle"]])
def test_sweep_point_manifest_rebuilds_its_point(tmp_path, flags):
    # a point's manifest["config"] is a config document for that point alone
    cfg = write_config(
        tmp_path,
        ic=[[0.0, 0.6], 0.8, 0],
        samples=20,
        svg=False,
        observables=["inversion", "husimi"],
        husimi={"range": 2.0, "resolution": 5, "tau": 3.0},
        sweep={"axes": [["chi", [0.0, 0.2]], ["sector_n", [1, 3]]]},
    )
    doc = load_config_file(cfg)
    points = sweep_from_dict(doc, run_config_from_dict(doc, force_oracle=bool(flags)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, *flags, "--out", str(out)]) == 0
    for label, point in points:
        config = json.loads((out / label / "manifest.json").read_text())["config"]
        assert "sweep" not in config
        assert run_config_from_dict(config, force_oracle=bool(flags)) == point


def test_sweep_point_whose_ic_0_squares_to_0_fails_before_any_point_runs(tmp_path, monkeypatch, capsys):
    # ic[0] = 1e-170 is not 0, but P1 = |ic[0]|^2 is 0 at tau = 0 in sector 0
    monkeypatch.setattr(runner, "parallel_map", mock.Mock(side_effect=AssertionError("a sweep point ran")))
    sweep = {"axes": [["chi", [0.0, 0.1]]]}
    cfg = write_config(tmp_path, params=VACUUM, ic=[1e-170, 1, 0], observables=["populations", "g2"], sweep=sweep)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: sweep point chi=0: observables: g2 is undefined for sector_n 0 "
        "with |ic[0]|^2 = 0, where <A+A> = 0 at tau = 0\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["run.json"]
    runner.parallel_map.assert_not_called()


@pytest.mark.parametrize(
    "overrides, point",
    [
        ({"tau_max": 5e-324, "samples": 3}, ""),
        ({"params": dict(BASE_CONFIG["params"], omega_cavity=1e300), "tau_max": 1e-20, "samples": 10000}, ""),
        (
            {"sweep": {"axes": [["omega_cavity", [0.2, 1e300]]]}, "tau_max": 1e-20, "samples": 10000},
            "sweep point omega_cavity=1e+300: ",
        ),
    ],
    ids=["subnormal-tau", "huge-omega", "sweep-point"],
)
def test_raw_time_grid_that_does_not_increase_exits_2_and_writes_nothing(
    tmp_path, monkeypatch, capsys, overrides, point
):
    # neighbouring raw times tau / omega_cavity round to one value: a
    # configuration error that names tau_max, raised before any point runs
    monkeypatch.setattr(runner, "parallel_map", mock.Mock(side_effect=AssertionError("a sweep point ran")))
    cfg = write_config(tmp_path, svg=False, **overrides)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {point}tau_max / params.omega_cavity = ") and err.count("\n") == 1
    assert f"over samples = {overrides['samples']}: " in err and err.endswith(" do not strictly increase\n")
    assert sorted(os.listdir(tmp_path)) == ["run.json"]
    runner.parallel_map.assert_not_called()

# the reference value first: hypothesis shrinks each draw towards it
MAGNITUDES = (0.2, 0.0, 1e-320, 1e-300, 1e-150, 1e-20, 1e-6, 0.01, 0.04, 1.0, 7.0, 1e6, 1e20, 1e150, 1e300)
FIELD_CHOICES = {
    **{name: MAGNITUDES for name in ("omega_cavity", "gap1", "gap2", "g1", "g2", "omega_e", "tau_max")},
    "chi": (0.2, 0.0, 1e-300, 1e10, 1e300),
    "sector_n": (1, 0, 3, 300, 10**6, 10**12),
    "samples": (2, 3, 17),
    "resolution": (2, 5),
    "range": (0.5, 3.0, 1e100),
    "n_max": (None, 0, 5),
    "tau": (None, 0.0, 7.0, 1e-300, 1e10, 1e300),
}


# a coordinate or tick label that left the floating-point range
NON_FINITE = re.compile(r"\b(nan|inf)\b")


def assert_one_error_line(err):
    # every numerical range error names what failed, never Python's bare text
    assert err.startswith(("configuration error: ", "numerical range error: ")) and err.count("\n") == 1
    assert not err.startswith(("numerical range error: (34, ", "numerical range error: float division by zero"))


@st.composite
def single_run_documents(draw):
    """Single-run and two-point sweep config documents.  Each field keeps
    its reference value unless it is one of the (at most three) drawn to
    range over extreme magnitudes, so that most documents run; a sweep
    axis draws its two values from all of MAGNITUDES."""
    varied = draw(st.sets(st.sampled_from(sorted(FIELD_CHOICES)), max_size=3))

    def field(name):
        choices = FIELD_CHOICES[name]
        return draw(st.sampled_from(choices)) if name in varied else choices[0]

    gap1, gap2 = field("gap1"), field("gap2")
    params = {
        "omega_cavity": field("omega_cavity"),
        "omega_levels": [0.0, gap1, gap1 + gap2],
        **{name: field(name) for name in ("g1", "g2", "omega_e", "chi", "sector_n")},
    }
    husimi = {"resolution": field("resolution"), "range": field("range")}
    for name in ("n_max", "tau"):
        value = field(name)
        if value is not None:
            husimi[name] = value
    doc = {
        "params": params,
        "tau_max": field("tau_max"),
        "samples": field("samples"),
        "observables": draw(st.lists(st.sampled_from(OBSERVABLE_NAMES), unique=True)),
        "husimi": husimi,
    }
    axis = draw(st.sampled_from((None, "chi", "omega_cavity")))
    if axis is not None:
        values = st.lists(st.sampled_from(MAGNITUDES), min_size=2, max_size=2, unique=True)
        doc["sweep"] = {"axes": [[axis, draw(values)]]}
    return doc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=single_run_documents(), force_oracle=st.booleans())
def test_single_run_exit_contract(doc, force_oracle):
    # exit 0 with finite CSV cells and SVG numbers, or exit 2 with one message
    # line and no output; never a traceback (an exception out of main) or a warning.
    # Sweep points run in this process, so their warnings are caught too.
    # A low step budget keeps the oracle runs short: past it they exit 2.
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(runner, "worker_count", lambda: 1),
        mock.patch.object(dynamics, "MAX_STEPS", 2000),
    ):
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        flags = ["--force-oracle"] if force_oracle else []
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["simulate", "--config", cfg, *flags, "--out", out])
        assert [str(w.message) for w in caught] == []
        err = stderr.getvalue()
        if code == 2:
            assert_one_error_line(err)
            assert os.listdir(tmp) == ["run.json"]
            return
        assert code == 0 and err == ""
        manifests = 0
        for dirpath, _, names in os.walk(out):
            for name in names:
                path = os.path.join(dirpath, name)
                if name == "manifest.json":
                    manifests += 1
                    with open(path) as fh:
                        manifest = json.load(fh)
                    if force_oracle:
                        assert manifest["method"] == "Oracle" and manifest["phase_error_bound"] is None
                    else:
                        assert manifest["phase_error_bound"] <= PHASE_ERROR_LIMIT
                    if "husimi" in manifest:
                        assert manifest["husimi"]["phase_error_bound"] <= PHASE_ERROR_LIMIT
                elif name.endswith(".csv"):
                    _, cols = read_csv_columns(path)
                    assert all(np.all(np.isfinite(col)) for col in cols.values()), path
                elif name.endswith(".svg"):
                    with open(path) as fh:
                        assert not NON_FINITE.search(fh.read()), path
        assert manifests == (2 if "sweep" in doc else 1)


HUSIMI_FLAG_CHOICES = {
    "--t": ("25", "0", "1e-300", "7", "1e10", "1e300", "-1", "nan", "inf", "-inf"),
    "--range": (None, "0.5", "1e100", "1e200", "0", "-2", "nan", "inf"),
    "--resolution": ("5", "2", "1", "0", "-3"),
    "--all-sectors": (None, "0", "5", "-1", "10001"),
}


@st.composite
def husimi_argvs(draw):
    """husimi command lines and an optional config document for the model
    (single_run_documents).  Each flag keeps its reference value (None: not
    given) unless it is one of the (at most two) drawn to range over valid
    and invalid values, nan, inf and negative ones included.  A flag is
    given as --flag=value, so a value that starts with '-' is not read as a
    flag."""
    varied = draw(st.sets(st.sampled_from(sorted(HUSIMI_FLAG_CHOICES)), max_size=2))
    argv = ["husimi"]
    for flag, choices in HUSIMI_FLAG_CHOICES.items():
        value = draw(st.sampled_from(choices)) if flag in varied else choices[0]
        if value is not None:
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv += ["--config", draw(single_run_documents())]
    return argv


@settings(max_examples=40, deadline=None, derandomize=True)
@given(argv=husimi_argvs())
def test_husimi_exit_contract(argv):
    # exit 0 with a finite husimi.csv and husimi.svg, or exit 2 with one
    # message line and no output; never a traceback (an exception out of main) or a warning
    with tempfile.TemporaryDirectory() as tmp:
        if "--config" in argv:
            cfg = os.path.join(tmp, "run.json")
            with open(cfg, "w") as fh:
                json.dump(argv[-1], fh)
            argv = argv[:-1] + [cfg]
        out = os.path.join(tmp, "out")
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([*argv, "--out", out])
        assert [str(w.message) for w in caught] == []
        err = stderr.getvalue()
        if code == 2:
            assert_one_error_line(err)
            assert not os.path.exists(out)
            return
        assert code == 0 and err == ""
        assert sorted(os.listdir(out)) == ["husimi.csv", "husimi.svg", "husimi_manifest.json"]
        _, cols = read_csv_columns(os.path.join(out, "husimi.csv"))
        assert all(np.all(np.isfinite(col)) for col in cols.values())
        with open(os.path.join(out, "husimi.svg")) as fh:
            assert not NON_FINITE.search(fh.read())


def test_husimi_runs_the_vacuum_sector(tmp_path):
    # the husimi command reads only params and ic from a config file, so a
    # run field that simulate would reject does not matter to it
    cfg = write_config(tmp_path, params=VACUUM, samples=1)
    out = tmp_path / "h"
    assert main(["husimi", "--t", "5", "--resolution", "21", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "husimi_manifest.json").read_text())
    # n_max null: the populated sector alone, here the vacuum sector
    assert manifest["params"]["sector_n"] == 0 and manifest["n_max"] is None


def test_husimi_manifest_records_the_initial_condition(tmp_path):
    # two configs that differ in ic alone give different grids and manifests
    runs = {}
    for name, fields in (("excited", {}), ("lowest", {"ic": [1, 0, 0]})):
        cfg = write_config(tmp_path, name=f"{name}.json", **fields)
        out = tmp_path / name
        assert main(["husimi", "--t", "5", "--resolution", "21", "--config", cfg, "--out", str(out)]) == 0
        runs[name] = ((out / "husimi.csv").read_bytes(), json.loads((out / "husimi_manifest.json").read_text()))
    (excited_csv, excited), (lowest_csv, lowest) = runs["excited"], runs["lowest"]
    assert excited_csv != lowest_csv
    assert excited["ic"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    assert lowest["ic"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    # the ic field in simulate's config echo has the same form
    sim_out = tmp_path / "sim"
    cfg = write_config(tmp_path, name="sim.json", ic=[1, 0, 0], samples=2, observables=["populations"], svg=False)
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    assert json.loads((sim_out / "manifest.json").read_text())["config"]["ic"] == lowest["ic"]


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path,
        samples=300,
        tau_max=20.0,
        observables=["populations", "squeezing", "husimi"],
        husimi={"range": 2.0, "resolution": 31, "tau": 10.0},
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_simulate_sweep(tmp_path):
    cfg = write_config(
        tmp_path,
        samples=100,
        tau_max=10.0,
        observables=["inversion"],
        svg=False,
        sweep={"axes": [["chi", [0.0, 0.2]]]},
    )
    out = tmp_path / "sweep"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert [p["label"] for p in manifest["points"]] == ["chi=0", "chi=0.2"]
    for point in manifest["points"]:
        label = point["label"]
        assert (out / label / "inversion.csv").exists()
        point_manifest = json.loads((out / label / "manifest.json").read_text())
        # every point carries its run's full route and accuracy record
        assert point == {"label": label, **{key: point_manifest[key] for key in QUALITY_KEYS}}
        assert point["method"] == "Analytic" and point["phase_error_bound"] <= PHASE_ERROR_LIMIT


def test_figures_fig2_panels(tmp_path):
    out = tmp_path / "f2"
    assert main(["figures", "fig2", "--out", str(out)]) == 0
    manifest = json.loads((out / "fig2_manifest.json").read_text())
    assert len(manifest["panels"]) == 9
    for letter in "abcdefghi":
        assert (out / f"fig2{letter}.csv").exists()
        assert (out / f"fig2{letter}.svg").exists()
    header, cols = read_csv_columns(out / "fig2e.csv")
    assert header == ["tau", "P2"]
    assert 0.0 <= cols["P2"].min() and cols["P2"].max() <= 1.0


def test_figures_fig5_entropy_bounds(tmp_path):
    out = tmp_path / "f5"
    assert main(["figures", "fig5", "--out", str(out)]) == 0
    for letter in "abc":
        _, cols = read_csv_columns(out / f"fig5{letter}.csv")
        assert cols["S"].min() >= -1e-12
        assert cols["S"].max() <= math.log(2.0) + 1e-12


def test_figures_fig7_heatmaps(tmp_path):
    out = tmp_path / "f7"
    assert main(["figures", "fig7", "--out", str(out)]) == 0
    manifest = json.loads((out / "fig7_manifest.json").read_text())
    assert len(manifest["panels"]) == 2
    assert manifest["panels"][0]["chi"] == 0.0
    assert manifest["panels"][1]["chi"] == 0.2
    header, cols = read_csv_columns(out / "fig7a.csv")
    assert header == ["x", "y", "q"]
    assert cols["q"].min() >= 0.0
    assert len(cols["q"]) == 121 * 121
    assert (out / "fig7b.svg").exists()


def test_figures_fig8_four_panels(tmp_path):
    out = tmp_path / "f8"
    assert main(["figures", "fig8", "--out", str(out)]) == 0
    manifest = json.loads((out / "fig8_manifest.json").read_text())
    assert [p["name"] for p in manifest["panels"]] == ["fig8a", "fig8b", "fig8c", "fig8d"]
    header, cols = read_csv_columns(out / "fig8a.csv")
    assert header == ["tau", "s1_x", "s1_p"]
    np.testing.assert_array_equal(cols["s1_x"], cols["s1_p"])
    assert cols["s1_x"].min() >= 0.0
    header, cols = read_csv_columns(out / "fig8d.csv")
    assert header == ["tau", "s2_x", "s2_p"]


FIGURE_PANELS = {
    "fig2": [(f"fig2{letter}", level, ["tau", level]) for letter, level in zip("abcdefghi", ["P1", "P2", "P3"] * 3)],
    "fig3": [(f"fig3{letter}", "inversion", ["tau", "W"]) for letter in "abc"],
    "fig4": [(f"fig4{letter}", "g2", ["tau", "g2"]) for letter in "abc"],
    "fig5": [(f"fig5{letter}", "entropy", ["tau", "S"]) for letter in "abc"],
    "fig6": [(f"fig6{letter}", "mandel_q", ["tau", "Q"]) for letter in "abc"],
    "fig7": [(f"fig7{letter}", "husimi", ["x", "y", "q"]) for letter in "ab"],
    "fig8": [
        ("fig8a", "squeezing-first", ["tau", "s1_x", "s1_p"]),
        ("fig8b", "squeezing-second", ["tau", "s2_x", "s2_p"]),
        ("fig8c", "squeezing-first", ["tau", "s1_x", "s1_p"]),
        ("fig8d", "squeezing-second", ["tau", "s2_x", "s2_p"]),
    ],
}


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_figure_panels_labels_and_headers(tmp_path, fig_id):
    manifest = run_figure(fig_id, str(tmp_path))
    panels = manifest["panels"]
    assert [(p["name"], p["observable"]) for p in panels] == [(n, label) for n, label, _ in FIGURE_PANELS[fig_id]]
    for panel, (name, _, header) in zip(panels, FIGURE_PANELS[fig_id]):
        assert panel["files"] == [f"{name}.csv", f"{name}.svg"]
        with open(tmp_path / f"{name}.csv") as fh:
            assert fh.readline().rstrip("\n").split(",") == header
    written = sorted(os.listdir(tmp_path))
    listed = sorted([f"{fig_id}_manifest.json"] + [f for p in panels for f in p["files"]])
    assert written == listed


def test_figures_rejects_unknown_id(tmp_path):
    with pytest.raises(SystemExit):
        main(["figures", "fig9"])
    out = tmp_path / "figs"
    with pytest.raises(ValueError, match="unknown figure 'fig9'; valid ids are " + ", ".join(FIGURE_IDS)):
        run_figure("fig9", str(out))
    assert not out.exists()


def test_husimi_command(tmp_path):
    out = tmp_path / "h"
    assert main(["husimi", "--t", "25", "--range", "3", "--resolution", "41", "--out", str(out)]) == 0
    manifest = json.loads((out / "husimi_manifest.json").read_text())
    assert "mode" not in manifest and manifest["n_max"] is None
    assert manifest["params"]["chi"] == 0.2
    header, cols = read_csv_columns(out / "husimi.csv")
    assert cols["q"].min() >= 0.0
    # y-major rows written one y at a time: x cycles through the axis, every cell %.17g
    axis = np.linspace(-3.0, 3.0, 41).tolist()
    yx = itertools.product(axis, repeat=2)
    reference = [f"{x:.17g},{y:.17g},{q:.17g}" for (y, x), q in zip(yx, cols["q"].tolist())]
    assert (out / "husimi.csv").read_text().splitlines() == ["x,y,q", *reference]


def test_one_husimi_grid_from_three_entry_points(tmp_path):
    # fig7's chi = 0.2 panel, the husimi command at its defaults and simulate
    # with the husimi observable on the same row ask for one grid: the same bytes
    row2 = {
        "params": dict(BASE_CONFIG["params"], g1=0.06, g2=0.08, chi=0.2),
        "observables": ["husimi"],
        "husimi": {"tau": 25.0},
    }
    (tmp_path / "row2.json").write_text(json.dumps(row2))
    assert main(["figures", "fig7", "--out", str(tmp_path / "figs")]) == 0
    assert main(["husimi", "--t", "25", "--out", str(tmp_path / "flags")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "row2.json"), "--out", str(tmp_path / "config")]) == 0
    assert (tmp_path / "figs" / "fig7b.csv").read_bytes() == (tmp_path / "flags" / "husimi.csv").read_bytes()
    for name in ("husimi.csv", "husimi.svg"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "config" / name).read_bytes()


def test_husimi_all_sectors(tmp_path):
    out = tmp_path / "ha"
    assert main(["husimi", "--t", "0", "--range", "2", "--resolution", "21", "--all-sectors", "60", "--out", str(out)]) == 0
    manifest = json.loads((out / "husimi_manifest.json").read_text())
    assert "mode" not in manifest and manifest["n_max"] == 60
    _, cols = read_csv_columns(out / "husimi.csv")
    # the literal all-sector sum at t = 0 is flat at 1/pi
    assert np.max(np.abs(cols["q"] - 1.0 / math.pi)) <= 1e-10
    # ... up to round-off, which the heatmap draws in one colour
    assert cols["q"].max() > cols["q"].min()
    cell_fills = re.findall(r'width="4.00" height="4.00" fill="(#[0-9a-f]{6})"', (out / "husimi.svg").read_text())
    assert len(cell_fills) == 21 * 21
    assert set(cell_fills) == {"#440154"}


@pytest.mark.parametrize("chi_text", ["0", "-0.0"])
def test_manifest_echoes_undeformed_chi_as_zero(tmp_path, chi_text):
    path = tmp_path / "run.json"
    cfg = dict(BASE_CONFIG, samples=2, observables=["populations"], svg=False)
    path.write_text(json.dumps(cfg).replace('"chi": 0.0', f'"chi": {chi_text}'))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert '"chi": 0.0,' in (out / "manifest.json").read_text()


def test_sweep_manifests_echo_negative_zero_chi_as_zero(tmp_path):
    path = tmp_path / "run.json"
    cfg = dict(BASE_CONFIG, samples=2, observables=["populations"], svg=False, sweep={"axes": [["chi", [-0.0, 0.1]]]})
    path.write_text(json.dumps(cfg))
    assert "-0.0" in path.read_text()
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert '"chi": 0.0,' in (out / "chi=-0" / "manifest.json").read_text()
    assert '"chi": 0.1,' in (out / "chi=0.1" / "manifest.json").read_text()


@pytest.mark.parametrize("field", ["g1", "g2", "omega_e", "omega_levels", "ic", "husimi.tau", "--t"])
def test_negative_zero_writes_the_bytes_of_zero(tmp_path, field):
    # -0.0 is stored as 0.0: g2 = -0.0 took another eigh path, the others echoed apart
    trees = []
    for zero in (0.0, -0.0):
        out = tmp_path / repr(zero)
        params = dict(BASE_CONFIG["params"])
        doc = {"samples": 50, "observables": list(OBSERVABLE_NAMES), "husimi": {"resolution": 5}}
        if field == "--t":
            argv = ["husimi", "--t", repr(zero), "--resolution", "5"]
        else:
            if field == "omega_levels":
                params[field] = [zero, 0.4, 0.5]
            elif field == "ic":
                doc["ic"] = [[zero, zero], [1.0, zero], [zero, zero]]
            elif field == "husimi.tau":
                doc["husimi"]["tau"] = zero
            else:
                params[field] = zero
            argv = ["simulate", "--config", write_config(tmp_path, f"{zero!r}.json", params=params, **doc)]
        assert main([*argv, "--out", str(out)]) == 0
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


HUSIMI_FLAGS = {"tau": "--t", "range": "--range", "resolution": "--resolution", "n_max": "--all-sectors"}


@pytest.mark.parametrize(
    "field, value, overrides",
    [
        ("tau", -1.0, {}),
        # a finite tau whose raw time tau / omega_cavity overflows
        ("tau", 1e10, {"params": dict(BASE_CONFIG["params"], omega_cavity=1e-300), "tau_max": 1e-295}),
        ("range", 0.0, {}),
        ("range", -2.0, {}),
        ("range", 1e200, {}),  # |beta|^2 at the grid corner overflows: a numerical range error
        ("resolution", 1, {}),
        ("resolution", 100_000, {}),
        ("n_max", -1, {}),
        ("n_max", MAX_HUSIMI_N_MAX + 1, {}),
    ],
)
def test_husimi_rules_are_one_table_for_fields_and_flags(tmp_path, capsys, field, value, overrides):
    # the config's husimi section through simulate and the husimi command's
    # flags follow one set of rules; the messages differ only in the name
    husimi = {"tau": 5.0, field: value}
    cfg = write_config(tmp_path, samples=50, observables=["populations", "husimi"], husimi=husimi, **overrides)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    from_field = capsys.readouterr().err
    assert not out.exists()
    flags = [f"{HUSIMI_FLAGS[name]}={husimi[name]}" for name in husimi]
    assert main(["husimi", *flags, "--config", cfg, "--out", str(out)]) == 2
    from_flag = capsys.readouterr().err
    assert not out.exists()
    assert from_field.count("\n") == 1
    assert from_field.replace(f"husimi.{field}", HUSIMI_FLAGS[field]) == from_flag


def assert_timed_in_order(err):
    # one timing line per check on stderr, in index order
    indices = [int(m) for m in re.findall(r"^\[ ?(\d+)\] \d+\.\d{3} s$", err, re.M)]
    assert indices == list(range(1, 11)) and err.count("\n") == 10


def test_validate_deterministic_and_passing(capsys):
    reports = []
    for _ in range(2):
        assert main(["validate", "--tuples", "60"]) == 0
        captured = capsys.readouterr()
        assert_timed_in_order(captured.err)
        reports.append(captured.out)
    assert reports[0] == reports[1]
    assert reports[0].endswith("\nresult: PASS (10/10)\n")
    assert reports[0].count("PASS") == 11  # ten criteria plus the summary line


def test_validate_seed_changes_sweep_but_not_verdict(capsys):
    assert main(["validate", "--seed", "7", "--tuples", "60"]) == 0
    captured = capsys.readouterr()
    assert "\nseed: 7\n" in captured.out and captured.out.endswith("\nresult: PASS (10/10)\n")
    assert_timed_in_order(captured.err)


def test_validate_exits_1_on_a_failed_criterion(monkeypatch, capsys):
    # criterion 6 under a perturbation of its Mandel Q (test_acceptance.PERTURBATIONS[6]),
    # every criterion in this process
    from djcm import validate

    mandel_q = validate.mandel_q
    monkeypatch.setattr(runner, "worker_count", lambda: 1)
    monkeypatch.setattr(validate, "mandel_q", lambda amps, params: mandel_q(amps, params) + 1e-9)
    assert main(["validate", "--seed", "7", "--tuples", "60"]) == 1
    captured = capsys.readouterr()
    assert re.search(r"^\[ 6\] FAIL ", captured.out, re.M)
    assert captured.out.count("FAIL") == 2 and captured.out.endswith("\nresult: FAIL (9/10)\n")
    assert_timed_in_order(captured.err)


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing --config
    assert exc.value.code == 2


def test_figures_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "fa"
    out_b = tmp_path / "fb"
    assert main(["figures", "fig3", "--out", str(out_a)]) == 0
    assert main(["figures", "fig3", "--out", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def _three_point_sweep(tmp_path):
    return write_config(
        tmp_path,
        samples=200,
        tau_max=10.0,
        observables=["populations", "inversion"],
        svg=False,
        sweep={"axes": [["chi", [0.0, 0.1, 0.2]]]},
    )


def test_worker_cap_does_not_change_output(tmp_path, monkeypatch):
    cfg = _three_point_sweep(tmp_path)
    out_serial = tmp_path / "serial"
    out_pooled = tmp_path / "pooled"
    monkeypatch.setattr(runner, "worker_count", lambda: 1)
    assert main(["simulate", "--config", cfg, "--out", str(out_serial)]) == 0
    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    assert main(["simulate", "--config", cfg, "--out", str(out_pooled)]) == 0
    serial = tree_bytes(out_serial)
    assert len(serial) == 3 * 3 + 1
    assert serial == tree_bytes(out_pooled)


# the third point's phase error bound is ~1e285: it fails after the first two
FAILING_SWEEP = {"axes": [["chi", [0.0, 0.1, 1e300, 0.3]]]}


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_sweep_writes_nothing(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setattr(runner, "worker_count", lambda: workers)
    cfg = write_config(tmp_path, samples=50, svg=False, sweep=FAILING_SWEEP)
    fresh = tmp_path / "fresh"
    assert main(["simulate", "--config", cfg, "--out", str(fresh)]) == 2
    err = capsys.readouterr().err
    prefix = "numerical range error: sweep point chi=1e+300: sector 1 propagator: phase error bound"
    assert err.startswith(prefix) and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["run.json"]
    # an earlier sweep's tree is left as it was, point directories included
    existing = tmp_path / "existing"
    ok = write_config(tmp_path, "ok.json", samples=50, svg=False, sweep={"axes": [["chi", [0.0, 0.2]]]})
    assert main(["simulate", "--config", ok, "--out", str(existing)]) == 0
    before = tree_bytes(existing)
    assert main(["simulate", "--config", cfg, "--out", str(existing)]) == 2
    assert tree_bytes(existing) == before
    assert sorted(os.listdir(tmp_path)) == ["existing", "ok.json", "run.json"]


def test_sweep_rerun_replaces_point_directories(tmp_path):
    cfg = _three_point_sweep(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    first = tree_bytes(out)
    (out / "chi=0.1" / "stale.csv").write_text("left by an earlier run\n")
    (out / "notes.txt").write_text("kept\n")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert tree_bytes(out) == {**first, "notes.txt": b"kept\n"}
    assert sorted(os.listdir(tmp_path)) == ["out", "run.json"]


def test_sweep_point_io_error_crosses_workers(tmp_path, monkeypatch, capsys):
    # one point's write fails in its worker; the error reaches the parent
    # with its own type and the sweep writes nothing
    cfg = _three_point_sweep(tmp_path)
    write_csv = runner.write_csv

    def full_disk(path, header, columns):
        if f"{os.sep}chi=0.1{os.sep}" in path:
            raise OSError(errno.ENOSPC, "No space left on device", path)
        return write_csv(path, header, columns)

    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    monkeypatch.setattr(runner, "write_csv", full_disk)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: [Errno 28] No space left on device: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def _exit_in_worker(original):
    """original, except in a forked worker process, which it ends at once
    without raising, as a signal or the OOM killer would."""
    parent = os.getpid()

    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return original(*args, **kwargs)

    return wrapper


def test_dead_sweep_worker_exits_3(tmp_path, monkeypatch, capfd):
    cfg = _three_point_sweep(tmp_path)
    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    monkeypatch.setattr(runner, "run_simulation", _exit_in_worker(runner.run_simulation))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("worker process ended abruptly: ") and err.count("\n") == 1
    # no sweep output and no staging directory
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_dead_validate_worker_exits_3(monkeypatch, capfd):
    from djcm import validate

    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    # criterion 4's propagation
    monkeypatch.setattr(validate, "analytic_trajectory", _exit_in_worker(validate.analytic_trajectory))
    assert main(["validate", "--tuples", "10"]) == 3
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("worker process ended abruptly: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "out of memory\n"),
        (MemoryError("Unable to allocate 137. MiB"), "out of memory: Unable to allocate 137. MiB\n"),
    ],
    ids=["bare", "numpy"],
)
def test_memory_error_exits_3(monkeypatch, capsys, error, message):
    def exhausted(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "figures", exhausted)
    assert main(["figures", "fig2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_force_oracle_husimi_takes_the_analytic_route(tmp_path):
    # --force-oracle applies to the series; the all-sector grid is the same
    # stacked propagation either way, so the same bytes and the same record
    cfg = write_config(
        tmp_path, samples=50, observables=["husimi"], husimi={"resolution": 21, "tau": 25.0, "n_max": 300}
    )
    out_analytic, out_oracle = tmp_path / "analytic", tmp_path / "oracle"
    assert main(["simulate", "--config", cfg, "--out", str(out_analytic)]) == 0
    assert main(["simulate", "--config", cfg, "--force-oracle", "--out", str(out_oracle)]) == 0
    for name in ("husimi.csv", "husimi.svg"):
        assert (out_oracle / name).read_bytes() == (out_analytic / name).read_bytes()
    analytic = json.loads((out_analytic / "manifest.json").read_text())
    oracle = json.loads((out_oracle / "manifest.json").read_text())
    assert oracle["method"] == "Oracle"
    assert oracle["husimi"] == analytic["husimi"]
    assert "method" not in oracle["husimi"] and "mode" not in oracle["husimi"]
    assert 0.0 < oracle["husimi"]["phase_error_bound"] <= PHASE_ERROR_LIMIT


def test_io_error_exit_code(monkeypatch):
    assert main(["figures", "fig3", "--out", "/proc/definitely/not/writable"]) == 3


def test_husimi_manifest_quality_metrics(tmp_path):
    out = tmp_path / "hq"
    assert main(["husimi", "--t", "10", "--resolution", "21", "--out", str(out)]) == 0
    manifest = json.loads((out / "husimi_manifest.json").read_text())
    assert not {"backend", "method", "mode"} & set(manifest)
    assert manifest["norm_drift_max"] <= 1e-9
    assert 0.0 < manifest["phase_error_bound"] <= PHASE_ERROR_LIMIT


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count the threads")
def test_import_starts_one_blas_thread():
    # importing djcm before NumPy sets OPENBLAS_NUM_THREADS=1, so the
    # process holds its main thread only; a value already set is kept
    probe = "import os, djcm; print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(djcm.__file__))
    for preset, expected in ((None, ["1", "1"]), ("2", ["2"])):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[: len(expected)] == expected


def test_cli_import_leaves_pool_and_validate_unloaded():
    # runner.parallel_map and cli._cmd_validate import these late, so every
    # command's start-up skips them
    probe = (
        "import sys, djcm.cli; "
        "print(*sorted({'concurrent.futures', 'multiprocessing', 'djcm.validate'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(djcm.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_run_freezes_the_heap_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3
    assert calls == ["freeze", "main"]


def test_frozen_entry_writes_the_in_process_tree(tmp_path):
    # main() called in-process freezes nothing; python -m djcm.cli enters
    # through run(), which does, and writes the same figure tree
    frozen = gc.get_freeze_count()
    assert main(["figures", "fig8", "--out", str(tmp_path / "in_process")]) == 0
    assert gc.get_freeze_count() == frozen
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(djcm.__file__)))
    argv = ["figures", "fig8", "--out", str(tmp_path / "entry")]
    proc = subprocess.run(
        [sys.executable, "-m", "djcm.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert tree_bytes(tmp_path / "entry") == tree_bytes(tmp_path / "in_process")
