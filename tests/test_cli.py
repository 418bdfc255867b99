import contextlib
import csv
import gc
import io
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
from djcm import cli, dynamics
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


@pytest.mark.parametrize(
    "params, flags",
    [
        (dict(omega_cavity=1e-300, g1=1e150), []),  # the phase error bound overflows
        (dict(g1=1e15, g2=1e15), ["--force-oracle"]),  # integrator step size underflows
    ],
)
def test_numerical_range_errors_exit_2(tmp_path, capsys, params, flags):
    params = dict(BASE_CONFIG["params"], **params)
    cfg = write_config(tmp_path, params=params, observables=["populations"], svg=False, samples=50)
    assert main(["simulate", "--config", cfg, *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical range error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_overflowed_constants_exit_2_on_both_routes(tmp_path):
    # the oracle used to step forever on the NaN step these constants give
    params = dict(BASE_CONFIG["params"], omega_cavity=1e300, chi=1e10, sector_n=0)
    cfg = write_config(tmp_path, params=params, observables=["populations"], svg=False, samples=50)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(djcm.__file__)))
    for flags in ([], ["--force-oracle"]):
        argv = ["simulate", "--config", cfg, *flags, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "djcm.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 2
        assert proc.stderr == "numerical range error: the constants of sector 0 overflow the floating-point range\n"


def test_oracle_step_budget_exits_2(tmp_path, capsys, monkeypatch):
    # omega_cavity 1e-6 stretches tau <= 50 to t <= 5e7, far past any step
    # budget of the oracle; the analytic route takes a fraction of a second
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
    params = dict(BASE_CONFIG["params"], omega_cavity=1e-6, g1=0.06, g2=0.08, omega_e=0.08, chi=0.2)
    cfg = write_config(tmp_path, params=params, observables=["populations"], svg=False, samples=50)
    assert main(["simulate", "--config", cfg, "--force-oracle", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical range error: sector 1 ODE oracle: used up its budget of")
    assert err.count("\n") == 1


# the fuzz test's reference document: every frequency 0.2, sector 1
ORACLE_REFERENCE = {
    "omega_cavity": 0.2,
    "omega_levels": [0.0, 0.2, 0.4],
    **{name: 0.2 for name in ("g1", "g2", "omega_e", "chi")},
    "sector_n": 1,
}


@pytest.mark.parametrize("field, value", [("g1", 1e150), ("chi", 1e300), ("omega_e", 1e150), ("omega_e", 1e300)])
def test_oracle_range_errors_name_the_oracle_and_sector(tmp_path, capsys, field, value):
    # the kernel's initial-step probe overflows (r1**2) or divides by a zero step
    params = dict(ORACLE_REFERENCE, **{field: value})
    cfg = write_config(tmp_path, params=params, tau_max=0.2, samples=2)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--force-oracle", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical range error: sector 1 ODE oracle: ") and err.count("\n") == 1
    assert not out.exists()


def test_infinite_tau_max_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, tau_max=float("inf"))
    assert "Infinity" in (tmp_path / "run.json").read_text()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "tau_max" in err and "finite" in err


def test_simulate_invalid_observable_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, observables=["populations", "wigner"])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "observables" in err and "wigner" in err


def test_simulate_duplicate_observable_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, observables=["inversion", "populations", "inversion"])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: observables: 'inversion' is listed more than once\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--config", "{cfg}"], "output budget: the run would write 1700000000 CSV cells, above the limit"),
        (["husimi", "--t", "1", "--resolution", "100000"], "output budget: --resolution 100000 would write"),
    ],
)
def test_output_budget_exits_2_before_solving(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, samples=100_000_000)
    out = tmp_path / "x"
    assert main([a.replace("{cfg}", cfg) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")
    assert not out.exists()


def test_simulate_bad_husimi_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, observables=["husimi"], husimi={"n_max": -1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: husimi.n_max must be >= 0, got -1\n"
    assert not (tmp_path / "x").exists()


def test_simulate_husimi_sector_limit_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, observables=["husimi"], husimi={"n_max": 200_000})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: husimi.n_max must be <= 10000, got 200000\n"
    assert not (tmp_path / "x").exists()


VACUUM = dict(BASE_CONFIG["params"], sector_n=0)


@pytest.mark.parametrize(
    "overrides, message",
    [
        # the entry state |2,0> has <A+A> = 0 at tau = 0: rejected before any solve
        ({"params": VACUUM}, "configuration error: observables: g2 is undefined for sector_n 0 with ic[0] = 0"),
        (
            {"sweep": {"axes": [["sector_n", [1, 0]]]}},
            "configuration error: sweep point sector_n=0: observables: g2 is undefined",
        ),
        # the series are computed, then the Husimi solve at tau = 1e300 (a finite
        # raw time) exceeds the phase error bound
        ({"observables": ["populations", "husimi"], "husimi": {"tau": 1e300}}, "numerical range error: sector 1"),
        # a sector number the engine cannot hold in a double, named before any point runs
        (
            {"params": dict(BASE_CONFIG["params"], sector_n=10**400)},
            "configuration error: params.sector_n: expected a finite number, got 1000",
        ),
        ({"sweep": {"axes": [["sector_n", [1, 10**400]]]}}, "configuration error: sweep.axes[0]: expected a finite number"),
    ],
)
def test_failed_simulate_writes_nothing(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, samples=50, **overrides)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_long_config_integer_names_its_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE_CONFIG).replace('"sector_n": 1', '"sector_n": ' + "7" * 5000))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: invalid JSON: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


def test_sweep_label_collision_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, samples=20, svg=False, sweep={"axes": [["chi", [0, 0.0, 0.1, 0.1000001]]]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: sweep.axes: two points share the label 'chi=0'; "
        "labels print each value to 6 significant digits\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "axis, message",
    [
        (["chi", [0.1, -1]], "sweep point chi=-1: Kerr constant chi must be finite and >= 0, got -1.0"),
        (["g1", [0.1, -0.5]], "sweep point g1=-0.5: g1, g2 and omega_e must be >= 0"),
        (["omega_cavity", [0.2, 0]], "sweep point omega_cavity=0: params.omega_cavity must be > 0 for the tau"),
        (["sector_n", [1, -2]], "sweep point sector_n=-2: sector_n must be a non-negative integer, got -2"),
    ],
    ids=["chi", "g1", "omega_cavity", "sector_n"],
)
def test_sweep_point_errors_name_the_point(tmp_path, capsys, axis, message):
    cfg = write_config(tmp_path, samples=20, svg=False, sweep={"axes": [axis]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["run.json"]


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


def test_g2_whose_intensity_underflows_exits_2_and_writes_nothing(tmp_path, capsys):
    # sector 0 with ic[0] = 1e-160: <A+A> = 1e-320 passes the vacuum check, and
    # its square underflows to 0, so g2 is 0/0 at tau = 0
    cfg = write_config(tmp_path, params=VACUUM, ic=[1e-160, 1, 0], samples=50, observables=["g2"])
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "numerical range error: series 'g2' contains non-finite values\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, point",
    [
        ({"params": dict(BASE_CONFIG["params"], omega_cavity=1e-320)}, ""),
        ({"params": dict(BASE_CONFIG["params"], omega_cavity=1e-300), "tau_max": 1e300}, ""),
        ({"sweep": {"axes": [["omega_cavity", [0.2, 1e-320]]]}}, "sweep point omega_cavity=9.99989e-321: "),
    ],
    ids=["subnormal-omega", "huge-tau", "sweep-point"],
)
def test_raw_time_overflow_exits_2_and_writes_nothing(tmp_path, capsys, overrides, point):
    # tau_max / omega_cavity is the last raw time; an infinite one used to
    # reach the solver and print NumPy's overflow warnings first
    cfg = write_config(tmp_path, samples=50, svg=False, **overrides)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {point}tau_max / params.omega_cavity = ") and err.count("\n") == 1
    assert not out.exists()


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
    # exit 0 with finite CSV cells, or exit 2 with one message line and no
    # output; never a traceback (an exception out of main) or a warning.
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
    # exit 0 with a finite husimi.csv, or exit 2 with one message line and
    # no output; never a traceback (an exception out of main) or a warning
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


@pytest.mark.parametrize(
    "omega_cavity, message",
    [
        (0.0, "params.omega_cavity must be > 0 for the tau = omega_cavity*t axis"),
        (1e-320, "--t / params.omega_cavity = 5.0 / 1e-320 overflows the raw time t = tau / omega_cavity"),
    ],
)
def test_husimi_config_needs_a_finite_raw_time(tmp_path, capsys, omega_cavity, message):
    cfg = write_config(tmp_path, params=dict(BASE_CONFIG["params"], omega_cavity=omega_cavity))
    out = tmp_path / "h"
    assert main(["husimi", "--t", "5", "--resolution", "3", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_simulate_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


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


def test_figures_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figures", "fig9"])


def test_husimi_command(tmp_path):
    out = tmp_path / "h"
    assert main(["husimi", "--t", "25", "--range", "3", "--resolution", "41", "--out", str(out)]) == 0
    manifest = json.loads((out / "husimi_manifest.json").read_text())
    assert "mode" not in manifest and manifest["n_max"] is None
    assert manifest["params"]["chi"] == 0.2
    header, cols = read_csv_columns(out / "husimi.csv")
    assert cols["q"].min() >= 0.0


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


@pytest.mark.parametrize("flags", [[], ["--all-sectors", "2"]])
def test_husimi_range_that_overflows_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["husimi", "--t", "1", "--range", "1e200", "--resolution", "3", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical range error: the Husimi range x (-1e+200, 1e+200)")
    assert err.count("\n") == 1
    assert not out.exists()


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


def test_husimi_validation_errors(tmp_path):
    assert main(["husimi", "--t", "-1", "--out", str(tmp_path)]) == 2
    assert main(["husimi", "--t", "1", "--resolution", "1", "--out", str(tmp_path)]) == 2
    assert main(["husimi", "--t", "1", "--range", "0", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t", "nan"], "--t must be finite and >= 0, got nan"),
        (["--t", "inf"], "--t must be finite and >= 0, got inf"),
        (["--t", "1", "--range", "nan"], "--range must be finite and > 0, got nan"),
        (["--t", "1", "--all-sectors", "-1"], "--all-sectors must be >= 0, got -1"),
        (["--t", "1", "--all-sectors", "200000"], "--all-sectors must be <= 10000, got 200000"),
    ],
)
def test_husimi_rejects_bad_flags(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["husimi", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


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


def test_validate_deterministic_and_passing(capsys):
    assert main(["validate", "--tuples", "120"]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--tuples", "120"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "result: PASS (10/10)" in first
    assert first.count("PASS") == 11  # ten criteria plus the summary line


def test_validate_seed_changes_sweep_but_not_verdict(capsys):
    assert main(["validate", "--tuples", "60", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed: 7" in out
    assert "result: PASS" in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "--seed must be >= 0, got -1"),
        ("--tuples", "0", "--tuples must be >= 1, got 0"),
        ("--tuples", "100001", "--tuples must be <= 100000, got 100001"),
    ],
)
def test_validate_rejects_out_of_range_flags(capsys, flag, value, message):
    # checked before the worker pool starts, not by NumPy's seeding
    assert main(["validate", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


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
    assert err.startswith("numerical range error: sector 1 propagator: phase error bound") and err.count("\n") == 1
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
    cfg = _three_point_sweep(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    assert main(["simulate", "--config", cfg, "--out", str(blocker / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:")
    assert "Traceback" not in err


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
