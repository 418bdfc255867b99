import json

import pytest

from djcm.config import (
    MAX_CSV_CELLS,
    MAX_HUSIMI_N_MAX,
    ConfigError,
    HusimiRequest,
    RunConfig,
    load_config_file,
    run_config_from_dict,
    sweep_from_dict,
)
from djcm.model import Kerr

BASE_DOC = {
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


def doc(**overrides):
    merged = json.loads(json.dumps(BASE_DOC))
    merged.update(overrides)
    return merged


def test_minimal_config_defaults():
    cfg = run_config_from_dict(doc())
    assert cfg.params.deformation == Kerr(0.0)
    assert cfg.samples == 2000
    assert cfg.method == "analytic"
    assert "populations" in cfg.observables
    assert "husimi" not in cfg.observables
    assert cfg.ic.c2 == 1.0 + 0j


def test_chi_selects_kerr():
    d = doc()
    d["params"]["chi"] = 0.2
    cfg = run_config_from_dict(d)
    assert isinstance(cfg.params.deformation, Kerr)
    assert cfg.params.deformation.chi == 0.2


def test_force_oracle_flag():
    assert run_config_from_dict(doc(), force_oracle=True).method == "oracle"


def test_ic_parsing_pairs():
    cfg = run_config_from_dict(doc(ic=[[0.0, 0.6], 0.8, [0.0, 0.0]]))
    assert cfg.ic.c1 == 0.6j
    assert cfg.ic.c2 == 0.8 + 0j


def test_ic_norm_validation():
    with pytest.raises(ConfigError, match="ic"):
        run_config_from_dict(doc(ic=[1.0, 1.0, 0.0]))


def test_unknown_observable_is_named():
    with pytest.raises(ConfigError, match="observables"):
        run_config_from_dict(doc(observables=["populations", "wigner"]))


@pytest.mark.parametrize("observables", (["inversion", "inversion"], ["populations", "husimi", "g2", "husimi"]))
def test_duplicate_observable_is_named(observables):
    with pytest.raises(ConfigError, match=f"observables: '{observables[-1]}' is listed more than once"):
        run_config_from_dict(doc(observables=observables))


def test_tau_max_and_samples_bounds():
    with pytest.raises(ConfigError, match="tau_max"):
        run_config_from_dict(doc(tau_max=0.0))
    with pytest.raises(ConfigError, match="samples"):
        run_config_from_dict(doc(samples=1))


def test_missing_required_field_is_named():
    bad = doc()
    del bad["params"]["omega_cavity"]
    with pytest.raises(ConfigError, match="omega_cavity"):
        run_config_from_dict(bad)


def test_level_ordering_reported_as_config_error():
    bad = doc()
    bad["params"]["omega_levels"] = [0.5, 0.4, 0.3]
    with pytest.raises(ConfigError, match="params"):
        run_config_from_dict(bad)


def test_zero_cavity_frequency_rejected():
    bad = doc()
    bad["params"]["omega_cavity"] = 0.0
    with pytest.raises(ConfigError, match="omega_cavity"):
        run_config_from_dict(bad)
    bad["params"]["omega_cavity"] = -0.2
    with pytest.raises(ConfigError, match="^params: omega_cavity must be >= 0$"):
        run_config_from_dict(bad)


def test_non_finite_numbers_are_rejected():
    with pytest.raises(ConfigError, match="tau_max: expected a finite number"):
        run_config_from_dict(doc(tau_max=float("inf")))
    bad = doc()
    bad["params"]["g1"] = float("nan")
    with pytest.raises(ConfigError, match="params.g1: expected a finite number"):
        run_config_from_dict(bad)
    base = run_config_from_dict(doc())
    with pytest.raises(ConfigError, match=r"sweep.axes\[1\]: expected a finite number"):
        sweep_from_dict(doc(sweep={"axes": [["chi", [0.0]], ["omega_e", [0.04, float("inf")]]]}), base)


def test_husimi_section_validation():
    cfg = run_config_from_dict(doc(husimi={"range": 4.0, "resolution": 61, "tau": 10.0}))
    assert cfg.husimi == HusimiRequest(tau=10.0, range=4.0, resolution=61)
    # a request without tau takes tau_max, once, at construction
    assert run_config_from_dict(doc(tau_max=20.0)).husimi == HusimiRequest(tau=20.0)
    with pytest.raises(ConfigError, match="resolution"):
        run_config_from_dict(doc(husimi={"resolution": 1}))


@pytest.mark.parametrize(
    "husimi, message",
    [
        ({"n_max": -1}, "husimi.n_max must be >= 0, got -1"),
        ({"range": 0}, "husimi.range must be finite and > 0, got 0.0"),
        ({"range": -2}, "husimi.range must be finite and > 0, got -2.0"),
        ({"tau": -1}, "husimi.tau must be finite and >= 0, got -1.0"),
        ({"resolution": 1}, "husimi.resolution must be >= 2, got 1"),
        ({"n_max": MAX_HUSIMI_N_MAX + 1}, "husimi.n_max must be <= 10000, got 10001"),
    ],
)
def test_husimi_fields_follow_the_flag_rules(husimi, message):
    with pytest.raises(ConfigError) as info:
        run_config_from_dict(doc(husimi=husimi))
    assert str(info.value) == message


def test_husimi_sector_limit_is_inclusive():
    # the benchmark's all-sector sum (n_max 342) sits far inside the limit
    assert run_config_from_dict(doc(husimi={"n_max": MAX_HUSIMI_N_MAX})).husimi.n_max == MAX_HUSIMI_N_MAX


def test_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "params": [,]\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config_file(str(path))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc()))
    cfg = run_config_from_dict(load_config_file(str(path)))
    assert isinstance(cfg, RunConfig)
    echo = cfg.echo()
    assert echo["params"]["omega_levels"] == [0.3, 0.4, 0.5]
    assert echo["samples"] == 2000


def test_sweep_expansion():
    base = run_config_from_dict(doc())
    points = sweep_from_dict(doc(sweep={"axes": [["chi", [0.0, 0.2]], ["omega_e", [0.04, 0.08]]]}), base)
    assert len(points) == 4
    labels = [label for label, _ in points]
    assert labels == ["chi=0_omega_e=0.04", "chi=0_omega_e=0.08", "chi=0.2_omega_e=0.04", "chi=0.2_omega_e=0.08"]
    assert isinstance(points[2][1].params.deformation, Kerr)
    assert points[1][1].params.omega_e == 0.08


@pytest.mark.parametrize(
    "axes, label",
    [
        ([["chi", [0, 0.0, 0.1, 0.1000001]]], "chi=0"),
        ([["chi", [0.1, 0.1000001]]], "chi=0.1"),
        ([["g1", [0.04]], ["sector_n", [1, 2, 1]]], "g1=0.04_sector_n=1"),
    ],
)
def test_sweep_points_that_share_a_label_are_rejected(axes, label):
    # a label prints each value with %g, so these points would share an output directory
    base = run_config_from_dict(doc())
    with pytest.raises(ConfigError, match=f"two points share the label '{label}'"):
        sweep_from_dict(doc(sweep={"axes": axes}), base)


def test_sweep_axis_validation():
    base = run_config_from_dict(doc())
    with pytest.raises(ConfigError, match="sweep.axes"):
        sweep_from_dict(doc(sweep={"axes": [["coupling", [0.1]]]}), base)
    with pytest.raises(ConfigError, match="sweep"):
        sweep_from_dict(doc(sweep={"axes": [["g1", []]]}), base)


def test_sweep_cartesian_guard():
    base = run_config_from_dict(doc())
    axes = [["g1", list(range(1, 101))], ["g2", list(range(1, 102))]]
    with pytest.raises(ConfigError, match="limit"):
        sweep_from_dict(doc(sweep={"axes": axes}), base)


def test_sweep_absent_returns_none():
    base = run_config_from_dict(doc())
    assert sweep_from_dict(doc(), base) is None


@pytest.mark.parametrize(
    "sector_n, ic, observables, undefined",
    [
        (0, None, None, "g2"),  # the default observables hold both; g2 comes first
        (0, None, ["populations", "mandel_q"], "mandel_q"),
        (0, [0, 0.6, 0.8], ["g2"], "g2"),
        (0, None, ["populations", "inversion", "entropy", "squeezing"], None),
        (0, [1, 0, 0], None, None),  # <A+A> = 1 at tau = 0
        (1, None, None, None),
        # |ic[0]|^2 underflows to 0: P1 = 0 at tau = 0, as the run computes it
        (0, [1e-170, 1, 0], ["populations", "g2"], "g2"),
        (0, [5e-324, 1, 0], ["mandel_q"], "mandel_q"),
    ],
)
def test_intensity_observables_need_photons_at_tau_0(sector_n, ic, observables, undefined):
    params = dict(BASE_DOC["params"], sector_n=sector_n)
    fields = {"params": params}
    if ic is not None:
        fields["ic"] = ic
    if observables is not None:
        fields["observables"] = observables
    cfg = run_config_from_dict(doc(**fields))  # construction accepts every case
    if undefined is None:
        cfg.check_intensity_observables()
    else:
        with pytest.raises(ConfigError, match=f"observables: {undefined} is undefined for sector_n 0"):
            cfg.check_intensity_observables()


def test_sweep_through_vacuum_sector_fails_in_expand():
    base = run_config_from_dict(doc())
    with pytest.raises(ConfigError, match="observables: g2 is undefined for sector_n 0"):
        sweep_from_dict(doc(sweep={"axes": [["chi", [0.0, 0.2]], ["sector_n", [2, 0]]]}), base)
    # a sweep that leaves the vacuum sector out expands from a vacuum base
    vacuum_base = run_config_from_dict(doc(params=dict(BASE_DOC["params"], sector_n=0)))
    points = sweep_from_dict(doc(sweep={"axes": [["sector_n", [1, 2]]]}), vacuum_base)
    assert [label for label, _ in points] == ["sector_n=1", "sector_n=2"]


def test_output_budget_estimate():
    # samples x (tau + the series columns) per series file, x, y, q per Husimi point
    cfg = run_config_from_dict(doc())
    assert cfg.csv_cells() == 2000 * (4 + 2 + 2 + 2 + 2 + 5)
    cfg = run_config_from_dict(doc(samples=10, observables=["inversion", "husimi"], husimi={"resolution": 11}))
    assert cfg.csv_cells() == 10 * 2 + 3 * 11 * 11
    # the estimate alone rejects a run; nothing of that size is allocated
    with pytest.raises(ConfigError, match="output budget: the run would write 1700000000 CSV cells"):
        run_config_from_dict(doc(samples=100_000_000))
    limit = MAX_CSV_CELLS // 2
    assert run_config_from_dict(doc(samples=limit, observables=["inversion"])).csv_cells() == MAX_CSV_CELLS
    with pytest.raises(ConfigError, match="output budget"):
        run_config_from_dict(doc(samples=limit + 1, observables=["inversion"]))
    with pytest.raises(ConfigError, match="output budget: husimi.resolution 5000 would write 75000000"):
        run_config_from_dict(doc(husimi={"resolution": 5000}))


def test_output_budget_counts_sweep_points():
    base = run_config_from_dict(doc(samples=2000))  # 34 000 cells per point
    axes = [["g1", [0.01 * k for k in range(1, 37)]], ["g2", [0.01 * k for k in range(1, 41)]]]
    assert len(sweep_from_dict(doc(sweep={"axes": axes}), base)) == 1440  # 48 960 000 cells
    axes[0][1] = [0.001 * k for k in range(1, 61)]
    with pytest.raises(ConfigError, match="output budget: the sweep's 2400 points would write 81600000"):
        sweep_from_dict(doc(sweep={"axes": axes}), base)
