"""The analytic route's phase error bound against 60-digit reference
populations (tests/phase_reference.py, written by
tests/make_phase_reference.py), and the gate that refuses what the bound
cannot vouch for."""

import json
import re
import sys

import numpy as np
import pytest

from djcm.cli import main
from djcm.dynamics import PHASE_ERROR_LIMIT, PhaseAccuracyError, propagate, sector_generator, solve_sector
from djcm.model import Kerr, ModelParams, sector_coefficients
from djcm.observables import husimi_q

from phase_reference import OMEGA_CAVITY, OMEGA_LEVELS, REFERENCE, SAMPLES, TAU_MAX

# A population |x|^2 with |x| <= 1 moves by at most 2|dx|, and each
# amplitude x = sum_j V_kj V_1j exp(-i lambda_j t) by at most the largest
# phase error: so the bound on the phases, doubled, bounds the populations.
POPULATION_FACTOR = 2.0

# (chi, n) -> bound of the rows that pass the gate at tau_max 50.  At chi 0.2
# K's diagonal grows as omega_cavity * chi * 3 n^2: max|lambda| ~ 1.2e7 at
# n = 10^4, and u * 1.2e7 * 250 = 3.3e-7.
PASS_GATE = {(0, 10**12): 2.0e-9, (0.2, 10**4): 3.33e-7}
PASSING = [key for key in REFERENCE if key[:2] in PASS_GATE]
GATED = [key for key in REFERENCE if key[:2] not in PASS_GATE]


def reference_params(key) -> dict:
    chi, n, g1, g2, omega_e = key
    return {
        "omega_cavity": OMEGA_CAVITY,
        "omega_levels": OMEGA_LEVELS,
        "g1": g1,
        "g2": g2,
        "omega_e": omega_e,
        "chi": chi,
        "sector_n": n,
    }


def run_reference_row(tmp_path, key):
    cfg = tmp_path / "run.json"
    doc = {
        "params": reference_params(key),
        "tau_max": TAU_MAX,
        "samples": SAMPLES,
        "observables": ["populations"],
        "svg": False,
    }
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return main(["simulate", "--config", str(cfg), "--out", str(out)]), out


@pytest.mark.parametrize("key", PASSING, ids=lambda key: f"chi={key[0]},n={key[1]:g}")
def test_bound_covers_the_reference_error(tmp_path, capsys, key):
    code, out = run_reference_row(tmp_path, key)
    assert code == 0 and capsys.readouterr().err == ""
    bound = json.loads((out / "manifest.json").read_text())["phase_error_bound"]
    assert bound == pytest.approx(PASS_GATE[key[:2]], rel=0.01)
    data = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1)
    error = np.max(np.abs(data[:, 1:] - np.array(REFERENCE[key])))
    assert error <= POPULATION_FACTOR * bound


@pytest.mark.parametrize("key", GATED, ids=lambda key: f"chi={key[0]},n={key[1]:g}")
def test_gated_rows_exit_2_and_write_nothing(tmp_path, capsys, key):
    code, out = run_reference_row(tmp_path, key)
    assert code == 2
    err = capsys.readouterr().err
    pattern = rf"numerical range error: sector {key[1]} propagator: phase error bound \S+ exceeds 1e-06\n"
    assert re.fullmatch(pattern, err)
    if key[1] == 10**6:
        assert err == "numerical range error: sector 1000000 propagator: phase error bound 0.00333 exceeds 1e-06\n"
    assert not out.exists()


@pytest.mark.parametrize("key", GATED, ids=lambda key: f"chi={key[0]},n={key[1]:g}")
def test_gated_rows_are_wrong_beyond_the_limit(key):
    # the propagator without its gate misses the reference by more than
    # validate's cross-method tolerance: the refusal withholds a wrong result
    chi, n, g1, g2, omega_e = key
    params = ModelParams(OMEGA_CAVITY, tuple(OMEGA_LEVELS), g1, g2, omega_e, Kerr(chi), n)
    lam, vec = np.linalg.eigh(sector_generator(sector_coefficients(params)))
    t = np.linspace(0.0, TAU_MAX, SAMPLES) / OMEGA_CAVITY
    x = vec @ (vec[1][:, None] * np.exp(-1j * lam[:, None] * t))
    error = np.max(np.abs(np.abs(x.T) ** 2 - np.array(REFERENCE[key])))
    assert error > PHASE_ERROR_LIMIT


def test_propagate_refuses_before_evaluating_a_phase():
    generators = np.array([[[0.0, 0.1, 0.0], [0.1, -1.0, 0.0], [0.0, 0.0, 2.0]]])
    x0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    bound, _ = propagate(generators, x0, np.array([0.0, 10.0]))
    assert bound == 2.0**-53 * float(np.max(np.abs(np.linalg.eigh(generators)[0]))) * 10.0
    # 2e300 would overflow the phase; the gate refuses first
    with pytest.raises(PhaseAccuracyError, match=r"^phase error bound 2.22e\+284 exceeds 1e-06$"):
        propagate(generators, x0, np.array([0.0, 1e300]))


def row2(n: int = 1) -> ModelParams:
    return ModelParams(0.2, (0.3, 0.4, 0.5), 0.06, 0.08, 0.04, Kerr(0.2), n)


def test_all_sector_husimi_is_gated_on_its_largest_sector():
    t = 25.0 / 0.2
    grid = husimi_q(row2(), t, 3.0, 5, n_max=40)
    bounds = [solve_sector(row2(n), np.array([0.0, t])).phase_error_bound for n in range(41)]
    assert grid.phase_error_bound == max(bounds) == bounds[-1]


def test_all_sector_husimi_beyond_the_limit_exits_2(tmp_path, capsys):
    # at the sector limit n = 10^4 the bound of row 2 passes 1e-6 from tau = 151 on
    out = tmp_path / "out"
    argv = ["husimi", "--t", "151", "--resolution", "3", "--all-sectors", "10000", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical range error: sectors 0\.\.10000 propagator: phase error bound \S+ exceeds 1e-06\n", err)
    assert not out.exists()


def test_husimi_manifest_records_the_grid_it_was_gated_on(tmp_path, monkeypatch):
    # the command solves nothing beyond the grid's own stacked propagation
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_sector(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("djcm")]:
        if getattr(module, "solve_sector", None) is solve_sector:
            monkeypatch.setattr(module, "solve_sector", counting)
    out = tmp_path / "h"
    assert main(["husimi", "--t", "10", "--resolution", "5", "--all-sectors", "5", "--out", str(out)]) == 0
    assert calls == []
    manifest = json.loads((out / "husimi_manifest.json").read_text())
    grid = husimi_q(row2(), 10.0 / 0.2, 3.0, 5, n_max=5)
    assert "method" not in manifest and manifest["n_max"] == grid.n_max == 5
    assert manifest["phase_error_bound"] == grid.phase_error_bound
    assert manifest["norm_drift_max"] == grid.norm_drift_max <= 1e-12
