"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria are implemented in djcm.validate (the `djcm validate`
command runs the same code); the tests here assert the verdicts at the
stated tolerances and enforce the runtime budgets.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from djcm import dynamics, figures, observables, runner, validate
from djcm.cli import main
from djcm.model import Kerr, ModelParams, sector_coefficients
from djcm.observables import husimi_q
from djcm.validate import (
    DEFAULT_SEED,
    _c1_c2_reference_rows,
    _c3_spectral_structure,
    _c4_closed_form_limit,
    _c5_entropy_identity,
    _c6_fock_statistics,
    _c7_husimi_normalization,
    _c8_moment_vanishing,
    _c9_figure_shape,
    _format_line,
    _timed_job,
    format_report,
    run_all,
)


def report(result):
    print("ACCEPTANCE " + _format_line(result))


def test_criterion_01_cross_method_equivalence():
    result = _timed_job((_c1_c2_reference_rows,))[0]
    report(result)
    assert result.passed, result.details
    assert result.elapsed < 5.0  # stated runtime budget


def test_criterion_02_norm_conservation():
    result = _timed_job((_c1_c2_reference_rows,))[1]
    report(result)
    assert result.passed, result.details


def test_criterion_03_spectral_structure():
    result = _timed_job((_c3_spectral_structure, DEFAULT_SEED, 1000))[0]
    report(result)
    assert result.passed, result.details
    assert result.elapsed < 2.0  # stated runtime budget
    assert "over 1000 tuples" in result.details  # every tuple is checked, none skipped


def uniform_draws(seed, tuples):
    """Criterion 3's tuples drawn with Generator.uniform and np.sort: the
    reference for its Generator.random draws."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(tuples):
        while True:
            w = np.sort(rng.uniform(0.0, 1.0, 3))
            if w[0] < w[1] < w[2]:
                break
        draws.append(
            ModelParams(
                omega_cavity=float(rng.uniform(0.0, 1.0)),
                omega_levels=(float(w[0]), float(w[1]), float(w[2])),
                g1=float(rng.uniform(0.0, 0.2)),
                g2=float(rng.uniform(0.0, 0.2)),
                omega_e=float(rng.uniform(0.0, 0.2)),
                deformation=Kerr(float(rng.uniform(0.0, 0.5))),
                sector_n=int(rng.integers(0, 6)),
            )
        )
    return draws


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_criterion_03_draws_the_uniform_tuples(monkeypatch, seed):
    drawn = []
    monkeypatch.setattr(validate, "sector_coefficients", lambda params: drawn.append(params) or sector_coefficients(params))
    next(_c3_spectral_structure(seed, 1000))
    assert drawn == uniform_draws(seed, 1000)


def test_criterion_04_closed_form_limit():
    result = next(_c4_closed_form_limit())
    report(result)
    assert result.passed, result.details


def test_criterion_05_entropy_identity():
    result = next(_c5_entropy_identity())
    report(result)
    assert result.passed, result.details


def test_criterion_06_fock_sector_statistics():
    result = next(_c6_fock_statistics())
    report(result)
    assert result.passed, result.details


def test_criterion_07_husimi_normalization(monkeypatch):
    grid_seconds = []

    def timed_husimi_q(*args):
        t0 = time.perf_counter()
        grid = husimi_q(*args)
        grid_seconds.append(time.perf_counter() - t0)
        return grid

    monkeypatch.setattr(validate, "husimi_q", timed_husimi_q)
    result = next(_c7_husimi_normalization())
    report(result)
    assert result.passed, result.details
    assert len(grid_seconds) == 6 and max(grid_seconds) < 3.0  # stated per-grid budget


def test_criterion_08_moment_vanishing():
    result = next(_c8_moment_vanishing())
    report(result)
    assert result.passed, result.details


def test_criterion_09_figure_shape():
    result = next(_c9_figure_shape())
    report(result)
    assert result.passed, result.details


def test_criterion_10_determinism_full_suite():
    results = run_all(DEFAULT_SEED, 1000)
    for result in results:
        if result.index == 10:
            report(result)
    assert all(r.passed for r in results), [r.details for r in results if not r.passed]


def test_criterion_10_cli_reports_byte_identical(capsys):
    assert main(["validate", "--seed", "123", "--tuples", "200"]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--seed", "123", "--tuples", "200"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_report_independent_of_worker_count(monkeypatch):
    # one worker runs the criteria in this process, two fork a pool
    reports = []
    for workers in (1, 2):
        monkeypatch.setattr(runner, "worker_count", lambda n=workers: n)
        results = run_all(123, 200)
        assert [r.index for r in results] == list(range(1, 11))
        reports.append(format_report(results, 123, 200))
    assert reports[0] == reports[1]
    assert reports[0].endswith("\nresult: PASS (10/10)\n")


def test_both_passes_share_one_parallel_map(monkeypatch):
    calls = []

    def spy(fn, items):
        calls.append(len(items))
        return runner.parallel_map(fn, items)

    monkeypatch.setattr(runner, "worker_count", lambda: 1)
    monkeypatch.setattr(validate, "parallel_map", spy)
    results = run_all(123, 200)
    assert calls == [16]
    assert [r.index for r in results] == list(range(1, 11)) and results[-1].passed


def test_every_check_is_timed(monkeypatch):
    # each check's time runs from the previous result of its job, or from the
    # job's start; the determinism check's is the sum of the second pass's nine
    outputs = []

    def spy(fn, items):
        outputs.extend(runner.parallel_map(fn, items))
        return outputs

    monkeypatch.setattr(runner, "worker_count", lambda: 1)
    monkeypatch.setattr(validate, "parallel_map", spy)
    results = run_all(123, 200)
    assert all(r.elapsed > 0.0 for r in results[:9])
    # check 1 holds the shared solves, check 2 only their norm reductions
    assert results[1].elapsed < results[0].elapsed
    assert results[9].elapsed == sum(r.elapsed for out in outputs[8:] for r in out)


def test_each_pass_solves_the_reference_rows_once_by_oracle(monkeypatch):
    # criteria 1 and 2 share one oracle solve per figure row: 3 rows x 2 passes
    calls = []
    ode = dynamics.amplitudes_ode

    def spy(*args):
        calls.append(args)
        return ode(*args)

    monkeypatch.setattr(runner, "worker_count", lambda: 1)
    monkeypatch.setattr(dynamics, "amplitudes_ode", spy)
    results = run_all(123, 200)
    assert len(calls) == 6
    assert all(r.passed for r in results)


def test_criterion_error_crosses_workers(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("criterion 4 failed on purpose")

    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    monkeypatch.setattr(validate, "analytic_trajectory", fail)
    with pytest.raises(ValueError, match="criterion 4 failed on purpose") as caught:
        run_all(123, 200)
    # raised in a worker: the pool attaches the worker's traceback as the cause
    assert type(caught.value.__cause__).__name__ == "_RemoteTraceback"


def _varying(criterion):
    """criterion, with details that change from one call to the next."""
    calls = itertools.count()

    def varying():
        for result in criterion():
            result.details += f" (call {next(calls)})"
            yield result

    return varying


# criterion -> (run it, module, attribute, original -> perturbed attribute):
# each perturbation is small enough to show that its criterion can fail
PERTURBATIONS = {
    # the oracle's microwave drive 1e-4 off: max|analytic - oracle| ~9e-4
    1: (
        lambda: next(_c1_c2_reference_rows()),
        dynamics,
        "amplitudes_ode",
        lambda ode: lambda coeffs, ic, grid: ode(replace(coeffs, omega_e=coeffs.omega_e * (1 + 1e-4)), ic, grid),
    ),
    # a looser oracle drifts ~2e-9 off the unit norm
    2: (lambda: _timed_job((_c1_c2_reference_rows,))[1], dynamics, "ODE_TOLERANCE", lambda tol: 1e-5),
    3: (
        lambda: next(_c3_spectral_structure(DEFAULT_SEED, 1000)),
        validate,
        "theta_poly",
        lambda theta: lambda coeffs: (*theta(coeffs)[:2], theta(coeffs)[2] + 1e-9j),
    ),
    4: (
        lambda: next(_c4_closed_form_limit()),
        validate,
        "analytic_trajectory",
        lambda analytic: lambda *args: (lambda traj: replace(traj, amplitudes=traj.amplitudes * (1 + 1e-8)))(
            analytic(*args)
        ),
    ),
    5: (
        lambda: next(_c5_entropy_identity()),
        observables,
        "entropy",
        lambda entropy: lambda amps: entropy(amps) + 1e-9,
    ),
    6: (
        lambda: next(_c6_fock_statistics()),
        validate,
        "mandel_q",
        lambda q: lambda amps, params: q(amps, params) + 1e-9,
    ),
    7: (
        lambda: next(_c7_husimi_normalization()),
        validate,
        "husimi_q",
        lambda husimi: lambda *args: (lambda grid: replace(grid, levels=grid.levels * 1.02))(husimi(*args)),
    ),
    # mean_photon_number and squeezing_params ~1e-9 and ~5e-9 off the ladder matrix
    8: (
        lambda: next(_c8_moment_vanishing()),
        observables,
        "_moment_weights",
        lambda weights: lambda params: tuple(w * (1 + 1e-9) for w in weights(params)),
    ),
    # no coupling and no drive: no population leaves |2>
    9: (
        lambda: next(_c9_figure_shape()),
        figures,
        "row_params",
        lambda row_params: lambda row: replace(row_params(row), g1=0.0, g2=0.0, omega_e=0.0),
    ),
    10: (lambda: run_all(123, 200)[-1], validate, "_c6_fock_statistics", _varying),
}


@pytest.mark.parametrize("removed", [{"g1": 0.0, "g2": 0.0}, {"omega_e": 0.0}], ids=["no-coupling", "no-drive"])
def test_criterion_09_fails_without_coupling_or_without_drive(monkeypatch, removed):
    # either alone lets |3> fill on row 2 (max P3 ~0.39), where the Kerr
    # detuning keeps it below 0.04
    row_params = figures.row_params
    monkeypatch.setattr(figures, "row_params", lambda row: replace(row_params(row), **removed))
    result = next(_c9_figure_shape())
    report(result)
    assert not result.passed, result.details


@pytest.mark.parametrize("index", sorted(PERTURBATIONS))
def test_criterion_fails_under_perturbation(monkeypatch, index):
    run, module, name, perturb = PERTURBATIONS[index]
    # one worker: every criterion runs in this process, under the perturbation
    monkeypatch.setattr(runner, "worker_count", lambda: 1)
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    result = run()
    report(result)
    assert result.index == index
    assert not result.passed, result.details
