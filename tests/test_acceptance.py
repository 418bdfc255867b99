"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria are implemented in djcm.validate (the `djcm validate`
command runs the same code); the tests here assert the verdicts at the
stated tolerances and enforce the runtime budgets.
"""

import time

import numpy as np
import pytest

from djcm import runner, validate
from djcm.cli import main
from djcm.observables import husimi_q
from djcm.validate import (
    DEFAULT_SEED,
    _c1_cross_method,
    _c2_norm_conservation,
    _c3_spectral_structure,
    _c4_closed_form_limit,
    _c5_entropy_identity,
    _c6_fock_statistics,
    _c7_husimi_normalization,
    _c8_moment_vanishing,
    _c9_figure_shape,
    _format_line,
    _timed,
    format_report,
    run_all,
)


def report(result):
    print("ACCEPTANCE " + _format_line(result))


def test_criterion_01_cross_method_equivalence():
    result = _timed(_c1_cross_method)
    report(result)
    assert result.passed, result.details
    assert result.elapsed < 5.0  # stated runtime budget


def test_criterion_02_norm_conservation():
    result = _c2_norm_conservation()
    report(result)
    assert result.passed, result.details


def test_criterion_03_spectral_structure():
    result = _timed(_c3_spectral_structure, DEFAULT_SEED, 1000)
    report(result)
    assert result.passed, result.details
    assert result.elapsed < 2.0  # stated runtime budget
    assert "over 1000 tuples" in result.details  # every tuple is checked, none skipped


def test_criterion_04_closed_form_limit():
    result = _c4_closed_form_limit()
    report(result)
    assert result.passed, result.details


def test_criterion_05_entropy_identity():
    result = _c5_entropy_identity()
    report(result)
    assert result.passed, result.details


def test_criterion_06_fock_sector_statistics():
    result = _c6_fock_statistics()
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
    result = _c7_husimi_normalization()
    report(result)
    assert result.passed, result.details
    assert len(grid_seconds) == 6 and max(grid_seconds) < 3.0  # stated per-grid budget


def test_criterion_08_moment_vanishing():
    result = _c8_moment_vanishing()
    report(result)
    assert result.passed, result.details


def test_criterion_09_figure_shape():
    result = _c9_figure_shape()
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


def test_criterion_error_crosses_workers(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("criterion 4 failed on purpose")

    monkeypatch.setattr(runner, "worker_count", lambda: 2)
    monkeypatch.setattr(validate, "analytic_trajectory", fail)
    with pytest.raises(ValueError, match="criterion 4 failed on purpose") as caught:
        run_all(123, 200)
    # raised in a worker: the pool attaches the worker's traceback as the cause
    assert type(caught.value.__cause__).__name__ == "_RemoteTraceback"
