"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria are implemented in djcm.validate (the `djcm validate`
command runs the same code); the tests here assert the verdicts at the
stated tolerances and enforce the runtime budgets.
"""

import numpy as np
import pytest

from djcm.cli import main
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


def test_criterion_07_husimi_normalization():
    result = _c7_husimi_normalization()
    report(result)
    assert result.passed, result.details
    assert result.grid_seconds < 3.0  # stated per-grid budget


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
