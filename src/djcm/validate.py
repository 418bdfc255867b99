"""Property-based validation suite.

Ten checks cover the engine end to end: cross-method equivalence of the
analytic and ODE routes, norm conservation, spectral structure of the
characteristic cubic over random parameter tuples, the hand-integrable
closed-form limit, the entropy identity, Fock-sector statistics,
Husimi normalization, vanishing anomalous moments, figure-panel shape,
and byte-level determinism of this very report.

theta_poly, the characteristic cubic det(zI + iK) of a sector, serves
criterion 3 only: the engine takes its roots from the eigenvalues of K.

Criteria 1-9 run twice, both passes in one runner.parallel_map of 16 jobs
over one worker process per CPU (`taskset -c 0`: serially in this
process), in index order; criterion 10 compares the two passes' report
lines.  Each job is a generator that yields its criteria's results; criteria
1 and 2 share one, which solves each figure row once along both routes over
tau <= 60: criterion 1 compares the routes, criterion 2 reads their norm
drift.

The formatted report contains only deterministic numbers (same seed =>
identical bytes); wall-clock timings, measured inside the process that
runs each job, are carried on the result objects and printed to stderr by
the CLI, never into the report.  Each criterion's time runs from the
previous result of its job, or from the job's start.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dynamics import EXCITED, analytic_trajectory, norm_drift, sector_generator, solve_sector
from .figures import ROWS, run_figure, row_params
from .model import Kerr, ModelParams, SectorCoefficients, sector_coefficients
from .observables import (
    field_moments,
    g2_zero,
    husimi_q,
    mandel_q,
    populations,
    reduced_density,
    squeezing_params,
    trajectory_series,
    von_neumann_entropy,
)
from .runner import parallel_map

__all__ = ["theta_poly", "CriterionResult", "DEFAULT_SEED", "DEFAULT_TUPLES", "MAX_TUPLES", "run_all", "format_report"]

DEFAULT_SEED = 20250810
DEFAULT_TUPLES = 1000
# criterion 3 costs ~24 us and ~0.8 KB per tuple, and runs twice: ~5 s a pass
MAX_TUPLES = 100_000

LN2 = math.log(2.0)

# thresholds of the figure-shape check, frozen from the first verified engine
# run: the Kerr shift detunes rows 2-3, which exchange less population than
# row 1; row 2's max P3 is 0.038, against 0.39-0.40 with no coupling or drive
FIG2_SHAPE_THRESHOLDS = {
    "row2": {"p2_min_below": 0.65, "p3_max_above": 0.03, "p3_max_below": 0.1},
    "row3": {"p2_min_below": 0.55, "p3_max_above": 0.25},
}


def theta_poly(coeffs: SectorCoefficients) -> tuple[complex, complex, complex]:
    """Characteristic cubic det(zI + iK) = z^3 + a2*z^2 + a1*z + a0 of the
    sector's Laplace matrix, as its coefficients (a2, a1, a0).

    a2 = -i(h + s) and a0 are purely imaginary, a1 is purely real; under
    z -> i*lambda the cubic becomes real, so all roots are purely
    imaginary for physical inputs.
    """
    h, s = coeffs.h, coeffs.s
    v1, v2, omega_e = coeffs.v1, coeffs.v2, coeffs.omega_e
    a2 = -1j * (h + s)
    a1 = complex(omega_e * omega_e + v1 * v1 + v2 * v2 - s * h)
    a0 = -1j * (2.0 * omega_e * v1 * v2 + v1 * v1 * s + v2 * v2 * h)
    return a2, a1, a0


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    elapsed: float = 0.0


def _c1_c2_reference_rows() -> Iterator[CriterionResult]:
    """Criteria 1 and 2 from one analytic and one oracle solve of each figure
    row over tau <= 60 (2000 samples): criterion 1 compares the two routes,
    criterion 2 reads both routes' norm drift."""
    solved = []
    for params in map(row_params, ROWS):
        t = np.linspace(0.0, 60.0, 2000) / params.omega_cavity
        solved.append([solve_sector(params, t, method=method).amplitudes for method in ("analytic", "oracle")])
    diffs = [float(np.max(np.abs(ana - orc))) for ana, orc in solved]
    worst = max(diffs)
    details = "max|analytic-oracle| = {:.3e} (tol 1e-06; rows {})".format(
        worst, "/".join(f"{d:.3e}" for d in diffs)
    )
    yield CriterionResult(1, "cross-method equivalence", worst <= 1e-6, details)
    drift = max(norm_drift(amps) for pair in solved for amps in pair)
    details = f"max||c|^2 - 1| = {drift:.3e} (tol 1e-09, both methods, tau <= 60)"
    yield CriterionResult(2, "norm conservation", drift <= 1e-9, details)


def _c3_spectral_structure(seed: int, tuples: int) -> Iterator[CriterionResult]:
    rng = np.random.default_rng(seed)
    generators, polys = [], []
    for _ in range(tuples):
        while True:
            w = sorted(rng.random(3).tolist())
            if w[0] < w[1] < w[2]:
                break
        params = ModelParams(
            omega_cavity=rng.random(),
            omega_levels=tuple(w),
            g1=0.2 * rng.random(),
            g2=0.2 * rng.random(),
            omega_e=0.2 * rng.random(),
            deformation=Kerr(0.5 * rng.random()),
            sector_n=int(rng.integers(0, 6)),
        )
        coeffs = sector_coefficients(params)
        generators.append(sector_generator(coeffs))
        polys.append(theta_poly(coeffs))
    a2, a1, a0 = np.array(polys).T[:, :, None]
    # the propagator's spectrum alpha = -i lambda against Theta
    alpha = -1j * np.linalg.eigh(np.stack(generators))[0]
    theta = ((alpha + a2) * alpha + a1) * alpha + a0
    max_residual = float(np.max(np.abs(theta) / np.maximum(1.0, np.abs(alpha) ** 3)))
    a, b, c = alpha.T
    e_sum, e_pair, e_prod = -a2[:, 0], a1[:, 0], -a0[:, 0]
    max_vieta = float(
        max(
            np.max(np.abs(a + b + c - e_sum) / np.maximum(1.0, np.abs(e_sum))),
            np.max(np.abs(a * b + a * c + b * c - e_pair) / np.maximum(1.0, np.abs(e_pair))),
            np.max(np.abs(a * b * c - e_prod) / np.maximum(1.0, np.abs(e_prod))),
        )
    )
    # reality of Theta's roots from a solver that does not assume a
    # symmetric generator: eigenvalues of the companion matrices
    companion = np.zeros((tuples, 3, 3), dtype=np.complex128)
    companion[:, 0, :] = -np.concatenate([a2, a1, a0], axis=1)
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    z = np.linalg.eigvals(companion)
    max_reality = float(np.max(np.abs(z.real) / np.maximum(1.0, np.abs(z.imag))))
    passed = max_reality <= 1e-10 and max_vieta <= 1e-12 and max_residual <= 1e-12
    details = (
        f"max|Re alpha|/scale = {max_reality:.3e}, vieta = {max_vieta:.3e}, "
        f"|Theta(alpha)|/scale = {max_residual:.3e}, over {tuples} tuples"
    )
    yield CriterionResult(3, "spectral structure", passed, details)


def _c4_closed_form_limit() -> Iterator[CriterionResult]:
    coeffs = SectorCoefficients(
        h=0.0, s=0.0, nu=0.0, v1=0.04 * math.sqrt(2.0), v2=0.06 * math.sqrt(2.0), omega_e=0.0, n=1
    )
    tau = np.linspace(0.0, 40.0, 2000)
    t = tau / 0.2
    traj = analytic_trajectory(coeffs, EXCITED, t)
    big_v = math.hypot(coeffs.v1, coeffs.v2)
    ref = np.stack(
        [
            -1j * (coeffs.v2 / big_v) * np.sin(big_v * t),
            1.0 - (coeffs.v2**2 / big_v**2) * (1.0 - np.cos(big_v * t)),
            -(coeffs.v1 * coeffs.v2 / big_v**2) * (1.0 - np.cos(big_v * t)),
        ],
        axis=1,
    )
    worst = float(np.max(np.abs(traj.amplitudes - ref)))
    details = f"max|analytic - two-coupling closed form| = {worst:.3e} (tol 1e-09, tau <= 40)"
    yield CriterionResult(4, "closed-form limit", worst <= 1e-9, details)


def _c5_entropy_identity() -> Iterator[CriterionResult]:
    worst_dev = 0.0
    s_min, s_max = math.inf, -math.inf
    for params in map(row_params, ROWS):
        tau = np.linspace(0.0, 50.0, 2000)
        traj = solve_sector(params, tau / params.omega_cavity)
        series = trajectory_series(traj, "entropy", params)[0].values
        # eigen-decomposition route on every sample's reduced density matrix
        s_eig = von_neumann_entropy(reduced_density(traj.amplitudes))
        worst_dev = max(worst_dev, float(np.max(np.abs(series - s_eig))))
        s_min = min(s_min, float(np.min(s_eig)))
        s_max = max(s_max, float(np.max(s_eig)))
    passed = worst_dev <= 1e-10 and s_min >= -1e-12 and s_max <= LN2 + 1e-12
    details = (
        f"max|S - h2(P1)| = {worst_dev:.3e} (tol 1e-10), range [{s_min:.3e}, {s_max:.6f}] in [0, ln 2]"
    )
    yield CriterionResult(5, "entropy identity", passed, details)


def _c6_fock_statistics() -> Iterator[CriterionResult]:
    worst_q = 0.0
    g2_values = []
    for row in (ROWS[0], ROWS[1]):  # chi = 0 and chi = 0.2
        params = row_params(row)
        amps = solve_sector(params, np.array([0.0])).amplitudes[0]
        g2_values.append(g2_zero(amps, params))
        worst_q = max(worst_q, abs(mandel_q(amps, params) + 1.0))
    exact_zero = all(v == 0.0 for v in g2_values)
    passed = exact_zero and worst_q <= 1e-12
    details = (
        f"g2(0) = {'/'.join(str(v) for v in g2_values)} (exact 0 required), "
        f"max|Q + 1| = {worst_q:.3e} (tol 1e-12)"
    )
    yield CriterionResult(6, "Fock-sector statistics at t=0", passed, details)


def _trapezoid_2d(values: np.ndarray, axis: np.ndarray) -> float:
    w = np.full(axis.size, axis[1] - axis[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w @ values @ w)


def _c7_husimi_normalization() -> Iterator[CriterionResult]:
    integrals = []
    min_value = math.inf
    for row in (ROWS[0], ROWS[1]):
        params = row_params(row)
        for tau in (0.0, 10.0, 25.0):
            grid = husimi_q(params, tau / params.omega_cavity, 6.0, 241)
            integrals.append(_trapezoid_2d(grid.values, grid.axis))
            min_value = min(min_value, float(np.min(grid.values)))
    passed = all(abs(v - 1.0) <= 0.01 for v in integrals) and min_value >= 0.0
    details = "integrals {} (tol 1 +- 0.01), min value = {:.1e}".format(
        "/".join(f"{v:.6f}" for v in integrals), min_value
    )
    yield CriterionResult(7, "Husimi normalization", passed, details)


def _ladder_matrix(params: ModelParams) -> np.ndarray:
    """A = a f(N) on photon numbers 0..n+1 of sector n: A[m - 1, m] = sqrt(m) f(m)."""
    return np.diag([math.sqrt(m) * params.deformation.f(m) for m in range(1, params.sector_n + 2)], k=1)


def _relative_error(values, reference) -> float:
    return float(np.max(np.abs(values - reference) / np.maximum(1.0, np.abs(reference))))


def _c8_moment_vanishing() -> Iterator[CriterionResult]:
    """On each reference row, <A>, <A^2>, <A^4> read off the ladder matrix vanish,
    and field_moments and squeezing_params (in its full forms) match it.  Each
    ket pairs its own atomic level with one photon number, so for any photon
    operator op, <op> = P1 op[n+1, n+1] + (P2 + P3) op[n, n].  The <A^k> check
    is structural: A^k has a zero diagonal, so it reads an exact 0, as would
    psi @ op over the embedded state.  Only the moment and squeezing checks fail."""
    worst_anomalous = worst_moments = worst_squeezing = 0.0
    for params in map(row_params, ROWS):
        amps = solve_sector(params, np.linspace(0.0, 50.0, 2000) / params.omega_cavity).amplitudes
        probs, n, lower = populations(amps), params.sector_n, _ladder_matrix(params)

        def expect(op):
            return probs[:, 0] * op[n + 1, n + 1] + (probs[:, 1] + probs[:, 2]) * op[n, n]

        a1, a2, a4 = (expect(np.linalg.matrix_power(lower, k)) for k in (1, 2, 4))
        m1, m2 = (expect(np.linalg.matrix_power(lower.T @ lower, k)) for k in (1, 2))
        worst_anomalous = max(worst_anomalous, *(float(np.max(np.abs(a))) for a in (a1, a2, a4)))
        worst_moments = max(worst_moments, *map(_relative_error, field_moments(amps, params), (m1, m2)))
        # s1 from (<A>, <A^2>), s2 from (<A^2>, <A^4>): s_x, s_p = base +- Re(b + b* - a^2 - a*^2) - 2 a a*
        full = []
        for base, a, b in ((2.0 * m1, a1, a2), (2.0 * m2 - 2.0 * m1, a2, a4)):
            anomalous = (b + np.conj(b) - a**2 - np.conj(a) ** 2).real
            cross = 2.0 * (a * np.conj(a)).real
            full += [base + anomalous - cross, base - anomalous - cross]
        worst_squeezing = max(worst_squeezing, *map(_relative_error, squeezing_params(amps, params), full))
    passed = worst_anomalous <= 1e-14 and worst_moments <= 1e-13 and worst_squeezing <= 1e-13
    details = (
        f"max|<A^k>| = {worst_anomalous:.1e} (tol 1e-14), moments {worst_moments:.1e}, "
        f"squeezing {worst_squeezing:.1e} against the ladder matrix (tol 1e-13)"
    )
    yield CriterionResult(8, "anomalous-moment vanishing", passed, details)


def _read_csv_column(path: str, column: str) -> np.ndarray:
    with open(path) as fh:
        index = fh.readline().rstrip("\n").split(",").index(column)
        return np.loadtxt(fh, delimiter=",", usecols=index, ndmin=1)


def _c9_figure_shape() -> Iterator[CriterionResult]:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_figure("fig2", tmp)
        names = [p["name"] for p in manifest["panels"]]
        ok = len(names) == 9
        # one read per panel; fig2e/f hold P2/P3 of row 2, fig2h/i those of row 3
        columns = {
            panel["name"]: _read_csv_column(os.path.join(tmp, panel["name"] + ".csv"), panel["observable"])
            for panel in manifest["panels"]
        }
    all_bounded = all(-1e-12 <= v.min() and v.max() <= 1.0 + 1e-12 for v in columns.values())
    p2_row2, p3_row2 = columns["fig2e"], columns["fig2f"]
    p2_row3, p3_row3 = columns["fig2h"], columns["fig2i"]
    thr2 = FIG2_SHAPE_THRESHOLDS["row2"]
    thr3 = FIG2_SHAPE_THRESHOLDS["row3"]
    exchange = (
        p2_row2.min() < thr2["p2_min_below"]
        and thr2["p3_max_above"] < p3_row2.max() < thr2["p3_max_below"]
        and p2_row3.min() < thr3["p2_min_below"]
        and p3_row3.max() > thr3["p3_max_above"]
    )
    passed = ok and all_bounded and exchange
    details = (
        f"panels = {len(names)}/9, P in [0,1]: {'yes' if all_bounded else 'NO'}, "
        f"row2 minP2/maxP3 = {p2_row2.min():.4f}/{p3_row2.max():.4f}, "
        f"row3 = {p2_row3.min():.4f}/{p3_row3.max():.4f}"
    )
    yield CriterionResult(9, "figure-shape reproduction", passed, details)


def _timed_job(job: tuple) -> tuple[CriterionResult, ...]:
    """Run one job's criterion generator; each result's elapsed time runs
    from the previous result, or from the job's start."""
    criterion, *args = job
    results = []
    t0 = time.perf_counter()
    for result in criterion(*args):
        t1 = time.perf_counter()
        result.elapsed, t0 = t1 - t0, t1
        results.append(result)
    return tuple(results)


def _format_line(result: CriterionResult) -> str:
    flag = "PASS" if result.passed else "FAIL"
    return f"[{result.index:2d}] {flag}  {result.name:<34s} {result.details}"


def run_all(seed: int = DEFAULT_SEED, tuples: int = DEFAULT_TUPLES) -> list[CriterionResult]:
    """Run every criterion; the tenth demands that a second run of the first
    nine gives a byte-identical body.  Both runs of criteria 1-9 go to one
    runner.parallel_map as 16 jobs (criteria 1 and 2 share one), each timed
    inside the process that runs it; the tenth's time is the sum of the
    second run's nine."""
    jobs = [
        (_c1_c2_reference_rows,),
        (_c3_spectral_structure, seed, tuples),
        (_c4_closed_form_limit,),
        (_c5_entropy_identity,),
        (_c6_fock_statistics,),
        (_c7_husimi_normalization,),
        (_c8_moment_vanishing,),
        (_c9_figure_shape,),
    ]
    both = [r for out in parallel_map(_timed_job, jobs + jobs) for r in out]
    results, rerun = both[:9], both[9:]
    same = [_format_line(r) for r in results] == [_format_line(r) for r in rerun]
    details = "criteria 1-9 reproduce byte-identically on re-run" if same else "MISMATCH between repeated runs"
    results.append(CriterionResult(10, "determinism", same, details, sum(r.elapsed for r in rerun)))
    return results


def format_report(results: list[CriterionResult], seed: int, tuples: int) -> str:
    lines = [
        "djcm validation report",
        f"version: {__version__}",
        f"seed: {seed}",
        f"tuples: {tuples}",
        "",
    ]
    lines += [_format_line(r) for r in results]
    n_pass = sum(r.passed for r in results)
    overall = "PASS" if n_pass == len(results) else "FAIL"
    lines += ["", f"result: {overall} ({n_pass}/{len(results)})"]
    return "\n".join(lines) + "\n"
