"""Shared machinery for CLI runs: trajectory execution, file emission,
manifest assembly and the sweep's worker processes (capped by DJCM_THREADS)."""

from __future__ import annotations

import os

import numpy as np

from . import __version__
from .backend import ACTIVE
from .config import RunConfig
from .dynamics import Trajectory, solve_sector
from .observables import HusimiGrid, husimi_q, trajectory_series
from .output import write_csv, write_json, write_text
from .svgplot import heatmap_svg, line_plot_svg

__all__ = ["QUALITY_KEYS", "worker_count", "trajectory_quality", "run_simulation", "run_simulations"]

QUALITY_KEYS = (
    "method",
    "norm_drift_max",
    "root_max_residual",
    "root_min_gap",
    "ode_steps_accepted",
    "ode_steps_rejected",
)


def worker_count() -> int:
    """Sweep worker processes: the CPUs this process may run on, capped by DJCM_THREADS."""
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    cap = os.environ.get("DJCM_THREADS")
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError as exc:
            raise ValueError(f"DJCM_THREADS must be an integer, got {cap!r}") from exc
    return n


def trajectory_quality(traj: Trajectory) -> dict:
    """Per-run route and accuracy, embedded in every manifest: the route,
    the norm drift, the spectrum's residual and gap (analytic route) and
    the integrator's step counts (oracle route); null where not taken."""
    roots = traj.roots
    values = (
        traj.method,
        traj.norm_error(),
        None if roots is None else roots.max_residual,
        None if roots is None else roots.min_pairwise_gap,
        traj.steps_accepted,
        traj.steps_rejected,
    )
    return dict(zip(QUALITY_KEYS, values))


def write_husimi_files(grid: HusimiGrid, base_path: str, title: str, svg: bool) -> list[str]:
    """husimi grid -> CSV (columns x, y, q; y-major order) and optional SVG."""
    ny, nx = grid.values.shape
    xs = np.tile(grid.x_axis, ny)
    ys = np.repeat(grid.y_axis, nx)
    qs = grid.values.reshape(-1)
    files = [base_path + ".csv"]
    write_csv(base_path + ".csv", ["x", "y", "q"], [xs, ys, qs])
    if svg:
        files.append(base_path + ".svg")
        write_text(base_path + ".svg", heatmap_svg(grid.x_axis, grid.y_axis, grid.values, title=title))
    return files


def run_simulation(cfg: RunConfig, out_dir: str) -> dict:
    """Execute one RunConfig and write CSV/SVG/manifest files into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    tau = np.linspace(0.0, cfg.tau_max, cfg.samples)
    times = tau / cfg.params.omega_cavity
    traj = solve_sector(cfg.params, times, ic=cfg.ic, method=cfg.method)

    outputs = []
    husimi_meta = None
    for name in cfg.observables:
        if name == "husimi":
            tau_h = cfg.tau_max if cfg.husimi_tau is None else cfg.husimi_tau
            r = cfg.husimi_range
            grid = husimi_q(
                cfg.params,
                tau_h / cfg.params.omega_cavity,
                x_range=(-r, r),
                y_range=(-r, r),
                resolution=cfg.husimi_resolution,
                mode="single" if cfg.husimi_n_max is None else "all",
                n_max=cfg.husimi_n_max,
                ic=cfg.ic,
                method=cfg.method,
            )
            outputs += write_husimi_files(
                grid, os.path.join(out_dir, "husimi"), f"Husimi Q at tau={tau_h:g}", cfg.svg
            )
            husimi_meta = {
                "tau": tau_h,
                "range": r,
                "resolution": cfg.husimi_resolution,
                "n_max": grid.n_max,
                "mode": "single" if cfg.husimi_n_max is None else "all",
            }
            continue
        series = trajectory_series(traj, name, cfg.params)
        csv_path = os.path.join(out_dir, f"{name}.csv")
        write_csv(csv_path, ["tau"] + [s.name for s in series], [tau] + [s.values for s in series])
        outputs.append(csv_path)
        if cfg.svg:
            svg_path = os.path.join(out_dir, f"{name}.svg")
            write_text(
                svg_path,
                line_plot_svg(tau, [(s.name, s.values) for s in series], title=name, ylabel=name),
            )
            outputs.append(svg_path)

    manifest = {
        "command": "simulate",
        "version": __version__,
        "backend": ACTIVE,
        "config": cfg.echo(),
        **trajectory_quality(traj),
        "outputs": sorted(os.path.basename(f) for f in outputs),
    }
    if husimi_meta is not None:
        manifest["husimi"] = husimi_meta
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _simulate_job(job: tuple[RunConfig, str]) -> dict:
    cfg, out_dir = job
    return run_simulation(cfg, out_dir)


def run_simulations(jobs: list[tuple[RunConfig, str]]) -> list[dict]:
    """run_simulation over (RunConfig, out_dir) pairs; manifests in job order.

    Several jobs run on worker_count() worker processes: CSV formatting
    holds the interpreter lock, so threads would not overlap it.  Workers
    are forked, not spawned, so they start without re-importing NumPy;
    the CLI has started no thread of its own when it forks.  Where fork
    does not exist the jobs run one after another.
    """
    workers = min(worker_count(), len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return [run_simulation(cfg, out_dir) for cfg, out_dir in jobs]
    # imported here: the pool machinery would add to every command's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_simulate_job, jobs))
