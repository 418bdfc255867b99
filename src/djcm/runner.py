"""Shared machinery for CLI runs: trajectory execution, file emission,
manifest assembly and the worker processes that sweeps and validate share.

parallel_map(fn, items) is the one place that forks: it maps fn over items
on worker_count() worker processes and returns the results in item order.
A worker that dies without raising (killed by a signal or the OOM killer)
ends the map with WorkerDiedError.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from . import __version__
from .config import HusimiRequest, RunConfig
from .dynamics import EXCITED, InitialCondition, Trajectory, solve_sector
from .model import ModelParams
from .observables import ObservableSeries, husimi_q, trajectory_series
from .output import format_cells, write_csv, write_json, write_text
from .svgplot import heatmap_svg, line_plot_svg

__all__ = [
    "QUALITY_KEYS",
    "WorkerDiedError",
    "worker_count",
    "parallel_map",
    "time_axis",
    "trajectory_quality",
    "manifest_header",
    "write_series_panel",
    "write_husimi",
    "run_simulation",
    "run_sweep",
]

QUALITY_KEYS = (
    "method",
    "norm_drift_max",
    "phase_error_bound",
    "ode_steps_accepted",
    "ode_steps_rejected",
)


class WorkerDiedError(RuntimeError):
    """A worker process of parallel_map ended without returning or raising."""


def worker_count() -> int:
    """Worker processes of parallel_map: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn, items: list) -> list:
    """[fn(item) for item in items], on worker_count() worker processes.

    fn and the items must pickle (module-level functions, plain data); the
    results come back in item order, and the first exception that fn
    raises is raised here with its own type.  Workers are forked, not
    spawned, so they start without re-importing NumPy and see the parent's
    module state.  The CLI starts no thread of its own, and importing djcm
    sets OPENBLAS_NUM_THREADS=1 unless it is set, so the parent forks with
    its main thread alone.  With one CPU, one item, or no fork on the
    platform, the items run one after another in this process.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    # imported here: the pool machinery would add to every command's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            return list(pool.map(fn, items))
        except BrokenProcessPool as exc:
            raise WorkerDiedError(str(exc)) from exc
        except BaseException:
            # the first failed item ends the map: drop the items not yet started
            pool.shutdown(cancel_futures=True)
            raise


@lru_cache(maxsize=1)
def time_axis(tau_max: float, samples: int) -> tuple[np.ndarray, list[str]]:
    """The dimensionless time grid of a run and its CSV cells
    (format_cells), shared by every panel of the run and, through the
    cache, by every point of a sweep.  The grid is read-only; callers must
    not change the cell list."""
    tau = np.linspace(0.0, tau_max, samples)
    tau.flags.writeable = False
    return tau, format_cells(tau)


def trajectory_quality(traj: Trajectory) -> dict:
    """Per-run route and accuracy, embedded in every manifest: the route,
    the norm drift, the phase error bound (analytic route) and the
    integrator's step counts (oracle route); null where not taken."""
    values = (traj.method, traj.norm_error(), traj.phase_error_bound, traj.steps_accepted, traj.steps_rejected)
    return dict(zip(QUALITY_KEYS, values))


def manifest_header(command: str) -> dict:
    """The fields that open every manifest: the command and the library version."""
    return {"command": command, "version": __version__}


def write_series_panel(
    out_dir: str,
    name: str,
    tau: np.ndarray,
    tau_cells: list[str],
    series: list[ObservableSeries],
    svg: bool,
    title: str,
    ylabel: str = "",
) -> list[str]:
    """One panel: <name>.csv (columns tau and one per series) and, with svg,
    <name>.svg (line plot); returns the file names.  tau_cells is
    format_cells(tau), formatted once for all of a run's panels (time_axis)."""
    files = [f"{name}.csv"]
    write_csv(
        os.path.join(out_dir, files[0]), ["tau"] + [s.name for s in series], [tau_cells] + [s.values for s in series]
    )
    if svg:
        files.append(f"{name}.svg")
        svg_text = line_plot_svg(tau, [(s.name, s.values) for s in series], title=title, ylabel=ylabel)
        write_text(os.path.join(out_dir, files[1]), svg_text)
    return files


def write_husimi(
    out_dir: str,
    name: str,
    title: str,
    params: ModelParams,
    request: HusimiRequest,
    *,
    ic: InitialCondition = EXCITED,
    svg: bool = True,
) -> tuple[list[str], dict]:
    """The Husimi Q grid of request (tau set) -> <name>.csv (columns x, y,
    q; y-major order) and, with svg, <name>.svg (heatmap).  The grid always
    comes from the analytic route.  Returns the file names and the grid
    record: the request's fields (n_max null for the populated sector
    alone) and the grid's norm_drift_max and phase_error_bound
    (observables.HusimiGrid)."""
    resolution = request.resolution
    grid = husimi_q(params, request.tau / params.omega_cavity, request.range, resolution, request.n_max, ic=ic)
    files = [f"{name}.csv"]
    # y-major rows: x cycles through the axis, y repeats each entry once per x
    cells = format_cells(grid.axis)
    xs = cells * resolution
    ys = [cell for cell in cells for _ in range(resolution)]
    write_csv(os.path.join(out_dir, files[0]), ["x", "y", "q"], [xs, ys, format_cells(grid.values)])
    if svg:
        files.append(f"{name}.svg")
        write_text(os.path.join(out_dir, files[1]), heatmap_svg(grid.axis, grid.values, title=title))
    record = {**asdict(request), "norm_drift_max": grid.norm_drift_max, "phase_error_bound": grid.phase_error_bound}
    return files, record


def run_simulation(cfg: RunConfig, out_dir: str) -> dict:
    """Execute one RunConfig and write CSV/SVG/manifest files into out_dir.

    Every series and the Husimi grid are computed before the first file
    is written, so a run that fails writes nothing.
    """
    tau, tau_cells = time_axis(cfg.tau_max, cfg.samples)
    traj = solve_sector(cfg.params, tau / cfg.params.omega_cavity, ic=cfg.ic, method=cfg.method)
    panels = [(name, trajectory_series(traj, name, cfg.params)) for name in cfg.observables if name != "husimi"]
    manifest = {**manifest_header("simulate"), "config": cfg.echo(), **trajectory_quality(traj)}
    outputs = []
    if "husimi" in cfg.observables:
        title = f"Husimi Q at tau={cfg.husimi.tau:g}"
        outputs, manifest["husimi"] = write_husimi(
            out_dir, "husimi", title, cfg.params, cfg.husimi, ic=cfg.ic, svg=cfg.svg
        )
    for name, series in panels:
        outputs += write_series_panel(out_dir, name, tau, tau_cells, series, cfg.svg, title=name, ylabel=name)
    manifest["outputs"] = sorted(outputs)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _simulate_job(job: tuple[RunConfig, str]) -> dict:
    cfg, out_dir = job
    return run_simulation(cfg, out_dir)


def run_sweep(points: list[tuple[str, RunConfig]], out_dir: str) -> None:
    """Run every (label, RunConfig) sweep point and write out_dir/<label>/
    per point plus out_dir/sweep_manifest.json, all or nothing.

    The points run into a staging directory beside out_dir, on the same
    filesystem.  Only when every point has succeeded is each point
    directory moved into out_dir, replacing an existing one whole, and the
    sweep manifest written.  The staging directory is always removed.
    """
    parent = os.path.dirname(os.path.abspath(out_dir))
    while not os.path.isdir(parent):  # the nearest existing directory above out_dir
        parent = os.path.dirname(parent)
    staging = tempfile.mkdtemp(prefix=".djcm-sweep-", dir=parent)
    try:
        # the points share one time axis: format its cells before the workers fork
        time_axis(points[0][1].tau_max, points[0][1].samples)
        # worker processes rather than threads: CSV formatting holds the
        # interpreter lock, so threads would not overlap it
        manifests = parallel_map(_simulate_job, [(cfg, os.path.join(staging, label)) for label, cfg in points])
        os.makedirs(out_dir, exist_ok=True)
        for label, _ in points:
            target = os.path.join(out_dir, label)
            if os.path.isdir(target):
                shutil.rmtree(target)
            os.replace(os.path.join(staging, label), target)
        rows = [{"label": label, **{key: m[key] for key in QUALITY_KEYS}} for (label, _), m in zip(points, manifests)]
        write_json(os.path.join(out_dir, "sweep_manifest.json"), {**manifest_header("simulate-sweep"), "points": rows})
    finally:
        shutil.rmtree(staging, ignore_errors=True)
