"""Shared machinery for CLI runs: trajectory execution, file emission,
manifest assembly, the one publish of every command's files (staged) and
the worker processes that sweeps and validate share.

parallel_map(fn, items) is the one place that forks: it maps fn over items
on worker_count() worker processes and returns the results in item order.
A worker that dies without raising (killed by a signal or the OOM killer)
ends the map with WorkerDiedError.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import os
import shutil
import tempfile
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from . import __version__
from .config import HusimiRequest, RunConfig
from .dynamics import EXCITED, InitialCondition, Trajectory, norm_drift, solve_sector, tau_grid
from .model import ModelParams
from .observables import ObservableSeries, husimi_q, trajectory_series
from .output import csv_rows, format_cells, write_chunks, write_csv, write_json
from .svgplot import heatmap_chunks, line_plot_chunks

__all__ = [
    "QUALITY_KEYS",
    "WorkerDiedError",
    "worker_count",
    "parallel_map",
    "staged",
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


@contextlib.contextmanager
def staged(out_dir: str):
    """Yield a fresh staging directory in the nearest existing directory at
    or above out_dir.  A clean exit moves each entry into out_dir with
    os.replace, a directory replacing a same-named one whole, and the
    manifests last; the staging directory is always removed, so a run that
    raises writes nothing.  A file staged over a directory, or a directory
    over anything else, raises OSError before the first move."""
    parent = out_dir = os.path.abspath(out_dir)  # "" is the working directory
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    staging = tempfile.mkdtemp(prefix=".djcm-", dir=parent)
    try:
        yield staging
        os.makedirs(out_dir, exist_ok=True)
        names = sorted(os.listdir(staging), key=lambda name: name.endswith("manifest.json"))
        moves = [(os.path.join(staging, name), os.path.join(out_dir, name)) for name in names]
        for source, target in moves:
            is_dir = os.path.isdir(target) and not os.path.islink(target)
            if os.path.lexists(target) and os.path.isdir(source) != is_dir:
                code = errno.EISDIR if is_dir else errno.ENOTDIR
                raise OSError(code, os.strerror(code), target)
        for source, target in moves:
            if os.path.isdir(source) and os.path.isdir(target):
                shutil.rmtree(target)
            os.replace(source, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@lru_cache(maxsize=1)
def time_axis(tau_max: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The dimensionless time grid of a run and its CSV cells
    (format_cells), shared by every panel of the run and, through the
    cache, by every point of a sweep.  The grid and the cells are read-only."""
    tau = tau_grid(tau_max, samples)
    cells = format_cells(tau)
    for array in (tau, cells):
        array.flags.writeable = False
    return tau, cells


def trajectory_quality(traj: Trajectory) -> dict:
    """Per-run route and accuracy, embedded in every manifest: the route,
    the norm drift, the phase error bound (analytic route) and the
    integrator's step counts (oracle route); null where not taken."""
    drift = norm_drift(traj.amplitudes)
    values = (traj.method, drift, traj.phase_error_bound, traj.steps_accepted, traj.steps_rejected)
    return dict(zip(QUALITY_KEYS, values))


def manifest_header(command: str) -> dict:
    """The fields that open every manifest: the command and the library version."""
    return {"command": command, "version": __version__}


def write_series_panel(
    out_dir: str,
    name: str,
    tau: np.ndarray,
    tau_cells: np.ndarray,
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
        chunks = line_plot_chunks(tau, [(s.name, s.values) for s in series], title=title, ylabel=ylabel)
        write_chunks(os.path.join(out_dir, files[1]), chunks)
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
    grid = husimi_q(params, request.tau / params.omega_cavity, request.range, request.resolution, request.n_max, ic=ic)
    files = [f"{name}.csv"]
    # y-major rows, one y at a time: x cycles through the axis cells, q indexes the level cells
    axis_cells, level_cells = format_cells(grid.axis), format_cells(grid.levels)
    rows = (
        csv_rows([axis_cells, axis_cells[y], level_cells[index]])
        for y, index in enumerate(grid.index)
    )
    write_chunks(os.path.join(out_dir, files[0]), itertools.chain([b"x,y,q\n"], rows))
    if svg:
        files.append(f"{name}.svg")
        write_chunks(os.path.join(out_dir, files[1]), heatmap_chunks(grid.axis, grid.levels, grid.index, title=title))
    record = {**asdict(request), "norm_drift_max": grid.norm_drift_max, "phase_error_bound": grid.phase_error_bound}
    return files, record


def run_simulation(cfg: RunConfig, out_dir: str) -> dict:
    """Execute one RunConfig and write CSV/SVG/manifest files into out_dir,
    which it creates.

    Each observable, in cfg.observables order, is computed and then written,
    so one panel's series are held at a time and the first that fails names
    the error.  The CLI runs it in a staged directory: a failure writes nothing.
    """
    tau, tau_cells = time_axis(cfg.tau_max, cfg.samples)
    os.makedirs(out_dir, exist_ok=True)
    traj = solve_sector(cfg.params, tau / cfg.params.omega_cavity, ic=cfg.ic, method=cfg.method)
    manifest = {**manifest_header("simulate"), "config": cfg.echo(), **trajectory_quality(traj)}
    outputs = []
    for name in cfg.observables:
        if name == "husimi":
            files, manifest["husimi"] = write_husimi(
                out_dir, name, f"Husimi Q at tau={cfg.husimi.tau:g}", cfg.params, cfg.husimi, ic=cfg.ic, svg=cfg.svg
            )
        else:
            series = trajectory_series(traj, name, cfg.params)
            files = write_series_panel(out_dir, name, tau, tau_cells, series, cfg.svg, title=name, ylabel=name)
        outputs += files
    manifest["outputs"] = sorted(outputs)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _simulate_job(job: tuple[str, RunConfig, str]) -> dict:
    """run_simulation of one sweep point; a configuration or numerical range
    error opens with 'sweep point <label>: ', as a build error does."""
    label, cfg, out_dir = job
    try:
        return run_simulation(cfg, out_dir)
    except (ValueError, ArithmeticError) as exc:
        raise type(exc)(f"sweep point {label}: {exc}") from exc


def run_sweep(points: list[tuple[str, RunConfig]], out_dir: str) -> None:
    """Run every (label, RunConfig) sweep point and write out_dir/<label>/
    per point plus out_dir/sweep_manifest.json.  The first point that fails
    ends the sweep with its error; the CLI runs it in a staged directory,
    so a failed sweep writes nothing.
    """
    # the points share one time axis: format its cells before the workers fork
    time_axis(points[0][1].tau_max, points[0][1].samples)
    # worker processes rather than threads: CSV formatting holds the
    # interpreter lock, so threads would not overlap it
    manifests = parallel_map(_simulate_job, [(label, cfg, os.path.join(out_dir, label)) for label, cfg in points])
    rows = [{"label": label, **{key: m[key] for key in QUALITY_KEYS}} for (label, _), m in zip(points, manifests)]
    write_json(os.path.join(out_dir, "sweep_manifest.json"), {**manifest_header("simulate-sweep"), "points": rows})
