"""Shared machinery for CLI runs: trajectory execution, plans of files
(generators of (file name, chunks) entries, the manifest last, that return
the manifest; a panel is computed only when publish reaches it), their one
writer (publish), the one move of every command's files into --out
(staged) and the worker processes that sweeps and validate share.

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

from . import __version__
from .config import HusimiRequest, RunConfig, ic_echo, params_echo
from .dynamics import EXCITED, InitialCondition, Trajectory, norm_drift, solve_sector, tau_grid
from .model import ModelParams
from .observables import ObservableSeries, husimi_q, trajectory_series
from .output import csv_chunks, csv_rows, format_cells, json_chunks, write_chunks
from .svgplot import heatmap_chunks, line_plot_chunks

__all__ = [
    "QUALITY_KEYS",
    "WorkerDiedError",
    "worker_count",
    "parallel_map",
    "staged",
    "publish",
    "trajectory_quality",
    "manifest_entry",
    "panel_files",
    "series_panel",
    "husimi_panel",
    "run_simulation",
    "run_husimi",
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


def trajectory_quality(traj: Trajectory) -> dict:
    """Per-run route and accuracy, embedded in every manifest: the route,
    the norm drift, the phase error bound (analytic route) and the
    integrator's step counts (oracle route); null where not taken."""
    drift = norm_drift(traj.amplitudes)
    values = (traj.method, drift, traj.phase_error_bound, traj.steps_accepted, traj.steps_rejected)
    return dict(zip(QUALITY_KEYS, values))


def manifest_entry(name: str, command: str, fields: dict):
    """A plan's last entry, its manifest: the command, the library version
    and fields; returns the manifest."""
    manifest = {"command": command, "version": __version__, **fields}
    yield name, json_chunks(manifest)
    return manifest


def panel_files(name: str, svg: bool) -> list[str]:
    """The files of a panel's plan (series_panel, husimi_panel), in order."""
    return [f"{name}.csv", f"{name}.svg"][: 1 + svg]


def series_panel(name: str, axis: tuple, series: list[ObservableSeries], svg: bool, title: str, ylabel: str = ""):
    """One panel's plan: <name>.csv (columns tau and one per series) and,
    with svg, <name>.svg (line plot).  axis is the run's time grid and its
    cells (format_cells), formatted once for all of the run's panels."""
    tau, tau_cells = axis
    yield f"{name}.csv", csv_chunks(["tau"] + [s.name for s in series], [tau_cells] + [s.values for s in series])
    if svg:
        yield f"{name}.svg", line_plot_chunks(tau, [(s.name, s.values) for s in series], title=title, ylabel=ylabel)


def husimi_panel(
    name: str, title: str, params: ModelParams, request: HusimiRequest, ic: InitialCondition = EXCITED, svg: bool = True
):
    """The plan of the Husimi Q grid of request (tau set): <name>.csv
    (columns x, y, q; y-major order) and, with svg, <name>.svg (heatmap).
    The grid always comes from the analytic route.  Returns the grid
    record: the request's fields (n_max null for the populated sector
    alone) and the grid's norm_drift_max and phase_error_bound
    (observables.HusimiGrid)."""
    grid = husimi_q(params, request.tau / params.omega_cavity, request.range, request.resolution, request.n_max, ic=ic)
    # y-major rows, one y at a time: x cycles through the axis cells, q indexes the level cells
    axis_cells, level_cells = format_cells(grid.axis), format_cells(grid.levels)
    rows = (csv_rows([axis_cells, axis_cells[y], level_cells[index]]) for y, index in enumerate(grid.index))
    yield f"{name}.csv", itertools.chain([b"x,y,q\n"], rows)
    if svg:
        yield f"{name}.svg", heatmap_chunks(grid.axis, grid.levels, grid.index, title=title)
    return {**asdict(request), "norm_drift_max": grid.norm_drift_max, "phase_error_bound": grid.phase_error_bound}


def publish(plan, out_dir: str):
    """Write each (file name, chunks) entry of plan into out_dir, made when
    the first entry comes (a plan that fails before it creates nothing),
    and return what the plan returns: a run's manifest."""
    for written in itertools.count():
        try:
            name, chunks = next(plan)
        except StopIteration as end:
            return end.value
        if not written:
            os.makedirs(out_dir, exist_ok=True)
        write_chunks(os.path.join(out_dir, name), chunks)


def run_simulation(cfg: RunConfig):
    """The plan of one RunConfig: CSV/SVG files per observable, in
    cfg.observables order, then manifest.json.  One panel's series are held
    at a time, and the first that fails names the error."""
    tau = tau_grid(cfg.tau_max, cfg.samples)
    axis = tau, format_cells(tau)
    traj = solve_sector(cfg.params, tau / cfg.params.omega_cavity, ic=cfg.ic, method=cfg.method)
    manifest = {"config": cfg.echo(), **trajectory_quality(traj)}
    for name in cfg.observables:
        if name == "husimi":
            title = f"Husimi Q at tau={cfg.husimi.tau:g}"
            manifest["husimi"] = yield from husimi_panel(name, title, cfg.params, cfg.husimi, ic=cfg.ic, svg=cfg.svg)
        else:
            series = trajectory_series(traj, name, cfg.params)
            yield from series_panel(name, axis, series, cfg.svg, title=name, ylabel=name)
    manifest["outputs"] = sorted(file for name in cfg.observables for file in panel_files(name, cfg.svg))
    return (yield from manifest_entry("manifest.json", "simulate", manifest))


def run_husimi(params: ModelParams, ic: InitialCondition, request: HusimiRequest):
    """The husimi command's plan: the grid's files, then husimi_manifest.json."""
    record = yield from husimi_panel("husimi", f"Husimi Q at tau={request.tau:g}", params, request, ic=ic)
    echo = {"params": params_echo(params), "ic": ic_echo(ic), "outputs": panel_files("husimi", True)}
    return (yield from manifest_entry("husimi_manifest.json", "husimi", {**record, **echo}))


def _simulate_job(job: tuple[str, RunConfig, str]) -> dict:
    """Publish one sweep point's plan into its directory and return its
    manifest; a configuration or numerical range error opens with
    'sweep point <label>: ', as a build error does."""
    label, cfg, out_dir = job
    try:
        return publish(run_simulation(cfg), out_dir)
    except (ValueError, ArithmeticError) as exc:
        raise type(exc)(f"sweep point {label}: {exc}") from exc


def run_sweep(points: list[tuple[str, RunConfig]], out_dir: str):
    """The plan of a sweep: sweep_manifest.json alone, once every (label,
    RunConfig) point has published its own plan into out_dir/<label>/.
    The first point that fails ends the sweep with its error."""
    # worker processes rather than threads: CSV formatting holds the
    # interpreter lock, so threads would not overlap it
    manifests = parallel_map(_simulate_job, [(label, cfg, os.path.join(out_dir, label)) for label, cfg in points])
    rows = [{"label": label, **{key: m[key] for key in QUALITY_KEYS}} for (label, _), m in zip(points, manifests)]
    return (yield from manifest_entry("sweep_manifest.json", "simulate-sweep", {"points": rows}))
