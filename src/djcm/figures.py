"""Reproduction of the built-in reference figures.

All figures share the base parameters omega_cavity = 0.2,
omega_levels = (0.3, 0.4, 0.5), sector n = 1, and three parameter rows:

    row1: omega_e = 0.04, g1 = 0.04, g2 = 0.06, chi = 0
    row2: omega_e = 0.04, g1 = 0.06, g2 = 0.08, chi = 0.2
    row3: omega_e = 0.08, g1 = 0.06, g2 = 0.08, chi = 0.2

fig2 emits the nine population panels (rows x levels), fig3-fig6 one
panel per row (inversion, g2, entropy, Mandel Q), fig7 two Husimi
heatmaps (chi = 0 and chi = 0.2, evaluated at tau = 25 over
[-3, 3]^2), and fig8 the four squeezing panels (rows 1 and 3, first-
and second-order pairs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .backend import ACTIVE
from .dynamics import solve_sector
from .model import Identity, Kerr, ModelParams
from .observables import husimi_q, trajectory_series
from .output import write_csv, write_json, write_text
from .runner import trajectory_quality, write_husimi_files
from .svgplot import line_plot_svg

__all__ = ["FigureRow", "ROWS", "FIGURE_IDS", "FIG7_TAU", "row_params", "run_figure"]


@dataclass(frozen=True)
class FigureRow:
    label: str
    omega_e: float
    g1: float
    g2: float
    chi: float


ROWS = (
    FigureRow("row1", omega_e=0.04, g1=0.04, g2=0.06, chi=0.0),
    FigureRow("row2", omega_e=0.04, g1=0.06, g2=0.08, chi=0.2),
    FigureRow("row3", omega_e=0.08, g1=0.06, g2=0.08, chi=0.2),
)

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

# evaluation time of the Husimi panels (fixed; recorded in the manifest)
FIG7_TAU = 25.0
FIG7_RANGE = 3.0
FIG7_RESOLUTION = 121

# single-series figures: observable and CSV column name
_ROW_FIGS = {
    "fig3": ("inversion", "W"),
    "fig4": ("g2", "g2"),
    "fig5": ("entropy", "S"),
    "fig6": ("mandel_q", "Q"),
}


def row_params(row: FigureRow, sector_n: int = 1) -> ModelParams:
    deformation = Identity() if row.chi == 0.0 else Kerr(row.chi)
    return ModelParams(
        omega_cavity=0.2,
        omega_levels=(0.3, 0.4, 0.5),
        g1=row.g1,
        g2=row.g2,
        omega_e=row.omega_e,
        deformation=deformation,
        sector_n=sector_n,
    )


def _row_echo(row: FigureRow) -> dict:
    return {"row": row.label, "omega_e": row.omega_e, "g1": row.g1, "g2": row.g2, "chi": row.chi}


def _row_trajectories(rows, tau, method):
    return [solve_sector(p, tau / p.omega_cavity, method=method) for p in map(row_params, rows)]


def _emit_series_panel(out_dir, name, tau, series, svg, title):
    files = [f"{name}.csv"]
    write_csv(
        os.path.join(out_dir, f"{name}.csv"),
        ["tau"] + [s.name for s in series],
        [tau] + [s.values for s in series],
    )
    if svg:
        files.append(f"{name}.svg")
        write_text(
            os.path.join(out_dir, f"{name}.svg"),
            line_plot_svg(tau, [(s.name, s.values) for s in series], title=title),
        )
    return files


def run_figure(
    fig_id: str,
    out_dir: str,
    tau_max: float = 50.0,
    samples: int = 2000,
    svg: bool = True,
    method: str = "analytic",
) -> dict:
    """Compute one built-in figure and write its panel files into out_dir.

    Returns the manifest (also written as <fig_id>_manifest.json).
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure {fig_id!r}; valid ids are {', '.join(FIGURE_IDS)}")
    os.makedirs(out_dir, exist_ok=True)
    tau = np.linspace(0.0, tau_max, samples)
    panels = []

    if fig_id == "fig2":
        trajectories = _row_trajectories(ROWS, tau, method)
        letters = "abcdefghi"
        for i, (row, traj) in enumerate(zip(ROWS, trajectories)):
            series = trajectory_series(traj, "populations", row_params(row))
            for level, s in enumerate(series):
                name = f"fig2{letters[3 * i + level]}"
                files = _emit_series_panel(
                    out_dir, name, tau, [s], svg, f"{s.name} ({row.label})"
                )
                panels.append(
                    {"name": name, "observable": s.name, **_row_echo(row), "files": files, **trajectory_quality(traj)}
                )
    elif fig_id in _ROW_FIGS:
        observable, _ = _ROW_FIGS[fig_id]
        trajectories = _row_trajectories(ROWS, tau, method)
        for letter, row, traj in zip("abc", ROWS, trajectories):
            series = trajectory_series(traj, observable, row_params(row))
            name = f"{fig_id}{letter}"
            files = _emit_series_panel(out_dir, name, tau, series, svg, f"{observable} ({row.label})")
            panels.append(
                {"name": name, "observable": observable, **_row_echo(row), "files": files, **trajectory_quality(traj)}
            )
    elif fig_id == "fig7":
        # chi = 0 panel from row1, chi = 0.2 panel from row2
        fig_rows = (ROWS[0], ROWS[1])
        t_eval = FIG7_TAU / 0.2
        grids = [
            husimi_q(
                row_params(r),
                t_eval,
                x_range=(-FIG7_RANGE, FIG7_RANGE),
                y_range=(-FIG7_RANGE, FIG7_RANGE),
                resolution=FIG7_RESOLUTION,
                method=method,
            )
            for r in fig_rows
        ]
        for letter, row, grid in zip("ab", fig_rows, grids):
            name = f"fig7{letter}"
            files = write_husimi_files(
                grid, os.path.join(out_dir, name), f"Husimi Q, chi={row.chi:g}, tau={FIG7_TAU:g}", svg
            )
            panels.append(
                {
                    "name": name,
                    "observable": "husimi",
                    **_row_echo(row),
                    "files": [os.path.basename(f) for f in files],
                    "tau": FIG7_TAU,
                    "range": FIG7_RANGE,
                    "resolution": FIG7_RESOLUTION,
                    "n_max": grid.n_max,
                }
            )
    else:  # fig8
        fig_rows = (ROWS[0], ROWS[2])
        trajectories = _row_trajectories(fig_rows, tau, method)
        letters = iter("abcd")
        for row, traj in zip(fig_rows, trajectories):
            series = trajectory_series(traj, "squeezing", row_params(row))
            for order, pair in (("first", series[:2]), ("second", series[2:])):
                name = f"fig8{next(letters)}"
                files = _emit_series_panel(
                    out_dir, name, tau, pair, svg, f"{order}-order squeezing ({row.label})"
                )
                panels.append(
                    {
                        "name": name,
                        "observable": f"squeezing-{order}",
                        **_row_echo(row),
                        "files": files,
                        **trajectory_quality(traj),
                    }
                )

    manifest = {
        "command": "figures",
        "figure": fig_id,
        "version": __version__,
        "backend": ACTIVE,
        "tau_max": tau_max,
        "samples": samples,
        "panels": panels,
    }
    write_json(os.path.join(out_dir, f"{fig_id}_manifest.json"), manifest)
    return manifest
