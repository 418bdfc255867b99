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
and second-order pairs).  run_figure builds a figure's plan (see runner):
its panels' CSV and SVG files, then <fig_id>_manifest.json.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import HusimiRequest
from .dynamics import solve_sector, tau_grid
from .model import Kerr, ModelParams
from .observables import trajectory_series
from .output import format_cells
from .runner import husimi_panel, manifest_entry, panel_files, series_panel, trajectory_quality

__all__ = ["FigureRow", "ROWS", "FIGURE_IDS", "FIG7", "row_params", "run_figure"]


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

# the series figures' time axis (recorded in the manifest)
FIG_TAU_MAX = 50.0
FIG_SAMPLES = 2000
# the grid of both Husimi panels (recorded in the manifest)
FIG7 = HusimiRequest(tau=25.0, range=3.0, resolution=121)


def _whole(observable: str) -> tuple:
    return ((observable, slice(None), observable),)


# figure id -> (rows, observable, panels per row); a panel is (manifest
# label, slice of the observable's columns, title ahead of " (<row>)").
# Panels take consecutive letters, row by row.  fig7 is the Husimi figure.
_SERIES_FIGURES = {
    "fig2": (ROWS, "populations", tuple((p, slice(i, i + 1), p) for i, p in enumerate(("P1", "P2", "P3")))),
    "fig3": (ROWS, "inversion", _whole("inversion")),
    "fig4": (ROWS, "g2", _whole("g2")),
    "fig5": (ROWS, "entropy", _whole("entropy")),
    "fig6": (ROWS, "mandel_q", _whole("mandel_q")),
    "fig8": (
        (ROWS[0], ROWS[2]),
        "squeezing",
        (
            ("squeezing-first", slice(0, 2), "first-order squeezing"),
            ("squeezing-second", slice(2, 4), "second-order squeezing"),
        ),
    ),
}


def row_params(row: FigureRow) -> ModelParams:
    return ModelParams(
        omega_cavity=0.2,
        omega_levels=(0.3, 0.4, 0.5),
        g1=row.g1,
        g2=row.g2,
        omega_e=row.omega_e,
        deformation=Kerr(row.chi),
        sector_n=1,
    )


def _panel_echo(name: str, observable: str, row: FigureRow) -> dict:
    """A panel's manifest record, apart from its trajectory quality or grid record."""
    row_echo = {"row": row.label, "omega_e": row.omega_e, "g1": row.g1, "g2": row.g2, "chi": row.chi}
    return {"name": name, "observable": observable, **row_echo, "files": panel_files(name, True)}


def run_figure(fig_id: str):
    """The plan of one built-in figure: its CSV and SVG panel files, then
    <fig_id>_manifest.json; a panel is computed when publish reaches it."""
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure {fig_id!r}; valid ids are {', '.join(FIGURE_IDS)}")
    tau = tau_grid(FIG_TAU_MAX, FIG_SAMPLES)
    axis = tau, format_cells(tau)
    letters = iter("abcdefghi")
    panels = []
    if fig_id == "fig7":
        # chi = 0 panel from row1, chi = 0.2 panel from row2
        for row in ROWS[:2]:
            name = fig_id + next(letters)
            title = f"Husimi Q, chi={row.chi:g}, tau={FIG7.tau:g}"
            record = yield from husimi_panel(name, title, row_params(row), FIG7)
            panels.append({**_panel_echo(name, "husimi", row), **record})
    else:
        rows, observable, row_panels = _SERIES_FIGURES[fig_id]
        for row in rows:
            params = row_params(row)
            traj = solve_sector(params, tau / params.omega_cavity)
            series = trajectory_series(traj, observable, params)
            quality = trajectory_quality(traj)
            for label, columns, title in row_panels:
                name = fig_id + next(letters)
                yield from series_panel(name, axis, series[columns], svg=True, title=f"{title} ({row.label})")
                panels.append({**_panel_echo(name, label, row), **quality})

    fields = {"figure": fig_id, "tau_max": FIG_TAU_MAX, "samples": FIG_SAMPLES, "panels": panels}
    return (yield from manifest_entry(f"{fig_id}_manifest.json", "figures", fields))
