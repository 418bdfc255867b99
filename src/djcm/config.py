"""JSON run configuration for the CLI.

A config document looks like:

    {
      "params": {
        "omega_cavity": 0.2,
        "omega_levels": [0.3, 0.4, 0.5],
        "g1": 0.04, "g2": 0.06, "omega_e": 0.04,
        "chi": 0.0,
        "sector_n": 1
      },
      "ic": [0, 1, 0],                  // optional; reals or [re, im] pairs
      "tau_max": 50.0,
      "samples": 2000,
      "observables": ["populations", "inversion"],   // optional
      "svg": true,                      // optional
      "husimi": {"range": 3.0, "resolution": 121, "tau": 25.0},  // optional
      "sweep": {"axes": [["chi", [0.0, 0.2]]]}       // optional
    }

chi >= 0 is the Kerr constant; chi = 0 gives the undeformed operators.
CLI flags override file fields.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

from .model import Kerr, ModelParams
from .dynamics import EXCITED, InitialCondition
from .observables import OBSERVABLE_NAMES, SERIES

__all__ = [
    "ConfigError",
    "MAX_CSV_CELLS",
    "RunConfig",
    "params_echo",
    "check_husimi_grid",
    "SweepConfig",
    "load_config_file",
    "run_config_from_dict",
    "sweep_from_dict",
]

DEFAULT_OBSERVABLES = tuple(SERIES)

SWEEP_AXIS_NAMES = ("omega_cavity", "g1", "g2", "omega_e", "chi", "sector_n")
MAX_SWEEP_POINTS = 10_000
# CSV cells a run, a whole sweep or a Husimi grid may write (~1 GB of text);
# a run formats each file in memory, so the limit also bounds its memory
MAX_CSV_CELLS = 50_000_000


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def params_echo(params: ModelParams) -> dict:
    """The model parameters in the config file's "params" form (embedded in manifests)."""
    return {
        "omega_cavity": params.omega_cavity,
        "omega_levels": list(params.omega_levels),
        "g1": params.g1,
        "g2": params.g2,
        "omega_e": params.omega_e,
        "chi": params.deformation.chi,
        "sector_n": params.sector_n,
    }


def _check_output_budget(cells: int, what: str) -> None:
    if cells > MAX_CSV_CELLS:
        raise ConfigError(
            f"output budget: {what} would write {cells} CSV cells, above the limit of {MAX_CSV_CELLS}"
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated single-run configuration."""

    params: ModelParams
    ic: InitialCondition = EXCITED
    tau_max: float = 50.0
    samples: int = 2000
    observables: tuple[str, ...] = DEFAULT_OBSERVABLES
    svg: bool = True
    method: str = "analytic"
    husimi_range: float = 3.0
    husimi_resolution: int = 121
    husimi_tau: float | None = None
    husimi_n_max: int | None = None

    def __post_init__(self):
        if not (self.tau_max > 0.0):
            raise ConfigError(f"tau_max must be > 0, got {self.tau_max!r}")
        if self.samples < 2:
            raise ConfigError(f"samples must be >= 2, got {self.samples!r}")
        if self.params.omega_cavity <= 0.0:
            raise ConfigError("params.omega_cavity must be > 0 for the tau = omega_cavity*t axis")
        if not math.isfinite(self.tau_max / self.params.omega_cavity):
            raise ConfigError(
                f"tau_max / params.omega_cavity = {self.tau_max!r} / {self.params.omega_cavity!r} "
                "overflows the raw time t = tau / omega_cavity"
            )
        for i, name in enumerate(self.observables):
            if name not in OBSERVABLE_NAMES:
                raise ConfigError(
                    f"observables: unknown name {name!r}; valid names are {', '.join(OBSERVABLE_NAMES)}"
                )
            if name in self.observables[:i]:
                raise ConfigError(f"observables: {name!r} is listed more than once")
        _check_output_budget(self.csv_cells(), "the run")

    def csv_cells(self) -> int:
        """CSV cells the run writes: samples x (tau + one column per series)
        per series observable, plus x, y, q per Husimi grid point."""
        cells = sum(self.samples * (1 + len(SERIES[name][0])) for name in self.observables if name in SERIES)
        if "husimi" in self.observables:
            cells += 3 * self.husimi_resolution**2
        return cells

    def check_intensity_observables(self) -> None:
        """Reject g2 and mandel_q where they are undefined from the first
        sample: <A+A> = 0 at tau = 0 when the vacuum sector (sector_n 0)
        starts with no |1,1> amplitude (ic[0] = 0).  A separate check, not
        part of construction, because a sweep's base config and the husimi
        command's config never run their observables."""
        if self.params.sector_n == 0 and self.ic.c1 == 0:
            for name in ("g2", "mandel_q"):
                if name in self.observables:
                    raise ConfigError(
                        f"observables: {name} is undefined for sector_n 0 with ic[0] = 0, where <A+A> = 0 at tau = 0"
                    )

    def echo(self) -> dict:
        """JSON-serializable canonical form (embedded in manifests)."""
        doc = {
            "params": params_echo(self.params),
            "ic": [[z.real, z.imag] for z in (self.ic.c1, self.ic.c2, self.ic.c3)],
            "tau_max": self.tau_max,
            "samples": self.samples,
            "observables": list(self.observables),
            "svg": self.svg,
            "method": self.method,
        }
        if "husimi" in self.observables:
            doc["husimi"] = {
                "range": self.husimi_range,
                "resolution": self.husimi_resolution,
                "tau": self.tau_max if self.husimi_tau is None else self.husimi_tau,
                "n_max": self.husimi_n_max,
            }
        return doc


@dataclass(frozen=True)
class SweepConfig:
    """Cartesian sweep over named parameter axes on top of a base run."""

    base: RunConfig
    axes: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self):
        size = 1
        for name, values in self.axes:
            if name not in SWEEP_AXIS_NAMES:
                raise ConfigError(
                    f"sweep.axes: unknown parameter {name!r}; valid axes are {', '.join(SWEEP_AXIS_NAMES)}"
                )
            if len(values) == 0:
                raise ConfigError(f"sweep.axes: axis {name!r} has no values")
            size *= len(values)
        if size > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep produces {size} points, above the limit of {MAX_SWEEP_POINTS}")
        _check_output_budget(size * self.base.csv_cells(), f"the sweep's {size} points")

    def expand(self) -> list[tuple[str, RunConfig]]:
        """(label, RunConfig) per sweep point, in deterministic axis order;
        every point passes RunConfig.check_intensity_observables.  A label
        prints each value with %g, and two points with one label (one
        output directory) are a ConfigError."""
        points = []
        labels = set()
        names = [name for name, _ in self.axes]
        for combo in itertools.product(*(values for _, values in self.axes)):
            params = self.base.params
            label_bits = []
            for name, value in zip(names, combo):
                if name == "chi":
                    params = replace(params, deformation=Kerr(value))
                elif name == "sector_n":
                    params = replace(params, sector_n=int(value))
                else:
                    params = replace(params, **{name: float(value)})
                label_bits.append(f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}")
            label = "_".join(label_bits)
            if label in labels:
                raise ConfigError(
                    f"sweep.axes: two points share the label {label!r}; labels print each value to 6 significant digits"
                )
            labels.add(label)
            point = replace(self.base, params=params)
            point.check_intensity_observables()
            points.append((label, point))
        return points


def load_config_file(path: str) -> dict:
    """Parse a JSON config file, reporting line/column on syntax errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return doc[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _params_from_dict(doc, where: str = "params") -> ModelParams:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    levels = _require(doc, "omega_levels", where)
    if not (isinstance(levels, list) and len(levels) == 3):
        raise ConfigError(f"{where}.omega_levels: expected a list of three frequencies")
    chi = _number(doc.get("chi", 0.0), f"{where}.chi")
    if chi < 0:
        raise ConfigError(f"{where}.chi must be >= 0, got {chi}")
    sector_n = doc.get("sector_n", 1)
    if isinstance(sector_n, bool) or not isinstance(sector_n, int):
        raise ConfigError(f"{where}.sector_n: expected an integer, got {sector_n!r}")
    try:
        return ModelParams(
            omega_cavity=_number(_require(doc, "omega_cavity", where), f"{where}.omega_cavity"),
            omega_levels=tuple(_number(v, f"{where}.omega_levels") for v in levels),
            g1=_number(_require(doc, "g1", where), f"{where}.g1"),
            g2=_number(_require(doc, "g2", where), f"{where}.g2"),
            omega_e=_number(_require(doc, "omega_e", where), f"{where}.omega_e"),
            deformation=Kerr(chi),
            sector_n=sector_n,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _ic_from_list(values, where: str = "ic") -> InitialCondition:
    if not (isinstance(values, list) and len(values) == 3):
        raise ConfigError(f"{where}: expected a list of three amplitudes")
    amps = []
    for i, v in enumerate(values):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            amps.append(complex(_number(v, f"{where}[{i}]")))
        elif isinstance(v, list) and len(v) == 2:
            amps.append(complex(_number(v[0], f"{where}[{i}]"), _number(v[1], f"{where}[{i}]")))
        else:
            raise ConfigError(f"{where}[{i}]: expected a real number or an [re, im] pair, got {v!r}")
    try:
        return InitialCondition(*amps)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def check_husimi_grid(
    resolution: int, half_width: float, tau: float | None, n_max: int | None, names: tuple[str, ...]
) -> None:
    """Husimi grid rules shared by the config's husimi fields and the husimi
    command's flags; names gives the field or flag for resolution, range,
    tau and n_max, in that order, for the error message."""
    if resolution < 2:
        raise ConfigError(f"{names[0]} must be >= 2, got {resolution}")
    _check_output_budget(3 * resolution**2, f"{names[0]} {resolution}")
    if not (math.isfinite(half_width) and half_width > 0):
        raise ConfigError(f"{names[1]} must be finite and > 0, got {half_width}")
    if tau is not None and not (math.isfinite(tau) and tau >= 0):
        raise ConfigError(f"{names[2]} must be finite and >= 0, got {tau}")
    if n_max is not None and n_max < 0:
        raise ConfigError(f"{names[3]} must be >= 0, got {n_max}")


def run_config_from_dict(doc: dict, force_oracle: bool = False) -> RunConfig:
    """Build a RunConfig from a parsed JSON document."""
    params = _params_from_dict(_require(doc, "params", "config"))
    ic = _ic_from_list(doc["ic"]) if "ic" in doc else EXCITED

    observables = doc.get("observables", list(DEFAULT_OBSERVABLES))
    if not (isinstance(observables, list) and all(isinstance(x, str) for x in observables)):
        raise ConfigError("observables: expected a list of observable names")

    samples = doc.get("samples", 2000)
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise ConfigError(f"samples: expected an integer, got {samples!r}")

    svg = doc.get("svg", True)
    if not isinstance(svg, bool):
        raise ConfigError(f"svg: expected true or false, got {svg!r}")

    husimi = doc.get("husimi", {})
    if not isinstance(husimi, dict):
        raise ConfigError("husimi: expected an object")
    husimi_n_max = husimi.get("n_max")
    if husimi_n_max is not None and (isinstance(husimi_n_max, bool) or not isinstance(husimi_n_max, int)):
        raise ConfigError(f"husimi.n_max: expected an integer, got {husimi_n_max!r}")
    resolution = husimi.get("resolution", 121)
    if isinstance(resolution, bool) or not isinstance(resolution, int):
        raise ConfigError(f"husimi.resolution: expected an integer, got {resolution!r}")
    husimi_range = _number(husimi.get("range", 3.0), "husimi.range")
    husimi_tau = None if "tau" not in husimi else _number(husimi["tau"], "husimi.tau")
    fields = ("husimi.resolution", "husimi.range", "husimi.tau", "husimi.n_max")
    check_husimi_grid(resolution, husimi_range, husimi_tau, husimi_n_max, fields)

    return RunConfig(
        params=params,
        ic=ic,
        tau_max=_number(doc.get("tau_max", 50.0), "tau_max"),
        samples=samples,
        observables=tuple(observables),
        svg=svg,
        method="oracle" if force_oracle else "analytic",
        husimi_range=husimi_range,
        husimi_resolution=resolution,
        husimi_tau=husimi_tau,
        husimi_n_max=husimi_n_max,
    )


def sweep_from_dict(doc: dict, base: RunConfig) -> SweepConfig | None:
    """Build the optional sweep section; None when absent."""
    if "sweep" not in doc:
        return None
    sweep = doc["sweep"]
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: expected an object")
    axes_doc = _require(sweep, "axes", "sweep")
    if not isinstance(axes_doc, list):
        raise ConfigError("sweep.axes: expected a list of [name, values] pairs")
    axes = []
    for i, entry in enumerate(axes_doc):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ConfigError(f"sweep.axes[{i}]: expected [name, values]")
        name, values = entry
        if not isinstance(values, list):
            raise ConfigError(f"sweep.axes[{i}]: values must be a list")
        if name == "sector_n":
            for v in values:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ConfigError(f"sweep.axes[{i}]: sector_n values must be integers")
            axes.append((name, tuple(values)))
        else:
            axes.append((name, tuple(_number(v, f"sweep.axes[{i}]") for v in values)))
    return SweepConfig(base=base, axes=tuple(axes))
