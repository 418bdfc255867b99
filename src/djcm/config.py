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
A field outside this list, at the top level or in params, husimi or
sweep, is a ConfigError that names it.  CLI flags override file fields.
The "husimi" section is one HusimiRequest, the same request the husimi
command builds from its flags and fig7 fixes; RunConfig resolves a
missing husimi.tau to tau_max.
sweep_from_dict turns the "sweep" section into its (label, RunConfig)
points.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

from .model import Kerr, ModelParams
from .dynamics import EXCITED, InitialCondition, tau_grid
from .observables import OBSERVABLE_NAMES, SERIES, populations

__all__ = [
    "ConfigError",
    "MAX_CSV_CELLS",
    "MAX_HUSIMI_N_MAX",
    "HusimiRequest",
    "RunConfig",
    "params_echo",
    "ic_echo",
    "check_time_axis",
    "load_config_file",
    "model_from_dict",
    "run_config_from_dict",
    "sweep_from_dict",
]

SWEEP_AXIS_NAMES = ("omega_cavity", "g1", "g2", "omega_e", "chi", "sector_n")
MAX_SWEEP_POINTS = 10_000
# CSV cells a run, a whole sweep or a Husimi grid may write (~1 GB of text).
# Files are written in blocks of rows, so a run's memory is its solved data:
# the tau cells, formatted once per run (24 B of text per sample),
# then the solve's temporaries (~140 B per sample), the peak.  Measured
# peaks (Python 3.11, NumPy 2.4): a 2M-sample inversion run (4M cells)
# 387 MB, ~97 B per cell, the worst case, since the fewest columns share
# each sample; a 2M-sample populations run (8M cells) 387 MB, ~48 B per
# cell; a 1001 x 1001 Husimi grid (3M cells) 59 MB, ~20 B per cell.  A run
# of two-column panels at the limit would need ~5 GB (extrapolated, not
# run): the limit bounds the text, and the memory only through it.
MAX_CSV_CELLS = 50_000_000
# largest last sector n_max of an all-sector Husimi sum; each sector costs
# about 0.7 KB and 20-190 us (21 x 21 to 201 x 201 grids), so the limit
# bounds a sum at ~7 MB and a 201 x 201 husimi run at ~1.3-1.8 s
MAX_HUSIMI_N_MAX = 10_000
# the fields of a config document, per section (the module docstring)
FIELDS = {
    "config": ("params", "ic", "tau_max", "samples", "observables", "svg", "husimi", "sweep"),
    "params": ("omega_cavity", "omega_levels", "g1", "g2", "omega_e", "chi", "sector_n"),
    "husimi": ("tau", "range", "resolution", "n_max"),
    "sweep": ("axes",),
}


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


def ic_echo(ic: InitialCondition) -> list[list[float]]:
    """The initial condition in the config file's [[re, im], ...] form (embedded in manifests)."""
    return [[z.real, z.imag] for z in (ic.c1, ic.c2, ic.c3)]


def _check_output_budget(cells: int, what: str) -> None:
    if cells > MAX_CSV_CELLS:
        raise ConfigError(
            f"output budget: {what} would write {cells} CSV cells, above the limit of {MAX_CSV_CELLS}"
        )


@dataclass(frozen=True)
class HusimiRequest:
    """One Husimi Q grid: scaled time tau over [-range, range]^2, resolution
    points per axis; n_max None sums the populated sector only, an integer
    the sectors 0..n_max.  tau None stands for a run's tau_max, -0.0 for 0.0."""

    tau: float | None = None
    range: float = 3.0
    resolution: int = 121
    n_max: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau", None if self.tau is None else self.tau + 0.0)

    def check(self, omega_cavity: float, names: tuple[str, str, str, str]) -> None:
        """The grid rules shared by the config's husimi fields and the husimi
        command's flags, a finite raw time tau / omega_cavity included
        (check_time_axis).  tau must be set.  names gives the field or flag
        of tau, range, resolution and n_max, in that order, for the error
        message."""
        tau_name, range_name, resolution_name, n_max_name = names
        if self.resolution < 2:
            raise ConfigError(f"{resolution_name} must be >= 2, got {self.resolution}")
        _check_output_budget(3 * self.resolution**2, f"{resolution_name} {self.resolution}")
        if not (math.isfinite(self.range) and self.range > 0):
            raise ConfigError(f"{range_name} must be finite and > 0, got {self.range}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ConfigError(f"{tau_name} must be finite and >= 0, got {self.tau}")
        if self.n_max is not None and self.n_max < 0:
            raise ConfigError(f"{n_max_name} must be >= 0, got {self.n_max}")
        if self.n_max is not None and self.n_max > MAX_HUSIMI_N_MAX:
            raise ConfigError(f"{n_max_name} must be <= {MAX_HUSIMI_N_MAX}, got {self.n_max}")
        check_time_axis(self.tau, omega_cavity, tau_name)


@dataclass(frozen=True)
class RunConfig:
    """Validated single-run configuration.  Construction resolves a husimi
    request without tau to tau_max and checks it after tau_max, so a
    document without husimi.tau never gets an error that names it."""

    params: ModelParams
    ic: InitialCondition = EXCITED
    tau_max: float = 50.0
    samples: int = 2000
    observables: tuple[str, ...] = tuple(SERIES)
    svg: bool = True
    method: str = "analytic"
    husimi: HusimiRequest = HusimiRequest()

    def __post_init__(self):
        if not (self.tau_max > 0.0):
            raise ConfigError(f"tau_max must be > 0, got {self.tau_max!r}")
        if self.samples < 2:
            raise ConfigError(f"samples must be >= 2, got {self.samples!r}")
        check_time_axis(self.tau_max, self.params.omega_cavity, "tau_max")
        if self.husimi.tau is None:
            object.__setattr__(self, "husimi", replace(self.husimi, tau=self.tau_max))
        self.husimi.check(self.params.omega_cavity, ("husimi.tau", "husimi.range", "husimi.resolution", "husimi.n_max"))
        for i, name in enumerate(self.observables):
            if name not in OBSERVABLE_NAMES:
                raise ConfigError(
                    f"observables: unknown name {name!r}; valid names are {', '.join(OBSERVABLE_NAMES)}"
                )
            if name in self.observables[:i]:
                raise ConfigError(f"observables: {name!r} is listed more than once")
        _check_output_budget(self.csv_cells(), "the run")
        # after the output budget, which bounds samples: the check holds the grid in memory
        t = tau_grid(self.tau_max, self.samples) / self.params.omega_cavity
        if not (t[1:] > t[:-1]).all():
            raise ConfigError(
                f"tau_max / params.omega_cavity = {self.tau_max!r} / {self.params.omega_cavity!r} over samples = "
                f"{self.samples}: the raw times t = tau / omega_cavity do not strictly increase"
            )

    def csv_cells(self) -> int:
        """CSV cells the run writes: samples x (tau + one column per series)
        per series observable, plus x, y, q per Husimi grid point."""
        cells = sum(self.samples * (1 + len(SERIES[name][0])) for name in self.observables if name in SERIES)
        if "husimi" in self.observables:
            cells += 3 * self.husimi.resolution**2
        return cells

    def check_intensity_observables(self) -> None:
        """Reject g2 and mandel_q where they are undefined from the first
        sample: <A+A> = 0 at tau = 0 in the vacuum sector (sector_n 0) when
        P1 = |ic[0]|^2, as the run computes it, is 0 (|ic[0]| below ~1.6e-162).
        A separate check, not part of construction, because a sweep's base config
        never runs its observables: only its points do, and each point is checked."""
        if self.params.sector_n == 0 and populations(self.ic.as_array())[0] == 0.0:
            for name in ("g2", "mandel_q"):
                if name in self.observables:
                    raise ConfigError(
                        f"observables: {name} is undefined for sector_n 0 with |ic[0]|^2 = 0, where <A+A> = 0 at tau = 0"
                    )

    def echo(self) -> dict:
        """JSON-serializable canonical form (embedded in manifests): a config
        document that run_config_from_dict turns back into this run.  The
        route (method) is the manifest's own field, set by --force-oracle."""
        doc = {
            "params": params_echo(self.params),
            "ic": ic_echo(self.ic),
            "tau_max": self.tau_max,
            "samples": self.samples,
            "observables": list(self.observables),
            "svg": self.svg,
        }
        if "husimi" in self.observables:
            doc["husimi"] = asdict(self.husimi)
        return doc


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
    except ValueError as exc:  # an integer past int's string-conversion limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
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


def _integer(value, where: str) -> int:
    """A JSON integer that is also a finite double, as the engine computes with it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    _number(value, where)
    return value


def _params_from_dict(doc, where: str = "params") -> ModelParams:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    levels = _require(doc, "omega_levels", where)
    if not (isinstance(levels, list) and len(levels) == 3):
        raise ConfigError(f"{where}.omega_levels: expected a list of three frequencies")
    chi = _number(doc.get("chi", 0.0), f"{where}.chi")
    sector_n = _integer(doc.get("sector_n", 1), f"{where}.sector_n")
    omega_cavity = _number(_require(doc, "omega_cavity", where), f"{where}.omega_cavity")
    omega_levels = tuple(_number(v, f"{where}.omega_levels") for v in levels)
    g1 = _number(_require(doc, "g1", where), f"{where}.g1")
    g2 = _number(_require(doc, "g2", where), f"{where}.g2")
    omega_e = _number(_require(doc, "omega_e", where), f"{where}.omega_e")
    # each field's error above names its field; the prefix is for ModelParams' and Kerr's own
    try:
        return ModelParams(omega_cavity, omega_levels, g1, g2, omega_e, Kerr(chi), sector_n)
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


def check_time_axis(tau: float, omega_cavity: float, name: str) -> None:
    """The scaled time tau = omega_cavity * t needs omega_cavity > 0 and a
    finite raw time tau / omega_cavity; name is tau's field or flag."""
    if omega_cavity <= 0.0:
        raise ConfigError("params.omega_cavity must be > 0 for the tau = omega_cavity*t axis")
    if not math.isfinite(tau / omega_cavity):
        raise ConfigError(
            f"{name} / params.omega_cavity = {tau!r} / {omega_cavity!r} overflows the raw time t = tau / omega_cavity"
        )


def model_from_dict(doc: dict) -> tuple[ModelParams, InitialCondition]:
    """The model of a parsed JSON document: its params and ic.  Every
    section's field names are checked here, so simulate and husimi --config
    reject the same documents; no other field is read."""
    for where, fields in FIELDS.items():
        section = doc if where == "config" else doc.get(where)
        for key in section if isinstance(section, dict) else ():
            if key not in fields:
                raise ConfigError(f"{where}: unknown field {key!r}; valid fields are {', '.join(fields)}")
    params = _params_from_dict(_require(doc, "params", "config"))
    return params, (_ic_from_list(doc["ic"]) if "ic" in doc else EXCITED)


def run_config_from_dict(doc: dict, force_oracle: bool = False) -> RunConfig:
    """Build a RunConfig from a parsed JSON document."""
    params, ic = model_from_dict(doc)

    observables = doc.get("observables", list(RunConfig.observables))
    if not (isinstance(observables, list) and all(isinstance(x, str) for x in observables)):
        raise ConfigError("observables: expected a list of observable names")

    samples = _integer(doc.get("samples", RunConfig.samples), "samples")

    svg = doc.get("svg", RunConfig.svg)
    if not isinstance(svg, bool):
        raise ConfigError(f"svg: expected true or false, got {svg!r}")

    husimi = doc.get("husimi", {})
    if not isinstance(husimi, dict):
        raise ConfigError("husimi: expected an object")
    request = HusimiRequest(
        n_max=None if husimi.get("n_max") is None else _integer(husimi["n_max"], "husimi.n_max"),
        resolution=_integer(husimi.get("resolution", HusimiRequest.resolution), "husimi.resolution"),
        range=_number(husimi.get("range", HusimiRequest.range), "husimi.range"),
        tau=None if "tau" not in husimi else _number(husimi["tau"], "husimi.tau"),
    )

    return RunConfig(
        params=params,
        ic=ic,
        tau_max=_number(doc.get("tau_max", RunConfig.tau_max), "tau_max"),
        samples=samples,
        observables=tuple(observables),
        svg=svg,
        method="oracle" if force_oracle else "analytic",
        husimi=request,
    )


def sweep_from_dict(doc: dict, base: RunConfig) -> list[tuple[str, RunConfig]] | None:
    """The points of the optional sweep section, None when it is absent:
    (label, RunConfig) per point of the Cartesian product over named
    parameter axes on top of base, in deterministic axis order.  Every point
    passes construction, the Husimi rules included, and
    RunConfig.check_intensity_observables.  Empty axes (one point, out_dir
    itself) and an axis named twice are ConfigErrors.  A label prints each
    value with %g, and two points with one label (one output directory) are
    a ConfigError.  An error in building one point names its label."""
    if "sweep" not in doc:
        return None
    sweep = doc["sweep"]
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: expected an object")
    axes_doc = _require(sweep, "axes", "sweep")
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ConfigError("sweep.axes: expected a non-empty list of [name, values] pairs")
    axes = []
    size = 1
    for i, entry in enumerate(axes_doc):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ConfigError(f"sweep.axes[{i}]: expected [name, values]")
        name, values = entry
        if not isinstance(values, list):
            raise ConfigError(f"sweep.axes[{i}]: values must be a list")
        if name not in SWEEP_AXIS_NAMES:
            raise ConfigError(f"sweep.axes: unknown parameter {name!r}; valid axes are {', '.join(SWEEP_AXIS_NAMES)}")
        if any(name == prior for prior, _ in axes):
            raise ConfigError(f"sweep.axes: axis {name!r} is listed more than once")
        if not values:
            raise ConfigError(f"sweep.axes: axis {name!r} has no values")
        parse = _integer if name == "sector_n" else _number
        axes.append((name, [parse(v, f"sweep.axes[{i}]") for v in values]))
        size *= len(values)
    if size > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep produces {size} points, above the limit of {MAX_SWEEP_POINTS}")
    _check_output_budget(size * base.csv_cells(), f"the sweep's {size} points")

    points = []
    labels = set()
    for combo in itertools.product(*(values for _, values in axes)):
        label = "_".join(
            f"{name}={value:g}" if isinstance(value, float) else f"{name}={value}"
            for (name, _), value in zip(axes, combo)
        )
        if label in labels:
            raise ConfigError(
                f"sweep.axes: two points share the label {label!r}; labels print each value to 6 significant digits"
            )
        labels.add(label)
        changes = {name: value for (name, _), value in zip(axes, combo)}
        try:
            if "chi" in changes:
                changes["deformation"] = Kerr(changes.pop("chi"))
            point = replace(base, params=replace(base.params, **changes))
            point.check_intensity_observables()
        except ValueError as exc:
            raise ConfigError(f"sweep point {label}: {exc}") from exc
        points.append((label, point))
    return points
