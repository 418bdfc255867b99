"""Command-line interface.

    djcm simulate --config run.json [--force-oracle] [--out DIR]
    djcm figures  fig2..fig8 [--out DIR]
    djcm husimi   --t TAU [--range R] [--resolution N] [--all-sectors N_MAX]
                  [--config run.json] [--out DIR]
    djcm validate [--seed SEED] [--tuples N]

Exit codes: 0 success, 1 validation failure, 2 configuration error (a
ValueError) or parameters outside the numerical range (an
ArithmeticError: integrator step-size underflow or step budget, a phase
error bound above dynamics.PHASE_ERROR_LIMIT, floating-point overflow),
3 I/O error, out of memory (a MemoryError) or a worker process that
ended abruptly (killed by a signal or the OOM killer:
runner.WorkerDiedError); a numerical range error names the sector and
the route it came from.  --force-oracle sends every series through the
ODE oracle; Husimi grids always come from the analytic route.  The
husimi flags make one config.HusimiRequest, checked
by the rules of simulate's "husimi" section, so a rejected flag exits 2
with a message that names it.  A simulate sweep runs its points, and
validate each pass of criteria 1-9, on one worker process per CPU the
process may run on (taskset -c 0 runs them serially; no output depends
on the count); validate's stderr times are measured inside the worker
that ran each criterion.  figures run serially.  A sweep writes all its
points or nothing.  The djcm console script and python -m djcm.cli enter
through run(), which freezes the import-time heap (gc.freeze) before
main(), so exit-time collections skip it; main() called from Python
freezes nothing.  Importing djcm before NumPy sets
OPENBLAS_NUM_THREADS=1 unless it is already set; a program that
imported NumPy first keeps its BLAS thread pool.  djcm reads no other
environment variable.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import __version__
from .config import (
    ConfigError,
    HusimiRequest,
    ic_echo,
    load_config_file,
    model_from_dict,
    params_echo,
    run_config_from_dict,
    sweep_from_dict,
)
from .dynamics import EXCITED
from .figures import FIGURE_IDS, ROWS, row_params, run_figure
from .output import write_json
from .runner import WorkerDiedError, manifest_header, run_simulation, run_sweep, write_husimi

__all__ = ["main", "run", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djcm",
        description="Sector dynamics and observables of a microwave-driven V-type atom "
        "in a Kerr-deformed cavity.",
    )
    parser.add_argument("--version", action="version", version=f"djcm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configuration and emit CSV/SVG/manifest files")
    sim.add_argument("--config", required=True, help="JSON configuration file")
    sim.add_argument("--force-oracle", action="store_true", help="force the ODE path")
    sim.add_argument("--out", default="simulate_out", help="output directory")

    figs = sub.add_parser("figures", help="emit one of the built-in reference figures")
    figs.add_argument("figure", choices=FIGURE_IDS)
    figs.add_argument("--out", default="figures_out", help="output directory")

    hus = sub.add_parser("husimi", help="Husimi distribution over the coherent-state plane")
    hus.add_argument("--t", type=float, required=True, metavar="TAU", help="evaluation time tau")
    hus.add_argument("--range", type=float, default=HusimiRequest.range, help="half-width of the square grid")
    hus.add_argument("--resolution", type=int, default=HusimiRequest.resolution, help="grid points per axis")
    hus.add_argument(
        "--all-sectors",
        type=int,
        default=None,
        metavar="N_MAX",
        help="accumulate sectors 0..N_MAX instead of the populated sector only",
    )
    hus.add_argument("--config", default=None, help="JSON configuration for the model parameters")
    hus.add_argument("--out", default="husimi_out", help="output directory")

    val = sub.add_parser("validate", help="run the validation suite and print the report")
    val.add_argument("--seed", type=int, default=None, help="seed of the random property sweep")
    val.add_argument("--tuples", type=int, default=None, help="number of random parameter tuples")
    return parser


def _cmd_simulate(args) -> int:
    doc = load_config_file(args.config)
    cfg = run_config_from_dict(doc, force_oracle=args.force_oracle)
    points = sweep_from_dict(doc, cfg)
    if points is None:
        cfg.check_intensity_observables()
        run_simulation(cfg, args.out)
    else:
        run_sweep(points, args.out)
    return EXIT_OK


def _cmd_figures(args) -> int:
    run_figure(args.figure, args.out)
    return EXIT_OK


def _cmd_husimi(args) -> int:
    if args.config is not None:
        params, ic = model_from_dict(load_config_file(args.config))
    else:
        params, ic = row_params(ROWS[1]), EXCITED  # chi = 0.2 reference row
    request = HusimiRequest(tau=args.t, range=args.range, resolution=args.resolution, n_max=args.all_sectors)
    request.check(params.omega_cavity, ("--t", "--range", "--resolution", "--all-sectors"))
    files, record = write_husimi(args.out, "husimi", f"Husimi Q at tau={args.t:g}", params, request, ic=ic)
    write_json(
        os.path.join(args.out, "husimi_manifest.json"),
        {
            **manifest_header("husimi"),
            **record,
            "params": params_echo(params),
            "ic": ic_echo(ic),
            "outputs": sorted(files),
        },
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .validate import DEFAULT_SEED, DEFAULT_TUPLES, MAX_TUPLES, format_report, run_all

    seed = DEFAULT_SEED if args.seed is None else args.seed
    tuples = DEFAULT_TUPLES if args.tuples is None else args.tuples
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if tuples < 1:
        raise ConfigError(f"--tuples must be >= 1, got {tuples}")
    if tuples > MAX_TUPLES:
        raise ConfigError(f"--tuples must be <= {MAX_TUPLES}, got {tuples}")
    results = run_all(seed, tuples)
    sys.stdout.write(format_report(results, seed, tuples))
    for r in results:
        sys.stderr.write(f"[{r.index:2d}] {r.elapsed:.3f} s\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


_COMMANDS = {
    "simulate": _cmd_simulate,
    "figures": _cmd_figures,
    "husimi": _cmd_husimi,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # the integrator's two errors included
        print(f"numerical range error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # NumPy's names the allocation that failed
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_IO
    except WorkerDiedError as exc:
        print(f"worker process ended abruptly: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """Program entry of the djcm console script and of python -m djcm.cli.

    Freezes the heap that the imports built before running main(), so the
    collections at interpreter exit, and in the sweep and validate workers
    forked from this heap, skip those objects.  main() itself changes no
    process-wide state: tests and benchmarks call it in-process."""
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
