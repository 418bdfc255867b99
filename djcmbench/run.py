#!/usr/bin/env python3
"""djcm benchmark: the CLI end to end, and a traced in-process run per layer.

    python3 djcmbench/run.py --workload {sweep,figures,validate,husimi_all}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root; the program is run from ./src as it is,
with nothing to build.

--trace 0 runs the workload's djcm commands as child processes in a
closed loop, one command at a time, for --seconds seconds (at least two
repetitions), and reports the end-to-end metrics as medians over the
repetitions.  DJCM_THREADS and DJCM_BACKEND are removed from the
children's environment, so the sweep pool runs at its default size.

--trace 1 runs the same commands in this process through djcm.cli.main,
alternating an untraced and a traced repetition until --seconds have
passed, and reports the per-layer metrics of the traced repetition with
the median wall time (see layers.py), the tracing overhead, the import
time of djcm.cli and the two timings of benchmarks/bench_backends.py.

Every repetition's outputs are checked (workloads.py); the last line of
standard output is the JSON result, the line before it the machine.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".djcmbench_work")

MIN_REPS = 2  # the output tree must repeat byte for byte within a run
SETUP_STARTS = 7  # one interpreter start varies by more than a tenth
IMPORT_STARTS = 5
COMMAND_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
}
TRACE_UNITS = {
    **layers.metric_units(),
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "backends.ode_numpy_s": "s",
    "backends.analytic_s": "s",
}

PROBE = """
import json, platform
import numpy
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
from djcm.backend import ACTIVE
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy_version, "numba": numba_version, "djcm_backend": ACTIVE}))
"""

IMPORT_PROBE = "import time; t = time.perf_counter(); import djcm.cli; print(time.perf_counter() - t)"


def child_env() -> dict:
    env = dict(os.environ)  # main() has removed DJCM_THREADS and DJCM_BACKEND
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


class Child:
    """One finished child process: exit code, wall, CPU, peak RSS, stdout."""

    def __init__(self, args: list[str], work_dir: str):
        out_path = os.path.join(work_dir, "child.out")
        err_path = os.path.join(work_dir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=work_dir, env=child_env(), stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        if self.exit != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(f"{' '.join(args)}: exit {self.exit}\n{fh.read()[-2000:]}\n")


def djcm_cli(argv: list[str], work_dir: str) -> Child:
    return Child(["-m", "djcm.cli", *argv], work_dir)


def machine_record(work_dir: str) -> dict:
    probe = Child(["-c", PROBE], work_dir)
    record = json.loads(probe.stdout) if probe.exit == 0 else {"probe_exit": probe.exit}
    record.update(cpu_count=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), machine=platform.machine())
    return record


def start_once(work_dir: str) -> float:
    """Wall time of `djcm --version`: interpreter start plus import djcm.cli."""
    child = djcm_cli(["--version"], work_dir)
    if child.exit != 0 or not child.stdout.startswith("djcm "):
        raise SystemExit("djcm --version failed; nothing to measure")
    return child.wall


class Verdicts:
    """Failed operations per repetition; the first repetition's tree is the reference."""

    def __init__(self, workload):
        self.workload = workload
        self.digest = None
        self.first_failed = 0
        self.attempted = 0
        self.failed = 0

    def judge(self, out_dir: str, exits: list[int], stdouts: list[str]) -> int:
        wl = self.workload
        try:
            if not wl.same_tree:
                failed = wl.check(out_dir, exits, stdouts)
            elif self.digest is None:
                self.first_failed = failed = wl.check(out_dir, exits, stdouts)
                self.digest = workloads.tree_digest(out_dir)
            else:
                # identical bytes get the first repetition's verdict
                same = all(code == 0 for code in exits) and workloads.tree_digest(out_dir) == self.digest
                failed = self.first_failed if same else wl.ops
        except Exception:  # a check that cannot read the outputs fails them all
            traceback.print_exc()
            failed = wl.ops
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += wl.ops
        self.failed += failed
        return failed


def run_end_to_end(wl, seconds: float, work_dir: str) -> tuple[Verdicts, dict]:
    start_once(work_dir)  # compiles bytecode; not counted
    # starts are spread over the run: on a shared 2-vCPU VM, start time drifts
    # in spells of a few seconds, which a burst of back-to-back starts reports whole
    starts = []
    verdicts = Verdicts(wl)
    walls, cpus, rss, done = [], [], [], 0
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        starts.append(start_once(work_dir))
        out_dir = os.path.join(work_dir, f"rep{len(walls)}")
        children = [djcm_cli(argv, work_dir) for argv in wl.argvs(out_dir)]
        walls.append(sum(c.wall for c in children))
        cpus.append(sum(c.cpu for c in children))
        rss.append(max(c.rss_mb for c in children))
        done += wl.ops - verdicts.judge(out_dir, [c.exit for c in children], [c.stdout for c in children])
    while len(starts) < SETUP_STARTS:
        starts.append(start_once(work_dir))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(starts),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "ops_per_s": done / sum(walls),
        "success_rate": 1.0 - verdicts.failed / verdicts.attempted,
    }
    return verdicts, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_in_process(wl, out_dir: str):
    """One repetition through djcm.cli.main; returns (wall, exits, stdouts)."""
    import djcm.cli

    exits, stdouts = [], []
    start = time.perf_counter()
    for argv in wl.argvs(out_dir):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = djcm.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc(file=sys.__stderr__)
                code = 1
        exits.append(code)
        stdouts.append(out.getvalue())
    return time.perf_counter() - start, exits, stdouts


def backend_timings() -> dict:
    """bench_backends.py's two numbers: the NumPy ODE oracle and the analytic
    route over the three reference rows, 2000 samples, tau <= 60, best of N."""
    import numpy as np
    from djcm.dynamics import solve_sector
    from djcm.figures import ROWS, row_params

    grids = [(p, np.linspace(0.0, 60.0, 2000) / p.omega_cavity) for p in map(row_params, ROWS)]

    def best(repeats, **kwargs):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for params, t in grids:
                solve_sector(params, t, **kwargs)
            times.append(time.perf_counter() - start)
        return min(times)

    return {
        "backends.ode_numpy_s": best(3, method="oracle", backend="numpy"),
        "backends.analytic_s": best(20, method="analytic"),
    }


def run_traced(wl, seconds: float, work_dir: str) -> tuple[Verdicts, dict]:
    import djcm.validate  # noqa: F401  (loaded lazily by the CLI; load it before timing)

    # a tiny repetition first, so one-time costs (lazy imports, the
    # interpreter's adaptive specialisation) fall on neither side of a pair
    warm_dir = os.path.join(work_dir, "warm-up")
    os.makedirs(warm_dir)
    run_in_process(workloads.WORKLOADS[wl.name](0, "tiny", warm_dir), os.path.join(warm_dir, "out"))
    shutil.rmtree(warm_dir, ignore_errors=True)
    verdicts = Verdicts(wl)
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        out_dir = os.path.join(work_dir, f"rep{len(pairs)}")
        untraced, exits, stdouts = run_in_process(wl, out_dir)
        verdicts.judge(out_dir, exits, stdouts)
        tracer = layers.Tracer()
        with layers.installed(tracer):
            traced, exits, stdouts = run_in_process(wl, out_dir)
        verdicts.judge(out_dir, exits, stdouts)
        pairs.append((traced, untraced, tracer))
    traced, untraced, tracer = sorted(pairs, key=lambda p: p[0])[(len(pairs) - 1) // 2]
    values = tracer.metrics(traced)
    imports = [Child(["-c", IMPORT_PROBE], work_dir) for _ in range(IMPORT_STARTS)]
    values.update(
        {
            "cli.import_s": statistics.median(float(c.stdout) for c in imports if c.exit == 0),
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced - untraced,
            **backend_timings(),
        }
    )
    return verdicts, {name: {"value": values[name], "unit": unit} for name, unit in TRACE_UNITS.items()}


def remove_work_dir(work_dir: str) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run is still using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "djcm", "cli.py")):
        print(f"no djcm sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for name in ("DJCM_THREADS", "DJCM_BACKEND"):
        os.environ.pop(name, None)

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir)
        machine = machine_record(work_dir)
        run = run_traced if args.trace else run_end_to_end
        verdicts, metrics = run(wl, args.seconds, work_dir)
    finally:
        remove_work_dir(work_dir)
    print("machine: " + json.dumps(machine, sort_keys=True))
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
