"""Per-layer tracing of djcm from outside the package.

installed() replaces each layer's public functions by timing wrappers in
every loaded djcm module that binds them, so a call made anywhere inside
the package opens a span.  No file under src/djcm changes.

A span records its layer, thread id, start, end and parent.  Spans nest
per thread; a task run on the sweep pool takes the pool's span as its
parent.  A layer's busy time is the summed duration of its spans.  Its
self time is the wall time during which one of its spans was open with
no open child span; when k threads run such leaf spans at once, each
gets 1/k of that time.  Self times therefore sum to the wall time that
some span covered, and the traced wall time minus that sum is the
unattributed remainder.  In single-threaded code this is the usual
"busy minus time covered by child spans".

runner.pool.efficiency is the pool tasks' summed thread CPU time over
(pool wall time x workers).  CPU time rather than wall time, so that a
worker waiting for the interpreter lock does not count as busy.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

# (layer, module, public functions at the layer boundary)
LAYERS = (
    ("config", "djcm.config", ("load_config_file", "run_config_from_dict", "sweep_from_dict")),
    ("model", "djcm.model", ("sector_coefficients",)),
    ("spectrum", "djcm.spectrum", ("theta_poly", "solve_cubic")),
    ("dynamics.solve", "djcm.dynamics", ("solve_sector",)),
    ("dynamics.analytic", "djcm.dynamics", ("analytic_trajectory",)),
    ("dynamics.ode", "djcm.dynamics", ("amplitudes_ode",)),
    ("observables.series", "djcm.observables", ("trajectory_series",)),
    ("observables.husimi", "djcm.observables", ("husimi_q",)),
    ("output.csv", "djcm.output", ("write_csv",)),
    ("output.json", "djcm.output", ("write_json",)),
    ("output.text", "djcm.output", ("write_text",)),
    ("svgplot.line", "djcm.svgplot", ("line_plot_svg",)),
    ("svgplot.heatmap", "djcm.svgplot", ("heatmap_svg",)),
    ("runner.simulate", "djcm.runner", ("run_simulation",)),
    ("runner.pool", "djcm.runner", ("run_pool",)),
    ("figures", "djcm.figures", ("run_figure",)),
)

# write_csv and write_json write through write_text; those inner calls
# stay in the CSV/JSON layers, so output.text counts direct text writes
# (the SVG files) and no byte is counted twice.
_SKIP_HOME_BINDING = {"write_text"}

# extra per-layer counts: name -> unit
EXTRA_UNITS = {
    "spectrum.degenerate": "count",
    "dynamics.fallback": "count",
    "dynamics.analytic.samples": "count",
    "dynamics.ode.samples": "count",
    "observables.series.values": "count",
    "observables.husimi.grid_points": "count",
    "observables.husimi.sectors": "count",
    "output.csv.bytes": "B",
    "output.csv.rows": "count",
    "output.json.bytes": "B",
    "output.json.rows": "count",
    "output.text.bytes": "B",
    "output.text.rows": "count",
    "svgplot.line.bytes": "B",
    "svgplot.heatmap.bytes": "B",
    "runner.pool.workers": "count",
    "runner.pool.efficiency": "ratio",
}
VALIDATE_CRITERIA = tuple(f"validate.c{i:02d}_s" for i in range(1, 11))


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for layer, _, _ in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s"})
    units.update(EXTRA_UNITS)
    units.update(dict.fromkeys(VALIDATE_CRITERIA, "s"))
    units["trace.unattributed_s"] = "s"
    return units


class Tracer:
    """Spans and counts of one traced repetition, kept in memory."""

    def __init__(self):
        self.spans = []  # [layer, thread id, start, end, parent span or None]
        self.counts = Counter()
        self.validate_results = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, layer: str) -> list:
        stack = self.stack()
        span = [layer, threading.get_ident(), time.perf_counter(), None, stack[-1] if stack else None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack().pop()

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] += value

    def raise_to(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics plus the remainder of `wall` no span covers."""
        shares = self_times(self.spans)
        out = dict.fromkeys(metric_units(), 0.0)
        for span, share in zip(self.spans, shares):
            layer = span[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += span[3] - span[2]
            out[f"{layer}.self_s"] += share
        for name in EXTRA_UNITS:
            out[name] = float(self.counts[name])
        capacity = self.counts["runner.pool.capacity_s"]
        out["runner.pool.efficiency"] = self.counts["runner.pool.task_cpu_s"] / capacity if capacity else 0.0
        out["runner.pool.workers"] = float(self.counts["runner.pool.max_workers"])
        for result in self.validate_results or ():
            out[f"validate.c{result.index:02d}_s"] = float(result.elapsed)
        out["trace.unattributed_s"] = wall - sum(shares)
        return out


def self_times(spans: list) -> list[float]:
    """Each span's share of wall time while it was an open leaf (module notes)."""
    index = {id(span): i for i, span in enumerate(spans)}
    parent = [index.get(id(span[4])) for span in spans]
    events = sorted([(s[2], 1, i) for i, s in enumerate(spans)] + [(s[3], 0, i) for i, s in enumerate(spans)])
    is_open = [False] * len(spans)
    open_children = [0] * len(spans)
    leaves = set()
    shares = [0.0] * len(spans)
    last = events[0][0] if events else 0.0
    for t, starts, i in events:
        if leaves and t > last:
            dt = (t - last) / len(leaves)
            for j in leaves:
                shares[j] += dt
        last = t
        p = parent[i]
        if starts:
            is_open[i] = True
            leaves.add(i)
            if p is not None and is_open[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return shares


def _file_lines(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _after(layer: str):
    """Counts taken from a finished call: fn(tracer, args, kwargs, result)."""

    def samples(tr, a, k, result):
        tr.count(f"{layer}.samples", len(result.times))

    def fallback(tr, a, k, result):
        method = k.get("method", a[3] if len(a) > 3 else "auto")
        if method == "auto" and result.method == "Oracle":
            tr.count("dynamics.fallback")

    def series(tr, a, k, result):
        tr.count("observables.series.values", sum(len(s.values) for s in result))

    def husimi(tr, a, k, result):
        mode = k.get("mode", a[5] if len(a) > 5 else "single")
        tr.count("observables.husimi.grid_points", result.values.size)
        tr.count("observables.husimi.sectors", result.n_max + 1 if mode == "all" else 1)

    def csv(tr, a, k, result):
        columns = k.get("columns", a[2] if len(a) > 2 else None)
        tr.count("output.csv.bytes", os.path.getsize(a[0]))
        tr.count("output.csv.rows", len(columns[0]) if columns else 0)

    def json_(tr, a, k, result):
        tr.count("output.json.bytes", os.path.getsize(a[0]))
        tr.count("output.json.rows", _file_lines(a[0]))

    def text(tr, a, k, result):
        body = k.get("text", a[1] if len(a) > 1 else "")
        tr.count("output.text.bytes", len(body.encode("utf-8")))
        tr.count("output.text.rows", body.count("\n"))

    def svg(tr, a, k, result):
        tr.count(f"{layer}.bytes", len(result.encode("utf-8")))

    return {
        "dynamics.solve": fallback,
        "dynamics.analytic": samples,
        "dynamics.ode": samples,
        "observables.series": series,
        "observables.husimi": husimi,
        "output.csv": csv,
        "output.json": json_,
        "output.text": text,
        "svgplot.line": svg,
        "svgplot.heatmap": svg,
    }.get(layer)


def _traced(tracer: Tracer, layer: str, fn):
    after = _after(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "DegenerateRootsError":
                tracer.count("spectrum.degenerate")
            raise
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _traced_pool(tracer: Tracer, fn, worker_count):
    """run_pool with each task parented to the pool span and its thread CPU time summed."""

    @functools.wraps(fn)
    def wrapper(tasks):
        tasks = list(tasks)
        workers = 1 if len(tasks) <= 1 or worker_count() == 1 else min(worker_count(), len(tasks))
        span = tracer.open("runner.pool")

        def run_task(task):
            stack = tracer.stack()
            stack.append(span)
            cpu = time.thread_time()
            try:
                return task()
            finally:
                tracer.count("runner.pool.task_cpu_s", time.thread_time() - cpu)
                stack.pop()

        try:
            return fn([functools.partial(run_task, task) for task in tasks])
        finally:
            tracer.close(span)
            tracer.count("runner.pool.capacity_s", (span[3] - span[2]) * workers)
            tracer.raise_to("runner.pool.max_workers", workers)

    return wrapper


def _capture_validate(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        results = fn(*args, **kwargs)
        if tracer.validate_results is None:
            tracer.validate_results = results
        return results

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer boundary for the duration of the block."""
    import djcm.cli  # noqa: F401  (loads every module the CLI binds)
    import djcm.validate

    modules = [m for name, m in list(sys.modules.items()) if name == "djcm" or name.startswith("djcm.")]
    patched = []

    def replace_everywhere(home, name, wrapper):
        original = getattr(home, name)
        for module in modules:
            if module is home and name in _SKIP_HOME_BINDING:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))

    try:
        for layer, module_name, names in LAYERS:
            home = sys.modules.get(module_name)
            for name in names:
                if not hasattr(home, name):
                    continue  # boundary removed by a later change: reported as zero calls
                if layer == "runner.pool":
                    wrapper = _traced_pool(tracer, getattr(home, name), home.worker_count)
                else:
                    wrapper = _traced(tracer, layer, getattr(home, name))
                replace_everywhere(home, name, wrapper)
        replace_everywhere(djcm.validate, "run_all", _capture_validate(tracer, djcm.validate.run_all))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
