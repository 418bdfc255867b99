#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 djcmbench/smoke.py

Runs every workload with --size tiny in both modes and asserts that the
result line names exactly the metrics BENCHMARK.json declares, each with
its declared unit, and that no operation failed.  Then corrupts one
output file per workload and asserts that the output check counts a
failure.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def check_result_lines(declared: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(
                [sys.executable, os.path.join(run.ROOT, "djcmbench", "run.py"), *args],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180,
            )
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, trace, result)
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[section]}
            assert got == want, f"{name} trace={trace}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"
            assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
            print(f"ok  {name:10s} trace={trace}: {len(got)} metrics, {result['attempted']} operations")


def corrupt_csv_value(path: str) -> None:
    """Perturb the last column of the first data row in the 9th significant digit."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-8) + 1e-8)
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def corrupt_figure_manifest(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["panels"].pop()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def check_corruption(work_dir: str) -> None:
    sys.path.insert(0, run.SRC)
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name](7, "tiny", work_dir)
        out_dir = os.path.join(work_dir, name)
        _, exits, stdouts = run.run_in_process(wl, out_dir)
        assert wl.check(out_dir, exits, stdouts) == 0, f"{name}: clean outputs fail the check"
        verdicts = run.Verdicts(wl)
        assert verdicts.judge(out_dir, exits, stdouts) == 0
        _, exits, stdouts = run.run_in_process(wl, out_dir)
        if name == "sweep":
            with open(os.path.join(out_dir, "sweep_manifest.json"), encoding="utf-8") as fh:
                label = json.load(fh)["points"][0]["label"]
            corrupt_csv_value(os.path.join(out_dir, label, "populations.csv"))
        elif name == "husimi_all":
            corrupt_csv_value(os.path.join(out_dir, "husimi.csv"))
        elif name == "figures":
            corrupt_figure_manifest(os.path.join(out_dir, "fig8_manifest.json"))
        else:
            stdouts = [stdouts[0].replace("result: PASS (10/10)", "result: FAIL (9/10)")]
        direct = wl.check(out_dir, exits, stdouts)
        assert direct >= 1, f"{name}: a corrupted output passed the check"
        # the run loop judges it too: by content or, for a repeated tree, by digest
        assert verdicts.judge(out_dir, exits, stdouts) >= 1 and verdicts.failed >= 1
        print(f"ok  {name:10s} corrupted output: {direct} of {wl.ops} operations failed")


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)
    check_result_lines(declared)
    work_dir = os.path.join(run.WORK_ROOT, f"smoke-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        check_corruption(work_dir)
    finally:
        run.remove_work_dir(work_dir)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
