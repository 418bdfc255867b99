"""The benchmark's four workloads: generated inputs, djcm argv and output checks.

Each workload turns the benchmark seed into the only thing the program
receives, a config file or an argv list, and checks every output that
one repetition writes.  An operation is the unit counted in `attempted`
and `failed`: a sweep point, a figure, a validate run or a Husimi grid.
It fails on a non-zero exit or a failed output check.

Why each workload (the full record; BENCHMARK.json carries one line):

* sweep: `simulate` over a chi x omega_e grid of 10 x 10 points, 2000
  samples, the six default observables, no SVG.  CSV emission
  (write_csv -> fmt_float) is ~70 % of the traced self time, 700 files
  and 66 MB per run, so this is where a batched engine or faster CSV
  must show, and where the sweep thread pool is measured.
* figures: `figures fig2` .. `fig8` as seven fresh processes with SVG
  on.  Interpreter start plus `import numpy` is most of each command, so
  set-up and SVG costs show here and a sweep-only change must not move
  it.  The panels are fixed by the paper; the seed is unused.
* validate: `validate --seed <seed>`.  The pure-NumPy Dormand-Prince
  oracle inside criteria 1-2 (run twice, criterion 10 re-runs 1-9)
  dominates; criterion 3 adds 2 x 1000 cubic solves.  This is the ODE
  layer's workload, and CSV work barely shows in it.
* husimi_all: `husimi --all-sectors 342 --range 10 --resolution 201`
  at a seeded tau in [10, 50].  343 two-point sector solves (many short
  solves where `sweep` makes 100 long ones) plus the all-sector Husimi
  accumulation over 40 401 grid points, one large CSV and one heatmap.
  Known gaps, not covered here: range 10 (|alpha|^2 <= 200, the
  configuration the roadmap measured) stays below the |alpha|^2 ~ 745
  underflow of the running-product Poisson weights, so that defect is
  still present and needs its own tests; and the residue route loses
  accuracy at large sectors (populations off by up to 8.7e-7 at n = 314
  against a 50-digit expm, norm drift 1.7e-9), which moves the Husimi
  values by ~2e-10 relative at the grid corners.  The independent
  end-to-end check below has a 1e-9 tolerance and does not flag it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

import reference

FIGURE_PANELS = {"fig2": 9, "fig3": 3, "fig4": 3, "fig5": 3, "fig6": 3, "fig7": 2, "fig8": 4}
SWEEP_OBSERVABLES = ("populations", "inversion", "g2", "entropy", "mandel_q", "squeezing")
SWEEP_REFERENCE_POINTS = 3
SWEEP_G1, SWEEP_G2 = 0.04, 0.06  # row 1 of the reference figures

# full size is the benchmark; tiny is the smoke check's
SIZES = {
    "full": {"grid": 10, "samples": 2000, "n_max": 342, "range": 10.0, "resolution": 201, "tuples": None},
    "tiny": {"grid": 2, "samples": 50, "n_max": 20, "range": 3.0, "resolution": 21, "tuples": 10},
}


def tree_digest(root: str) -> str:
    """sha256 over every file under root: relative path and content."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def _load_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """One workload at one seed and size.

    argvs(out_dir) gives the djcm commands of one repetition; check()
    returns how many of its `ops` operations failed.  When `same_tree`
    is set, every repetition must write a byte-identical output tree.
    """

    name = ""
    same_tree = False
    ops = 1

    def argvs(self, out_dir: str) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out_dir: str, exits: list[int], stdouts: list[str]) -> int:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    same_tree = True

    def __init__(self, seed: int, size: str, work_dir: str):
        spec = SIZES[size]
        rng = np.random.default_rng(seed)
        n = spec["grid"]
        # distinct values on a 5e-4 / 1e-4 lattice, so no two points share
        # a directory label (labels print 6 significant digits)
        self.chi = sorted(round(float(k) * 5e-4, 4) for k in rng.choice(1001, n, replace=False))
        self.omega_e = sorted(round(0.01 + float(k) * 1e-4, 4) for k in rng.choice(901, n, replace=False))
        self.samples = spec["samples"]
        self.ops = n * n
        self.reference_points = sorted(
            int(i) for i in rng.choice(self.ops, min(SWEEP_REFERENCE_POINTS, self.ops), replace=False)
        )
        self.config_path = os.path.join(work_dir, f"sweep-{size}.json")
        doc = {
            "params": {
                "omega_cavity": reference.OMEGA_CAVITY,
                "omega_levels": list(reference.OMEGA_LEVELS),
                "g1": SWEEP_G1,
                "g2": SWEEP_G2,
                "omega_e": 0.04,
                "chi": 0.0,
                "sector_n": 1,
            },
            "tau_max": 50.0,
            "samples": self.samples,
            "observables": list(SWEEP_OBSERVABLES),
            "svg": False,
            "sweep": {"axes": [["chi", self.chi], ["omega_e", self.omega_e]]},
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def argvs(self, out_dir):
        return [["simulate", "--config", self.config_path, "--out", out_dir]]

    def _point_ok(self, point_dir: str, index: int) -> bool:
        names = set(os.listdir(point_dir))
        if not {f"{obs}.csv" for obs in SWEEP_OBSERVABLES} | {"manifest.json"} <= names:
            return False
        header, data = _load_csv(os.path.join(point_dir, "populations.csv"))
        if header != ["tau", "P1", "P2", "P3"] or data.shape != (self.samples, 4):
            return False
        tau = np.linspace(0.0, 50.0, self.samples)
        if np.max(np.abs(data[:, 0] - tau)) > 1e-12:
            return False
        if np.max(np.abs(data[:, 1:].sum(axis=1) - 1.0)) > 1e-9:
            return False
        if index in self.reference_points:
            chi = self.chi[index // len(self.omega_e)]
            omega_e = self.omega_e[index % len(self.omega_e)]
            gen = reference.sector_generators(SWEEP_G1, SWEEP_G2, omega_e, chi, 1)[None]
            ref = reference.sector_populations(gen, tau / reference.OMEGA_CAVITY)[0]
            if np.max(np.abs(data[:, 1:] - ref)) > 1e-9:
                return False
        return True

    def check(self, out_dir, exits, stdouts):
        if exits != [0]:
            return self.ops
        with open(os.path.join(out_dir, "sweep_manifest.json"), encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        if len(points) != self.ops:
            return self.ops
        # points follow the axis order: chi outer, omega_e inner
        failed = 0
        for i, point in enumerate(points):
            try:
                failed += not self._point_ok(os.path.join(out_dir, point["label"]), i)
            except (OSError, ValueError, KeyError):
                failed += 1
        return failed


class Figures(Workload):
    name = "figures"
    ops = len(FIGURE_PANELS)

    def __init__(self, seed: int, size: str, work_dir: str):
        pass  # the panels are fixed by the paper

    def argvs(self, out_dir):
        return [["figures", fig, "--out", out_dir] for fig in FIGURE_PANELS]

    def check(self, out_dir, exits, stdouts):
        failed = 0
        for (fig, panels), code in zip(FIGURE_PANELS.items(), exits):
            try:
                with open(os.path.join(out_dir, f"{fig}_manifest.json"), encoding="utf-8") as fh:
                    listed = json.load(fh)["panels"]
                ok = code == 0 and len(listed) == panels and all(
                    os.path.isfile(os.path.join(out_dir, f)) for p in listed for f in p["files"]
                )
            except (OSError, ValueError, KeyError):
                ok = False
            failed += not ok
        return failed


class Validate(Workload):
    name = "validate"

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.tuples = SIZES[size]["tuples"]

    def argvs(self, out_dir):
        argv = ["validate", "--seed", str(self.seed)]
        if self.tuples is not None:
            argv += ["--tuples", str(self.tuples)]
        return [argv]

    def check(self, out_dir, exits, stdouts):
        return int(exits != [0] or "result: PASS (10/10)" not in stdouts[0].splitlines())


class HusimiAll(Workload):
    name = "husimi_all"
    same_tree = True

    def __init__(self, seed: int, size: str, work_dir: str):
        spec = SIZES[size]
        rng = np.random.default_rng(seed)
        self.tau = round(float(rng.uniform(10.0, 50.0)), 3)
        self.n_max = spec["n_max"]
        self.range = spec["range"]
        self.resolution = spec["resolution"]

    def argvs(self, out_dir):
        return [
            [
                "husimi",
                "--all-sectors", str(self.n_max),
                "--range", repr(self.range),
                "--resolution", str(self.resolution),
                "--t", repr(self.tau),
                "--out", out_dir,
            ]
        ]

    def _program_populations(self) -> np.ndarray:
        """Sector populations from the program's own solve boundary."""
        from djcm.dynamics import solve_sector
        from djcm.model import Kerr, ModelParams

        row = reference.HUSIMI_ROW
        params = ModelParams(
            omega_cavity=reference.OMEGA_CAVITY,
            omega_levels=reference.OMEGA_LEVELS,
            g1=row["g1"],
            g2=row["g2"],
            omega_e=row["omega_e"],
            deformation=Kerr(row["chi"]),
            sector_n=0,
        )
        grid = np.array([0.0, self.tau / reference.OMEGA_CAVITY])
        return np.array(
            [np.abs(solve_sector(replace(params, sector_n=n), grid).amplitudes[-1]) ** 2 for n in range(self.n_max + 1)]
        )

    def check(self, out_dir, exits, stdouts):
        if exits != [0] or not os.path.isfile(os.path.join(out_dir, "husimi.svg")):
            return 1
        with open(os.path.join(out_dir, "husimi_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        row = reference.HUSIMI_ROW
        echoed = {k: manifest["params"][k] for k in row}
        if echoed != row or manifest["n_max"] != self.n_max:
            return 1
        header, data = _load_csv(os.path.join(out_dir, "husimi.csv"))
        axis = np.linspace(-self.range, self.range, self.resolution)
        if header != ["x", "y", "q"] or data.shape != (axis.size**2, 3):
            return 1
        if max(np.max(np.abs(data[:, 0] - np.tile(axis, axis.size))),
               np.max(np.abs(data[:, 1] - np.repeat(axis, axis.size)))) > 1e-12:
            return 1
        q = data[:, 2]
        # the accumulation: log-space weights over the program's sector solves
        ref = reference.husimi_all_sectors(self._program_populations(), axis, axis).reshape(-1)
        if not np.all(np.abs(q - ref) <= 1e-12 * np.abs(ref)):
            return 1
        # end to end against independent eigh populations (see the module notes)
        gen = reference.sector_generators(row["g1"], row["g2"], row["omega_e"], row["chi"], np.arange(self.n_max + 1))
        pops = reference.sector_populations(gen, np.array([self.tau / reference.OMEGA_CAVITY]))[:, 0, :]
        ref = reference.husimi_all_sectors(pops, axis, axis).reshape(-1)
        return int(not np.all(np.abs(q - ref) <= 1e-9 * np.abs(ref)))


WORKLOADS = {cls.name: cls for cls in (Sweep, Figures, Validate, HusimiAll)}
