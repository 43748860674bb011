"""The benchmark workloads: seeded inputs, set-up, one op, and the op's output checks.

Each workload drives heatline only through its public functions and
`heatline.cli.main`, looked up at call time so the traced run sees every
call.  An op writes into the workload's own work directory; `prepare()`
empties it first, so a check never reads what an earlier op left behind.
Checks read the outputs back with numpy and the csv module, not with
heatline's readers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import heatline
import heatline.cli
import inputs

#: grid and Ritz sizes of fine_construct, as a user refines one spectrum
FINE_GRID_M = 3000
FINE_RITZ_N = 40
FINE_COMPARE_J = 10

#: heat_field: set-up sizes, series truncation, evaluation grid, modes per axis
FIELD_GRID_M = 300
FIELD_RITZ_N = 100
FIELD_TRUNCATION = 25
FIELD_RESOLUTION = 101
FIELD_MODE_COUNT = 100

#: finite differences on a grid twice as fine as the samples reach about 3e-5
#: of every target eigenvalue, so 1e-3 flags a wrong construction
FD_TOL = 1e-3
#: a 40-function sine basis resolves the paper spectrum's sharp well to 0.6 %
#: of the finite-difference eigenvalues (random spectra: 3e-5); 2 % still
#: catches a wrong matrix or a solver that did not converge
RITZ_TOL = 2e-2


def run_cli(argv: list[str]) -> int:
    """heatline.cli.main with its stdout swallowed; an argparse exit becomes its code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return heatline.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def fd_eigenvalues(x: np.ndarray, q: np.ndarray, count: int, refine: int = 2) -> np.ndarray:
    """Lowest Dirichlet eigenvalues of -w'' + Q w by three-point finite differences.

    The samples are read as a piecewise-linear Q on a uniform grid `refine`
    times finer than theirs.
    """
    from scipy.linalg import eigh_tridiagonal

    xf = np.linspace(0.0, math.pi, refine * (len(x) - 1) + 1)
    qf = np.interp(xf, x, q)
    h = xf[1] - xf[0]
    off = np.full(len(xf) - 3, -1.0 / h**2)
    return eigh_tridiagonal(2.0 / h**2 + qf[1:-1], off, select="i",
                            select_range=(0, count - 1), eigvals_only=True)


class Workload:
    """One op at a time in a closed loop; subclasses fill in the op and its check."""

    name = ""
    #: a run stops only after a whole number of rounds of this many ops, so
    #: each input of a pool whose ops differ in cost runs equally often
    round_size = 1

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.inputs: dict = {}
        self.deltas: dict = {}

    def setup(self) -> None:
        """State every op shares; its time is the workload's set-up time."""

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        """Failures of one op's output, as messages; empty when it is correct."""
        raise NotImplementedError

    def delta_max(self) -> float | None:
        return max(self.deltas.values()) if self.deltas else None

    def summary(self) -> dict:
        return {}


class Tables(Workload):
    """`heatline table uniform` then `heatline table two_zone`, as the paper fixes them."""

    name = "tables"
    UNIFORM = [[100], [150], [200], [250], [300]]
    TWO_ZONE = [[50, 50], [50, 75], [50, 100]]

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.inputs = {"uniform_m": self.UNIFORM, "two_zone_m1_m2": self.TWO_ZONE}

    def op(self, index: int):
        return [run_cli(["table", which, "--out-dir", str(self.work)]) for which in ("uniform", "two_zone")]

    def check(self, index: int, output) -> list[str]:
        if output != [0, 0]:
            return [f"exit codes {output}"]
        failures = []
        for which, grids in (("uniform", self.UNIFORM), ("two_zone", self.TWO_ZONE)):
            path = self.work / f"table_{which}.csv"
            if not path.exists():
                failures.append(f"{path.name} missing")
                continue
            header, rows = read_rows(path)
            width = len(grids[0])
            if [[int(v) for v in row[:width]] for row in rows] != grids:
                failures.append(f"{path.name}: rows {[row[:width] for row in rows]}, want {grids}")
                continue
            deltas = np.array([float(row[header.index("delta")]) for row in rows]) / 100.0
            if not (np.all(np.isfinite(deltas)) and np.all(deltas > 0.0) and np.all(np.diff(deltas) < 0.0)):
                failures.append(f"{path.name}: deltas {deltas.tolist()} do not decrease strictly with M")
            for grid, delta in zip(grids, deltas):
                self.deltas[f"{which} {grid}"] = float(delta)
        return failures


class FineConstruct(Workload):
    """`heatline construct` at M = 3000 then `heatline verify`, over a seeded spectrum pool."""

    name = "fine_construct"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.pool = inputs.fine_construct_pool(seed)
        self.order = inputs.op_order(seed, len(self.pool), cycles=1000)
        self.round_size = len(self.pool)
        self.inputs = {
            "grid_m": FINE_GRID_M, "ritz_n": FINE_RITZ_N, "compare_j": FINE_COMPARE_J,
            "pool": self.pool, "first_ops": self.order[: 4 * len(self.pool)],
        }
        self.seen: dict[int, dict] = {}

    def op(self, index: int):
        spectrum = self.work / "spectrum.json"
        potential = self.work / "potential.csv"
        with open(spectrum, "w", encoding="utf-8") as fh:
            json.dump({"perturbed": self.pool[self.order[index]]["levels"]}, fh)
        common = ["--spectrum-file", str(spectrum), "--out-dir", str(self.work)]
        return [
            run_cli(["construct", "--grid-m", str(FINE_GRID_M), *common]),
            run_cli(["verify", "--potential", str(potential), "--ritz-n", str(FINE_RITZ_N),
                     "--compare-j", str(FINE_COMPARE_J), *common]),
        ]

    def check(self, index: int, output) -> list[str]:
        if output != [0, 0]:
            return [f"exit codes {output}"]
        entry = self.order[index]
        levels = self.pool[entry]["levels"]
        samples = np.loadtxt(self.work / "potential.csv", delimiter=",", skiprows=1)
        if samples.shape != (FINE_GRID_M + 1, 2) or not np.all(np.isfinite(samples)):
            return [f"potential.csv holds {samples.shape} values, want {(FINE_GRID_M + 1, 2)} finite"]
        target = inputs.merged_eigenvalues(levels, FINE_COMPARE_J)
        fd = fd_eigenvalues(samples[:, 0], samples[:, 1], FINE_COMPARE_J)
        fd_err = float(np.max(np.abs(fd - target) / np.maximum(target, 1.0)))
        header, rows = read_rows(self.work / "report.csv")
        ritz = np.array([float(row[header.index("nu_computed")]) for row in rows[:FINE_COMPARE_J]])
        ritz_err = float(np.max(np.abs(ritz - fd) / np.maximum(fd, 1.0)))
        delta_rows = [row for row in rows if row[0] == "delta"]
        failures = []
        if fd_err > FD_TOL:
            failures.append(f"pool {entry}: finite differences differ from the target by {fd_err:.3e}")
        if ritz_err > RITZ_TOL:
            failures.append(f"pool {entry}: Ritz differs from finite differences by {ritz_err:.3e}")
        if len(delta_rows) != 1:
            failures.append(f"pool {entry}: report.csv has {len(delta_rows)} delta rows")
        if failures:
            return failures
        delta = float(delta_rows[0][header.index("rel_error")])
        if self.pool[entry]["fixed"]:
            self.deltas[entry] = delta
        self.seen.setdefault(entry, {
            "rank": 2 * len(levels), "min_q": float(samples[:, 1].min()),
            "delta": delta, "fd_error": fd_err, "ritz_fd_error": ritz_err,
        })
        return []

    def summary(self) -> dict:
        return {"pool": {str(k): v for k, v in sorted(self.seen.items())}}


class HeatField(Workload):
    """Heat series, dense field evaluation and the 100-mode spectrum on one ModeSet."""

    name = "heat_field"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.fields = inputs.heat_field_pool(seed)
        self.inputs = {
            "grid_m": FIELD_GRID_M, "ritz_n": FIELD_RITZ_N, "truncation": FIELD_TRUNCATION,
            "resolution": FIELD_RESOLUTION, "mode_count": FIELD_MODE_COUNT, "fields": self.fields,
        }
        s = np.linspace(0.0, math.pi, FIELD_RESOLUTION)
        rho = np.linspace(math.pi / FIELD_RESOLUTION, math.pi, FIELD_RESOLUTION)
        self.s, self.rho = np.meshgrid(s, rho)

    def setup(self) -> None:
        spectrum = heatline.default_target_spectrum()
        samples = heatline.construct_potential(spectrum, heatline.make_uniform_grid(FIELD_GRID_M))
        self.report = heatline.verify_potential(samples, spectrum, basis_size=FIELD_RITZ_N)
        self.modes = heatline.ModeSet.from_reports(self.report)
        self.deltas = {"setup": float(self.report.delta)}

    def prepare(self) -> None:
        """Nothing is written to disk."""

    def op(self, index: int):
        field = self.fields[index % len(self.fields)]
        k, a = field["k"], field["a"]
        series = heatline.heat_series(
            self.modes, lambda s: np.sin(k * s), lambda rho: np.exp(-a * rho), truncation=FIELD_TRUNCATION
        )
        u = series.evaluate(self.s, self.rho, field["t"])
        wide = heatline.ModeSet.from_reports(self.report, mode_count=FIELD_MODE_COUNT)
        return series, u, wide, heatline.concentration_metric(wide)

    def check(self, index: int, output) -> list[str]:
        series, u, wide, fraction = output
        t = self.fields[index % len(self.fields)]["t"]
        lam = [level.value for level in series.levels]
        wide_lam = np.array([level.value for level in wide.combined])
        failures = []
        if abs(lam[0]) > 1e-3 or abs(lam[1] - 11.0) > 1e-3 * 11.0:
            failures.append(f"lambda_1 = {lam[0]}, lambda_2 = {lam[1]}, want 0 and 11")
        bound = series.tail_norm() * math.exp(-lam[1] * t)
        if series.residual_after_first(t) > bound * (1.0 + 1e-12):
            failures.append(f"residual after the first mode {series.residual_after_first(t)} above {bound}")
        if u.shape != self.s.shape or not np.all(np.isfinite(u)):
            failures.append("heat field is not finite on the whole grid")
        if len(wide_lam) != FIELD_MODE_COUNT**2 or np.any(np.diff(wide_lam) < 0.0):
            failures.append(f"{len(wide_lam)} combined levels, want {FIELD_MODE_COUNT**2} ascending")
        if not 0.0 < fraction < 1.0:
            failures.append(f"concentration {fraction} outside (0, 1)")
        return failures


WORKLOADS = {w.name: w for w in (Tables, FineConstruct, HeatField)}
