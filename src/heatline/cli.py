"""Command-line pipeline: construct, verify, table, channel, diagnose-linearized.

Exit codes: 0 on success, 1 when a verified delta exceeds the configured
threshold, 2 on input errors (bad flags, malformed files, invalid data).
All numeric output is written as CSV with 17 significant digits, so a
saved potential re-verifies to exactly the fused in-process result.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from .csvio import InputFormatError, write_csv
from .glsolve import (
    MAX_GRID_INTERVALS,
    Grid,
    PotentialSamples,
    SingularSystemError,
    construct_potential,
    make_two_zone_grid,
    make_uniform_grid,
)
from .ritz import (
    DEFAULT_BASIS_SIZE,
    DEFAULT_COMPARE_COUNT,
    DegenerateShapeError,
    JacobiConvergenceError,
    linearized_qtilde_diagnostic,
    verify_potential,
)
from .spectra import (
    TargetSpectrum,
    check_type,
    default_target_spectrum,
    load_target_spectrum,
)

#: convergence-table rows: grid flags, the published reference delta (percent)
#: printed alongside the computed one, and the row's print label
TABLE_ROWS = {
    "uniform": (
        ({"grid_m": 100}, 57.12, "M = 100"),
        ({"grid_m": 150}, 5.01, "M = 150"),
        ({"grid_m": 200}, 1.65, "M = 200"),
        ({"grid_m": 250}, 0.67, "M = 250"),
        ({"grid_m": 300}, 0.32, "M = 300"),
    ),
    "two_zone": (
        ({"grid_m1": 50, "grid_m2": 50}, 4.68, "M1 = 50, M2 =  50"),
        ({"grid_m1": 50, "grid_m2": 75}, 0.94, "M1 = 50, M2 =  75"),
        ({"grid_m1": 50, "grid_m2": 100}, 0.23, "M1 = 50, M2 = 100"),
    ),
}

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_INPUT = 2

#: largest sine basis; a cold Jacobi on the paper matrix (M = 300) takes
#: 1.3-1.7 s at N = 200 and 8.1-9.5 s at N = 400 on 2 vCPUs (3 runs each),
#: sweeps plus refinement
MAX_RITZ_N = 400


@dataclass(frozen=True)
class RunConfig:
    """One pipeline configuration; mirrors the CLI flags one to one."""

    spectrum_file: str | None = None
    grid_m: int | None = None
    grid_m1: int | None = None
    grid_m2: int | None = None
    ritz_n: int = DEFAULT_BASIS_SIZE
    compare_j: int = DEFAULT_COMPARE_COUNT
    out_dir: str = "out"
    threshold: float | None = None

    def validate(self, verifies: bool = True) -> None:
        """Reject ill-typed, conflicting or oversized values.

        `verifies` is false for a command that never builds the ritz_n
        basis, so compare_j need not fit inside it.
        """
        for name, hint in typing.get_type_hints(RunConfig).items():
            check_type(name, getattr(self, name), typing.get_args(hint) or (hint,))
        uniform = self.grid_m is not None
        two_zone = self.grid_m1 is not None or self.grid_m2 is not None
        if uniform and two_zone:
            raise ValueError("choose either --grid-m or --grid-m1/--grid-m2, not both")
        if two_zone and (self.grid_m1 is None or self.grid_m2 is None):
            raise ValueError("a two-zone grid needs both --grid-m1 and --grid-m2")
        intervals = sum(m for m in (self.grid_m, self.grid_m1, self.grid_m2) if m is not None)
        if intervals > MAX_GRID_INTERVALS:
            raise ValueError(f"refusing to allocate a grid of {intervals} intervals "
                             f"(limit {MAX_GRID_INTERVALS})")
        for name in ("ritz_n", "compare_j"):
            if getattr(self, name) > MAX_RITZ_N:
                raise ValueError(f"refusing to allocate a sine basis of {getattr(self, name)} "
                                 f"functions for {name} (limit {MAX_RITZ_N})")
        if (verifies and self.ritz_n < self.compare_j) or self.compare_j < 2:
            raise ValueError("require ritz_n >= compare_j >= 2")

    def make_grid(self) -> Grid:
        if self.grid_m1 is not None and self.grid_m2 is not None:
            return make_two_zone_grid(self.grid_m1, self.grid_m2)
        return make_uniform_grid(self.grid_m if self.grid_m is not None else 300)

    def load_spectrum(self) -> TargetSpectrum:
        if self.spectrum_file is None:
            return default_target_spectrum()
        return load_target_spectrum(self.spectrum_file)


GRID_FLAGS = ("grid_m", "grid_m1", "grid_m2")

#: the RunConfig fields each command reads; its parser takes a flag for each
#: of them and refuses every other
COMMAND_FIELDS = {
    "construct": ("spectrum_file", *GRID_FLAGS, "out_dir"),
    "verify": ("spectrum_file", "ritz_n", "compare_j", "out_dir", "threshold"),
    # the table rows fix their own grids
    "table": ("spectrum_file", "ritz_n", "compare_j", "out_dir"),
    "channel": ("spectrum_file", *GRID_FLAGS, "ritz_n", "compare_j", "out_dir"),
    "diagnose-linearized": ("spectrum_file", *GRID_FLAGS, "compare_j", "out_dir"),
}
#: the fields that a saved --potential replaces
REPLACED_BY_POTENTIAL = {"channel": GRID_FLAGS, "diagnose-linearized": ("spectrum_file", *GRID_FLAGS)}

FLAG_HELP = {
    "spectrum_file": "target spectrum JSON",
    "grid_m": "uniform grid intervals",
    "grid_m1": "left-zone intervals",
    "grid_m2": "right-zone intervals",
    "ritz_n": "sine basis size",
    "compare_j": "eigenvalues compared against the target",
    "out_dir": "output directory",
    "threshold": "fail (exit 1) if delta exceeds this value",
}


def _refuse_unread(args: argparse.Namespace, extras: list[str]) -> None:
    """Refuse the arguments the parser did not take, and the flags that --potential replaces."""
    replaced = REPLACED_BY_POTENTIAL.get(args.command, ()) if getattr(args, "potential", None) else ()
    given = [f"--{name.replace('_', '-')} {getattr(args, name)}"
             for name in replaced if getattr(args, name) is not None]
    if extras or given:
        with_potential = " with --potential" if given else ""
        raise ValueError(f"heatline {args.command}{with_potential}: "
                         f"unrecognized arguments: {' '.join(extras + given)}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except RecursionError:
                raise ValueError(f"config file {args.config} nests too deeply") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"config file must hold a JSON object, got {file_values!r}")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = replace(config, **file_values)
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    config = replace(config, **overrides)
    config.validate(verifies=hasattr(args, "ritz_n"))
    return config


def cmd_construct(config: RunConfig) -> int:
    spectrum = config.load_spectrum()
    samples = construct_potential(spectrum, config.make_grid())
    out = Path(config.out_dir) / "potential.csv"
    samples.to_csv(out)
    print(f"wrote {out}: {len(samples.grid)} points, "
          f"min Q = {samples.values.min():.6g}, max Q = {samples.values.max():.6g}")
    return EXIT_OK


def cmd_verify(config: RunConfig, potential_path: str | None) -> int:
    spectrum = config.load_spectrum()
    path = Path(potential_path) if potential_path else Path(config.out_dir) / "potential.csv"
    report = verify_potential(PotentialSamples.from_csv(path), spectrum, config.ritz_n, config.compare_j)
    out_dir = Path(config.out_dir)
    report.to_csv(out_dir / "report.csv")
    report.eigenvectors_to_csv(out_dir / "eigenvectors.csv")
    print(f"delta = {report.delta:.6e} ({100 * report.delta:.4f}%), "
          f"|nu_1 error| = {report.first_abs_error:.3e}")
    if config.threshold is not None and report.delta > config.threshold:
        print(f"delta exceeds threshold {config.threshold:.6e}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_table(config: RunConfig, which: str) -> int:
    spectrum = config.load_spectrum()
    table = TABLE_ROWS[which]
    rows = []
    # each row after the first starts Jacobi from the previous row's
    # eigenbasis, which nearly diagonalizes the next, finer potential
    start = None
    for grid_flags, reference, label in table:
        grid = replace(config, **{"grid_m": None, "grid_m1": None, "grid_m2": None, **grid_flags}).make_grid()
        samples = construct_potential(spectrum, grid)
        report = verify_potential(samples, spectrum, config.ritz_n, config.compare_j, start)
        delta, start = report.delta, report.eigenvectors
        print(f"{label}: delta = {100 * delta:.4f}%  (reference {reference}%)")
        rows.append((*grid_flags.values(), 100.0 * delta, reference))
    header = [flag.removeprefix("grid_") for flag in table[0][0]] + ["delta", "paper_delta"]
    out = Path(config.out_dir) / f"table_{which}.csv"
    write_csv(out, header, rows)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_channel(config: RunConfig, potential_path: str | None) -> int:
    spectrum = config.load_spectrum()
    if potential_path:
        samples = PotentialSamples.from_csv(potential_path)
    else:
        samples = construct_potential(spectrum, config.make_grid())
    report = verify_potential(samples, spectrum, config.ritz_n, config.compare_j)
    modes = channel_mod.ModeSet.from_reports(report)
    out_dir = Path(config.out_dir)
    channel_mod.write_lambda_csv(modes, out_dir / "lambda.csv")
    channel_mod.write_first_mode_csv(modes, out_dir / "mode1.csv")
    series = channel_mod.heat_series(
        modes,
        axial_profile=np.sin,
        radial_profile=lambda rho: np.exp(-2.0 * rho),
        truncation=min(25, len(modes.combined)),
    )
    channel_mod.write_heat_csv(series, out_dir / "heat.csv")
    fraction = channel_mod.concentration_metric(modes)
    lam = modes.combined
    print(f"lambda_1 = {lam[0].value:.6e}, lambda_2 = {lam[1].value:.8f}")
    print(f"core concentration (rho < pi/2): {fraction:.4f}")
    print(f"wrote {out_dir / 'lambda.csv'}, {out_dir / 'mode1.csv'}, {out_dir / 'heat.csv'}")
    return EXIT_OK


def cmd_diagnose_linearized(config: RunConfig, potential_path: str | None) -> int:
    if potential_path:
        samples = PotentialSamples.from_csv(potential_path)
    else:
        spectrum = config.load_spectrum()
        given = any(getattr(config, name) is not None for name in GRID_FLAGS)
        grid_config = config if given else replace(config, grid_m1=50, grid_m2=75)
        samples = construct_potential(spectrum, grid_config.make_grid())
    diag = linearized_qtilde_diagnostic(samples, config.compare_j)
    out = Path(config.out_dir) / "linearized_error.csv"
    size = diag.entrywise_error.shape[0]
    rows = [
        (n + 1, m + 1, diag.entrywise_error[n, m])
        for n in range(size)
        for m in range(size)
    ]
    write_csv(out, ["n", "m", "E"], rows)
    print(f"straight-line tail moments vs trapezoid: min(E) = {diag.min_error:.4f}, "
          f"max(E) = {diag.max_error:.2f}")
    print("conclusion: " + (
        "straight-line approximation is numerically invalid (max(E) > 10)"
        if diag.max_error > 10.0
        else "matrices agree closely"
    ))
    print(f"wrote {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of printing usage and exiting; subparsers inherit it."""

    def error(self, message: str) -> typing.NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatline",
        description="Construct 1-D potentials with a prescribed Dirichlet spectrum, "
        "verify them variationally, and compute the modes of the 3-D heat channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(RunConfig)
    for command, help_text in (
        ("construct", "build Q and write potential.csv"),
        ("verify", "recompute the spectrum of a saved potential"),
        ("table", "reproduce a convergence table"),
        ("channel", "assemble 3-D modes and heat evolution data"),
        ("diagnose-linearized", "test straight-line tail moments against trapezoid"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with config keys; flags override it")
        for name in COMMAND_FIELDS[command]:
            kind = (typing.get_args(hints[name]) or (hints[name],))[0]
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=FLAG_HELP[name])
    sub.choices["verify"].add_argument("--potential", help="potential CSV (default <out-dir>/potential.csv)")
    sub.choices["table"].add_argument("which", choices=tuple(TABLE_ROWS))
    for command in REPLACED_BY_POTENTIAL:
        sub.choices[command].add_argument("--potential", help="reuse a saved potential CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        _refuse_unread(args, extras)
        config = _config_from_args(args)
        # looked up at call time, so a wrapped cmd_* is the one that runs
        commands = {
            "construct": lambda: cmd_construct(config),
            "verify": lambda: cmd_verify(config, args.potential),
            "table": lambda: cmd_table(config, args.which),
            "channel": lambda: cmd_channel(config, args.potential),
            "diagnose-linearized": lambda: cmd_diagnose_linearized(config, args.potential),
        }
        return commands[args.command]()
    except (
        InputFormatError,
        SingularSystemError,
        DegenerateShapeError,
        JacobiConvergenceError,
        ValueError,
        OSError,
        MemoryError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
