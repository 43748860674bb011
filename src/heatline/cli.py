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
    DEFAULT_JACOBI_TOL,
    DegenerateShapeError,
    JacobiConvergenceError,
    RitzReport,
    linearized_qtilde_diagnostic,
    verify_potential,
)
from .spectra import (
    PI,
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

#: largest total number of grid intervals; M = 1e5 constructs in about 1.4 s
MAX_GRID_INTERVALS = 100_000
#: largest sine basis; a cold Jacobi on the paper matrix takes about 1.3 s at
#: N = 200 and 15 s at N = 400 on 2 vCPUs (1.7 s and 32 s without pair
#: compression, same host)
MAX_RITZ_N = 400


@dataclass(frozen=True)
class RunConfig:
    """One pipeline configuration; mirrors the CLI flags one to one."""

    spectrum_file: str | None = None
    grid_m: int | None = None
    grid_m1: int | None = None
    grid_m2: int | None = None
    grid_split: float = 0.9 * PI
    ritz_n: int = DEFAULT_BASIS_SIZE
    compare_j: int = DEFAULT_COMPARE_COUNT
    jacobi_tol: float = DEFAULT_JACOBI_TOL
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
        if self.jacobi_tol <= 0.0:
            raise ValueError("jacobi tolerance must be positive")

    def make_grid(self) -> Grid:
        if self.grid_m1 is not None and self.grid_m2 is not None:
            return make_two_zone_grid(self.grid_m1, self.grid_m2, self.grid_split)
        return make_uniform_grid(self.grid_m if self.grid_m is not None else 300)

    def load_spectrum(self) -> TargetSpectrum:
        if self.spectrum_file is None:
            return default_target_spectrum()
        return load_target_spectrum(self.spectrum_file)


GRID_FLAGS = ("grid_m", "grid_m1", "grid_m2", "grid_split")
RITZ_FLAGS = ("ritz_n", "compare_j", "jacobi_tol")


def _read_flags(args: argparse.Namespace) -> set[str]:
    """Dests of the parsed arguments that the chosen command reads."""
    reused = getattr(args, "potential", None) is not None
    built = () if reused else ("spectrum_file", *GRID_FLAGS)
    split = ("grid_split",) if getattr(args, "which", None) == "two_zone" else ()
    read = {
        "construct": ("spectrum_file", *GRID_FLAGS),
        "verify": ("spectrum_file", "potential", *RITZ_FLAGS, "threshold"),
        # the table rows fix their own grid sizes; only the two-zone split is free
        "table": ("spectrum_file", *RITZ_FLAGS, *split),
        "channel": ("spectrum_file", "potential", *built, *RITZ_FLAGS),
        "diagnose-linearized": ("potential", "compare_j", *built),
    }[args.command]
    return {"command", "which", "config", "out_dir", *read}


def _reject_unread_flags(args: argparse.Namespace) -> None:
    """Refuse a flag the chosen command would ignore; config-file keys may be shared."""
    read = _read_flags(args)
    unread = [name for name, value in vars(args).items() if value is not None and name not in read]
    if unread:
        command = " ".join([args.command, *([args.which] if args.command == "table" else [])])
        with_potential = " with --potential" if getattr(args, "potential", None) else ""
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise ValueError(f"heatline {command}{with_potential} does not read {flags}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
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
    config.validate(verifies="ritz_n" in _read_flags(args))
    return config


def _verify(
    config: RunConfig,
    samples: PotentialSamples,
    spectrum: TargetSpectrum,
    start: np.ndarray | None = None,
) -> RitzReport:
    return verify_potential(
        samples,
        spectrum,
        basis_size=config.ritz_n,
        compare_count=config.compare_j,
        jacobi_tol=config.jacobi_tol,
        start=start,
    )


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
    report = _verify(config, PotentialSamples.from_csv(path), spectrum)
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
        report = _verify(config, construct_potential(spectrum, grid), spectrum, start)
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
    modes = channel_mod.ModeSet.from_reports(_verify(config, samples, spectrum))
    out_dir = Path(config.out_dir)
    channel_mod.write_lambda_csv(modes, out_dir / "lambda.csv")
    channel_mod.write_first_mode_csv(modes, out_dir / "mode1.csv")
    series = channel_mod.heat_series(
        modes,
        axial_profile=np.sin,
        radial_profile=lambda rho: np.exp(-2.0 * rho),
        truncation=min(25, len(modes.combined)),
    )
    channel_mod.write_heat_csv(series, out_dir / "heat.csv", times=(0.0, 0.5, 1.0, 2.0))
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
        grid_config = config if (config.grid_m or config.grid_m1) else replace(
            config, grid_m1=50, grid_m2=75
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatline",
        description="Construct 1-D potentials with a prescribed Dirichlet spectrum, "
        "verify them variationally, and compute the modes of the 3-D heat channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with config keys; flags override it")
        p.add_argument("--spectrum-file", dest="spectrum_file", help="target spectrum JSON")
        p.add_argument("--grid-m", dest="grid_m", type=int, help="uniform grid intervals")
        p.add_argument("--grid-m1", dest="grid_m1", type=int, help="left-zone intervals")
        p.add_argument("--grid-m2", dest="grid_m2", type=int, help="right-zone intervals")
        p.add_argument("--grid-split", dest="grid_split", type=float,
                       help="two-zone split point (default 9*pi/10)")
        p.add_argument("--ritz-n", dest="ritz_n", type=int, help="sine basis size")
        p.add_argument("--compare-j", dest="compare_j", type=int,
                       help="eigenvalues compared against the target")
        p.add_argument("--jacobi-tol", dest="jacobi_tol", type=float,
                       help="off-diagonal Frobenius tolerance")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        p.add_argument("--threshold", dest="threshold", type=float,
                       help="fail (exit 1) if delta exceeds this value")

    p_construct = sub.add_parser("construct", help="build Q and write potential.csv")
    add_common(p_construct)

    p_verify = sub.add_parser("verify", help="recompute the spectrum of a saved potential")
    add_common(p_verify)
    p_verify.add_argument("--potential", help="potential CSV (default <out-dir>/potential.csv)")

    p_table = sub.add_parser("table", help="reproduce a convergence table")
    add_common(p_table)
    p_table.add_argument("which", choices=("uniform", "two_zone"))

    p_channel = sub.add_parser("channel", help="assemble 3-D modes and heat evolution data")
    add_common(p_channel)
    p_channel.add_argument("--potential", help="reuse a saved potential CSV")

    p_diag = sub.add_parser("diagnose-linearized",
                            help="test straight-line tail moments against trapezoid")
    add_common(p_diag)
    p_diag.add_argument("--potential", help="reuse a saved potential CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _reject_unread_flags(args)
        config = _config_from_args(args)
        if args.command == "construct":
            return cmd_construct(config)
        if args.command == "verify":
            return cmd_verify(config, args.potential)
        if args.command == "table":
            return cmd_table(config, args.which)
        if args.command == "channel":
            return cmd_channel(config, args.potential)
        if args.command == "diagnose-linearized":
            return cmd_diagnose_linearized(config, args.potential)
        raise ValueError(f"unknown command {args.command!r}")
    except (
        InputFormatError,
        SingularSystemError,
        DegenerateShapeError,
        JacobiConvergenceError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        MemoryError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
