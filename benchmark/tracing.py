"""Span tracing of heatline's public functions, installed from outside the package.

`Tracer.install()` replaces each target function at every attribute of a
heatline module (or class) that holds it, so a call is traced however its
caller looks it up: `glsolve.solve_pivoted` as `solve_psi_systems` sees it,
`csvio.write_csv` as imported into `glsolve` and `cli`, and so on.
`uninstall()` puts the originals back.  A target that no longer exists is
recorded as absent and its metrics read 0.

Spans carry an id, the parent span id, the op id, a name and start and end
times in nanoseconds.  They are kept in memory and written out at the end.
A span opened on a thread with no open span of its own (the row workers
of `cmd_table`) takes as parent the innermost open span of the op's thread.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Traced functions as (module, qualified name) inside heatline.  The two
# pipeline entry points give the spans their structure; the rest are layers.
TARGETS = (
    ("spectra", "load_target_spectrum"),
    ("spectra", "build_kernel_terms"),
    ("glsolve", "construct_potential"),
    ("glsolve", "exact_gram"),
    ("glsolve", "solve_psi_systems"),
    ("glsolve", "solve_pivoted"),
    ("glsolve", "recover_potential"),
    ("ritz", "verify_potential"),
    ("ritz", "assemble_ritz_matrix"),
    ("ritz", "cosine_moments"),
    ("ritz", "jacobi_eigen"),
    ("channel", "combine_spectra"),
    ("channel", "heat_series"),
    ("channel", "concentration_metric"),
    ("channel", "HeatSeries.evaluate"),
    ("channel", "ModeSet.axial_mode"),
    ("channel", "ModeSet.radial_mode"),
    ("csvio", "write_csv"),
    ("csvio", "read_float_columns"),
    ("cli", "main"),
    ("cli", "cmd_table"),
)

# Per-layer metrics in the order they are reported: (name, unit).  Times and
# counts are per traced op.
PER_LAYER = (
    ("ritz.jacobi_eigen.self_s", "s/op"),
    ("ritz.jacobi_eigen.calls", "calls/op"),
    ("ritz.cosine_moments.self_s", "s/op"),
    ("ritz.assemble_ritz_matrix.self_s", "s/op"),
    ("glsolve.solve_psi_systems.self_s", "s/op"),
    ("glsolve.solve_pivoted.calls", "calls/op"),
    ("glsolve.solve_pivoted.self_s", "s/op"),
    ("glsolve.exact_gram.self_s", "s/op"),
    ("glsolve.recover_potential.self_s", "s/op"),
    ("glsolve.grid_points", "points/op"),
    ("glsolve.points_per_s", "1/s"),
    ("spectra.build_kernel_terms.self_s", "s/op"),
    ("spectra.load_target_spectrum.self_s", "s/op"),
    ("channel.HeatSeries.evaluate.self_s", "s/op"),
    ("channel.field_samples", "samples/op"),
    ("channel.ModeSet.axial_mode.self_s", "s/op"),
    ("channel.ModeSet.axial_mode.calls", "calls/op"),
    ("channel.ModeSet.radial_mode.self_s", "s/op"),
    ("channel.ModeSet.radial_mode.calls", "calls/op"),
    ("channel.combine_spectra.self_s", "s/op"),
    ("channel.combine_spectra.pairs", "pairs/op"),
    ("channel.heat_series.self_s", "s/op"),
    ("channel.concentration_metric.self_s", "s/op"),
    ("csvio.write_csv.self_s", "s/op"),
    ("csvio.rows_written", "rows/op"),
    ("csvio.read_float_columns.self_s", "s/op"),
    ("csvio.rows_read", "rows/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.cmd_table.overlap", "ratio"),
    ("op.uncovered_share", "ratio"),
    ("trace.overhead", "ratio"),
)

_COUNT_ERRORS = (TypeError, IndexError, KeyError, AttributeError, ValueError)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _count_grid_points(tracer, args, kwargs, result):
    tracer.add("glsolve.grid_points", len(_arg(args, kwargs, 1, "grid").points))


def _count_pairs(tracer, args, kwargs, result):
    pairs = len(_arg(args, kwargs, 0, "axial")) * len(_arg(args, kwargs, 1, "radial"))
    tracer.add("channel.combine_spectra.pairs", pairs)


def _count_field_samples(tracer, args, kwargs, result):
    series, s, rho = args[0], _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 2, "rho")
    points = np.broadcast(np.asarray(s), np.asarray(rho)).size
    tracer.add("channel.field_samples", points * len(series.levels))


def _count_rows_read(tracer, args, kwargs, result):
    tracer.add("csvio.rows_read", len(result[0]) if result else 0)


def _counting_rows(tracer, args, kwargs):
    """Pass write_csv a row iterator that counts what it yields."""

    def rows(source):
        for row in source:
            tracer.add("csvio.rows_written", 1)
            yield row

    if "rows" in kwargs:
        return args, {**kwargs, "rows": rows(kwargs["rows"])}
    return (*args[:2], rows(args[2]), *args[3:]), kwargs


_AFTER = {
    "glsolve.solve_psi_systems": _count_grid_points,
    "channel.combine_spectra": _count_pairs,
    "channel.HeatSeries.evaluate": _count_field_samples,
    "csvio.read_float_columns": _count_rows_read,
}
_BEFORE = {"csvio.write_csv": _counting_rows}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.count_errors: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._op_stack: list[int] | None = None
        self._op_id = 0
        self._patches: list[tuple] = []

    def add(self, counter: str, amount: int) -> None:
        """Add to a counter; row workers of cmd_table count concurrently."""
        with self._count_lock:
            self.counts[counter] += amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        span = [next(self._ids), parent, self._op_id, name, time.perf_counter_ns(), 0]
        stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(tuple(span))

    @contextlib.contextmanager
    def op(self, op_id: int):
        """One root span named "op" around a traced op."""
        self._op_id = op_id
        self._op_stack = self._stack()
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self._op_stack = None

    def _wrap(self, name: str, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                try:
                    args, kwargs = before(self, args, kwargs)
                except _COUNT_ERRORS:
                    self.count_errors.add(name)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                try:
                    after(self, args, kwargs, result)
                except _COUNT_ERRORS:
                    self.count_errors.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each attribute that holds it."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == "heatline" or n.startswith("heatline.")]
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            try:
                owner = importlib.import_module(f"heatline.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in modules for key, value in list(vars(m).items()) if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: id, parent, op, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _gaps(intervals, lo: int, hi: int) -> list[tuple[int, int]]:
    """The parts of [lo, hi] that no interval covers."""
    gaps, reach = [], lo
    for start, end in sorted(intervals):
        if start > reach:
            gaps.append((reach, min(start, hi)))
        reach = max(reach, end)
        if reach >= hi:
            return gaps
    gaps.append((reach, hi))
    return gaps


def _self_times(spans, children) -> Counter:
    """Self time per span name, in ns.

    A span runs on its own while none of its child spans is open.  Where
    several spans run on their own at once (the row workers of cmd_table
    share one interpreter lock), each gets an equal share of that wall time,
    so the self times of an op add up to its duration.  On one thread this
    is the span's duration minus what its children cover.
    """
    events = []
    for span_id, _, _, name, start, end in spans:
        for lo, hi in _gaps(children.get(span_id, ()), start, end):
            events += ((lo, 1, name), (hi, -1, name))
    events.sort(key=lambda event: event[0])
    self_ns, running, count, last = Counter(), Counter(), 0, 0
    for when, step, name in events:
        if count and when > last:
            share = (when - last) / count
            for running_name, k in running.items():
                self_ns[running_name] += share * k
        running[name] += step
        if not running[name]:
            del running[name]
        count += step
        last = when
    return self_ns


def summarize(tracer: Tracer, traced_times: list[float], untraced_times: list[float]) -> dict[str, float]:
    """Per-layer metrics per traced op, keyed as in PER_LAYER.

    The two time lists pair a traced op with an untraced run of the same
    input; the median ratio, less one, is the tracing overhead.
    """
    children = defaultdict(list)
    total_ns, calls = Counter(), Counter()
    for _, parent, _, name, start, end in tracer.spans:
        children[parent].append((start, end))
        total_ns[name] += end - start
        calls[name] += 1
    self_ns = _self_times(tracer.spans, children)
    n_ops = max(calls["op"], 1)
    row_ns = sum(
        end - start
        for span in tracer.spans
        if span[3] == "cli.cmd_table"
        for start, end in children.get(span[0], ())
    )
    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            metrics[name] = self_ns[layer] / 1e9 / n_ops
        elif kind == "calls":
            metrics[name] = calls[layer] / n_ops
        else:
            metrics[name] = tracer.counts[name] / n_ops
    psi_s = total_ns["glsolve.solve_psi_systems"] / 1e9
    table_ns = total_ns["cli.cmd_table"]
    metrics["glsolve.points_per_s"] = tracer.counts["glsolve.grid_points"] / psi_s if psi_s else 0.0
    metrics["cli.cmd_table.overlap"] = row_ns / table_ns if table_ns else 0.0
    metrics["op.uncovered_share"] = self_ns["op"] / total_ns["op"] if total_ns["op"] else 0.0
    ratios = [t / u for t, u in zip(traced_times, untraced_times)]
    metrics["trace.overhead"] = float(np.median(ratios)) - 1.0
    return metrics
