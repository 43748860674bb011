"""The benchmark tracer's targets still name heatline functions.

The per-layer metrics of `benchmark/tracing.py` read 0 when a target
function is renamed or deleted, so a change under `src/` could zero a metric
without any test failing.  This module loads the tracer as it is and checks
its targets and the argument positions its counters read.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import heatline
from heatline import channel, csvio, glsolve

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"

# targets whose function is gone from heatline and whose metrics read 0
KNOWN_ABSENT = ["glsolve.solve_pivoted"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_except_the_known_absent(tracing):
    original = glsolve.solve_psi_systems
    tracer = tracing.Tracer()
    tracer.install()
    try:
        absent = list(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == KNOWN_ABSENT
    # uninstall put the originals back for the tests that follow
    assert glsolve.solve_psi_systems is original
    assert heatline.solve_psi_systems is original


@pytest.mark.parametrize("function, position, name", [
    (glsolve.solve_psi_systems, 1, "grid"),
    (glsolve.construct_potential, 1, "grid"),
    (channel.combine_spectra, 0, "axial"),
    (channel.combine_spectra, 1, "radial"),
    (channel.HeatSeries.evaluate, 1, "s"),
    (channel.HeatSeries.evaluate, 2, "rho"),
    (csvio.write_csv, 2, "rows"),
])
def test_counted_arguments_keep_their_positions(function, position, name):
    assert list(inspect.signature(function).parameters)[position] == name
