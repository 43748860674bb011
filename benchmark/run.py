"""heatline benchmark: one workload, one seed, a closed loop of ops for a fixed time.

    python3 benchmark/run.py --workload tables --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and imports heatline from its
`src/`.  One client runs one op at a time in this process.  One untimed
warm-up op comes first; then ops run until their summed time reaches
`--seconds` and the last round through the workload's input pool is
whole.  Each op's outputs are checked between ops, outside the timed
region; an op that raises, exits non-zero or fails its check counts as
failed.

With `--trace 0` the last stdout line is the JSON result with the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` every op runs
twice, untraced and then traced; the traced runs give the per-layer metrics
and the paired times give the tracing overhead.  Lines before the result
print every metric with its unit, and a full record (machine, generated
inputs, per-op times and failures) goes to `benchmark/_out/results/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

#: fresh interpreters whose set-up time is measured; setup_s is their median
SETUP_REPS = 3

#: no op starts later than this after launch, so a run ends well within 180 s
DEADLINE_S = 140.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("delta_max", "ratio"),
)

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


def import_heatline():
    """Import heatline from this checkout's src/, and nothing installed elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import heatline
    except ImportError as err:
        raise BenchmarkError(f"cannot import heatline from {ROOT / 'src'}: {err}") from None
    if ROOT / "src" not in Path(heatline.__file__).resolve().parents:
        raise BenchmarkError(f"heatline was imported from {heatline.__file__}, not from this checkout")
    return heatline


def check_metric_names(trace: bool) -> None:
    """The metrics this file reports must be those BENCHMARK.json declares."""
    from tracing import PER_LAYER

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {err}") from None
    key, ours = ("per_layer", PER_LAYER) if trace else ("end_to_end", END_TO_END)
    declared = [(m["name"], m["unit"]) for m in spec[key]]
    if sorted(declared) != sorted(ours):
        raise BenchmarkError(f"BENCHMARK.json {key} {declared} differs from the reported {list(ours)}")


def machine_record(load_1min: float) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "load_1min_at_start": load_1min,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs right now.

    Taken at the start and end of each run, it tells a slow spell of the
    machine apart from a slower program when two runs are compared.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import heatline and set the workload up once; print the seconds."""
    start = time.perf_counter()
    import_heatline()
    from workloads import WORKLOADS

    work = OUT / f"work-probe-{os.getpid()}"
    try:
        WORKLOADS[workload](seed, work).setup()
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_op(workload, index: int, records: list, *, timed: bool, tracer=None) -> float:
    """Prepare, run and check one op; returns its seconds."""
    workload.prepare()
    gc.collect()
    failures = []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.op(index):
                output = workload.op(index)
        else:
            output = workload.op(index)
    except Exception as exc:  # an op that raises is a failed op, and the loop goes on
        output = None
        failures.append(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if not failures:
        try:
            failures = workload.check(index, output)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            failures = [f"check could not read the outputs: {type(exc).__name__}: {exc}"]
    records.append({"index": index, "seconds": elapsed, "timed": timed,
                    "traced": tracer is not None, "failures": failures})
    return elapsed


def tail_percentile(times: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    return {"percentile": int(100 * (n - 10) // n), "value_s": ordered[n - 11],
            "beyond": 10, "samples": n}


def main(argv: list[str] | None = None) -> int:
    launched = time.monotonic()
    load_1min = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "fine_construct", "heat_field"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_heatline()
    check_metric_names(bool(args.trace))
    import tracing
    from workloads import WORKLOADS

    machine = machine_record(load_1min)
    machine["reference_loop_s"] = {"start": reference_loop_s()}
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    records: list[dict] = []
    try:
        workload.setup()
        run_op(workload, 0, records, timed=False)
        timed_total, index = 0.0, 0
        deadline = launched + DEADLINE_S
        while (timed_total < args.seconds or index % workload.round_size) and time.monotonic() < deadline:
            timed_total += run_op(workload, index, records, timed=True)
            if tracer is not None:
                timed_total += run_op(workload, index, records, timed=True, tracer=tracer)
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        machine["reference_loop_s"]["end"] = reference_loop_s()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in records if r["timed"]]
    failed = sum(1 for r in records if r["failures"])
    ok_timed = [r for r in timed if not r["failures"]]
    op_times = [r["seconds"] for r in timed if not r["traced"]]
    delta_max = workload.delta_max()
    correct = failed == 0 and delta_max is not None
    extras = {"fail_ratio": failed / len(records), "tail": tail_percentile(op_times)}
    if args.trace:
        traced_times = [r["seconds"] for r in timed if r["traced"]]
        metrics = tracing.summarize(tracer, traced_times, op_times)
        units = dict(tracing.PER_LAYER)
        extras["absent"] = sorted(set(tracer.absent))
        extras["count_errors"] = sorted(tracer.count_errors)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(op_times),
            "ops_per_s": len(ok_timed) / timed_total,
            "success_ratio": 1.0 - extras["fail_ratio"],
            "peak_rss_mb": peak_rss_mb,
            "delta_max": delta_max if delta_max is not None else 0.0,
        }
        units = dict(END_TO_END)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "inputs": workload.inputs, "input_summary": workload.summary(),
        "setup_samples_s": setup_samples, "ops": records, "metrics": metrics, **extras,
    }
    if tracer is not None:
        record["spans_file"] = f"{stem}.spans.jsonl.gz"
        tracer.write(results / record["spans_file"])
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(timed)} timed + 1 warm-up in {timed_total:.2f} s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {extras['fail_ratio']:.6g} ({failed} of {len(records)} ops)")
    tail = extras["tail"]
    if tail:
        print(f"  {'op_s_p' + str(tail['percentile']):40s} {tail['value_s']:.6g} s "
              f"({tail['beyond']} of {tail['samples']} untraced timed ops beyond it)")
    else:
        print(f"  {'op_s tail':40s} none: {len(op_times)} untraced timed ops, 11 needed")
    reference = machine["reference_loop_s"]
    print(f"  {'reference_loop_s':40s} {reference['start']:.4g} s at start, {reference['end']:.4g} s at end")
    for name in extras.get("absent", ()):
        print(f"  absent: {name}")
    for r in records:
        for message in r["failures"]:
            print(f"  FAILED op {r['index']}: {message}")
    print(f"record: {(results / (stem + '.json')).relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
