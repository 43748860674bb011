"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmark/repeat.py --workloads tables heat_field --seeds 1-10 [--trace 0]
        [--seconds 50] [--out benchmark/_out/repeat.json]

For each workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  The
summary can be written as JSON, which is how `baseline.json` was made.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()), flush=True)
        summary[workload] = {name: {"unit": units[name], **summarize(v)} for name, v in values.items()}
        for name, stats in summary[workload].items():
            print(f"  {workload:15s} {name:40s} median {stats['median']:.6g} {stats['unit']:10s} "
                  f"spread {stats['spread']:.4f}")
    if args.out:
        record = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
