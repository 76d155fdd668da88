"""Run every workload and print each metric with its unit, or their spread over seeds.

Usage (from the root of a checkout):
    python3 bench/report.py                       # one untraced and one traced run each
    python3 bench/report.py --seeds 10 --trace 0  # ten seeds: median, quartiles, spread

Each run is ``bench/run.py`` exactly as BENCHMARK.json's command gives it.
The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  All results are also written to ``.bench_work/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv)} printed nothing: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="runs per workload, seeds 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="only untraced (0) or only traced (1) runs; default both")
    args = parser.parse_args()
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    traces = (0, 1) if args.trace is None else (args.trace,)
    seeds = range(1, args.seeds + 1)

    report = {}
    for name in names:
        for trace in traces:
            runs = []
            for seed in seeds:
                runs.append(run_once(spec["command"], name, seed, spec["run_seconds"], trace))
                print(f"{name} trace={trace} seed={seed}: correct={runs[-1]['correct']} "
                      f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}",
                      file=sys.stderr, flush=True)
            report[f"{name}/trace{trace}"] = runs
            for metric, first in runs[0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                line = f"{name:10s} {metric:34s} {median:14.6g} {first['unit']:6s}"
                if len(values) > 1:
                    line += f" q1 {q1:.6g} q3 {q3:.6g} spread {100 * share:.2f}%"
                print(line, flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_work", "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    bad = [k for k, runs in report.items() if any(not r["correct"] or r["failed"] for r in runs)]
    if bad:
        print(f"incorrect or failed operations in: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
