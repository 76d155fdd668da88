"""momir benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):
    python3 bench/run.py --workload {history,montecarlo,wavefit} --seed N \
        --seconds S --trace {0,1}

The run makes the workload's inputs from the seed, times importing momir in
fresh interpreters (``setup_s``), then runs the workload's commands through
``momir.cli.main`` in a separate single-threaded worker process for whole
rounds until S seconds have passed (``wall_s``, median round; ``peak_rss_mb``,
the worker's peak resident memory).  With ``--trace 1`` the worker repeats
the rounds with every traced function wrapped and the per-layer metrics are
reported instead.  Every output is checked against independent computations
(``checks.py``).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every check passed and no command failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# One BLAS/OpenMP thread in every process the run times: with the default
# two, import and ir_matrix times spread far wider than the bounds in
# BENCHMARK.json.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
WORK_ROOT = ".bench_work"
SETUP_REPEATS = 9
# Every run must end within 180 s; the worker gets what is left of that.
RUN_DEADLINE_S = 170.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import momir.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = src
    env.pop("MOMIR_LOG", None)
    return env


def measure_setup(src: str) -> float:
    """Median time to import momir.cli in a fresh interpreter.

    One untimed import first, so that compiling the package's bytecode, which
    a user pays once per installation, is not counted.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=child_env(src),
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_worker(workdir: str, src: str, prepared, seconds: int, trace: bool,
               deadline: float) -> dict:
    plan = {
        "src": src, "workdir": workdir, "seconds": seconds, "trace": trace,
        "ops": [{"name": op.name, "argv": list(op.argv), "outputs": list(op.outputs)}
                for op in prepared.ops],
        "result": os.path.join(workdir, "worker_result.json"),
        "spans": os.path.join(workdir, "spans.npz"),
    }
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(os.path.join(workdir, "worker.log"), "w", encoding="utf-8") as log:
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path],
                       env=child_env(src), stdout=log, stderr=subprocess.STDOUT,
                       timeout=max(deadline - time.monotonic(), 1.0), check=True)
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["spans"] = plan["spans"]
    return result


def tally(workload: str, workdir: str, prepared, rounds: list[list[dict]]) -> tuple[
        bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every operation of every round.

    An operation fails when its command does not exit 0.  The outputs on
    disk, written by the last round, are checked against the independent
    references; every other round must have written byte-identical outputs.
    """
    last = {op["name"]: op for op in rounds[-1]}
    try:
        found = checks.check(workload, workdir, prepared.truth)
    except Exception as exc:  # an unreadable output is a wrong output
        found = {op.name: [f"check raised {type(exc).__name__}: {exc}"] for op in prepared.ops}
    failures, wrong = [], []
    attempted = failed = 0
    for round_ops in rounds:
        for op in round_ops:
            attempted += 1
            if op["code"] != 0:
                failed += 1
                failures.append(f"{op['name']}: exit {op['code']}: {op['stderr'].strip()}")
            elif op["digest"] != last[op["name"]]["digest"]:
                wrong.append(f"{op['name']}: outputs differ between rounds")
    for op in prepared.ops:
        if last[op.name]["code"] == 0:
            wrong.extend(f"{op.name}: {p}" for p in found.get(op.name, []))
    return not wrong, attempted, failed, failures + wrong


def round_wall(round_ops: list[dict]) -> float:
    return sum(op["seconds"] for op in round_ops)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "momir", "__init__.py")):
        print(f"error: no momir sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, WORK_ROOT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    prepared = workloads.PREPARE[args.workload](args.seed, workdir)
    setup_s = measure_setup(src)
    result = run_worker(workdir, src, prepared, args.seconds, bool(args.trace), deadline)
    rounds = result["rounds"]
    traced = result.get("traced_rounds", [])
    # Traced rounds count too: tracing must leave every output unchanged.
    correct, attempted, failed, problems = tally(
        args.workload, workdir, prepared, rounds + traced)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    wall_s = statistics.median(round_wall(r) for r in rounds)
    if args.trace:
        units = tracer.metric_units()
        values = tracer.metrics_from_spans(result["spans"], len(traced))
        values["trace.overhead_s"] = statistics.median(round_wall(r) for r in traced) - wall_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    # No command of these workloads is expected to fail: a failed one ends
    # sooner, so the run must not pass as a faster good run.
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
