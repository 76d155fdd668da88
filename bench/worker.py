"""Runs one workload's commands through ``momir.cli.main`` in whole rounds.

Usage: python3 bench/worker.py PLAN.json

The plan names the work directory, the operations, the measuring time and
whether to trace.  Rounds repeat until the measuring time has passed.  With
tracing on, the same number of rounds runs again with every traced function
wrapped (see ``tracer.py``), and the spans are saved next to the result.  The
process imports nothing of the benchmark's input generation or checks, so
its peak resident memory is the program's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _run_round(cli, ops, tracer=None) -> list[dict]:
    results = []
    for op in ops:
        span = None
        if tracer is not None:
            span = tracer.open(tracer.name_id(f"cli.{op['argv'][0]}"))
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is one failed operation, not a dead run
            code, stderr = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        outputs = op["outputs"]
        done = code == 0 and all(os.path.exists(p) for p in outputs)
        results.append({
            "name": op["name"], "code": code, "seconds": elapsed,
            "digest": _digest(outputs) if done else None,
            "stderr": stderr.getvalue()[-500:],
        })
    return results


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = plan["src"]  # on PYTHONPATH, set by run.py
    import momir.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"momir imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.chdir(plan["workdir"])
    ops = plan["ops"]

    start = time.perf_counter()
    rounds = [_run_round(cli, ops)]
    # Peak memory of one pass over the commands: later rounds can raise the
    # high-water mark through heap fragmentation, and the round count
    # depends on the host's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < plan["seconds"]:
        rounds.append(_run_round(cli, ops))
    result = {"rounds": rounds, "peak_rss_mb": peak_rss_mb}

    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["traced_rounds"] = [_run_round(cli, ops, tracer) for _ in rounds]
        tracer.save(plan["spans"])

    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
