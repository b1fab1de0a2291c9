"""One workload in one fresh single-threaded process (started by run.py).

Closed loop with one client: each operation starts when the previous one
and its (untimed) checks have finished.  The first stdout line is written
when set-up (imports and the first round's inputs) is done; a probe exits
there.  A run then executes whole rounds until --seconds have passed and
at least MIN_ROUNDS rounds and MIN_OPS operations are done, and writes one
JSON line of raw results.

Usage: python perfbench/worker.py --workload NAME --seed N --seconds S
       [--trace] [--probe] [--rounds R]

--rounds replaces the time limit with a round count; the traced half of a
per-layer run uses it to repeat exactly the rounds of the untraced half.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from collections import defaultdict
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import gen  # noqa: E402
import stats  # noqa: E402
import toruscert  # noqa: E402
import workloads  # noqa: E402
from toruscert import _speedups  # noqa: E402

MIN_ROUNDS = 2  # the output hash covers exactly these rounds
MIN_OPS = 20  # the tail latency needs more than ten samples


def attempt(workload, op, results, props, tracer=None):
    """Run one operation, timed, then check it untimed.

    Returns (seconds, output bytes, error or None); an exception from the
    operation or a failed check is the error.  Appends the output bytes to
    results, where later operations of the round find their inputs; the
    result object itself is dropped after its check, so the garbage
    collector does not walk a round's worth of results the program would
    not have kept.
    """
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        out, value = workload.execute(op, results)
        error = None
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        out, value, error = b"", None, exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
        tracer.flush()
    results.append(out)
    if error is None:
        try:
            workload.check(op, value, props)
        except Exception as exc:  # noqa: BLE001
            error = exc
    return elapsed, out, error


def build_round(workload, tracer, seed, index):
    """Generate a round and parse it through the library (traced if tracing)."""
    if tracer is not None:
        tracer.active = True
    try:
        return [workload.prepare(raw) for raw in gen.make_round(workload.name, seed, index)]
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.flush()


def run(args, workload, tracer):
    ops = build_round(workload, tracer, args.seed, 0)
    print("ready", flush=True)
    if args.probe:
        return 0

    latencies = []
    attempted = failed = 0
    failures = []
    props = defaultdict(int)
    digest = hashlib.sha256()
    loop_start = perf_counter()
    index = 0
    while True:
        results = []
        for op in ops:
            attempted += 1
            elapsed, out, error = attempt(workload, op, results, props, tracer)
            latencies.append(elapsed)
            if error is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"round {index} {op['kind']}: {error!r}")
                    traceback.print_exception(error, file=sys.stderr)
            if index < MIN_ROUNDS:
                digest.update(len(out).to_bytes(8, "big") + out)
        index += 1
        if args.rounds is not None:
            done = index >= args.rounds
        else:
            done = (
                index >= MIN_ROUNDS
                and attempted >= MIN_OPS
                and perf_counter() - loop_start >= args.seconds
            )
        if done:
            break
        ops = build_round(workload, tracer, args.seed, index)
    wall = perf_counter() - loop_start

    tail_value, tail_pct, samples = stats.tail(latencies)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": index,
        "wall_s": wall,
        "ops_per_s": (attempted - failed) / sum(latencies),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "latency_tail_percentile": tail_pct,
        "latency_samples": samples,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "output_sha256": digest.hexdigest(),
        "output_rounds": MIN_ROUNDS,
        "input_properties": workloads.input_properties(props),
        "active_implementation": _speedups.ACTIVE_IMPLEMENTATION,
        "conventions_hash": toruscert.CONVENTIONS_HASH,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--rounds", type=int)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if args.workload != "cli_cold":
        workload = {"certify": workloads.Certify, "curves": workloads.Curves, "anosov": workloads.Anosov}[
            args.workload
        ]()
        return run(args, workload, tracer)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(HERE, "results"))
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return run(args, workloads.CliCold(workdir, env), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
