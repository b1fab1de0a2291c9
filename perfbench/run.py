"""toruscert benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see gen.py for the exact mix of each round):

  certify   c_distance certificates at bound 100 over 6-class lists,
            collection_distance on small specs, verify_report on every
            emitted report; the displacement scan is almost all the time.
  curves    geodesic, distance and normal_sign_intersections over fixed
            cost strata; no scan.  About a fifth of the pairs repeat.
  anosov    power_bound, verify_report on its reports, trace_sequence;
            big-integer Fraction algebra, no scan.
  cli_cold  one `python -m toruscert.cli` process per operation, stdout
            compared byte for byte with the in-process result.

Each workload runs in a fresh single-threaded worker process (worker.py)
as a closed loop with one client.  Every output is checked outside the
timed interval; a failed check or an exception counts the operation as
failed, and the benchmark then exits 1.

--trace 0 prints the end-to-end metrics: setup_s (median of eleven fresh
set-up probes after one warm-up, six before the timed run and five
after it), ops_per_s, latency_p50_ms, latency_tail_ms, peak_rss_mb.
--trace 1 runs the workload twice for half the time each, untraced and
traced, and prints the per-layer metrics, including trace.overhead_ratio
(untraced over traced ops/s).

The last stdout line is the JSON result; everything, with run metadata,
is also written to perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
from statistics import median
from time import perf_counter

from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 11
CLI_PROBES = 5
RUN_LIMIT_S = 170  # every process this run starts is stopped by then


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def remaining(args):
    left = args.deadline - perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def worker(args, seconds, *flags):
    """Start a worker; return (seconds until its ready line, final result or None).

    The worker leads its own process group, so on a timeout the CLI
    processes it may have started are stopped with it.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), *flags,
    ]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], remaining(args))[0]:
            raise BenchError(f"worker for {args.workload} did not finish set-up in time")
        ready = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest, _ = proc.communicate(timeout=remaining(args))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            for workdir in glob.glob(os.path.join(RESULTS, "cli-*")):
                shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not ready:
        raise BenchError(f"worker for {args.workload} exited with code {proc.returncode}")
    lines = rest.decode().strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def timed_run(args, cmd):
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=remaining(args))
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{cmd} exited with code {proc.returncode}")
    return elapsed, proc.stderr.decode()


def cli_import_s(args):
    """Cumulative import time of toruscert.cli, from -X importtime."""
    _, err = timed_run(args, [sys.executable, "-X", "importtime", "-c", "import toruscert.cli"])
    for line in err.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "toruscert.cli":
            return int(parts[1]) / 1e6
    raise BenchError("toruscert.cli missing from -X importtime output")


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, timeout=10, check=False
        )
    except OSError:
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def end_to_end(args, meta):
    worker(args, 0, "--probe")  # warm-up: bytecode caches
    ready = [worker(args, 0, "--probe")[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    _, result = worker(args, args.seconds)
    # Host slowdowns last seconds; probing on both sides of the timed run
    # keeps one of them from setting the median.
    ready += [worker(args, 0, "--probe")[0] for _ in range(SETUP_PROBES // 2)]
    meta["setup_probes_s"] = ready
    metrics = {
        "setup_s": (median(ready), "s"),
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "latency_p50_ms": (result["latency_p50_ms"], "ms"),
        "latency_tail_ms": (result["latency_tail_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return [result], metrics


def per_layer(args, meta):
    half = args.seconds / 2
    _, plain = worker(args, half)
    _, traced = worker(args, half, "--trace", "--rounds", str(plain["rounds"]))
    metrics = {name: tuple(value) for name, value in traced.pop("per_layer").items()}
    metrics["cli.import_s"] = (median(cli_import_s(args) for _ in range(CLI_PROBES)), "s")
    metrics["cli.interpreter_s"] = (
        median(timed_run(args, [sys.executable, "-c", "pass"])[0] for _ in range(CLI_PROBES)),
        "s",
    )
    metrics["trace.overhead_ratio"] = (plain["ops_per_s"] / traced["ops_per_s"], "ratio")
    meta["untraced_ops_per_s"] = plain["ops_per_s"]
    meta["traced_ops_per_s"] = traced["ops_per_s"]
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = perf_counter() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "toruscert", "__init__.py")):
        print(f"toruscert sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args, meta)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    main_run = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    meta.update(
        active_implementation=main_run["active_implementation"],
        conventions_hash=main_run["conventions_hash"],
        output_sha256=main_run["output_sha256"],
        output_rounds=main_run["output_rounds"],
        input_properties=main_run["input_properties"],
        latency_tail_percentile=main_run["latency_tail_percentile"],
        latency_samples=main_run["latency_samples"],
        rounds=main_run["rounds"],
        wall_s=main_run["wall_s"],
        fail_ratio=failed / attempted,
        failures=[f for r in runs for f in r["failures"]],
    )
    correct = failed == 0 and len({r["output_sha256"] for r in runs}) == 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    path = os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=2, sort_keys=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':<48} {meta['fail_ratio']:>16.6g} ratio")
    print(
        f"latency_tail_ms is the p{meta['latency_tail_percentile']:.2f} "
        f"of {meta['latency_samples']} samples; output sha256 {meta['output_sha256'][:16]}; "
        f"kernel {meta['active_implementation']}; written to {os.path.relpath(path, ROOT)}"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
