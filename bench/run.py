"""pseudospec benchmark: entry point.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the workload in a fresh worker process (``worker.py``) as a
closed loop with one client; the worker also times set-up (a fresh
interpreter importing ``pseudospec.cli``, the cost every CLI invocation
pays) at intervals across the run.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  The last
line of stdout is the result object; the line before it is a report with
the environment, the output digest and every failed command.  Both are
also written under ``.bench_out/``.  The program is run from ``src/``;
without it this script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# One BLAS thread: on a small shared machine a second thread made LAPACK
# timings less steady and spun a core on the 2x2 workload.
BLAS_THREADS = 1
# Percentiles tried for the tail, highest first; the first with at least
# ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# A run must end within 180 s whatever --seconds says.
DEADLINE_S = 170


def blas_env(threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) by the nearest-rank rule.

    The highest percentile of the ladder with ten samples beyond it; below
    20 samples none qualifies and the maximum (percentile 100) is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def environment(seed: int, threads: int, versions: dict) -> dict:
    """Machine, library versions (as the worker saw them), seed and commit."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        **versions,
        "seed": seed,
        "git_commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="pseudospec benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join("src", "pseudospec", "cli.py")):
        print("no pseudospec source under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = blas_env(threads)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print("worker timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        return 3
    res = json.loads(proc.stdout.decode().splitlines()[-1])

    attempted, failed = res["attempted"], res["failed"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, threads, res["versions"]),
        "passes": res["passes"],
        "commands_per_pass": res["commands_per_pass"],
        "stdout_sha256": res["stdout_sha256"],
        "command_s": res["command_s"],
        "fail_ratio": failed / attempted,
        "failures": res["failures"],
        "setup_runs_s": res["setup_s"],
    }
    if args.trace:
        metrics = res["layers"]
    else:
        # One latency per command of the list: the fastest of its passes.
        # The sample count is then the list length, so the tail percentile
        # is the same on every run of a workload.
        latencies = res["command_s"]
        p, value, beyond = tail(latencies)
        report["cmd_tail"] = {"percentile": p, "samples": len(latencies), "beyond": beyond}
        metrics = {
            "setup_s": (statistics.median(res["setup_s"]), "s"),
            "cmds_per_s": (len(latencies) / sum(latencies), "1/s"),
            "cmd_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "cmd_tail_ms": (1000 * value, "ms"),
            "peak_rss_mb": (res["max_rss_kb"] / 1024, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report["result"] = result
    name = f"report_{args.workload}_{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
