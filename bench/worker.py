"""Benchmark worker: one closed-loop client driving ``pseudospec.cli.main``.

Started by ``run.py`` in a fresh interpreter from the root of a source
checkout.  It builds the workload's seeded command list, sends each
command through ``pseudospec.cli.main(argv)`` with stdout and stderr
captured, the next only after the previous one returned, checks every
output and prints one JSON line of raw results.  The list is run in whole
passes, at least two and more while another one fits in ``--seconds``.
Every command thus runs at least twice; its bytes must repeat exactly,
and its latency is the fastest of its runs.  The slower runs carry the
first-run costs (lazy imports, first touch of large arrays) and the
interference of other work on a shared machine: on a shared 2-core
virtual machine the median of a 20 s run moved by up to a third from run
to run, the fastest run much less.

Without tracing it also times set-up, a fresh interpreter importing
``pseudospec.cli``, between passes: samples spread over the whole run
vary less from run to run than samples taken together, because the
speed of a shared machine drifts over tens of seconds.

With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer numbers from the traced ones; the tracing overhead is the sum
over commands of the fastest traced minus the fastest untraced run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import checks
import workloads
from tracer import Tracer, layer_metrics

# Failures kept in the report; all of them are counted.
MAX_LISTED_FAILURES = 50
# Set-up samples per untraced run, spread evenly over --seconds.
SETUP_SAMPLES = 10


def run_command(argv: list[str]):
    """One CLI invocation in-process: (exit code, seconds, stdout, stderr)."""
    from pseudospec import cli

    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", write_through=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error is exit 1 with a traceback, as from the shell
        traceback.print_exc()
        code = 1
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout.detach()  # flushes, and keeps the buffers open
        sys.stderr.detach()
        sys.stdout, sys.stderr = saved
    return code, elapsed, out.getvalue(), err.getvalue()


class Loop:
    """Runs passes over the command list and keeps latencies and failures."""

    def __init__(self, cmds: list):
        self.cmds = cmds
        self.attempted = 0
        # Seconds per command and pass, untraced and traced.
        self.latencies: list[list[float]] = [[] for _ in cmds]
        self.traced_latencies: list[list[float]] = [[] for _ in cmds]
        self.failed = 0
        self.failures: list[dict] = []
        self.first: dict[int, str] = {}  # command index -> sha256 of its first output
        self.stdout_digest = hashlib.sha256()

    def run_pass(self, tracer: Tracer | None = None) -> None:
        first_pass = not self.first
        latencies = self.latencies if tracer is None else self.traced_latencies
        for index, cmd in enumerate(self.cmds):
            if tracer is not None:
                tracer.cmd = index
            code, elapsed, out, err = run_command(cmd.argv)
            self.attempted += 1
            latencies[index].append(elapsed)
            digest = hashlib.sha256(code.to_bytes(2, "big", signed=True) + out).hexdigest()
            if first_pass:
                self.stdout_digest.update(out)
                self.first[index] = digest
                causes = checks.check(cmd, code, out, err)
            elif digest != self.first[index]:
                causes = ["output bytes differ from the first run of this command"]
                causes += checks.check(cmd, code, out, err)
            else:
                causes = []
            if causes:
                self.failed += 1
                if len(self.failures) < MAX_LISTED_FAILURES:
                    self.failures.append(
                        {"index": index, "argv": cmd.argv, "exit": code,
                         "expected_exit": cmd.expect["exit"], "causes": causes}
                    )


def time_setup() -> float:
    """Wall time of a fresh interpreter importing pseudospec.cli."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import pseudospec.cli"],
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"importing pseudospec.cli failed:\n{proc.stderr.decode()}")
    return elapsed


def repeat_for(seconds: float, min_rounds: int, one_round,
               setup: list[float] | None = None) -> int:
    """Call ``one_round`` while another call fits in ``seconds``; the count.

    A call is expected to last as long as the one before it: the first call
    carries one-off costs (lazy imports, first touch of large arrays), so
    the longest call would stop the loop a round early.  With a ``setup``
    list, set-up is timed before, between and after the calls, as often as
    keeps ``SETUP_SAMPLES`` samples evenly spread over ``seconds``.
    """
    start = time.perf_counter()

    def sample_setup(until: int) -> None:
        while setup is not None and len(setup) < until:
            setup.append(time_setup())

    def due() -> int:
        return min(SETUP_SAMPLES, 1 + int((time.perf_counter() - start) * SETUP_SAMPLES / seconds))

    rounds = 0
    last = 0.0
    sample_setup(1)
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        one_round()
        last = time.perf_counter() - began
        rounds += 1
        sample_setup(due())
    sample_setup(SETUP_SAMPLES)
    return rounds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    import pseudospec

    source = os.path.join(os.getcwd(), "src", "pseudospec")
    if os.path.dirname(os.path.abspath(pseudospec.__file__)) != source:
        print(f"pseudospec imported from {pseudospec.__file__}, not {source}", file=sys.stderr)
        return 2

    data_dir = os.path.join(args.out_dir, "inputs")
    os.makedirs(data_dir, exist_ok=True)
    cmds, files = workloads.build(args.workload, args.seed, os.path.relpath(data_dir))
    for path, text in files.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    loop = Loop(cmds)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "commands_per_pass": len(cmds),
    }
    setup: list[float] = []  # set-up samples, untraced runs only
    if args.trace:
        tracer = Tracer()

        def untraced_and_traced():
            loop.run_pass()
            undo = tracer.patch()
            try:
                loop.run_pass(tracer)
            finally:
                Tracer.unpatch(undo)

        rounds = repeat_for(args.seconds, 1, untraced_and_traced)
        tracer.write(os.path.join(args.out_dir, f"spans_{args.workload}_{args.seed}.jsonl"))
        sweeps = {i: c.expect["steps"] for i, c in enumerate(cmds) if c.argv[0] == "sweep"}
        layers = layer_metrics(tracer, sweeps, rounds)
        untraced = sum(min(times) for times in loop.latencies)
        overhead = sum(min(times) for times in loop.traced_latencies) - untraced
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_ratio"] = (overhead / untraced, "ratio")
        result.update(passes=2 * rounds, layers=layers)
    else:
        result.update(passes=repeat_for(args.seconds, 2, loop.run_pass, setup))
    result.update(
        command_s=[min(times) for times in loop.latencies],
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures,
        stdout_sha256=loop.stdout_digest.hexdigest(),
        max_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        setup_s=setup,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
