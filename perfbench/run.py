"""Benchmark of the quiver_atlas library, driven in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

One caller runs passes back to back (a closed loop, one worker), because
``atlas`` is an offline batch tool.  Each run is one fresh process, so its
set-up time and peak memory belong to its workload alone.

With ``--trace 0`` the run makes passes back to back until
``--seconds`` have gone by, checks every output and prints the end-to-end
metrics.  Their times are corrected for the machine's speed by a reference
workload that a timer runs while the library works (``speed.py``); the line
starting ``wall:`` gives the raw times behind them.  With ``--trace 1`` it
runs the same inputs four times, untraced, traced, traced, untraced, and
prints the per-layer metrics of the first traced unit; its spans go to
``perfbench/out/``.  The last line of standard output is the result, as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh-process set-ups timed before the passes, and again after them.
SETUP_SAMPLES = 6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only",
        action="store_true",
        help="import the library, make the first pass's inputs and exit",
    )
    return ap.parse_args(argv)


def environment(args):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "quiver_atlas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_samples(args, meter):
    """Wall times of fresh processes' set-up: start, import, inputs."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    return [
        meter.time(lambda: subprocess.run(cmd, check=True, cwd=ROOT))[0]
        for _ in range(SETUP_SAMPLES)
    ]


def measure(workload, args, tally):
    """Set-ups, passes back to back until the run's time is up, set-ups.

    Then the tail ops, after peak memory is read.  A pass time is corrected
    by the reference samples taken while it was measured, the set-up time
    by all of the run's.
    """
    from speed import Meter

    passes, spans = [], []
    with Meter() as meter:
        setup = setup_samples(args, meter)
        started = time.perf_counter()
        while len(passes) < workload.min_passes or (
            time.perf_counter() - started + last <= args.seconds
        ):
            t0 = time.perf_counter()
            inputs = workload.inputs(warm=bool(passes))
            start = meter.mark()
            seconds, results = workload.run(inputs, meter)
            spans.append((start, meter.mark()))
            workload.check(inputs, results, tally)
            passes.append(seconds)
            last = time.perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup += setup_samples(args, meter)
    for inputs, results in workload.tail():
        workload.check(inputs, results, tally)
    raw_later = statistics.median(passes[1:] or passes)
    raw_setup = statistics.median(setup)
    print(
        f"wall: {meter.raw_s:.3f} s timed; {len(meter.samples)} reference "
        f"samples, median {statistics.median(meter.samples) * 1e3:.3f} ms; "
        f"raw first pass {passes[0]:.4f} s, later {raw_later:.4f} s, "
        f"set-up {raw_setup:.4f} s"
    )
    later = raw_later * meter.scale(*(spans[1:] or spans))
    return {
        "first_pass_s": (passes[0] * meter.scale(spans[0]), "s"),
        "pass_s": (later, "s"),
        "items_per_s": (workload.items / later, "1/s"),
        "setup_s": (raw_setup * meter.scale(), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def run_unit(workload, passes, tail=False):
    """Run the passes of a traced run's unit on the given inputs.

    Returns the passes' wall time, the wall time with the tail ops, and the
    outputs.
    """
    from speed import WallClock

    clock = WallClock()
    workload.reset()
    t0 = time.perf_counter()
    done = [(inputs, workload.run(inputs, clock)[1]) for inputs in passes]
    t1 = time.perf_counter()
    if tail:
        done += workload.tail()
    return t1 - t0, time.perf_counter() - t0, done


def trace(workload, args, tally, env):
    from tracer import Tracer, layer_metrics, unit

    # Every unit runs the same inputs.  Inputs are made, and outputs
    # checked, outside the tracer: their calls into the library are not
    # part of the pass.
    passes = [workload.inputs(warm) for warm in workload.trace_passes]
    # Untraced, traced, traced, untraced: a drift of the machine's speed
    # over the run falls on both sides alike.
    untraced_a, _, done_a = run_unit(workload, passes)
    with Tracer() as tracer:
        traced_a, traced_s, done_t = run_unit(workload, passes, tail=True)
    with Tracer():
        traced_b, _, done_b = run_unit(workload, passes)
    untraced_b, _, done_c = run_unit(workload, passes)
    for inputs, results in done_a + done_t + done_b + done_c:
        workload.check(inputs, results, tally)
    untraced = statistics.median([untraced_a, untraced_b])
    metrics = layer_metrics(tracer, traced_s)
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.overhead_frac"] = (
        statistics.median([traced_a, traced_b]) / untraced - 1
    )
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(str(path), env)
    print(f"spans: {path.relative_to(ROOT)}")
    return {name: (value, unit(name)) for name, value in metrics.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quiver_atlas" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        make(random.Random(args.seed), workdir).inputs(warm=False)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True))
    tally = Tally()
    workload = make(random.Random(args.seed), workdir)
    try:
        if args.trace:
            metrics = trace(workload, args, tally, env)
        else:
            metrics = measure(workload, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for what in tally.wrong:
        print(f"wrong: {what}", file=sys.stderr)
    for what in tally.known_defect:
        print(f"known defect: {what}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
