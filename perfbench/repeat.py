"""Repeat benchmark runs and summarise them.

From the repository root:

    python3 perfbench/repeat.py spread --seeds 1-10 [--workload NAME ...]
    python3 perfbench/repeat.py determinism --seed 1 [--workload NAME ...]

``spread`` runs each workload once per seed, untraced, and prints for every
end-to-end metric the median and the quartile spread (q3 - q1) / median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound from BENCHMARK.json; the summary also keeps each run's
``wall:`` line, the raw times behind the corrected ones.

``determinism`` makes two traced runs of each workload with the same seed and
checks that the exact work counts repeat.

Runs are made one after another, never in parallel, and every result is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Counts that must repeat exactly between traced runs with the same seed.
EXACT_COUNTS = (
    "canonical.calls",
    "matrix.mutate.calls",
    "explore.members",
    "explore.probe_examined",
    "cache.load.hits",
)


def benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The raw wall times behind the corrected ones, kept for the summary.
    result["wall"] = next((x for x in lines if x.startswith("wall: ")), None)
    return result


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": median, "spread": (q3 - q1) / median,
                          "bound": bound, "values": values}
            print(f"  {name:12s} median {median:10.4f}  spread "
                  f"{(q3 - q1) / median:7.4f}  bound {bound}", flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": rows,
            "walls": [r["wall"] for r in runs],
        }
    return summary


def determinism(args, bench):
    summary = {}
    for workload in args.workload:
        a, b = (run_once(workload, args.seed, bench["run_seconds"], 1)
                for _ in range(2))
        counts = {name: (a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for name in EXACT_COUNTS}
        same = all(x == y for x, y in counts.values())
        summary[workload] = {"seed": args.seed, "repeat": same, "counts": counts,
                             "runs": [a, b]}
        print(f"{workload}: {'repeat' if same else 'DIFFER'} {counts}", flush=True)
    return summary


def main(argv=None):
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("spread", "determinism"))
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seeds", default="1-10", help="range for spread, e.g. 1-10")
    ap.add_argument("--seed", type=int, default=1, help="seed for determinism")
    args = ap.parse_args(argv)
    args.workload = args.workload or names
    summary = (spread if args.mode == "spread" else determinism)(args, bench)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.mode}-{'-'.join(args.workload)}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"written: {path.relative_to(ROOT)}")
    ok = all(s.get("correct", True) and s.get("repeat", True)
             for s in summary.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
