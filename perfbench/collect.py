"""Run the benchmark over several seeds and summarize it into one JSON file.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --out perfbench/results/baseline.json \
        --seeds 1-10 [--traced-seed 1]

Every workload of ``BENCHMARK.json`` runs once per seed for its
``run_seconds``, untraced, one run at a time, then once traced with
``--traced-seed``. The summary keeps every run's metrics and, per
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (quartile distance over
the median) that ``BENCHMARK.json``'s bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main(argv: "list[str] | None" = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--traced-seed", type=int, default=None, help="also make one traced run per workload")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "seeds": parse_seeds(args.seeds), "host": platform.platform(),
               "cpus": os.cpu_count(), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in summary["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "end_to_end": summarize(runs)}
        for name, m in entry["end_to_end"].items():
            print(f"{workload:9s} {name:24s} median {m['median']:10.4f} {m['unit']:5s} "
                  f"spread {m['spread']:.3f} (bound {bounds.get(name)})")
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.traced_seed
        summary["workloads"][workload] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
