"""Steadiness report: every workload, many seeds, spread against bounds.

    python3 perfbench/steady.py --runs 10 [--workloads train_a,serve_read]
        [--first-seed 100] [--out report.json]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, for
BENCHMARK.json's ``run_seconds``, and prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from BENCHMARK.json.
A spread under a third of the bound is steady.  The report JSON is the
input of ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed ({proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    for line in lines:
        if line.startswith("note: "):
            print(f"    {workload} seed {seed}: {line[6:]}", flush=True)
    print(f"    {workload} seed {seed}: {elapsed:.1f} s wall", flush=True)
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: Dict[str, Any] = {"seconds": seconds, "runs": args.runs,
                              "workloads": {}}
    steady = True
    for workload in names:
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in
                sorted(result["metrics"].items())), flush=True)
        rows = report["workloads"][workload] = {"metrics": {}}
        print(f"\n{workload}  ({args.runs} runs, {seconds:g} s each)")
        print(f"  {'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
        for name in sorted(values):
            stats = summarize(values[name])
            bound = bounds.get(name)
            ratio = stats["spread"] / bound if bound else float("nan")
            if name != "setup_s" and bound and ratio >= 1 / 3:
                steady = False
            rows["metrics"][name] = {
                "unit": units[name], "values": values[name], **stats,
            }
            print(f"  {name:18s} {stats['median']:11.5g} {stats['q1']:11.5g} "
                  f"{stats['q3']:11.5g} {stats['spread']:8.4f} "
                  f"{bound if bound else float('nan'):6.3g} {ratio:12.3f}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print("steady: every spread is under a third of its bound" if steady
          else "NOT steady: some spread is a third of its bound or more")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
