"""Compare two steadiness reports under BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``perfbench/steady.py --out``.  For every workload
and every end-to-end metric BENCHMARK.json names, the NEW median may be
worse than the BASE median by at most the metric's bound (a share of the
BASE median).  The comparison fails, instead of passing vacuously, when
a workload or metric named by BENCHMARK.json or by either report is
missing on any side, when the two reports ran for different lengths, or
when no pair was compared.  It prints how many (workload, metric) pairs
it compared.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from steady import load_spec  # noqa: E402


def compare(
    spec: Dict[str, Any], base: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[int, List[str]]:
    """Returns (pairs compared, problems); any problem fails the gate."""
    problems: List[str] = []
    if base.get("seconds") != new.get("seconds"):
        problems.append(
            f"runs of {base.get('seconds')} s and {new.get('seconds')} s "
            f"are not comparable"
        )
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"base": base["workloads"], "new": new["workloads"]}
    for side, report in sides.items():
        for workload in sorted(set(report) - set(workloads)):
            problems.append(f"{side}: workload {workload!r} is not in "
                            f"BENCHMARK.json")
        for workload, rows in report.items():
            for name in sorted(set(rows["metrics"]) - set(metrics)):
                problems.append(f"{side}: {workload}/{name} is not an "
                                f"end-to-end metric of BENCHMARK.json")
    compared = 0
    for workload in workloads:
        for name, metric in metrics.items():
            cells = []
            for side, report in sides.items():
                cell = report.get(workload, {}).get("metrics", {}).get(name)
                if cell is None:
                    problems.append(f"{side}: {workload}/{name} is missing")
                cells.append(cell)
            if None in cells:
                continue
            before, after = cells[0]["median"], cells[1]["median"]
            if metric["better"] == "lower":
                worse = (after - before) / before
            else:
                worse = (before - after) / before
            compared += 1
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "REGRESSED"
                problems.append(
                    f"{workload}/{name}: {before:.5g} -> {after:.5g} "
                    f"({100 * worse:+.1f}% worse, bound "
                    f"{100 * metric['bound']:.0f}%)"
                )
            print(f"{workload:14s} {name:16s} {before:12.5g} {after:12.5g} "
                  f"{100 * worse:+7.1f}% worse  (bound "
                  f"{100 * metric['bound']:.0f}%)  {verdict}")
    if compared == 0:
        problems.append("nothing was compared")
    return compared, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.base, args.new):
        with open(path) as fh:
            reports.append(json.load(fh))
    compared, problems = compare(load_spec(), *reports)
    print(f"compared {compared} (workload, metric) pairs")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
