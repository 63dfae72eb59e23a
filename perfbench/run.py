"""The repo's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_a --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): ``train_a``, ``exchange_tcp``,
``serve_read``.  With ``--trace 0`` the result carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the per-layer metrics, and
a Chrome trace is written under ``perfbench/out/``.  The last line of
standard output is the result object; the exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("train_a", "exchange_tcp", "serve_read")


def _load(name: str):
    if name == "train_a":
        import wl_train as module
    elif name == "exchange_tcp":
        import wl_exchange as module
    else:
        import wl_serve as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from common import OUT_DIR, CheckFailed
    from layers import self_times, write_chrome_trace

    try:
        outcome = _load(args.workload).run(
            args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
        return 1

    unmeasured = sorted(k for k, (v, _) in outcome.metrics.items() if v is None)
    if unmeasured:
        print(f"error: too few samples to report {', '.join(unmeasured)}; "
              f"run longer", file=sys.stderr)
        return 1
    for note in outcome.notes:
        print(f"note: {note}")
    if outcome.samples:
        print("samples: " + ", ".join(
            f"{k}={v}" for k, v in sorted(outcome.samples.items())
        ))
    if outcome.processes:
        sets = [s for group in outcome.processes.values() for s in group]
        print(f"{'span':34s} {'calls':>8s} {'total s':>9s} {'self s':>9s}")
        table = sorted(self_times(sets).items(), key=lambda kv: -kv[1][2])
        for name, (calls, total, own) in table[:30]:
            print(f"{name:34s} {calls:8d} {total:9.3f} {own:9.3f}")
        path = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json"
        )
        events = write_chrome_trace(path, outcome.processes)
        print(f"chrome trace: {os.path.relpath(path, ROOT)} "
              f"({events} events)")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
