"""Per-layer metrics and the Chrome trace, computed from recorded spans.

Every per-layer metric is reported on every workload (0 where the layer
never runs), so runs of different workloads share one schema.  Times are
ms per work unit (training iteration, exchange cycle or HTTP request) for
the ``caffe.*`` and ``core.*`` terms and ms per operation for ``smb.*``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from spans import CAFFE_TYPES, SMB_OPS, Span

#: Spans that own one work unit's exchange: the engine's SEASGD exchange
#: and flush on ``train_a``, the benchmark's cycle on ``exchange_tcp``.
EXCHANGE_PARENTS = ("core.exchange", "bench.cycle")
FLUSH_PARENTS = ("core.flush", "bench.cycle")


class _Totals:
    """Count and summed duration per (name, parent name)."""

    def __init__(self) -> None:
        self.count: Dict[Tuple[str, str], int] = defaultdict(int)
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.extras: Dict[str, List[Tuple[Any, str, Any]]] = defaultdict(list)

    def add(self, spans: Sequence[Span]) -> None:
        names = [span[0] for span in spans]
        for name, start, end, parent, _unit, _tid, extra in spans:
            parent_name = names[parent] if parent >= 0 else ""
            key = (name, parent_name)
            self.count[key] += 1
            self.total[key] += end - start
            if extra is not None:
                parent_extra = spans[parent][6] if parent >= 0 else None
                self.extras[name].append((extra, parent_name, parent_extra))

    def n(self, name: str, parents: Optional[Sequence[str]] = None) -> int:
        return sum(
            c for (nm, par), c in self.count.items()
            if nm == name and (parents is None or par in parents)
        )

    def t(self, name: str, parents: Optional[Sequence[str]] = None) -> float:
        return sum(
            s for (nm, par), s in self.total.items()
            if nm == name and (parents is None or par in parents)
        )

    def mean_ms(self, name: str) -> float:
        count = self.n(name)
        return 1e3 * self.t(name) / count if count else 0.0


def layer_metrics(
    span_sets: Sequence[Sequence[Span]],
    units: int,
    iteration_ms: float = 0.0,
    client: Optional[Mapping[str, float]] = None,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer table.

    Args:
        span_sets: One span list per process (parent indices are local).
        units: Work units completed while tracing was on.
        iteration_ms: Mean work-unit latency while tracing (for shares).
        client: Metrics the benchmark measured itself (HTTP classes,
            replication lag, generator lateness), merged in as given.
    """
    tot = _Totals()
    for spans in span_sets:
        tot.add(spans)
    per_unit = 1e3 / units if units else 0.0
    out: Dict[str, Tuple[float, str]] = {}

    caffe_sum = 0.0
    for layer in CAFFE_TYPES:
        for phase in ("fwd", "bwd"):
            ms = tot.t(f"caffe.{layer}.{phase}") * per_unit
            caffe_sum += ms
            out[f"caffe.{layer}.{phase}_ms"] = (ms, "ms/unit")
    step = tot.t("caffe.solver.step") * per_unit
    update = tot.t("caffe.solver.update") * per_unit
    data_wait = tot.t("caffe.data.wait") * per_unit
    out["caffe.solver.step_ms"] = (step, "ms/unit")
    out["caffe.solver.update_ms"] = (update, "ms/unit")
    out["caffe.data.wait_ms"] = (data_wait, "ms/unit")
    out["caffe.step_accounted"] = (
        (caffe_sum + update) / step if step else 0.0, "ratio"
    )

    block = tot.t("core.block") * per_unit
    rgw = tot.t("RemoteArray.read", EXCHANGE_PARENTS) * per_unit
    ulw = (
        tot.t("elastic_increment", EXCHANGE_PARENTS)
        + tot.t("FlatParams.get_vector", EXCHANGE_PARENTS)
        + tot.t("FlatParams.set_vector", EXCHANGE_PARENTS)
    ) * per_unit
    wwi = tot.t("RemoteArray.write", FLUSH_PARENTS) * per_unit
    ugw = tot.t("RemoteArray.accumulate_into", FLUSH_PARENTS) * per_unit
    out["core.block_ms"] = (block, "ms/unit")
    out["core.rgw_ms"] = (rgw, "ms/unit")
    out["core.ulw_ms"] = (ulw, "ms/unit")
    out["core.wwi_ms"] = (wwi, "ms/unit")
    out["core.ugw_ms"] = (ugw, "ms/unit")
    out["core.comp_share"] = (
        step / iteration_ms if step and iteration_ms else 0.0, "ratio"
    )
    # Only an overlapped exchange (a driver that blocks) hides anything.
    hidden = 0.0
    if tot.n("core.block") and wwi + ugw > 0:
        hidden = 1.0 - block / (wwi + ugw)
    out["core.hidden_ratio"] = (hidden, "ratio")
    # Without an overlap driver the write side runs inline, on the
    # blocking path of every cycle.
    blocking = block + rgw + ulw + data_wait + step
    if not tot.n("core.block"):
        blocking += wwi + ugw
    out["core.accounted"] = (
        blocking / iteration_ms if iteration_ms else 0.0, "ratio"
    )

    layer_totals = {"client": 0.0, "transport": 0.0, "server": 0.0,
                    "memory": 0.0}
    layer_counts = dict.fromkeys(layer_totals, 0)
    moved = 0
    for op in SMB_OPS:
        for layer in layer_totals:
            name = f"{layer}.{op}"
            layer_totals[layer] += tot.t(name)
            layer_counts[layer] += tot.n(name)
            out[f"smb.{layer}.{op}_ms"] = (tot.mean_ms(name), "ms")
        out[f"smb.{op}.count"] = (
            tot.n(f"client.{op}") / units if units else 0.0, "1/unit"
        )
    for op in ("READ", "WRITE"):
        moved += sum(
            extra for extra, _, _ in tot.extras[f"client.{op}"]
            if isinstance(extra, int)
        )

    def gap(outer: str, inner: str) -> float:
        count = layer_counts[outer]
        if not count:
            return 0.0
        return 1e3 * (layer_totals[outer] - layer_totals[inner]) / count

    out["smb.client.self_ms"] = (gap("client", "transport"), "ms")
    out["smb.wire_ms"] = (gap("transport", "server"), "ms")
    out["smb.server.self_ms"] = (gap("server", "memory"), "ms")
    out["smb.bytes_per_cycle"] = (moved / units if units else 0.0, "B/unit")
    out["smb.failed"] = (float(sum(
        1 for op in SMB_OPS for extra, _, _ in tot.extras[f"client.{op}"]
        if isinstance(extra, str) and extra.startswith("error:")
    )), "count")

    out["serve.gateway.read_ms"] = (tot.mean_ms("ModelGateway.read"), "ms")
    out["smb.serving.read_ms"] = (tot.mean_ms("ReplicaServer.read"), "ms")
    not_modified = [
        extra for extra, parent, parent_extra
        in tot.extras["ModelGateway.read"]
        if parent == "http.GET" and parent_extra == 304
    ]
    n_304 = sum(
        1 for extra, _, _ in tot.extras["http.GET"] if extra == 304
    )
    out["serve.bytes_per_304"] = (
        sum(not_modified) / n_304 if n_304 else 0.0, "B"
    )
    pinned = [
        extra for extra, _, _ in tot.extras["ReplicaServer.read"]
        if isinstance(extra, list) and extra[0]
    ]
    out["smb.serving.ring_hit_ratio"] = (
        sum(1 for extra in pinned if extra[1]) / len(pinned)
        if pinned else 0.0,
        "ratio",
    )
    out["smb.serving.apply_ms"] = (tot.mean_ms("memory.INSTALL"), "ms")

    for name, (default, unit) in CLIENT_METRICS.items():
        value = (client or {}).get(name, default)
        out[name] = (None if value is None else float(value), unit)
    return out


def self_times(
    span_sets: Sequence[Sequence[Span]],
) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, total s, self s)``; self excludes child spans."""
    table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for spans in span_sets:
        children = [0.0] * len(spans)
        for _name, start, end, parent, *_ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, *_rest) in enumerate(spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children[index]
    return {name: (int(c), t, s) for name, (c, t, s) in table.items()}


#: Metrics the benchmark measures on its own side of the wire, with the
#: value reported where a workload does not produce them.
CLIENT_METRICS: Dict[str, Tuple[float, str]] = {
    "serve.http.full_ms": (0.0, "ms"),
    "serve.http.not_modified_ms": (0.0, "ms"),
    "serve.http.pinned_ms": (0.0, "ms"),
    "smb.serving.lag_p50_ms": (0.0, "ms"),
    "loadgen.late_p50_ms": (0.0, "ms"),
    "loadgen.late_max_ms": (0.0, "ms"),
    "trace.overhead_throughput_pct": (0.0, "%"),
    "trace.overhead_p50_pct": (0.0, "%"),
    "e2e.latency_p99_ms": (0.0, "ms"),
}


def write_chrome_trace(
    path: str,
    processes: Mapping[str, Sequence[Sequence[Span]]],
    limit: int = 400_000,
) -> int:
    """Write spans as Chrome-trace JSON (``chrome://tracing``, Perfetto).

    One pid per process; timestamps are microseconds from the earliest
    span.  At most ``limit`` events are written (the metrics always use
    every span).  Returns the number of events written.
    """
    starts = [
        span[1] for sets in processes.values() for spans in sets
        for span in spans
    ]
    origin = min(starts) if starts else 0.0
    events: List[Dict[str, Any]] = []
    for pid, (label, sets) in enumerate(processes.items(), start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": label},
        })
        for spans in sets:
            for name, start, end, parent, unit, tid, extra in spans:
                if len(events) >= limit:
                    break
                events.append({
                    "name": name, "ph": "X", "pid": pid,
                    "tid": tid & 0xFFFFFF,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"unit": unit, "parent": parent,
                             "extra": extra},
                })
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
