"""Fast smoke runs of each workload, and checks that must trip.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import wl_exchange  # noqa: E402
import wl_serve  # noqa: E402
import wl_train  # noqa: E402
from common import CheckFailed, percentile  # noqa: E402
from steady import load_spec  # noqa: E402

E2E = [m["name"] for m in load_spec()["end_to_end"]]
LAYER_SAMPLE = (
    "caffe.Pooling.fwd_ms", "core.rgw_ms", "smb.client.READ_ms",
    "smb.wire_ms", "serve.bytes_per_304", "trace.overhead_p50_pct",
)


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(1010)), 99) == 999
    assert percentile(list(range(21)), 50) == 10
    assert percentile([], 50) is None


# -- train_a ---------------------------------------------------------------

TINY_TRAIN = dict(
    round_iterations=20, min_samples=1, train_per_class=20,
    accuracy_floor=0.1,
)


def test_train_a_tiny_run_reports_every_metric():
    outcome = wl_train.run(3, 0.1, False, **TINY_TRAIN)
    assert set(outcome.metrics) == set(E2E)
    assert outcome.failed == 0 and outcome.attempted >= 20
    throughput, unit = outcome.metrics["throughput"]
    assert throughput > 0 and unit == "1/s"


def test_train_a_traced_run_reports_layers():
    outcome = wl_train.run(3, 0.1, True, **TINY_TRAIN)
    metrics = outcome.metrics
    for name in LAYER_SAMPLE:
        assert name in metrics
    assert metrics["caffe.Pooling.fwd_ms"][0] > 0
    assert metrics["core.rgw_ms"][0] > 0
    assert 0.5 < metrics["caffe.step_accounted"][0] <= 1.0
    assert metrics["serve.bytes_per_304"][0] == 0


def test_train_a_accuracy_check_trips_on_corrupt_weights():
    # Zero weights give every class the same score: accuracy is chance.
    with pytest.raises(CheckFailed, match="accuracy"):
        wl_train.run(
            3, 0.1, False, corrupt=lambda w: w.fill(0.0), **TINY_TRAIN
        )


# -- exchange_tcp ----------------------------------------------------------

TINY_EXCHANGE = dict(count=4096, rounds=1, min_samples=1)


def test_exchange_tiny_run_reports_every_metric():
    outcome = wl_exchange.run(5, 0.5, False, **TINY_EXCHANGE)
    assert set(outcome.metrics) == set(E2E)
    assert outcome.failed == 0 and outcome.attempted > 10


def test_exchange_traced_run_splits_smb_layers():
    outcome = wl_exchange.run(5, 0.6, True, **TINY_EXCHANGE)
    metrics = outcome.metrics
    declared = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == declared
    for op in ("READ", "WRITE", "ACCUMULATE"):
        assert metrics[f"smb.server.{op}_ms"][0] > 0
        assert metrics[f"smb.memory.{op}_ms"][0] > 0
        assert metrics[f"smb.{op}.count"][0] == pytest.approx(1.0)
    assert metrics["caffe.Pooling.fwd_ms"][0] == 0


def test_exchange_check_trips_on_a_duplicated_accumulate():
    def duplicate(client, n):
        if n == 2:
            client.increment.accumulate_into(client.global_weights)

    with pytest.raises(CheckFailed, match="drifted"):
        wl_exchange.run(5, 0.5, False, corrupt=duplicate, **TINY_EXCHANGE)


# -- serve_read ------------------------------------------------------------

# Small bodies hit a 40 ms Nagle/delayed-ACK stall in the gateway (headers
# and body are sent separately), so the tiny runs keep a 256 KiB W_g.
TINY_SERVE = dict(count=1 << 16, rounds=1, min_samples=1)


def test_serve_tiny_run_reports_every_metric():
    outcome = wl_serve.run(7, 1.0, False, **TINY_SERVE)
    assert set(outcome.metrics) == set(E2E)
    assert outcome.failed == 0 and outcome.attempted >= 100


def test_serve_traced_run_sees_304_bytes_and_ring():
    outcome = wl_serve.run(7, 2.0, True, **TINY_SERVE)
    metrics = outcome.metrics
    assert metrics["serve.gateway.read_ms"][0] > 0
    assert metrics["serve.bytes_per_304"][0] >= 0
    assert 0 <= metrics["smb.serving.ring_hit_ratio"][0] <= 1


def test_serve_check_trips_when_a_version_holds_wrong_bytes(monkeypatch):
    original = wl_serve._Writer.write_next

    def wrong_bytes(self):
        if self.version >= 2:
            # Store version v+2's pattern under version v+1.
            self.array.write(self.patterns.array(self.version + 2))
            self.version += 1
            return
        original(self)

    monkeypatch.setattr(wl_serve._Writer, "write_next", wrong_bytes)
    with pytest.raises(CheckFailed, match="not the written pattern"):
        wl_serve.run(7, 1.5, False, **TINY_SERVE)


def test_serve_check_trips_when_the_gateway_ignores_if_none_match(
    monkeypatch,
):
    # The gateway never sees the condition, as if it dropped the header,
    # and answers 200 with the ETag the request already held.
    request = http.client.HTTPConnection.request

    def drop_condition(self, method, url, body=None, headers=None, **kw):
        kept = {k: v for k, v in (headers or {}).items()
                if k != "If-None-Match"}
        return request(self, method, url, body, kept, **kw)

    monkeypatch.setattr(http.client.HTTPConnection, "request", drop_condition)
    with pytest.raises(CheckFailed, match="condition was ignored"):
        wl_serve.run(7, 1.0, False, **TINY_SERVE)


# -- comparison ------------------------------------------------------------


def _report(workloads, metrics, value=1.0, seconds=30):
    return {"seconds": seconds, "workloads": {
        w: {"metrics": {m: {"median": value} for m in metrics}}
        for w in workloads
    }}


def test_compare_counts_pairs_and_passes_within_bounds():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    count, problems = compare.compare(
        spec, _report(names, E2E), _report(names, E2E)
    )
    assert problems == []
    assert count == len(names) * len(E2E)


def test_compare_fails_on_missing_metric_or_workload():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    _, problems = compare.compare(
        spec, _report(names, E2E), _report(names[:-1], E2E[:-1])
    )
    assert any("missing" in p for p in problems)
    _, problems = compare.compare(
        spec, _report(names + ["extra"], E2E), _report(names, E2E)
    )
    assert any("not in BENCHMARK.json" in p for p in problems)


def test_compare_fails_when_nothing_compared():
    spec = load_spec()
    count, problems = compare.compare(spec, _report([], []), _report([], []))
    assert count == 0 and "nothing was compared" in problems


def test_compare_fails_on_different_run_lengths():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    count, problems = compare.compare(
        spec, _report(names, E2E), _report(names, E2E, seconds=10)
    )
    assert count == len(names) * len(E2E)
    assert any("not comparable" in p for p in problems)


def test_compare_flags_a_regression():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    worse = _report(names, E2E, value=2.0)
    _, problems = compare.compare(spec, _report(names, E2E), worse)
    assert any("latency_p50_ms" in p for p in problems)


# -- the command -------------------------------------------------------------


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_patterns_are_seeded():
    a = wl_serve.Patterns(1, 64).bytes(3)
    assert a == wl_serve.Patterns(1, 64).bytes(3)
    assert a != wl_serve.Patterns(2, 64).bytes(3)
    assert np.frombuffer(a, np.float32)[0] == np.float32(
        wl_serve.Patterns(1, 64).base[0] + np.float32(3)
    )


def test_benchmark_json_meets_its_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["perfbench"]
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit_re.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(name_re.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # A full measurement, 4 + 22 runs per workload, must fit in 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) < 3420
