"""``serve_read``: versioned HTTP reads through the gateway, open loop.

A ``repro smb serve`` primary holds ``W_g`` (262,144 float32, 1 MiB); a
``repro serve gateway --replicas 1`` subprocess mirrors it and answers
HTTP.  One SMB connection writes a seeded pattern derived from the
version number into ``W_g`` at 5 Hz, so replication runs throughout,
while one keep-alive HTTP connection is offered 100 requests/s:

* 60% latest (``GET``),
* 30% conditional (``If-None-Match`` with the last ETag received),
* 10% pinned (``?version=N``, N one of the last 3 versions received).

Every request is timed from when it was due, not from when it was sent,
so a stall is charged to the requests queued behind it.
"""

from __future__ import annotations

import http.client
import os
import threading
from collections import OrderedDict
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    OUT_DIR,
    CheckFailed,
    Child,
    Outcome,
    Round,
    Rounds,
    address_from,
    median,
    planned_rounds,
)
from spans import Tracer, load_spans, smb_hooks

COUNT = 1 << 18
RATE = 100.0
WRITE_HZ = 5.0
ROUNDS = 5
MIX = (("full", 0.6), ("not_modified", 0.3), ("pinned", 0.1))
PATH = "/v1/models/default/W_g"
MIN_SAMPLES = 1000


class Patterns:
    """The bytes ``W_g`` must hold at each version: ``base + version``."""

    def __init__(self, seed: int, count: int) -> None:
        rng = np.random.default_rng(seed)
        self.base = rng.standard_normal(count, dtype=np.float32)
        self._cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._lock = threading.Lock()

    def array(self, version: int) -> np.ndarray:
        return self.base + np.float32(version)

    def bytes(self, version: int) -> bytes:
        with self._lock:
            data = self._cache.get(version)
            if data is None:
                data = self.array(version).tobytes()
                self._cache[version] = data
                while len(self._cache) > 16:
                    self._cache.popitem(last=False)
            return data


class _Writer:
    """Writes ``pattern(v)`` as version ``v`` at a fixed rate."""

    def __init__(self, address: tuple, patterns: Patterns, count: int) -> None:
        from repro.smb import SMBClient

        self.client = SMBClient.connect(address)
        self.array = self.client.create_array("W_g", count)
        self.patterns = patterns
        self.version = 0
        self.acks: List[Tuple[int, float]] = []
        self.failed = 0
        self.error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def write_next(self) -> None:
        want = self.version + 1
        got = self.array.write(self.patterns.array(want))
        if got != want:
            raise CheckFailed(f"write produced version {got}, expected {want}")
        self.version = got
        self.acks.append((got, perf_counter()))

    def _loop(self) -> None:
        from repro.smb.errors import SMBError

        start = perf_counter()
        k = 1
        while not self._stop.wait(max(start + k / WRITE_HZ - perf_counter(), 0)):
            try:
                self.write_next()
            except (SMBError, CheckFailed) as exc:
                self.failed += 1
                self.error = repr(exc)
                return
            k += 1

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.client.close()


class _Load:
    """The open-loop generator and the response checks."""

    def __init__(self, seed: int, index: int, patterns: Patterns) -> None:
        self.rng = np.random.default_rng([seed, index])
        self.patterns = patterns
        self.latency: Dict[str, List[float]] = {c: [] for c, _ in MIX}
        self.late: List[float] = []
        self.responses: List[Tuple[float, int]] = []
        self.offered = 0
        self.backlog = 0
        self.failed = 0
        self.last_etag: Optional[str] = None
        self.seen: List[int] = []

    def _pick(self) -> Tuple[str, str, Dict[str, str], Optional[int]]:
        draw = self.rng.random()
        choice = self.rng.integers(0, 3)
        if draw < MIX[0][1] or self.last_etag is None:
            return "full", PATH, {}, None
        if draw < MIX[0][1] + MIX[1][1]:
            return "not_modified", PATH, {"If-None-Match": self.last_etag}, None
        recent = self.seen[-3:]
        version = recent[int(choice) % len(recent)]
        return "pinned", f"{PATH}?version={version}", {}, version

    def run(
        self, conn: http.client.HTTPConnection, begin: float, end: float,
        tracer: Optional[Tracer],
    ) -> None:
        i = 0
        while True:
            due = begin + i / RATE
            if due >= end:
                break
            now = perf_counter()
            if now < due:
                sleep(due - now)
            kind, url, headers, pinned = self._pick()
            sent = perf_counter()
            if tracer is not None:
                tracer.unit = f"q{i}"
            conn.request("GET", url, headers=headers)
            response = conn.getresponse()
            body = response.read()
            done = perf_counter()
            if sent > end:
                self.backlog += 1
            self.late.append(sent - due)
            self.offered += 1
            if tracer is not None:
                tracer.record(f"http.{kind}", sent, done, response.status)
            if self._check(kind, headers, pinned, response, body, done):
                self.latency[kind].append(done - due)
            i += 1

    def _check(
        self, kind: str, headers: Dict[str, str], pinned: Optional[int],
        response: http.client.HTTPResponse, body: bytes, done: float,
    ) -> bool:
        """Raises on a wrong answer; False for a refused request."""
        status = response.status
        etag = response.getheader("ETag") or ""
        if status == 304:
            if kind != "not_modified" or etag != headers["If-None-Match"]:
                raise CheckFailed(
                    f"304 for a {kind} request (sent "
                    f"{headers.get('If-None-Match')!r}, got ETag {etag!r})"
                )
            return True
        if status != 200:
            self.failed += 1
            return False
        if not (etag.startswith('"v') and etag.endswith('"')):
            raise CheckFailed(f"malformed ETag {etag!r}")
        if kind == "not_modified" and etag == headers["If-None-Match"]:
            raise CheckFailed(
                f"200 with ETag {etag!r} for If-None-Match {etag!r}: the "
                f"condition was ignored"
            )
        version = int(etag[2:-1])
        if pinned is not None and version != pinned:
            raise CheckFailed(f"pinned v{pinned} answered with v{version}")
        if body != self.patterns.bytes(version):
            raise CheckFailed(f"body of v{version} is not the written pattern")
        if pinned is None:
            self.last_etag = etag
        if not self.seen or version > self.seen[-1]:
            self.seen.append(version)
        self.responses.append((done, version))
        return True


def _lag_ms(acks: List[Tuple[int, float]], responses: List[Tuple[float, int]]):
    """Per version: writer ack to the first response carrying >= it."""
    lags = []
    j = 0
    ordered = sorted(responses)
    for version, acked in acks:
        while j < len(ordered) and ordered[j][1] < version:
            j += 1
        if j == len(ordered):
            break
        lags.append(max(ordered[j][0] - acked, 0.0) * 1e3)
    return lags


def _round(
    seed: int, index: int, patterns: Patterns, count: int, duration: float,
    traced: bool,
) -> Round:
    trace_files: Dict[str, str] = {}
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        for label in ("smb-server", "gateway"):
            trace_files[label] = os.path.join(
                OUT_DIR, f"{label}-{os.getpid()}.json"
            )
    start = perf_counter()
    primary = Child(
        ["smb", "serve", "--port", "0"],
        trace_out=trace_files.get("smb-server", ""),
    )
    gateway: Optional[Child] = None
    writer: Optional[_Writer] = None
    conn: Optional[http.client.HTTPConnection] = None
    tracer: Optional[Tracer] = None
    spans: Dict[str, List[Any]] = {}
    load = _Load(seed, index, patterns)
    try:
        address = address_from(primary.wait_for("listening on"))
        writer = _Writer(address, patterns, count)
        writer.write_next()
        gateway = Child(
            ["serve", "gateway", "--connect", f"{address[0]}:{address[1]}",
             "--segments", "W_g", "--replicas", "1"],
            trace_out=trace_files.get("gateway", ""),
        )
        line = gateway.wait_for("serving HTTP on")
        host, port = address_from(line.replace("http://", ""))
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.connect()
        setup = perf_counter() - start
        if traced:
            tracer = Tracer().install(smb_hooks)
        writer.start()
        begin = perf_counter()
        load.run(conn, begin, begin + duration, tracer)
        window = perf_counter() - begin
        rss = primary.peak_rss_mb() + gateway.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
            spans["benchmark"] = tracer.finished()
        if conn is not None:
            conn.close()
        if writer is not None:
            writer.stop()
        if gateway is not None:
            gateway.stop()
        primary.stop()
    if writer.error is not None:
        raise CheckFailed(f"writer failed: {writer.error}")
    if load.backlog > max(5, 0.01 * load.offered):
        raise CheckFailed(
            f"open loop fell behind: {load.backlog} of {load.offered} "
            f"requests were sent after the window closed"
        )
    for label, path in trace_files.items():
        spans[label] = load_spans(path)
        os.remove(path)
    latencies = [x for values in load.latency.values() for x in values]
    return Round(
        setup_s=setup, window_s=window, rate=len(latencies) / window,
        units=len(latencies), latencies=latencies,
        attempted=load.offered + len(writer.acks) + writer.failed,
        failed=load.failed + writer.failed, rss_mb=rss, spans=spans,
        extra=(load, _lag_ms(writer.acks, load.responses)),
    )


def run(
    seed: int,
    seconds: float,
    trace: bool,
    count: int = COUNT,
    rounds: int = ROUNDS,
    min_samples: int = MIN_SAMPLES,
) -> Outcome:
    patterns = Patterns(seed, count)
    rounds = planned_rounds(rounds, trace)

    def one_round(index: int, traced: bool) -> Round:
        return _round(seed, index, patterns, count, seconds / rounds, traced)

    done = Rounds(trace).run(one_round, rounds, min_samples)
    if not trace:
        return done.outcome()

    loads = [r.extra[0] for r in done.traced]
    late = [x for load in loads for x in load.late]
    client: Dict[str, Optional[float]] = {
        "loadgen.late_p50_ms": 1e3 * median(late),
        "loadgen.late_max_ms": 1e3 * max(late),
        "smb.serving.lag_p50_ms": median(
            [x for r in done.traced for x in r.extra[1]] or [0.0]
        ),
    }
    for kind, _ in MIX:
        values = [x for load in loads for x in load.latency[kind]]
        client[f"serve.http.{kind}_ms"] = 1e3 * median(values or [0.0])
    return done.outcome(client=client)
