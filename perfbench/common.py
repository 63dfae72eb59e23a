"""Shared pieces: percentiles, RSS, subprocess servers, result records."""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class CheckFailed(Exception):
    """An output of the program under test is wrong; the run fails."""


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile of raw samples.

    Returns None unless at least :data:`MIN_BEYOND` samples lie above the
    rank, so a "p99" of 200 samples (really the 3rd-largest value) is
    never reported as one.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """What one workload run hands back to the command line.

    ``metrics`` maps a metric name to ``(value, unit)``; ``samples``
    records the raw sample count behind each percentile.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Traced runs: span lists per process label, for the Chrome trace.
    processes: Dict[str, List[Any]] = field(default_factory=dict)

    def put(self, name: str, value: Optional[float], unit: str) -> None:
        """Record a metric; None means too few samples to report it."""
        self.metrics[name] = (None if value is None else float(value), unit)


@dataclass
class Round:
    """What one round of a workload hands back to :class:`Rounds`.

    ``rate`` is the round's throughput (samples, cycles or requests per
    second) and ``units`` the work units behind the per-layer divisors.
    A traced round's ``spans`` map a process label to its span list;
    ``extra`` carries whatever else the workload reads afterwards.
    """

    setup_s: float
    window_s: float
    rate: float
    units: int
    latencies: List[float]
    attempted: int
    failed: int = 0
    rss_mb: float = 0.0
    spans: Dict[str, List[Any]] = field(default_factory=dict)
    extra: Any = None


def planned_rounds(rounds: int, trace: bool) -> int:
    """A traced run alternates plain and traced rounds: keep it even."""
    return rounds + rounds % 2 if trace else rounds


def _latencies(rounds: Sequence[Round]) -> List[float]:
    return [x for r in rounds for x in r.latencies]


class Rounds:
    """Runs a workload's rounds and turns them into the run's metrics.

    Round ``i`` is traced when tracing is on and ``i`` is odd, so a traced
    run measures its tracing overhead against its own plain rounds.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.plain: List[Round] = []
        self.traced: List[Round] = []

    def run(
        self,
        round_fn: Callable[[int, bool], Round],
        min_rounds: int,
        min_samples: int,
        min_window_s: float = 0.0,
    ) -> "Rounds":
        """Calls ``round_fn(index, traced)`` until ``min_rounds`` rounds ran,
        the plain rounds hold ``min_samples`` latencies and the timed
        windows of all rounds add up to ``min_window_s``."""
        index = 0
        while (
            index < min_rounds
            or len(_latencies(self.plain)) < min_samples
            or sum(r.window_s for r in self.plain + self.traced) < min_window_s
        ):
            traced = self.trace and index % 2 == 1
            done = round_fn(index, traced)
            (self.traced if traced else self.plain).append(done)
            index += 1
        return self

    def outcome(
        self,
        peak_rss_mb: Optional[float] = None,
        client: Optional[Dict[str, Optional[float]]] = None,
    ) -> Outcome:
        """The ``--trace 0`` or ``--trace 1`` metrics of every round.

        Set-up and throughput are medians over rounds (one slow round
        moves neither); latency percentiles come from every raw sample.
        ``peak_rss_mb`` defaults to the median of the rounds' ``rss_mb``;
        ``client`` adds traced metrics the workload measured itself.
        """
        every = self.plain + self.traced
        outcome = Outcome(
            attempted=sum(r.attempted for r in every),
            failed=sum(r.failed for r in every),
        )
        plain = _latencies(self.plain)
        if not self.trace:
            if peak_rss_mb is None:
                peak_rss_mb = median([r.rss_mb for r in every])
            outcome.put("setup_s", median([r.setup_s for r in every]), "s")
            outcome.put("throughput", median([r.rate for r in self.plain]),
                        "1/s")
            outcome.put("latency_p50_ms", _ms(percentile(plain, 50)), "ms")
            outcome.put("peak_rss_mb", peak_rss_mb, "MB")
            outcome.samples.update(
                latency=len(plain), setup=len(every), rounds=len(self.plain)
            )
            return outcome

        from layers import layer_metrics

        traced = _latencies(self.traced)
        measured = _overhead(
            [r.rate for r in self.plain], [r.rate for r in self.traced],
            plain, traced,
        )
        measured.update(client or {})
        for r in self.traced:
            for label, spans in r.spans.items():
                outcome.processes.setdefault(label, []).append(spans)
        span_sets = [s for sets in outcome.processes.values() for s in sets]
        for name, (value, unit) in layer_metrics(
            span_sets, sum(r.units for r in self.traced),
            iteration_ms=1e3 * sum(traced) / len(traced), client=measured,
        ).items():
            outcome.put(name, value, unit)
        return outcome


def _overhead(
    plain_rates: Sequence[float],
    traced_rates: Sequence[float],
    plain_latencies: Sequence[float],
    traced_latencies: Sequence[float],
) -> Dict[str, Optional[float]]:
    """What a traced run learns from its untraced rounds.

    The tracing overhead (traced rounds against plain rounds, in
    percent), and the untraced p99 latency: the tail is too unsteady on
    a shared 2-core host to gate as an end-to-end metric, so it is
    reported here, from raw samples, for reading next to the layers.
    """
    plain_tp, traced_tp = median(plain_rates), median(traced_rates)
    plain_p50 = median(plain_latencies)
    return {
        "trace.overhead_throughput_pct":
            100.0 * (plain_tp - traced_tp) / plain_tp,
        "trace.overhead_p50_pct":
            100.0 * (median(traced_latencies) - plain_p50) / plain_p50,
        "e2e.latency_p99_ms": _ms(percentile(plain_latencies, 99)),
    }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else 1e3 * seconds


class Child:
    """A program process started through ``perfbench/launch.py``.

    Output is read line by line on a thread; :meth:`wait_for` returns the
    first line containing a marker.  :meth:`stop` sends SIGINT (the
    program's own shutdown path), then kills after a grace period, and
    always reaps the process.
    """

    def __init__(self, argv: Sequence[str], trace_out: str = "") -> None:
        cmd = [sys.executable, "-u", os.path.join(HERE, "launch.py")]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", *argv]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=ROOT,
        )
        self.lines: List[str] = []
        self._cond = threading.Condition()
        self._eof = False
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def wait_for(self, marker: str, timeout: float = 60.0) -> str:
        def found() -> Optional[str]:
            return next((ln for ln in self.lines if marker in ln), None)

        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._eof or found() is not None, timeout
            )
            line = found()
            if line is not None:
                return line
        output = "\n".join(self.lines[-20:])
        reason = "exited" if ok else "timed out"
        raise RuntimeError(f"child {reason} before {marker!r}:\n{output}")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, grace: float = 15.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(5.0)
        return self.proc.returncode


def address_from(line: str) -> tuple:
    """``host:port`` following "listening on" in the server banner."""
    token = line.split(" on ", 1)[1].split()[0]
    host, _, port = token.rpartition(":")
    return host, int(port)
