"""``exchange_tcp``: the SEASGD exchange alone, over TCP, closed loop.

Two clients, each with its own connection and its own ``dW`` segment,
run the exchange cycle against a ``repro smb serve`` subprocess holding
``W_g`` (1,048,576 float32, 4 MiB):

1. ``RemoteArray.read(out=)`` of ``W_g``;
2. ``elastic_increment`` against a local replica advanced by a seeded
   pseudo-gradient;
3. ``RemoteArray.write`` of ``dW``;
4. ``RemoteArray.accumulate_into(W_g)``.

Forward/backward is left out, so the SMB client, protocol, TCP front end
and memory layers carry the whole cycle.  The run is a few rounds, each
against a freshly started server, so set-up is measured several times.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from common import (
    OUT_DIR,
    CheckFailed,
    Child,
    Outcome,
    Round,
    Rounds,
    address_from,
    planned_rounds,
)
from spans import Tracer, core_hooks, load_spans, smb_hooks

COUNT = 1 << 20
CLIENTS = 2
ALPHA = 0.2
ROUNDS = 5
#: Pseudo-gradients per client, cycled (drawing 1M normals per cycle
#: would cost more than the exchange).
GRADIENTS = 4
GRADIENT_SCALE = 0.01
MIN_SAMPLES = 1000


class _Inputs:
    """Everything the seed determines: W_0 and each client's gradients."""

    def __init__(self, seed: int, count: int) -> None:
        rng = np.random.default_rng(seed)
        self.w0 = rng.standard_normal(count, dtype=np.float32)
        self.gradients = [
            [
                GRADIENT_SCALE * rng.standard_normal(count, dtype=np.float32)
                for _ in range(GRADIENTS)
            ]
            for _ in range(CLIENTS)
        ]


class _Client:
    """One exchanging client and the bookkeeping its check needs."""

    def __init__(self, index: int, address: tuple, inputs: _Inputs) -> None:
        from repro.smb import SMBClient

        self.index = index
        self.client = SMBClient.connect(address)
        count = inputs.w0.size
        shm_key, _ = self.client.lookup("W_g")
        self.global_weights = self.client.attach_array("W_g", shm_key, count)
        self.increment = self.client.create_array(f"dW_{index}", count)
        self.local = inputs.w0.copy()
        self.scratch = np.empty(count, dtype=np.float32)
        self.gradients = inputs.gradients[index]
        #: float64 sum of every dW this client had accumulated into W_g.
        self.sent = np.zeros(count, dtype=np.float64)
        self.largest = 0.0  # sum over cycles of max |dW|
        self.latencies: List[float] = []
        self.accumulated = 0
        self.failed = 0
        self.error: Optional[BaseException] = None
        self.pending: Optional[np.ndarray] = None

    def cycle(self, n: int) -> None:
        from repro.core import exchange

        np.subtract(self.local, self.gradients[n % GRADIENTS], out=self.local)
        global_now = self.global_weights.read(out=self.scratch)
        increment, self.local = exchange.elastic_increment(
            self.local, global_now, ALPHA
        )
        self.increment.write(increment)
        self.increment.accumulate_into(self.global_weights)
        self.pending = increment

    def loop(
        self, deadline: float, tracer: Optional[Tracer],
        corrupt: Optional[Any],
    ) -> None:
        from repro.smb.errors import SMBError

        n = 0
        try:
            while perf_counter() < deadline:
                start = perf_counter()
                if tracer is not None:
                    tracer.unit = f"c{self.index}n{n}"
                    tracer.call("bench.cycle", self.cycle, (n,), {})
                else:
                    self.cycle(n)
                self.latencies.append(perf_counter() - start)
                self.accumulated += 1
                increment = self.pending
                if corrupt is not None:
                    corrupt(self, n)
                np.add(self.sent, increment, out=self.sent)
                self.largest += float(np.abs(increment).max())
                n += 1
        except Exception as exc:  # noqa: BLE001 - reported after join
            self.failed += isinstance(exc, SMBError)
            self.error = exc
        finally:
            self.client.close()


def _check(final: np.ndarray, inputs: _Inputs, clients: List[_Client]) -> None:
    """``W_g_final - W_0`` equals the float64 sum of every dW sent.

    The server adds in float32; each add rounds by at most 2^-24 of the
    running value, whose magnitude is bounded by ``max|W_0|`` plus the
    sum of every dW's largest element.
    """
    expected = sum(client.sent for client in clients)
    got = final.astype(np.float64) - inputs.w0.astype(np.float64)
    adds = sum(client.accumulated for client in clients)
    bound = float(np.abs(inputs.w0).max()) + sum(c.largest for c in clients)
    tolerance = max(adds, 1) * 2.0 ** -24 * bound
    error = float(np.abs(got - expected).max())
    if not error <= tolerance:
        raise CheckFailed(
            f"W_g drifted from W_0 + sum(dW) by {error:.3g} "
            f"(float32 rounding allows {tolerance:.3g} over {adds} adds)"
        )


def run(
    seed: int,
    seconds: float,
    trace: bool,
    count: int = COUNT,
    rounds: int = ROUNDS,
    min_samples: int = MIN_SAMPLES,
    corrupt: Optional[Any] = None,
) -> Outcome:
    """``rounds`` server lifetimes of ``seconds / rounds`` each.

    ``corrupt(client, n)`` (tests only) may tamper with a client's
    bookkeeping after cycle ``n`` to prove the check trips.
    """
    inputs = _Inputs(seed, count)
    rounds = planned_rounds(rounds, trace)

    def one_round(_index: int, traced: bool) -> Round:
        return _round(inputs, count, seconds / rounds, traced, corrupt)

    return Rounds(trace).run(one_round, rounds, min_samples).outcome()


def _round(
    inputs: _Inputs, count: int, duration: float, traced: bool,
    corrupt: Optional[Any],
) -> Round:
    from repro.smb import SMBClient

    trace_out = ""
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(OUT_DIR, f"server-{os.getpid()}.json")
    start = perf_counter()
    server = Child(["smb", "serve", "--port", "0"], trace_out=trace_out)
    clients: List[_Client] = []
    tracer: Optional[Tracer] = None
    spans: Dict[str, List[Any]] = {}
    try:
        address = address_from(server.wait_for("listening on"))
        owner = SMBClient.connect(address)
        try:
            owner.create_array("W_g", count).write(inputs.w0)
            clients = [_Client(i, address, inputs) for i in range(CLIENTS)]
            setup = perf_counter() - start
            if traced:
                tracer = Tracer().install(core_hooks, smb_hooks)
            begin = perf_counter()
            threads = [
                threading.Thread(
                    target=c.loop, args=(begin + duration, tracer, corrupt)
                )
                for c in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window = perf_counter() - begin
            if tracer is not None:
                tracer.uninstall()
                spans["benchmark"] = tracer.finished()
                tracer = None
            final = owner.attach_array(
                "W_g", owner.lookup("W_g")[0], count
            ).read()
        finally:
            owner.close()
        rss = server.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.stop()
    if trace_out:
        spans["smb-server"] = load_spans(trace_out)
        os.remove(trace_out)
    errors = [c.error for c in clients if c.error is not None]
    if errors:
        raise CheckFailed(f"exchange failed: {errors[0]!r}")
    _check(final, inputs, clients)
    cycles = sum(c.accumulated for c in clients)
    return Round(
        setup_s=setup, window_s=window, rate=cycles / window, units=cycles,
        latencies=[x for c in clients for x in c.latencies],
        attempted=sum(c.accumulated + c.failed for c in clients),
        failed=sum(c.failed for c in clients), rss_mb=rss, spans=spans,
    )
