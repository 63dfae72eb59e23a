"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program: it times a layer by replacing one
of its public functions with a wrapper that records a span and calls the
original.  :class:`Tracer` keeps the spans of one process in a list:

    (name, start, end, parent, unit, thread, extra)

``start``/``end`` are ``time.perf_counter()`` seconds.  On Linux that is
``CLOCK_MONOTONIC``, one clock for every process on the host, so spans
dumped by the server and gateway subprocesses line up with the
benchmark's own.  ``parent`` is the index of the enclosing span on the
same thread (-1 at top level), ``unit`` the id of the iteration, cycle or
request the span belongs to, ``extra`` a small JSON value (an op name, a
byte count, an HTTP status).

Hooks come in sets, one per layer group; :meth:`Tracer.install` applies a
set and :meth:`Tracer.uninstall` restores every original function.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

Span = Tuple[str, float, float, int, Any, int, Any]

#: Layer types of the scaled Inception-v1; every other registered type is
#: wrapped too, but only these are reported.
CAFFE_TYPES = (
    "Pooling", "Convolution", "ReLU", "Concat",
    "InnerProduct", "SoftmaxWithLoss", "Accuracy",
)
SMB_OPS = ("READ", "WRITE", "ACCUMULATE")


class Patcher:
    """Replaces attributes of the program and puts them back."""

    def __init__(self) -> None:
        self._restore: List[Callable[[], None]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


class Tracer(Patcher):
    """Span recorder plus the function wrappers that feed it."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Optional[Span]] = []
        self._local = threading.local()

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def unit(self) -> Any:
        """Work-unit id of the calling thread (None outside one)."""
        return getattr(self._local, "unit", None)

    @unit.setter
    def unit(self, value: Any) -> None:
        self._local.unit = value

    def note(self, key: str, value: Any) -> None:
        """Thread-local scratch a wrapper reads back (e.g. an HTTP status)."""
        setattr(self._local, key, value)

    def noted(self, key: str, default: Any = None) -> Any:
        return getattr(self._local, key, default)

    def record(
        self, name: str, start: float, end: float, extra: Any = None
    ) -> None:
        """Add a finished span under the calling thread's open span."""
        stack = self._stack()
        self.spans.append((
            name, start, end, stack[-1] if stack else -1, self.unit,
            threading.get_ident(), extra,
        ))

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        extra: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> Any:
        """Run ``fn`` inside a span; ``extra(args, kwargs, result)``
        labels it.

        A call that raises is recorded with ``extra = "error:<Type>"``
        and the exception propagates unchanged.
        """
        spans = self.spans
        stack = self._stack()
        index = len(spans)
        spans.append(None)  # reserve the slot so children see our index
        parent = stack[-1] if stack else -1
        stack.append(index)
        label: Any = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                label = extra(args, kwargs, result)
            return result
        except BaseException as exc:
            label = f"error:{type(exc).__name__}"
            raise
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (
                name, start, end, parent, self.unit,
                threading.get_ident(), label,
            )

    # -- hooking ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: "str | Callable[[tuple], str]",
        extra: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's positional arguments
        (used to split one entry point by opcode).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args) if callable(name) else name
            return tracer.call(label, original, args, kwargs, extra)

        self.patch(owner, attr, wrapper)

    def install(self, *hook_sets: Callable[["Tracer"], None]) -> "Tracer":
        for hooks in hook_sets:
            hooks(self)
        return self

    def finished(self) -> List[Span]:
        """Spans whose calls have returned (in-flight slots dropped)."""
        return [span for span in self.spans if span is not None]

    def dump(self, path: str) -> None:
        """Write the finished spans as JSON (atomically)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.finished(), fh)
        os.replace(tmp, path)


def load_spans(path: str) -> List[Span]:
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)]  # type: ignore[misc]


# -- hook sets ------------------------------------------------------------


def _op_name(message: Any) -> str:
    return message.op.name


def caffe_hooks(tracer: Tracer) -> None:
    """Layer forward/backward per type, solver step/update, data wait."""
    from repro.caffe.data import SyntheticImageDataset
    from repro.caffe.layers.base import LAYER_REGISTRY
    from repro.caffe.solver import SGDSolver

    for type_name, cls in LAYER_REGISTRY.items():
        tracer.wrap(cls, "forward", f"caffe.{type_name}.fwd")
        tracer.wrap(cls, "backward", f"caffe.{type_name}.bwd")
    tracer.wrap(SGDSolver, "step", "caffe.solver.step")
    tracer.wrap(SGDSolver, "apply_update", "caffe.solver.update")

    original = SyntheticImageDataset.minibatches

    def minibatches(self: Any, *args: Any, **kwargs: Any) -> Any:
        return _TimedIterator(tracer, original(self, *args, **kwargs))

    tracer.patch(SyntheticImageDataset, "minibatches", minibatches)


class _TimedIterator:
    """Times every ``next()`` on a worker's minibatch stream."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self._tracer = tracer
        self._inner = inner

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._tracer.call("caffe.data.wait", next, (self._inner,), {})


def core_hooks(tracer: Tracer) -> None:
    """The eq.-(8) terms: block, rgw, ulw, wwi, ugw, and their callers."""
    from repro.caffe.params import FlatParams
    from repro.core import exchange
    from repro.core.overlap import OverlapDriver
    from repro.smb.client import RemoteArray

    tracer.wrap(exchange.SEASGDExchange, "exchange", "core.exchange")
    tracer.wrap(exchange.SEASGDExchange, "_flush", "core.flush")
    tracer.wrap(OverlapDriver, "wait_for_flush", "core.block")
    tracer.wrap(RemoteArray, "read", "RemoteArray.read")
    tracer.wrap(RemoteArray, "write", "RemoteArray.write")
    tracer.wrap(RemoteArray, "accumulate_into", "RemoteArray.accumulate_into")
    tracer.wrap(exchange, "elastic_increment", "elastic_increment")
    tracer.wrap(FlatParams, "get_vector", "FlatParams.get_vector")
    tracer.wrap(FlatParams, "set_vector", "FlatParams.set_vector")

    # The flush runs on the update thread: carry the submitting
    # iteration's unit id across so its spans join that iteration.
    original_submit = OverlapDriver.submit

    def submit(self: Any, thunk: Callable[[], None]) -> None:
        unit = tracer.unit

        def carried() -> None:
            tracer.unit = unit
            thunk()

        original_submit(self, carried)

    tracer.patch(OverlapDriver, "submit", submit)


def smb_hooks(tracer: Tracer) -> None:
    """Client -> transport -> server dispatch -> memory, per opcode."""
    from repro.smb.client import SMBClient
    from repro.smb.memory import Segment
    from repro.smb.server import SMBServer
    from repro.smb.transport import InProcTransport, TcpTransport

    def read_bytes(args: tuple, _kwargs: dict, _result: Any) -> int:
        return memoryview(args[2]).nbytes

    def write_bytes(args: tuple, _kwargs: dict, _result: Any) -> int:
        return memoryview(args[2]).nbytes

    tracer.wrap(SMBClient, "read_into", "client.READ", read_bytes)
    tracer.wrap(SMBClient, "write", "client.WRITE", write_bytes)
    tracer.wrap(SMBClient, "accumulate", "client.ACCUMULATE")
    for transport in (InProcTransport, TcpTransport):
        tracer.wrap(
            transport, "request", lambda a: f"transport.{_op_name(a[1])}"
        )
    tracer.wrap(SMBServer, "handle", lambda a: f"server.{_op_name(a[1])}")
    tracer.wrap(Segment, "read_into", "memory.READ")
    tracer.wrap(Segment, "write", "memory.WRITE")
    tracer.wrap(Segment, "accumulate_from", "memory.ACCUMULATE")
    tracer.wrap(Segment, "install", "memory.INSTALL")


def serve_hooks(tracer: Tracer) -> None:
    """Gateway routing, replica reads (with ring hits), HTTP status."""
    from repro.serve import gateway
    from repro.smb import serving

    tracer.wrap(
        gateway.ModelGateway, "read", "ModelGateway.read",
        lambda _args, _kwargs, result: len(result[1]),
    )

    def replica_extra(args: tuple, kwargs: dict, _result: Any) -> Any:
        # ReplicaServer.read(name, version=None, ...): pinned when a
        # version is given; the ring hook below notes whether it hit.
        version = args[2] if len(args) > 2 else kwargs.get("version")
        pinned = version is not None
        hit = tracer.noted("ring_hit", False)
        tracer.note("ring_hit", False)
        return [pinned, hit]

    tracer.wrap(
        serving.ReplicaServer, "read", "ReplicaServer.read", replica_extra
    )

    original_get = serving._SnapshotRing.get

    def ring_get(self: Any, version: int) -> Any:
        data = original_get(self, version)
        if data is not None:
            tracer.note("ring_hit", True)
        return data

    tracer.patch(serving._SnapshotRing, "get", ring_get)

    handler = gateway._Handler
    original_send = handler.send_response

    def send_response(self: Any, code: int, *args: Any) -> None:
        tracer.note("http_status", code)
        original_send(self, code, *args)

    tracer.patch(handler, "send_response", send_response)
    tracer.wrap(
        handler, "do_GET", "http.GET",
        lambda _args, _kwargs, _result: tracer.noted("http_status"),
    )
