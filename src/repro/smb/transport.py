"""Client-side transports for talking to an SMB server.

The client library (:mod:`repro.smb.client`) is transport-agnostic: it sends
:class:`~repro.smb.protocol.Message` requests and receives responses.  Two
transports implement that contract:

* :class:`InProcTransport` — calls straight into an in-process
  :class:`~repro.smb.server.SMBServer`.  This is the high-fidelity stand-in
  for RDMA: no serialisation, no syscalls, just a function call into the
  memory pool, which is how kernel-bypass one-sided verbs behave from the
  application's point of view.
* :class:`TcpTransport` — frames messages over a TCP socket to a
  :class:`~repro.smb.server.TcpSMBServer`, for genuinely multi-process runs
  (the repro band's "emulate ... over sockets").

Both are safe for use by the two threads of a ShmCaffe worker; each
request/response exchange is serialised by an internal lock, **except**
``WAIT_UPDATE``, which must never hold that lock: a notification wait can
block for seconds while the other thread still needs to read/write/
accumulate.  :class:`TcpTransport` therefore runs waits on a dedicated
second connection (the *notification channel*).  A wait is one request
with the caller's timeout, and ``close()`` wakes it directly: in-process
by cancelling the parked waiter, over TCP by shutting the sockets down.

Fault tolerance: every TCP request but a wait observes a per-request
deadline (a wait's comes from its own timeout, and keepalive probes catch
a server that goes silent), and a connection that dies is re-established
(with a fresh protocol handshake) on the next request — the retry layer
in :class:`~repro.smb.client.SMBClient` turns that into a transparent
reconnect-and-retry.
"""

from __future__ import annotations

import os
import socket
import threading
from time import monotonic, sleep
from typing import Dict, List, Optional, Protocol, Tuple, Union

from .errors import SMBConnectionError, TransportClosedError
from .journal import read_rendezvous
from .memory import DEFAULT_TENANT
from .protocol import (
    Message,
    Op,
    encode_hello,
    recv_message,
    send_message,
    shutdown_socket,
    wait_socket_timeout,
)
from .server import ParkedWait, SMBServer

#: Pause between connect attempts while inside a server-down grace window.
RECONNECT_PAUSE = 0.2


def enable_keepalive(sock: socket.socket, within: float) -> None:
    """Fail a connection whose peer went silent (host down, network cut)
    within about ``within`` s: idle half of it, then 3 probes (Linux's
    knobs; elsewhere the system defaults apply)."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    if hasattr(socket, "TCP_KEEPIDLE"):
        idle = min(max(1, int(within / 2)), 32767)  # Linux's cap
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, idle)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, max(1, idle // 3))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 3)


class Transport(Protocol):
    """What the SMB client needs from a transport."""

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        """Send one request and return the server's response.

        ``out`` is the zero-copy receive seam: when given, a successful
        response payload that fits is delivered *into* ``out`` (and the
        returned message's ``payload`` is a view of it) instead of being
        allocated.  Transports that cannot honour ``out`` may ignore it —
        the client detects aliasing and copies as a fallback.
        """
        ...

    def close(self) -> None:
        """Release transport resources and wake any blocked waiter."""
        ...


class InProcTransport:
    """Direct function-call transport into an in-process server core.

    There is no wire handshake to carry the tenant, so the namespace is
    pinned at construction and passed with every call — the in-process
    analogue of the connection hello.
    """

    def __init__(
        self, server: SMBServer, tenant: str = DEFAULT_TENANT
    ) -> None:
        self._server = server
        self._tenant = tenant
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._waits: Dict[ParkedWait, threading.Event] = {}
        self._waits_lock = threading.Lock()

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        if self._closed.is_set():
            raise TransportClosedError("transport is closed")
        # WAIT_UPDATE may block for a long time; never hold the exchange
        # lock across it or the worker's other thread would stall too.
        if message.op is Op.WAIT_UPDATE:
            return self._wait(message)
        with self._lock:
            return self._server.handle(message, out, tenant=self._tenant)

    def _wait(self, message: Message) -> Message:
        """Park one WAIT_UPDATE in the core and sleep until it is answered,
        expiring it at its deadline; :meth:`close` cancels it."""
        done = threading.Event()
        answer: List[Message] = []

        def complete(response: Message) -> None:
            answer.append(response)
            done.set()

        parked = self._server.park_wait(message, complete, self._tenant)
        if parked is not None:
            with self._waits_lock:
                self._waits[parked] = done
            if self._closed.is_set() and parked.cancel():  # close() ran first
                done.set()
            if not done.wait(parked.remaining()):
                parked.expire()
                done.wait()
            with self._waits_lock:
                del self._waits[parked]
        if not answer:
            raise TransportClosedError("transport closed while waiting")
        return answer[0]

    def close(self) -> None:
        self._closed.set()
        with self._waits_lock:
            waits = list(self._waits.items())
        for parked, done in waits:
            if parked.cancel():
                done.set()


class TcpTransport:
    """Framed request/response transport over TCP, with fault tolerance.

    Two connections are held against the server:

    * the **command channel** — every ordinary request/response pair,
      serialised under a lock;
    * the **notification channel** — opened lazily for ``WAIT_UPDATE``
      only, so a blocked wait never serialises the worker's other thread.

    Either connection that dies (peer reset, timeout, server restart) is
    torn down and re-established — including the protocol ``HELLO``
    handshake — on the next request that needs it.  Every exchange but a
    wait observes ``request_timeout``; an overdue response surfaces as
    :class:`SMBConnectionError`, which the client's retry policy treats
    as transient; a wait's socket times out after its own timeout plus
    ``request_timeout`` (never, for a forever wait: keepalive instead).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 10.0,
        request_timeout: float = 30.0,
        rendezvous: Optional[Union[str, os.PathLike]] = None,
        server_down_grace: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self._address = address
        self._tenant = tenant
        self._hello = encode_hello(tenant)
        self._connect_timeout = timeout
        self._request_timeout = request_timeout
        self._rendezvous = rendezvous
        self._server_down_grace = server_down_grace
        self._lock = threading.Lock()
        self._notify_lock = threading.Lock()
        self._closed = threading.Event()
        self._sock: Optional[socket.socket] = self._connect()
        self._notify_sock: Optional[socket.socket] = None
        #: Whether the notification channel has ever been opened; its
        #: first lazy connect is an open, not a reconnect.
        self._notify_connected_once = False
        self.reconnects = 0

    # -- connection management -------------------------------------------

    def _resolve_address(self) -> Tuple[str, int]:
        """Current server endpoint: rendezvous file, else static address.

        A restarted server usually binds a new ephemeral port and
        republishes it through the rendezvous file; re-reading the file
        on *every* attempt is what lets a client inside its grace window
        find the new endpoint without any out-of-band coordination.
        """
        if self._rendezvous is not None:
            resolved = read_rendezvous(self._rendezvous)
            if resolved is not None:
                return resolved
        return self._address

    def _connect(self) -> socket.socket:
        """Open one handshaken connection to the server.

        With ``server_down_grace > 0`` a refused/failed connection is not
        terminal: attempts repeat (re-resolving the rendezvous each time)
        until the grace window expires, turning a server restart into a
        bounded outage instead of a run-killing error.
        """
        grace = self._server_down_grace
        deadline = monotonic() + grace if grace > 0 else None
        last_exc: Optional[OSError] = None
        address = self._address
        while True:
            if self._closed.is_set():
                raise TransportClosedError("transport is closed")
            address = self._resolve_address()
            sock: Optional[socket.socket] = None
            try:
                sock = socket.create_connection(
                    address, timeout=self._connect_timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self._request_timeout)
                sock.sendall(self._hello)
                self._address = address
                return sock
            except OSError as exc:
                if sock is not None:
                    sock.close()
                last_exc = exc
            if deadline is None or monotonic() >= deadline:
                raise SMBConnectionError(
                    f"cannot connect to SMB server at {address}: {last_exc}"
                ) from last_exc
            sleep(min(RECONNECT_PAUSE, max(deadline - monotonic(), 0.0)))

    @staticmethod
    def _discard(sock: Optional[socket.socket]) -> None:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def drop_connection(self) -> None:
        """Abort both connections (fault injection, and :meth:`close`).

        ``shutdown()`` wakes a thread blocked in ``recv`` (closing does
        not), so a blocked wait sees a connection error and the retry
        layer re-issues it; the next request reconnects.  Each slot is
        then cleared under its lock (the wait's only if no woken waiter
        reconnected it meanwhile).
        """
        notify = self._notify_sock
        shutdown_socket(self._sock)
        shutdown_socket(notify)
        with self._lock:
            self._discard(self._sock)
            self._sock = None
        with self._notify_lock:
            if self._closed.is_set() or self._notify_sock is notify:
                self._discard(self._notify_sock)
                self._notify_sock = None

    # -- request path -----------------------------------------------------

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        if message.op is Op.WAIT_UPDATE:
            return self._wait(message)
        with self._lock:
            if self._sock is None:
                self._sock = self._connect()  # refuses once closed
                self.reconnects += 1
            try:
                send_message(self._sock, message)
                return recv_message(self._sock, out)
            except SMBConnectionError:
                # Connection state is unknown (partial frame possible);
                # drop it so the next request starts clean.
                self._discard(self._sock)
                self._sock = None
                raise

    def _wait(self, message: Message) -> Message:
        """One WAIT_UPDATE on the notification connection, under a socket
        timeout taken from the wait, so the retry layer never mistakes a
        healthy long wait for a dead connection."""
        with self._notify_lock:
            if self._notify_sock is None:
                self._notify_sock = self._connect()
                enable_keepalive(self._notify_sock, self._request_timeout)
                # Reconnects on this channel count too; only the very
                # first (lazy) open is free.
                if self._notify_connected_once:
                    self.reconnects += 1
                self._notify_connected_once = True
            if self._closed.is_set():
                raise TransportClosedError("transport is closed")
            self._notify_sock.settimeout(
                wait_socket_timeout(message.scale, self._request_timeout)
            )
            try:
                send_message(self._notify_sock, message)
                return recv_message(self._notify_sock)
            except SMBConnectionError as exc:
                self._discard(self._notify_sock)
                self._notify_sock = None
                if self._closed.is_set():
                    raise TransportClosedError("transport closed while waiting") from exc
                raise

    def close(self) -> None:
        self._closed.set()
        self.drop_connection()
