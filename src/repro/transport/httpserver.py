"""Worker-pool socket HTTP server and pooled keep-alive client.

A dependency-free web substrate built for concurrency: the server runs a
*bounded worker pool* fed by a readiness reactor instead of spawning one
thread per connection, and the client keeps a *pool* of keep-alive
sockets instead of serializing every caller on one global lock.  It
hosts any *handler* — a callable ``HttpRequest -> HttpResponse`` — so
the SOAP endpoint, REST endpoint, web application framework, the service
directory and the fleet monitor all ride the same substrate, as they did
on the paper's IIS deployment.

Server architecture (three kinds of threads, all daemonic):

* the **accept thread** accepts sockets and hands them to the reactor;
* the **reactor thread** watches every open connection with a
  ``selectors`` selector and *frames* requests itself: on readable it
  does one ``recv`` into the connection's buffer, cuts off each complete
  request, and queues the connection in the bounded *ready queue*.  A
  partial request waits in that buffer, so an idle connection never pins
  a worker and a slow-loris peer occupies a selector slot, not a thread;
* ``workers`` **worker threads** pop ready connections, then parse,
  handle and answer each complete request in order.  A keep-alive
  connection stays registered throughout, so in the steady state no
  worker talks to the reactor: the self-pipe wakes it only for new
  connections, for closes a worker decides, and to resume reading a
  pipelining connection it paused while a framed request waited.

The reactor sweeps on a fixed 0.1 s tick: a connection idle past
``request_timeout`` is closed quietly, or answered ``408`` first when it
stalled part-way through a request.

Request bytes the reactor holds for no worker yet share one budget of
``workers`` × :data:`~repro.transport.http11.MAX_BODY_BYTES`: a request
reserves its framed length when its header section is read, and a
connection whose request does not fit is paused (not read) until
workers drain enough — the bound on buffered bodies is the one the
worker pool gave when workers read them.

Backpressure is explicit: when the ready queue stays full past a short
grace period (the pool is saturated), the connection is answered ``503
Service Unavailable`` with a ``Retry-After`` hint and closed; the same
happens at accept time past ``max_connections``.  Saturation is visible
in ``OBS.instruments`` (busy-worker and queue-depth gauges, a rejection
counter).

Both layers of the stack frame messages with one function,
:func:`_message_end`: the same strict ``Content-Length`` rules
(duplicates rejected — the request-smuggling shape) and the same 64 KiB
header ceiling (:data:`~repro.transport.http11.MAX_HEADER_BYTES`), with
leftover bytes carried over so pipelined messages are never dropped.

The matching :class:`HttpClient` speaks the same dialect over up to
``pool_size`` plain sockets (no ``http.client``): concurrent callers —
the resilient proxy, the crawler, the fleet monitor's scrapes — each
borrow their own connection instead of queueing on a single socket.
"""

from __future__ import annotations

import queue
import select
import selectors
import socket
import threading
import time
import weakref
from collections import OrderedDict, deque
from typing import Callable, Optional

from ..observability.metrics import MetricFamily
from ..observability.runtime import OBS, server_span
from ..observability.trace import TRACEPARENT_HEADER
from .http11 import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    _Headers,
    bodyless_status,
    parse_request,
    parse_response,
)

__all__ = ["HttpServer", "HttpClient", "pool_metric_families", "serve_once"]

Handler = Callable[[HttpRequest], HttpResponse]

#: Access-log hook signature: (method, target, status, duration_seconds).
RequestObserver = Callable[[str, str, int, float], None]

_RECV_CHUNK = 65536

#: How often the reactor closes connections idle past ``request_timeout``.
_SWEEP_INTERVAL = 0.1

#: Methods safe to replay after a mid-exchange failure (RFC 7231 §4.2.2).
#: ``POST``/``PATCH`` are *not* here: replaying one can double-apply a
#: side effect, so their retries belong to an explicit
#: :mod:`repro.resilience` policy, never to the transport.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS"})


def _frame_content_length(head: bytes) -> int:
    """Framing ``Content-Length`` from a raw header block.

    Applies exactly the rules of
    :func:`repro.transport.http11.content_length_of` — in particular,
    *duplicate* ``Content-Length`` headers are rejected rather than
    resolved first-wins or last-wins.  The seed framed on the last copy
    while the parser read the first: two layers disagreeing about where
    a message ends is the request-smuggling desync this refuses.
    """
    values: list[bytes] = []
    for line in head.split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            values.append(line.split(b":", 1)[1].strip())
    if not values:
        return 0
    if len(values) > 1:
        raise HttpError(
            "duplicate Content-Length headers (request-smuggling shape)"
        )
    try:
        length = int(values[0])
    except ValueError as exc:
        raise HttpError("bad Content-Length") from exc
    if length < 0:
        raise HttpError("negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError("body too large", status=413)
    return length


def _response_status_of(head: bytes) -> Optional[int]:
    """The status code when ``head`` frames an HTTP *response*, else None.

    The framer needs it because bodyless statuses (1xx/204/304 —
    :func:`~repro.transport.http11.bodyless_status`) are terminated by
    the header section regardless of any ``Content-Length`` they carry:
    framing over a 304's would-be length reads the *next* response's
    bytes as body — the keep-alive desync this module refuses to have.
    """
    if not head.startswith(b"HTTP/"):
        return None
    parts = head.split(b"\r\n", 1)[0].split(b" ", 2)
    if len(parts) < 2:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def _message_end(
    buffer: bytes | bytearray, *, head_response: bool = False
) -> Optional[int]:
    """End offset of the first HTTP message in ``buffer``, or None.

    The one framer both sides use: the server's reactor frames requests
    with it and the client's :func:`_read_message` frames responses.
    The offset is known once the header section is complete, before the
    body has arrived; the message is complete when ``len(buffer)``
    reaches it.  ``None`` means the header section is still incomplete.
    Headers above :data:`MAX_HEADER_BYTES` raise 431 — the same ceiling
    the message parser enforces — and ``Content-Length`` follows
    :func:`_frame_content_length` (duplicates 400, oversize 413).
    Bodyless statuses (1xx/204/304) end at the header section, and
    ``head_response=True`` frames the response to a ``HEAD`` request,
    whose ``Content-Length`` describes a body that never arrives.
    """
    separator = buffer.find(b"\r\n\r\n")
    if separator == -1:
        if len(buffer) > MAX_HEADER_BYTES:
            raise HttpError("header section too large", status=431)
        return None
    if separator > MAX_HEADER_BYTES:
        raise HttpError("header section too large", status=431)
    head = bytes(buffer[:separator])
    content_length = 0
    if not head_response:
        content_length = _frame_content_length(head)
        status = _response_status_of(head)
        if status is not None and bodyless_status(status):
            # 1xx/204/304: header-terminated whatever Content-Length
            # says (RFC 7230 §3.3.3) — the length, already validated
            # above, describes a body that never arrives.
            content_length = 0
    return separator + 4 + content_length


def _read_message(
    sock: socket.socket,
    buffer: bytes = b"",
    *,
    head_response: bool = False,
) -> tuple[Optional[bytes], bytes]:
    """Read one exactly-framed HTTP message; return ``(message, leftover)``.

    ``buffer`` carries bytes already read off the socket (the tail of a
    previous keep-alive exchange); any bytes past this message's framing
    come back as ``leftover`` so pipelined messages survive intact.
    Bytes accumulate in a ``bytearray``, so a message costs time linear
    in its size however many segments it arrives in.

    Returns ``(None, b"")`` on clean EOF before any bytes arrive; EOF
    part-way through a message raises :class:`HttpError`.  A socket
    timeout propagates.  Framing errors are those of :func:`_message_end`.
    """
    data = bytearray(buffer)
    while True:
        end = _message_end(data, head_response=head_response)
        if end is not None and len(data) >= end:
            return bytes(data[:end]), bytes(data[end:])
        chunk = sock.recv(_RECV_CHUNK)
        if not chunk:
            if not data:
                return None, b""
            raise HttpError("connection closed mid-message")
        data += chunk


def _poll(sock: socket.socket, events: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for ``events`` (or an error) on ``sock``."""
    poller = select.poll()
    poller.register(sock, events)
    return bool(poller.poll(timeout * 1000))


def _send_all(sock: socket.socket, data: bytes, timeout: float) -> None:
    """``sendall`` for a non-blocking socket.

    Raises ``socket.timeout`` when the peer accepts no bytes for
    ``timeout`` seconds, the bound a blocking ``sendall`` with that
    socket timeout would have had.
    """
    view = memoryview(data)
    while view:
        try:
            view = view[sock.send(view):]
        except (BlockingIOError, InterruptedError):
            if not _poll(sock, select.POLLOUT, timeout):
                raise socket.timeout("peer stopped reading") from None


def _send_nowait(sock: socket.socket, data: bytes) -> None:
    """Best-effort single ``send`` of a small diagnostic before a close;
    never blocks the reactor or accept thread."""
    try:
        sock.send(data)
    except OSError:  # peer gone or not reading: nothing more to do
        pass


def _error_response(status: int, message: str) -> bytes:
    """A diagnostic response that closes the connection."""
    response = HttpResponse.error(status, message)
    response.headers.set("Connection", "close")
    return response.to_bytes()


class _Connection:
    """Server-side per-connection state.

    Only the reactor touches:

    * ``buffer`` — the start of a request not yet complete;
    * ``admitted`` — bytes of the server's buffer budget reserved for the
      request at the head of ``buffer`` (0 until its header is framed);
    * ``paused`` — reading stopped until the budget can admit that
      request.

    The rest is shared with the workers and guarded by ``lock``:

    * ``pending`` — framed requests in arrival order: raw bytes, or the
      :class:`HttpError` a malformed one raised (answered, then closed);
    * ``busy`` — a worker owns the connection (queued or serving), so one
      worker at a time serves it and responses leave in request order;
    * ``reading`` — the socket is registered with the reactor's selector;
    * ``eof`` — no more requests will be read: the peer finished sending,
      or framing failed;
    * ``closing`` — the connection is being closed; ignore its events;
    * ``last_active`` — when bytes last arrived or a response finished,
      for the idle sweep.
    """

    __slots__ = (
        "sock", "peer", "lock", "buffer", "admitted", "paused", "pending",
        "busy", "reading", "eof", "closing", "last_active",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.buffer = bytearray()
        self.admitted = 0
        self.paused = False
        self.pending: deque[bytes | HttpError] = deque()
        self.busy = False
        self.reading = False
        self.eof = False
        self.closing = False
        self.last_active = time.monotonic()
        try:
            self.peer: Optional[str] = sock.getpeername()[0]
        except (OSError, IndexError):
            self.peer = None

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


class HttpServer:
    """Bounded worker-pool server dispatching requests to a handler.

    Use as a context manager in tests::

        with HttpServer(handler, workers=8) as server:
            client = HttpClient("127.0.0.1", server.port, pool_size=4)
            response = client.get("/ping")

    ``workers`` bounds concurrent request handling; idle keep-alive
    connections cost a selector slot, not a thread, so thousands of idle
    clients can coexist with a small pool.  ``queue_size`` bounds the
    ready queue between reactor and workers: connections with a complete
    request that cannot be dispatched within ``saturation_grace``
    seconds are refused with ``503`` + ``Retry-After: {retry_after}``.

    Request bytes the reactor has read but no worker has taken yet are
    capped at ``workers`` × :data:`MAX_BODY_BYTES` across all connections
    (:attr:`buffered_bytes`): each request reserves its full framed length
    once its header section is read, and a connection whose next request
    does not fit stops being read until workers drain enough.  One
    waiting past ``request_timeout`` is refused with ``503``.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_timeout: float = 30.0,
        on_request: Optional[RequestObserver] = None,
        workers: int = 4,
        queue_size: Optional[int] = None,
        max_connections: int = 512,
        saturation_grace: float = 0.5,
        retry_after: float = 1.0,
        node_name: Optional[str] = None,
    ) -> None:
        """``on_request`` is an optional access-log hook called after every
        dispatched request as ``(method, target, status, duration_seconds)``.
        It runs on the worker thread, *inside* the request's server span —
        so :func:`repro.observability.logs.access_log` observers emit
        trace-correlated records.  Exceptions it raises are swallowed —
        an observer must never break serving.

        ``node_name`` stamps every server span with a ``node`` attribute
        — the identity the trace store's cross-node assembly attributes
        spans by.  Replica sets and the gateway set it; plain servers
        may leave it off (spans then inherit attribution upstream).
        """
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.handler = handler
        self.on_request = on_request
        self.node_name = node_name
        self.request_timeout = request_timeout
        self.workers = workers
        self.retry_after = retry_after
        self.saturation_grace = saturation_grace
        self.max_connections = max_connections
        self.queue_size = max(queue_size or 8 * workers, workers)
        self.rejected_connections = 0  # 503s sent at saturation (stats)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._reactor_thread: Optional[threading.Thread] = None
        self._worker_threads: list[threading.Thread] = []
        self._ready: "queue.Queue[Optional[_Connection]]" = queue.Queue(
            maxsize=self.queue_size
        )
        self._connections: set[_Connection] = set()
        self._lock = threading.Lock()
        # reactor plumbing: a selector over every open connection plus a
        # self-pipe through which the accept thread and workers hand it
        # new, resumed and closing connections.
        self._selector = selectors.DefaultSelector()
        self._handoffs: deque[_Connection] = deque()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        # buffer budget: bytes admitted (read or reserved by the reactor,
        # not yet taken by a worker) and the connections waiting for room
        self._budget = workers * MAX_BODY_BYTES
        self._held = 0
        self._held_lock = threading.Lock()
        self._paused: deque[_Connection] = deque()
        self._label = None  # bound gauge children, set in start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def buffered_bytes(self) -> int:
        """Request bytes admitted to the reactor's buffers and not yet
        taken by a worker (stats); never above ``workers`` ×
        :data:`MAX_BODY_BYTES` unless one request alone is larger."""
        return self._held

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "HttpServer":
        # Idempotent: ``with gateway.start() as server`` enters an
        # already-started server, and a second thread fleet (plus a
        # second wake-pipe registration in the reactor's selector) must
        # not spawn.
        if self._running:
            return self
        self._running = True
        if OBS.enabled:
            # Bind the per-server gauge children once: worker loops then
            # update them without per-call label validation.  Captured as
            # a tuple so a mid-flight OBS reconfiguration (tests swapping
            # registries) cannot strand an inc without its dec.
            server = f"{self.host}:{self.port}"
            instruments = OBS.instruments
            self._label = (
                instruments.transport_workers_busy.labels(server=server),
                instruments.transport_queue_depth.labels(server=server),
                instruments.transport_rejections.labels(server=server),
            )
        self._reactor_thread = threading.Thread(
            target=self._reactor_loop, name="http-reactor", daemon=True
        )
        self._reactor_thread.start()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"http-worker-{index}", daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="http-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        # closing an fd does NOT wake a thread blocked in accept(2) on
        # Linux — the kernel socket would stay in LISTEN and the accept
        # thread would leak.  shutdown() interrupts it; where shutdown on
        # a listening socket is unsupported, a self-connection wakes it.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            try:
                with socket.create_connection((self.host, self.port), timeout=1):
                    pass
            except OSError:  # pragma: no cover - already unblocked
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        self._wake_reactor()  # reactor notices _running went False
        if self._reactor_thread is not None:
            self._reactor_thread.join(timeout=2)
        # close every connection: idle, queued, or mid-request
        with self._lock:
            for conn in list(self._connections):
                conn.close()
            self._connections.clear()
        # drain queued connections, then send one sentinel per worker
        while True:
            try:
                item = self._ready.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                item.close()
        for _ in self._worker_threads:
            try:
                self._ready.put(None, timeout=1)
            except queue.Full:  # pragma: no cover - workers wedged
                break
        for thread in self._worker_threads:
            thread.join(timeout=2)
        self._worker_threads.clear()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
        try:
            self._wake_r.close()
            self._wake_w.close()
        except OSError:  # pragma: no cover
            pass
        try:
            self._selector.close()
        except (OSError, RuntimeError):  # pragma: no cover
            pass

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- saturation -----------------------------------------------------
    def _reject(self, conn: _Connection, message: str) -> None:
        """Refuse a connection with 503 + Retry-After; the caller closes it."""
        # Count before the refusal hits the wire: a caller reacting to
        # the 503 must already see it in the stats/instruments.
        self.rejected_connections += 1
        if self._label is not None:
            self._label[2].inc()
        response = HttpResponse.error(503, message)
        response.headers.set("Retry-After", f"{self.retry_after:g}")
        response.headers.set("Connection", "close")
        _send_nowait(conn.sock, response.to_bytes())

    def _discard(self, conn: _Connection) -> None:
        with self._lock:
            self._connections.discard(conn)
        conn.close()

    # -- accept ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            # Non-blocking: the reactor's reads must never stall it, and
            # workers write through _send_all.
            sock.setblocking(False)
            conn = _Connection(sock)
            with self._lock:
                overloaded = len(self._connections) >= self.max_connections
                if not overloaded:
                    self._connections.add(conn)
            if overloaded:
                self._reject(conn, "server saturated: connection limit reached")
                conn.close()
                continue
            self._handoff(conn)

    # -- reactor --------------------------------------------------------
    def _handoff(self, conn: _Connection) -> None:
        """Ask the reactor to register a new or resumed connection, or to
        close one (``conn.closing`` / ``conn.eof``)."""
        self._handoffs.append(conn)
        self._wake_reactor()

    def _wake_reactor(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # pragma: no cover - reactor already shut down
            pass

    def _reactor_loop(self) -> None:
        """Frame requests off every open connection; only this thread
        reads sockets and touches the selector."""
        selector = self._selector
        selector.register(self._wake_r, selectors.EVENT_READ, None)
        next_sweep = time.monotonic() + _SWEEP_INTERVAL
        while self._running:
            try:
                events = selector.select(timeout=_SWEEP_INTERVAL)
            except OSError:  # pragma: no cover - selector closed under us
                return
            for key, _mask in events:
                if key.data is None:
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except OSError:
                        pass
                else:
                    self._on_readable(key.data)
            while self._handoffs:
                conn = self._handoffs.popleft()
                if self._running and not (conn.closing or conn.eof or conn.paused):
                    with conn.lock:
                        self._set_reading(conn, True)  # new or resumed
                if conn.closing or conn.eof or not self._running:
                    # a worker's close, EOF after the last answer,
                    # shutdown, or a failed registration
                    self._close(conn)
            if self._paused:
                self._resume_paused()
            now = time.monotonic()
            if now >= next_sweep:
                self._sweep(now)
                next_sweep = now + _SWEEP_INTERVAL
        # shutdown: release whatever is still registered or paused
        try:
            for key in list(selector.get_map().values()):
                if key.data is not None:
                    self._discard(key.data)
        except (RuntimeError, OSError):  # pragma: no cover
            pass
        for conn in self._paused:
            self._discard(conn)

    def _set_reading(self, conn: _Connection, reading: bool) -> None:
        """(Un)register ``conn`` with the selector; reactor thread only,
        under ``conn.lock``."""
        if conn.reading == reading:
            return
        try:
            if reading:
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            else:
                self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            reading = False
            conn.closing = True
        conn.reading = reading

    def _close(self, conn: _Connection) -> None:
        """Unregister and close ``conn``, returning its budget; reactor
        thread only."""
        with conn.lock:
            conn.closing = True
            self._set_reading(conn, False)
            held = conn.admitted + sum(
                len(item) for item in conn.pending if isinstance(item, bytes)
            )
            conn.admitted = 0
            conn.pending.clear()
        conn.buffer.clear()
        self._release(held)
        self._discard(conn)

    # -- buffer budget ----------------------------------------------------
    def _admit(self, size: int) -> bool:
        """Reserve ``size`` bytes of the buffer budget.  An empty budget
        admits any one request, so a request never waits forever."""
        with self._held_lock:
            if self._held and self._held + size > self._budget:
                return False
            self._held += size
            return True

    def _release(self, size: int) -> None:
        if size:
            with self._held_lock:
                self._held -= size

    def _resume_paused(self) -> None:
        """Read paused connections again, oldest first, while the budget
        admits their next request; reactor thread only."""
        while self._paused:
            conn = self._paused[0]
            if not conn.closing:
                end = _message_end(conn.buffer)  # framed once already
                if not self._admit(end):
                    return
                conn.admitted = end
            self._paused.popleft()
            if conn.closing:
                continue
            conn.paused = False
            conn.last_active = time.monotonic()  # the wait was the server's
            with conn.lock:
                if not conn.busy:  # a busy one's worker hands it back
                    self._set_reading(conn, True)
            self._advance(conn)

    # -- framing ----------------------------------------------------------
    def _on_readable(self, conn: _Connection) -> None:
        """One ``recv`` into the connection's buffer, then frame it."""
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""  # reset by peer: nothing more will arrive
        if chunk:
            conn.buffer += chunk
            conn.last_active = time.monotonic()
        self._advance(conn, eof=not chunk)

    def _advance(self, conn: _Connection, *, eof: bool = False) -> None:
        """Cut every complete request off ``conn.buffer`` and queue the
        connection for a worker.

        Each request reserves its framed length from the buffer budget
        when its header section is complete; when the budget cannot
        admit it, the connection is paused until workers drain enough.
        EOF part-way through a request, like a framing error, is queued
        as an :class:`HttpError` answered after the requests before it.
        """
        buffer = conn.buffer
        framed: list[bytes | HttpError] = []
        paused = False
        try:
            while buffer:
                end = _message_end(buffer)
                if end is None:
                    break
                if not conn.admitted:
                    if not self._admit(end):
                        paused = True
                        break
                    conn.admitted = end
                if len(buffer) < end:
                    break
                framed.append(bytes(buffer[:end]))
                del buffer[:end]
                conn.admitted = 0  # the reservation moves with the request
        except HttpError as exc:
            framed.append(exc)
        if eof and buffer:
            framed.append(HttpError("connection closed mid-message"))
        if framed and isinstance(framed[-1], HttpError):
            eof = True
            buffer.clear()
            self._release(conn.admitted)
            conn.admitted = 0
        with conn.lock:
            conn.pending.extend(framed)  # _close returns their budget
            if conn.closing:
                return
            if eof:
                conn.eof = True
            elif paused:
                conn.paused = True
                self._paused.append(conn)
                self._set_reading(conn, False)
            if conn.busy:
                # The worker serves what is pending before it lets go.
                # Stop reading meanwhile so read-ahead stays bounded; it
                # hands the connection back once drained.
                if conn.pending or conn.eof:
                    self._set_reading(conn, False)
                return
            dispatch = bool(conn.pending)
            if dispatch:
                conn.busy = True
                if conn.eof:
                    self._set_reading(conn, False)
        if dispatch:
            self._dispatch(conn)
        elif conn.eof:
            self._close(conn)

    def _dispatch(self, conn: _Connection) -> None:
        """Queue a connection with a request for a worker, with backpressure."""
        try:
            self._ready.put_nowait(conn)
        except queue.Full:
            # Saturated: give the pool a short grace, then shed load.
            try:
                self._ready.put(conn, timeout=self.saturation_grace)
            except queue.Full:
                self._reject(conn, "server saturated: worker pool busy")
                self._close(conn)
                return
        if self._label is not None:
            self._label[1].set(self._ready.qsize())

    def _sweep(self, now: float) -> None:
        """Close connections idle past ``request_timeout``: quietly when
        empty, with a 408 when a request stalled part-way, with a 503
        when it waited that long for buffer budget."""
        deadline = now - self.request_timeout
        for key in list(self._selector.get_map().values()):
            conn = key.data
            # only the reactor sets busy, so an idle read here is stable
            if conn is None or conn.busy or conn.last_active > deadline:
                continue
            if conn.buffer:
                _send_nowait(
                    conn.sock, _error_response(408, "request stalled mid-message")
                )
            self._close(conn)
        for conn in list(self._paused):
            if not (conn.closing or conn.busy) and conn.last_active <= deadline:
                self._reject(conn, "server saturated: request buffers full")
                self._close(conn)
        if self._paused:
            self._paused = deque(c for c in self._paused if not c.closing)

    # -- workers --------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            conn = self._ready.get()
            if conn is None:
                return  # sentinel: shutting down
            label = self._label
            if label is not None:
                label[0].inc()  # workers busy
                label[1].set(self._ready.qsize())
            try:
                self._serve(conn)
            finally:
                if label is not None:
                    label[0].dec()

    def _serve(self, conn: _Connection) -> None:
        """Answer every request pending on ``conn``, in order.

        In the steady keep-alive state this ends by clearing ``busy``:
        the socket stayed registered, so the reactor needs no word.  It
        wakes the reactor only to close the connection, or to resume
        reading one it stopped reading while a pipelined request waited.
        """
        while True:
            with conn.lock:
                if not conn.pending:
                    # last_active first: the sweep reads both unlocked
                    conn.last_active = time.monotonic()
                    conn.busy = False
                    if not conn.reading:
                        self._handoff(conn)  # resume, or close after EOF
                    return
                item = conn.pending.popleft()
            if isinstance(item, bytes):
                self._release(len(item))  # this worker holds it now
            if not self._answer(conn, item):
                with conn.lock:
                    conn.closing = True
                self._handoff(conn)
                return

    def _answer(self, conn: _Connection, item: bytes | HttpError) -> bool:
        """Respond to one framed request; False when the connection ends."""
        try:
            if isinstance(item, HttpError):
                raise item  # the reactor could not frame it
            request = parse_request(item)
        except HttpError as exc:
            # a malformed peer gets a diagnostic (400 framing / 413 body /
            # 431 headers) before close
            try:
                _send_all(
                    conn.sock,
                    _error_response(exc.status, str(exc)),
                    self.request_timeout,
                )
            except OSError:  # pragma: no cover - peer already gone
                pass
            return False
        request.client_address = conn.peer
        response = self._handle(request)
        keep_alive = (
            request.headers.get("Connection", "keep-alive").lower() != "close"
        )
        if not keep_alive:
            response.headers.set("Connection", "close")
        try:
            _send_all(
                conn.sock,
                # HEAD: status line + headers only; Content-Length still
                # describes the suppressed body (RFC 7230 §3.3)
                response.to_bytes(include_body=request.method != "HEAD"),
                self.request_timeout,
            )
        except OSError:
            return False
        return keep_alive and self._running

    def _handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one parsed request: handler + telemetry + access hook.

        The server span (parented on an inbound ``traceparent`` header,
        when present) is *active* while the handler runs, so endpoint
        spans opened inside — SOAP dispatch, REST dispatch, bus calls —
        nest under it and share its trace.
        """
        start = time.perf_counter()
        attributes = {"http.method": request.method, "http.target": request.target}
        if self.node_name is not None:
            attributes["node"] = self.node_name
        with server_span(
            "http.server",
            header=request.headers.get(TRACEPARENT_HEADER),
            **attributes,
        ) as span:
            try:
                response = self.handler(request)
            except Exception as exc:  # noqa: BLE001 - server must not die
                span.record_exception(exc)
                response = HttpResponse.error(500, f"handler error: {exc}")
            status = response.status
            span.set_attribute("http.status", status)
            duration = time.perf_counter() - start
            if self.on_request is not None:
                # Inside the span on purpose: a structured access log
                # observer (repro.observability.logs.access_log) sees the
                # request's trace context and emits a correlated record.
                try:
                    self.on_request(
                        request.method, request.target, status, duration
                    )
                except Exception:  # noqa: BLE001 - observers must not break serving
                    pass
        if OBS.enabled:
            instruments = OBS.instruments
            instruments.transport_requests.inc(
                method=request.method, status=str(status)
            )
            instruments.transport_seconds.observe(
                duration, method=request.method
            )
        return response


class _PooledConnection:
    """Client-side pooled socket: keep-alive state + leftover buffer."""

    __slots__ = ("sock", "buffer", "last_used")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""
        self.last_used = time.monotonic()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def stale(self) -> bool:
        """Non-destructive probe: did the server already close (or poison)
        this idle keep-alive socket?

        One zero-timeout readiness poll.  An idle keep-alive socket has
        nothing to read, so *readable* means either EOF (server closed
        while we idled) or unsolicited bytes (framing desync) — both make
        the socket unusable; an error condition does too.  Detecting
        staleness *before* writing is what lets even non-idempotent
        requests migrate to a fresh connection safely: no bytes of theirs
        were ever sent.
        """
        try:
            return _poll(self.sock, select.POLLIN, 0)
        except (OSError, ValueError):
            return True  # closed or unusable descriptor


#: Every live HttpClient, for scrape-time capacity gauges.  A WeakSet so
#: the registry never keeps a discarded client (and its idle sockets)
#: alive; iteration snapshots under the lock because clients are created
#: from many threads.
_LIVE_CLIENTS: "weakref.WeakSet[HttpClient]" = weakref.WeakSet()
_LIVE_CLIENTS_LOCK = threading.Lock()


def pool_metric_families() -> list[MetricFamily]:
    """Capacity gauges over every live :class:`HttpClient` pool.

    Aggregated per ``authority`` (``host:port``) across clients:
    ``repro_transport_pool_in_use``, ``_idle`` and ``_waiters`` — the
    waiters gauge is the early-warning signal that borrowers are queueing
    *before* the borrow-timeout ``OSError`` ever fires.  The global
    registry reaches these through a collector in
    :mod:`repro.observability.runtime` (observability never imports the
    transport layer; it just reads this module when already loaded).
    """
    with _LIVE_CLIENTS_LOCK:
        clients = list(_LIVE_CLIENTS)
    in_use: dict[tuple[str, ...], float] = {}
    idle: dict[tuple[str, ...], float] = {}
    waiters: dict[tuple[str, ...], float] = {}
    for client in clients:
        if client.closed:
            # close()d but still referenced: not in service — exporting
            # its (all-zero) series would keep dead authorities on
            # /metrics forever.  The flag clears if the client redials.
            continue
        stats = client.pool_stats()
        key = (f"{client.host}:{client.port}",)
        in_use[key] = in_use.get(key, 0.0) + stats["in_use"]
        idle[key] = idle.get(key, 0.0) + stats["idle"]
        waiters[key] = waiters.get(key, 0.0) + stats["waiters"]
    labelnames = ("authority",)
    return [
        MetricFamily(
            "repro_transport_pool_in_use",
            "gauge",
            "HTTP client pool connections currently borrowed, by authority.",
            labelnames,
            in_use,
        ),
        MetricFamily(
            "repro_transport_pool_idle",
            "gauge",
            "HTTP client pool connections idle in keep-alive, by authority.",
            labelnames,
            idle,
        ),
        MetricFamily(
            "repro_transport_pool_waiters",
            "gauge",
            "Threads blocked waiting to borrow a pooled connection, by authority.",
            labelnames,
            waiters,
        ),
    ]


class _ValidationEntry:
    """One validated GET representation: body + the validators it carried."""

    __slots__ = ("etag", "last_modified", "body", "headers")

    def __init__(
        self,
        etag: Optional[str],
        last_modified: Optional[str],
        body: bytes,
        headers: list[tuple[str, str]],
    ) -> None:
        self.etag = etag
        self.last_modified = last_modified
        self.body = body
        self.headers = headers


class _ValidationCache:
    """Bounded LRU of ``target -> validated representation`` per authority.

    The client-side half of HTTP validation caching: a stored entry's
    validators ride the next GET to the same target (``If-None-Match``
    / ``If-Modified-Since``), and a ``304 Not Modified`` answer is
    resolved against the stored body — the representation crosses the
    wire once, every revalidation after that is headers-only.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "stores", "bytes_saved")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, _ValidationEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0        # 304s resolved from the store
        self.stores = 0      # validated 200s cached
        self.bytes_saved = 0  # body bytes a 304 did not re-transfer

    def get(self, target: str) -> Optional[_ValidationEntry]:
        with self._lock:
            entry = self._entries.get(target)
            if entry is not None:
                self._entries.move_to_end(target)
            return entry

    def put(self, target: str, entry: _ValidationEntry) -> None:
        with self._lock:
            self._entries[target] = entry
            self._entries.move_to_end(target)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self.stores += 1

    def remove(self, target: str) -> None:
        with self._lock:
            self._entries.pop(target, None)

    def record_hit(self, saved: int) -> None:
        with self._lock:
            self.hits += 1
            self.bytes_saved += saved

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "stores": self.stores,
                "bytes_saved": self.bytes_saved,
            }


class HttpClient:
    """Pooled persistent-connection HTTP client over raw sockets.

    Up to ``pool_size`` keep-alive sockets are kept to ``host:port``;
    concurrent callers each borrow one (waiting up to ``timeout`` when
    all are busy), so requests from many threads overlap on the wire
    instead of serializing on a single global lock.  Idle sockets are
    reaped after ``idle_ttl`` seconds and probed for staleness before
    reuse.  Mid-exchange failures are retried once on a fresh
    connection for idempotent methods only (RFC 7231 §4.2.2); a failed
    ``POST``/``PATCH`` surfaces immediately — replay policy belongs to
    :mod:`repro.resilience`, not the transport.

    ``validation_cache`` bounds a per-authority LRU of validated GET
    representations (url → etag/body): when a server tags responses
    with ``ETag``/``Last-Modified``, later GETs to the same target
    revalidate transparently (``If-None-Match``/``If-Modified-Since``)
    and a ``304`` is answered to the caller as the stored ``200`` —
    same body, zero body bytes on the wire.  ``0`` disables.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        *,
        pool_size: int = 4,
        idle_ttl: float = 30.0,
        validation_cache: int = 64,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive")
        if validation_cache < 0:
            raise ValueError("validation_cache cannot be negative")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = pool_size
        self.idle_ttl = idle_ttl
        self.created_connections = 0  # pool stats (tests, debugging)
        self.reaped_connections = 0
        self.closed = False  # set by close(); cleared if the client redials
        self._validation = (
            _ValidationCache(validation_cache) if validation_cache else None
        )
        self._idle: list[_PooledConnection] = []
        self._in_use = 0
        self._waiters = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        with _LIVE_CLIENTS_LOCK:
            _LIVE_CLIENTS.add(self)

    # -- pool internals --------------------------------------------------
    def _acquire(self) -> _PooledConnection:
        """Borrow a connection: pooled if healthy, else freshly dialed."""
        deadline = time.monotonic() + self.timeout
        with self._available:
            self.closed = False  # back in service: gauges resume
            while True:
                while self._idle:
                    conn = self._idle.pop()  # LIFO: warmest socket first
                    if (
                        time.monotonic() - conn.last_used > self.idle_ttl
                        or conn.stale()
                    ):
                        conn.close()
                        self.reaped_connections += 1
                        continue
                    self._in_use += 1
                    return conn
                if self._in_use < self.pool_size:
                    self._in_use += 1  # reserve the slot; dial unlocked
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise OSError(
                        f"HTTP connection pool to {self.host}:{self.port} "
                        f"exhausted ({self.pool_size} in use)"
                    )
                self._waiters += 1
                try:
                    signalled = self._available.wait(remaining)
                finally:
                    self._waiters -= 1
                if not signalled:
                    raise OSError(
                        f"HTTP connection pool to {self.host}:{self.port} "
                        f"exhausted ({self.pool_size} in use)"
                    )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except BaseException:
            with self._available:
                self._in_use -= 1
                self._available.notify()
            raise
        self.created_connections += 1
        return _PooledConnection(sock)

    def _release(self, conn: _PooledConnection, *, reusable: bool) -> None:
        with self._available:
            self._in_use -= 1
            if reusable:
                conn.last_used = time.monotonic()
                self._idle.append(conn)
            else:
                conn.close()
            self._available.notify()

    def pool_stats(self) -> dict[str, int]:
        """Point-in-time pool occupancy (for tests and dashboards).

        ``waiters`` counts threads currently blocked in ``_acquire``
        waiting for a borrow slot — nonzero means the pool is the
        bottleneck *now*, ahead of any borrow-timeout ``OSError``.
        """
        with self._lock:
            return {
                "idle": len(self._idle),
                "in_use": self._in_use,
                "waiters": self._waiters,
                "pool_size": self.pool_size,
                "created": self.created_connections,
                "reaped": self.reaped_connections,
            }

    def close(self) -> None:
        """Close every idle pooled socket.  The client stays usable:
        the next request simply dials fresh connections.  Until it does,
        ``closed`` keeps the pool gauges from exporting series for a
        client that is merely *referenced*, not in service."""
        with self._available:
            idle, self._idle = self._idle, []
            self.closed = True
        for conn in idle:
            conn.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests --------------------------------------------------------
    def request(self, request: HttpRequest) -> HttpResponse:
        """Send one request over a pooled connection.

        When a trace is active on this thread, the request carries a
        ``traceparent`` header (unless the caller set one), so the server
        side joins the same trace — every HTTP-based binding inherits
        propagation from this one seam.

        Only idempotent methods are retried (once, on a fresh socket)
        after a mid-exchange failure; for everything the stale-peek in
        the pool already covers the "connection died before any bytes
        were written" case by never handing out a detectably-dead socket.
        """
        if OBS.enabled and OBS.tracer.sampling:
            context = OBS.tracer.current()
            if (
                context is not None
                and request.headers.get(TRACEPARENT_HEADER) is None
            ):
                request.headers.set(TRACEPARENT_HEADER, context.traceparent())
        stored = self._prepare_validation(request)
        attempts = 2 if request.method in IDEMPOTENT_METHODS else 1
        payload = request.to_bytes()
        for attempt in range(1, attempts + 1):
            conn = self._acquire()
            reusable = False
            try:
                conn.sock.sendall(payload)
                raw, leftover = _read_message(
                    conn.sock,
                    conn.buffer,
                    head_response=request.method == "HEAD",
                )
                conn.buffer = b""
                if raw is None:
                    raise OSError("server closed connection")
                response = parse_response(
                    raw, head_response=request.method == "HEAD"
                )
                conn.buffer = leftover
                reusable = (
                    (request.headers.get("Connection") or "").lower() != "close"
                    and (response.headers.get("Connection") or "").lower()
                    != "close"
                )
                return self._resolve_validation(request, response, stored)
            except (OSError, HttpError):
                if attempt >= attempts:
                    raise
            finally:
                self._release(conn, reusable=reusable)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- validation caching ----------------------------------------------
    def _prepare_validation(
        self, request: HttpRequest
    ) -> Optional[_ValidationEntry]:
        """Attach stored validators to an eligible GET; return the entry.

        A request that already carries its own conditional headers is the
        caller's business — the client neither overrides them nor resolves
        the resulting 304 (the caller asked for it and gets it raw).
        """
        if self._validation is None or request.method != "GET":
            return None
        if (
            "If-None-Match" in request.headers
            or "If-Modified-Since" in request.headers
        ):
            return None
        entry = self._validation.get(request.target)
        if entry is None:
            return None
        if entry.etag:
            request.headers.set("If-None-Match", entry.etag)
        if entry.last_modified:
            request.headers.set("If-Modified-Since", entry.last_modified)
        return entry

    def _resolve_validation(
        self,
        request: HttpRequest,
        response: HttpResponse,
        stored: Optional[_ValidationEntry],
    ) -> HttpResponse:
        """Store validated 200s; answer our own 304s from the store."""
        if self._validation is None or request.method != "GET":
            return response
        if response.status == 304 and stored is not None:
            self._validation.record_hit(len(stored.body))
            OBS.instruments.client_validation.inc(outcome="revalidated")
            resolved = HttpResponse(
                200, _Headers(list(stored.headers)), stored.body
            )
            # a 304 may refresh validators/caching headers (RFC 7232 §4.1)
            for name in ("ETag", "Last-Modified", "Cache-Control", "Date"):
                value = response.headers.get(name)
                if value is not None:
                    resolved.headers.set(name, value)
            return resolved
        if response.status == 200:
            etag = response.headers.get("ETag")
            last_modified = response.headers.get("Last-Modified")
            if etag or last_modified:
                self._validation.put(
                    request.target,
                    _ValidationEntry(
                        etag, last_modified, response.body, response.headers.items()
                    ),
                )
                OBS.instruments.client_validation.inc(outcome="stored")
            else:
                self._validation.remove(request.target)
        elif 400 <= response.status < 600 or response.status == 304:
            # stored==None 304 (caller's own conditional) or an error:
            # the stored representation may be stale — drop it.
            self._validation.remove(request.target)
        return response

    def validation_stats(self) -> dict[str, int]:
        """Validation-cache counters (entries, hits, stores, bytes_saved)."""
        if self._validation is None:
            return {"entries": 0, "hits": 0, "stores": 0, "bytes_saved": 0}
        return self._validation.stats()

    # -- verb helpers ---------------------------------------------------
    def get(self, target: str, headers: Optional[dict[str, str]] = None) -> HttpResponse:
        return self.request(HttpRequest("GET", target, dict(headers or {})))

    def head(self, target: str, headers: Optional[dict[str, str]] = None) -> HttpResponse:
        return self.request(HttpRequest("HEAD", target, dict(headers or {})))

    def post(
        self,
        target: str,
        body: bytes | str,
        content_type: str = "application/octet-stream",
        headers: Optional[dict[str, str]] = None,
    ) -> HttpResponse:
        payload = body.encode("utf-8") if isinstance(body, str) else body
        merged = {"Content-Type": content_type, **(headers or {})}
        return self.request(HttpRequest("POST", target, merged, payload))

    def put(
        self,
        target: str,
        body: bytes | str,
        content_type: str = "application/octet-stream",
        headers: Optional[dict[str, str]] = None,
    ) -> HttpResponse:
        payload = body.encode("utf-8") if isinstance(body, str) else body
        merged = {"Content-Type": content_type, **(headers or {})}
        return self.request(HttpRequest("PUT", target, merged, payload))

    def delete(self, target: str, headers: Optional[dict[str, str]] = None) -> HttpResponse:
        return self.request(HttpRequest("DELETE", target, dict(headers or {})))


def serve_once(handler: Handler, request: HttpRequest) -> HttpResponse:
    """Run a handler through the full wire codec without a socket.

    Serializes the request to bytes, reparses, dispatches, serializes the
    response and reparses it — so tests exercise the codec path without
    network nondeterminism.
    """
    reparsed = parse_request(request.to_bytes())
    response = handler(reparsed)
    return parse_response(response.to_bytes())
