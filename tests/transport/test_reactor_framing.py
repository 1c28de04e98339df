"""The server's reactor frames requests; workers only see complete ones.

Covers what that design promises: a peer holding a partial request never
occupies a worker (the slow-loris case), responses on one connection
leave in request order, half-close, EOF mid-request and malformed
pipelined requests end the connection cleanly, a steady keep-alive
exchange never wakes the reactor, bursts on many connections stay in
order, framing a 16 MiB message costs time linear in its size, and
uploads buffered across connections stay within the server's budget.
"""

import socket
import sys
import threading
import time

from repro.transport import HttpClient, HttpResponse, HttpServer
from repro.transport.http11 import MAX_BODY_BYTES
from repro.transport.httpserver import _read_message


def echo_handler(request):
    return HttpResponse.text_response(f"{request.method} {request.path}")


def read_until_eof(sock, timeout: float = 5.0) -> bytes:
    sock.settimeout(timeout)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def read_responses(sock, count: int) -> list[bytes]:
    """Frame ``count`` responses off ``sock`` with the client's framer."""
    sock.settimeout(5)
    responses, buffer = [], b""
    for _ in range(count):
        raw, buffer = _read_message(sock, buffer)
        responses.append(raw)
    return responses


class TestSlowLoris:
    def test_partial_request_does_not_hold_the_only_worker(self):
        """A peer that sent half a request line waits in the reactor's
        buffer, so a second client's complete request is served at once.
        Before the reactor framed requests, the only worker blocked in
        ``recv`` on the partial one until ``request_timeout`` ran out."""
        with HttpServer(echo_handler, workers=1, request_timeout=5) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=5) as loris:
                loris.sendall(b"GET /slo")
                time.sleep(0.2)  # let the reactor take the partial bytes
                client = HttpClient(srv.host, srv.port, timeout=5)
                try:
                    started = time.monotonic()
                    response = client.get("/prompt")
                    elapsed = time.monotonic() - started
                finally:
                    client.close()
        assert response.status == 200
        assert response.body == b"GET /prompt"
        assert elapsed < 1.0, f"second client waited {elapsed:.2f}s behind the loris"


class TestOrderAndLifecycle:
    def test_request_sent_mid_handler_is_answered_after_it(self):
        started = threading.Event()
        release = threading.Event()

        def handler(request):
            if request.path == "/slow":
                started.set()
                release.wait(5)
            return HttpResponse.text_response(request.path)

        with HttpServer(handler, workers=4) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=5) as sock:
                sock.sendall(b"GET /slow HTTP/1.1\r\n\r\n")
                assert started.wait(5)
                sock.sendall(b"GET /fast HTTP/1.1\r\n\r\n")
                time.sleep(0.1)  # /fast is framed while /slow still runs
                release.set()
                first, second = read_responses(sock, 2)
        assert first.endswith(b"\r\n\r\n/slow")
        assert second.endswith(b"\r\n\r\n/fast")

    def test_half_closed_client_still_gets_its_response(self):
        with HttpServer(echo_handler) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=5) as sock:
                sock.sendall(b"GET /bye HTTP/1.1\r\n\r\n")
                sock.shutdown(socket.SHUT_WR)
                blob = read_until_eof(sock)
        assert blob.startswith(b"HTTP/1.1 200 ")
        assert blob.endswith(b"\r\n\r\nGET /bye")

    def test_malformed_request_after_a_good_one(self):
        with HttpServer(echo_handler) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=5) as sock:
                sock.sendall(
                    b"GET /good HTTP/1.1\r\n\r\n"
                    b"POST /bad HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                )
                blob = read_until_eof(sock)
        good, bad = blob.split(b"HTTP/1.1 400 ", 1)
        assert good.startswith(b"HTTP/1.1 200 ")
        assert good.endswith(b"GET /good")
        assert b"Connection: close" in bad

    def test_half_close_mid_request_gets_400(self):
        """EOF part-way through a request is answered 400 after the
        requests before it, then the connection closes."""
        with HttpServer(echo_handler) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=5) as sock:
                sock.sendall(
                    b"GET /whole HTTP/1.1\r\n\r\n"
                    b"POST /cut HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
                )
                sock.shutdown(socket.SHUT_WR)
                blob = read_until_eof(sock)
        whole, cut = blob.split(b"HTTP/1.1 400 ", 1)
        assert whole.startswith(b"HTTP/1.1 200 ")
        assert whole.endswith(b"GET /whole")
        assert b"Connection: close" in cut
        assert b"closed mid-message" in cut


class TestSteadyState:
    def test_keep_alive_exchange_never_wakes_the_reactor(self):
        """After the connection is registered, serving a request needs no
        self-pipe write and no selector (un)registration."""
        with HttpServer(echo_handler, workers=2) as srv:
            client = HttpClient(srv.host, srv.port, pool_size=1)
            try:
                assert client.get("/warm").status == 200
                calls = {"wake": 0, "register": 0, "unregister": 0}
                wake, selector = srv._wake_reactor, srv._selector
                register, unregister = selector.register, selector.unregister

                def counting(name, fn):
                    def counted(*args, **kwargs):
                        calls[name] += 1
                        return fn(*args, **kwargs)
                    return counted

                srv._wake_reactor = counting("wake", wake)
                selector.register = counting("register", register)
                selector.unregister = counting("unregister", unregister)
                for index in range(20):
                    # the pause lets the worker finish before the next
                    # request lands: a steady, not pipelined, exchange
                    time.sleep(0.002)
                    assert client.get(f"/r{index}").body == f"GET /r{index}".encode()
                assert calls == {"wake": 0, "register": 0, "unregister": 0}
                assert client.created_connections == 1
            finally:
                client.close()


class TestConcurrentPipelining:
    def test_bursts_on_many_connections_stay_in_order(self):
        """Reactor and workers share each connection's pending queue and
        busy flag; with tiny switch intervals, a lost update would drop,
        duplicate or reorder a response."""
        clients, rounds = 6, 40
        errors: list[str] = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with HttpServer(echo_handler, workers=4) as srv:

                def drive(client: int) -> None:
                    try:
                        with socket.create_connection(
                            (srv.host, srv.port), timeout=10
                        ) as sock:
                            buffer = b""
                            for round_number in range(rounds):
                                burst = 1 + (client + round_number) % 3
                                paths = [
                                    f"/c{client}/r{round_number}/{i}"
                                    for i in range(burst)
                                ]
                                sock.sendall(b"".join(
                                    f"GET {path} HTTP/1.1\r\n\r\n".encode()
                                    for path in paths
                                ))
                                for path in paths:
                                    raw, buffer = _read_message(sock, buffer)
                                    if not raw.endswith(f"GET {path}".encode()):
                                        errors.append(f"{path}: {raw[-40:]!r}")
                                        return
                    except Exception as exc:  # noqa: BLE001 - surfaced below
                        errors.append(repr(exc))

                threads = [
                    threading.Thread(target=drive, args=(client,))
                    for client in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []


class _Feed:
    """A socket stand-in handing out ``data`` in 64 KiB segments."""

    def __init__(self, data: bytes) -> None:
        self.view = memoryview(data)

    def recv(self, size: int) -> bytes:
        chunk = bytes(self.view[: min(size, 65536)])
        self.view = self.view[len(chunk):]
        return chunk


class TestLinearBuffering:
    def test_16_mib_response_frames_in_linear_time(self):
        """Growing an immutable ``bytes`` per segment copied the whole
        prefix each time: ~1.1 s of CPU for one 16 MiB message."""
        body = b"x" * MAX_BODY_BYTES
        message = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        started = time.process_time()
        raw, leftover = _read_message(_Feed(message + b"NEXT"))
        cpu = time.process_time() - started
        assert len(raw) == len(message) and raw.endswith(b"xxx")
        assert leftover == b"NEXT"
        assert cpu < 0.3, f"framing 16 MiB took {cpu:.2f}s of CPU"

    def test_16_mib_upload_is_served(self):
        with HttpServer(
            lambda request: HttpResponse.text_response(str(len(request.body)))
        ) as srv:
            client = HttpClient(srv.host, srv.port, timeout=30)
            try:
                started = time.process_time()
                response = client.post("/upload", b"u" * MAX_BODY_BYTES)
                cpu = time.process_time() - started
            finally:
                client.close()
        assert response.body == str(MAX_BODY_BYTES).encode()
        # client, reactor and worker together take well under 0.1 s; a
        # buffer grown by copying costs 0.25 s warm and over 1 s cold
        assert cpu < 0.5, f"one 16 MiB upload took {cpu:.2f}s of CPU"



class TestBufferBudget:
    def test_concurrent_partial_uploads_stay_within_the_budget(self):
        """Four 6 MiB uploads against one worker's 16 MiB budget: two are
        admitted and buffered, the others are not read past their first
        segment until those drain, and all four are served."""
        size, uploads = 6 * 1024 * 1024, 4
        body = b"u" * size
        head = b"POST /up HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % size
        finish = threading.Event()
        replies: list[bytes] = []
        errors: list[str] = []

        with HttpServer(
            lambda request: HttpResponse.text_response(str(len(request.body))),
            workers=1,
        ) as srv:
            budget = srv.workers * MAX_BODY_BYTES

            def upload() -> None:
                try:
                    with socket.create_connection(
                        (srv.host, srv.port), timeout=30
                    ) as sock:
                        sock.sendall(head + body[:-1])
                        finish.wait(30)
                        sock.sendall(body[-1:])
                        sock.shutdown(socket.SHUT_WR)
                        replies.append(read_until_eof(sock, timeout=30))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(repr(exc))

            def buffered() -> int:
                with srv._lock:
                    connections = list(srv._connections)
                return sum(len(conn.buffer) for conn in connections)

            threads = [threading.Thread(target=upload) for _ in range(uploads)]
            for thread in threads:
                thread.start()
            peak_buffers = peak_held = 0
            deadline = time.monotonic() + 10
            # two uploads fit the budget; wait until both are read in full
            while time.monotonic() < deadline:
                peak_buffers = max(peak_buffers, buffered())
                peak_held = max(peak_held, srv.buffered_bytes)
                if buffered() >= 2 * (len(head) + size - 1):
                    break
                time.sleep(0.01)
            for _ in range(30):  # and stay there
                peak_buffers = max(peak_buffers, buffered())
                peak_held = max(peak_held, srv.buffered_bytes)
                time.sleep(0.01)
            finish.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            held_after = srv.buffered_bytes
        assert errors == []
        assert len(replies) == uploads
        for reply in replies:
            assert reply.startswith(b"HTTP/1.1 200 ")
            assert reply.endswith(b"\r\n\r\n%d" % size)
        assert peak_held <= budget
        # unadmitted connections hold at most a header and one segment
        assert peak_buffers <= budget + uploads * 2 * 65536
        assert peak_buffers >= 2 * (len(head) + size - 1)
        assert held_after == 0
