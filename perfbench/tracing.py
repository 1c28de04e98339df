"""Benchmark-side tracing: spans recorded around the program's public callables.

The program is not edited.  :func:`install` replaces public functions and
methods of ``repro`` with thin wrappers that record one span per call —
name, start, end, parent and the id of the request it belongs to — into
an in-memory :class:`Recorder`.  Spans cross process and thread
boundaries through one request header, :data:`HEADER`, that the wrapped
``HttpClient.request`` adds and the wrapped ``parse_request`` reads.

Install the wrappers before the objects that capture bound methods are
built (the balancer keeps ``RestClient.call`` bound), and only in a run
meant to be traced: the untraced runs never import this module's
wrappers, so they pay nothing.

:func:`analyse` turns the spans of both processes into per-layer numbers:
a layer's self time is its span minus the part its children cover.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

#: Request header carrying ``<request id>;<parent span id>`` between hops.
HEADER = "X-Bench-Trace"

#: The HTTP client call: a carrier, not a layer.  Its self time (socket
#: I/O, kernel, reactor hand-off, server code outside every named span)
#: is what ``unattributed_us`` reports.
CARRIER = "transport.client"

#: Handlers the servers dispatch into; the edge and upstream hops are the
#: client call around one of these minus the handler itself.
ENTRY_HANDLERS = ("gateway", "rest.endpoint", "soap.endpoint")

#: span name -> per-layer metric reporting its self time per call.
SELF_TIME_METRICS = {
    "http11.parse": "http11.parse_us",
    "http11.serialize": "http11.serialize_us",
    "gateway": "gateway.self_us",
    "security.authenticate": "security.authenticate_us",
    "security.authorize": "security.authorize_us",
    "gateway.rate_limit": "gateway.rate_limit_us",
    "core.broker_lookup": "core.broker_lookup_us",
    "resilience.balancer": "resilience.balancer_self_us",
    "rest.endpoint": "rest.endpoint_self_us",
    "rest.client": "rest.client_self_us",
    "soap.endpoint": "soap.endpoint_self_us",
    "soap.client": "soap.client_self_us",
    "xmlkit.parse": "xmlkit.parse_us",
    "xmlkit.serialize": "xmlkit.serialize_us",
    "core.invoke": "core.invoke_us",
    "observability.sampler": "observability.sampler_us",
    "observability.tracestore_ingest": "observability.tracestore_ingest_us",
}

#: Span-id prefixes of the two processes' recorders.
GENERATOR, SUT = "g", "s"

# span tuple fields
ID, PARENT, RID, NAME, START, END, FAILED, SIZE = range(8)


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.recording = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_ambient(self, rid: Optional[str], parent: Optional[str]) -> None:
        """Context for spans opened on this thread with no span open —
        the generator sets it per request, servers per parsed request."""
        self._local.ambient = (rid, parent)

    def _context(self, stack: list) -> tuple[Optional[str], Optional[str]]:
        if stack:
            top = stack[-1]
            return top[1], top[0]
        return getattr(self._local, "ambient", (None, None))

    # -- recording ---------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        flat: bool = False,
        size: Optional[Callable[[tuple, Any], int]] = None,
        before: Optional[Callable[[tuple, str, str], None]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``flat`` skips calls made inside an open span of the same name
        (recursive serialisers count once).  ``size(args, result)`` is
        stored with the span; ``before(args, rid, span_id)`` runs first.
        """
        recorder = self
        counter = self._ids
        tag = self.tag
        spans = self.spans
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.recording:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if flat and stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            rid, parent = recorder._context(stack)
            span_id = f"{tag}{next(counter)}"
            if before is not None:
                before(args, rid, span_id)
            stack.append((span_id, rid, name))
            failed = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    span_id, parent, rid, name, start, end, failed,
                    size(args, result) if size is not None and not failed else 0,
                ))

        traced.__wrapped__ = fn
        return traced

    def wrap_server_parse(self, fn: Callable) -> Callable:
        """``parse_request`` on a server: learns the request's context from
        :data:`HEADER` only once parsed, so the span is recorded after."""
        recorder = self
        clock = time.perf_counter

        def traced(raw: bytes, *args: Any, **kwargs: Any) -> Any:
            if not recorder.recording:
                return fn(raw, *args, **kwargs)
            start = clock()
            request = fn(raw, *args, **kwargs)
            end = clock()
            rid = parent = None
            header = request.headers.get(HEADER)
            if header:
                rid, _, parent = header.partition(";")
            recorder.set_ambient(rid, parent or None)
            recorder.spans.append((
                f"{recorder.tag}{next(recorder._ids)}", parent or None, rid,
                "http11.parse", start, end, False, 0,
            ))
            return request

        traced.__wrapped__ = fn
        return traced


def _replace_function(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _inject_header(args: tuple, rid: Optional[str], span_id: str) -> None:
    """Before ``HttpClient.request(self, request)``: carry the context."""
    if rid is not None:
        args[1].headers.set(HEADER, f"{rid};{span_id}")


def install(recorder: Recorder) -> None:
    """Wrap the public callables of every layer the benchmark reports."""
    # imported here: the untraced benchmark never loads this wiring
    from repro.core.broker import ServiceBroker
    from repro.core.service import ServiceHost
    from repro.gateway.policy import SecurityPolicy
    from repro.gateway.rate_limiter import RateLimiter
    from repro.gateway.server import Gateway
    from repro.observability.sampling import TailSampler
    from repro.resilience.replica import ReplicaBalancer
    from repro.services.tracestore import TraceStore
    from repro.transport import http11, httpserver
    from repro.transport.rest import RestClient, RestEndpoint
    from repro.transport.soap import SoapClient, SoapEndpoint
    from repro.xmlkit import databind, dom, parser

    def method(cls: type, attribute: str, name: str, **options: Any) -> None:
        setattr(cls, attribute, recorder.wrap(cls.__dict__[attribute], name, **options))

    def function(original: Callable, name: str, **options: Any) -> None:
        _replace_function(original, recorder.wrap(original, name, **options))

    # transport / http11
    _replace_function(http11.parse_request, recorder.wrap_server_parse(http11.parse_request))
    function(http11.parse_response, "http11.parse")
    method(http11.HttpResponse, "to_bytes", "http11.serialize")
    method(http11.HttpRequest, "to_bytes", "http11.serialize")
    method(httpserver.HttpClient, "request", CARRIER, before=_inject_header)
    # gateway / security / core / resilience
    method(Gateway, "__call__", "gateway")
    method(SecurityPolicy, "authenticate", "security.authenticate")
    method(SecurityPolicy, "authorize", "security.authorize")
    method(RateLimiter, "check", "gateway.rate_limit")
    method(ServiceBroker, "lookup", "core.broker_lookup", flat=True)
    method(ServiceBroker, "replica_health", "core.broker_lookup", flat=True)
    method(ReplicaBalancer, "__call__", "resilience.balancer")
    # bindings and the service host
    method(RestClient, "call", "rest.client")
    method(RestEndpoint, "__call__", "rest.endpoint")
    method(SoapClient, "call", "soap.client")
    method(SoapEndpoint, "__call__", "soap.endpoint")
    method(ServiceHost, "invoke", "core.invoke")
    # xmlkit: text <-> DOM <-> values, outermost call only
    function(parser.parse, "xmlkit.parse", flat=True, size=lambda a, r: len(a[0]))
    function(databind.from_element, "xmlkit.parse", flat=True)
    function(databind.to_element, "xmlkit.serialize", flat=True)
    method(dom.Element, "toxml", "xmlkit.serialize", flat=True, size=lambda a, r: len(r))
    # observability plane
    method(TailSampler, "export", "observability.sampler")
    method(TraceStore, "ingest", "observability.tracestore_ingest")


# -- analysis ----------------------------------------------------------------


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def analyse(spans: list[tuple], requests: set[str]) -> dict[str, float]:
    """Per-layer numbers from the spans of every process.

    ``requests`` are the ids of the requests completed in the window;
    per-call figures divide by their count.  Time is reported in µs per
    call.  The self-time figures plus ``unattributed_us`` add up to the
    latency; the two hop figures overlap them (a hop is a client span
    minus a handler span, so it holds the client's self time too).
    """
    calls = max(len(requests), 1)
    by_id = {span[ID]: span for span in spans}
    children: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)

    def duration(span: tuple) -> float:
        return span[END] - span[START]

    def self_time(span: tuple) -> float:
        kids = children.get(span[ID], ())
        return duration(span) - _covered(
            span[START], span[END], ((kid[START], kid[END]) for kid in kids)
        )

    self_totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    unattributed = edge = upstream = 0.0
    attempts = failovers = balanced = 0
    xml_bytes = 0
    for span in spans:
        name = span[NAME]
        counts[name] += 1
        xml_bytes += span[SIZE]
        own = self_time(span)
        self_totals[name] += own
        parent = by_id.get(span[PARENT]) if span[PARENT] is not None else None
        if name == CARRIER and span[RID] in requests:
            unattributed += own
        elif name in ENTRY_HANDLERS and parent is not None and parent[NAME] == CARRIER:
            caller = by_id.get(parent[PARENT]) if parent[PARENT] is not None else None
            if caller is not None and caller[NAME] == "rest.client":
                upstream += duration(caller) - duration(span)
            elif parent[ID].startswith(GENERATOR):
                edge += duration(parent) - duration(span)
        elif name == "rest.client" and parent is not None and parent[NAME] == "resilience.balancer":
            attempts += 1
            failovers += span[FAILED]
        elif name == "resilience.balancer":
            balanced += 1

    metrics = {
        metric: self_totals.get(name, 0.0) * 1e6 / calls
        for name, metric in SELF_TIME_METRICS.items()
    }
    metrics.update({
        "unattributed_us": unattributed * 1e6 / calls,
        "transport.edge_hop_us": edge * 1e6 / calls,
        "transport.upstream_hop_us": upstream * 1e6 / calls,
        "resilience.attempts_per_call": attempts / balanced if balanced else 0.0,
        "resilience.failovers": float(failovers),
        "xmlkit.bytes_per_call": xml_bytes / calls,
        "observability.spans_per_call": counts.get("observability.sampler", 0) / calls,
    })
    return metrics
