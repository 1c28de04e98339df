"""Section V: the ASU repository of services.

Exercises every catalogue service through the broker (the "high
availability and reliability" the paper maintains for its server), and
benchmarks representative invocations per binding.  Availability
assertion: zero faults across a full sweep of well-formed calls.
"""

import pytest

from repro.core import BusClient, ServiceHost
from repro.services import CATALOG_SERVICES, build_repository, mount_all
from repro.transport import HttpRequest, serve_once
from repro.transport.soap import SoapEndpoint, build_call, parse_envelope


@pytest.fixture(scope="module")
def repository():
    broker, bus, instances = build_repository()
    return broker, bus, instances


def sweep_all_services(client):
    """One well-formed call per catalogue service; returns results."""
    results = {}
    results["Encryption"] = client.call("Encryption", "caesar", text="soc", shift=2)
    client.call("AccessControl", "define_role", role="student", permissions=["lab.run"])
    client.call("AccessControl", "assign_role", user="ada", role="student")
    results["AccessControl"] = client.call("AccessControl", "check", user="ada", permission="lab.run")
    game = client.call("GuessingGame", "new_game", upper=16)
    results["GuessingGame"] = client.call("GuessingGame", "guess", game_id=game["game_id"], number=8)
    results["RandomString"] = client.call("RandomString", "password", length=12)
    results["DynamicImage"] = client.call("DynamicImage", "bar_chart", labels=["a"], values=[1.0])
    challenge = client.call("ImageVerifier", "challenge", length=4)
    results["ImageVerifier"] = challenge["image"][:2]
    client.call("Caching", "put", key="k", value="v")
    results["Caching"] = client.call("Caching", "get", key="k")
    cart = client.call("ShoppingCart", "create_cart")
    client.call("ShoppingCart", "add_item", cart_id=cart, sku="sd-card")
    results["ShoppingCart"] = client.call("ShoppingCart", "total", cart_id=cart)
    client.call("MessageBuffer", "send", queue="q", message="hello")
    results["MessageBuffer"] = client.call("MessageBuffer", "receive", queue="q")
    results["CreditScore"] = client.call("CreditScore", "score", ssn="123-45-6789")
    results["Mortgage"] = client.call(
        "Mortgage", "monthly_payment", principal=100_000.0, annual_rate=0.05, years=30
    )
    return results


def test_section5_catalogue_sweep(repository, report):
    broker, bus, _ = repository
    client = BusClient(bus, broker)
    results = sweep_all_services(client)
    rows = [f"{name:<14} -> {value!r:.60}" for name, value in sorted(results.items())]
    report("Section V: one call per catalogue service", "\n".join(rows))
    assert len(results) == len(CATALOG_SERVICES) == 11
    # availability: the broker saw zero faults across the sweep
    for registration in broker.list_services():
        assert registration.qos.availability == 1.0


def test_section5_multi_binding_publication(repository, report):
    broker, bus, instances = repository
    mount_all(instances, broker)
    lines = []
    for registration in broker.list_services():
        bindings = sorted({e.binding for e in registration.endpoints})
        lines.append(f"{registration.name:<14} bindings: {bindings}")
        assert set(bindings) >= {"inproc", "rest", "soap"}
    report("Section V: multiple formats per service", "\n".join(lines))


def test_bench_inproc_invocation(benchmark, repository):
    broker, bus, _ = repository
    client = BusClient(bus, broker)
    result = benchmark(lambda: client.call("Encryption", "caesar", text="hello", shift=3))
    assert result == "khoor"


def test_bench_soap_codec_invocation(benchmark):
    """Same call through the full SOAP envelope + HTTP codec path."""
    from repro.services import EncryptionService

    endpoint = SoapEndpoint()
    endpoint.mount(ServiceHost(EncryptionService()))
    envelope = build_call("caesar", {"text": "hello", "shift": 3}).toxml().encode()
    request = HttpRequest("POST", "/soap/Encryption", {"Content-Type": "text/xml"}, envelope)

    def call():
        response = serve_once(endpoint, request)
        _, payload = parse_envelope(response.text())
        return payload

    payload = benchmark(call)
    assert payload.local_name() == "Result"


def test_bench_soap_codec_bulk(benchmark):
    """A Caching.put carrying a 16 KiB value full of XML specials, through
    the SOAP codec: building the envelope, the endpoint's parse and
    dispatch, and parsing the reply.  Envelope cost at bulk size."""
    import random

    from repro.services.commerce import CachingService

    endpoint = SoapEndpoint()
    endpoint.mount(ServiceHost(CachingService()))
    rng = random.Random(13)
    value = "".join(rng.choices("abcdefghij0123456789<>&'\"=;:/-", k=16 * 1024))

    def call():
        envelope = build_call("put", {"key": "bulk", "value": value}).toxml().encode()
        request = HttpRequest("POST", "/soap/Caching", {"Content-Type": "text/xml"}, envelope)
        response = serve_once(endpoint, request)
        _, payload = parse_envelope(response.text())
        return payload

    payload = benchmark(call)
    assert payload.local_name() == "Result"


def test_bench_credit_score(benchmark, repository):
    broker, bus, _ = repository
    client = BusClient(bus, broker)
    score = benchmark(
        lambda: client.call("CreditScore", "score", ssn="987-65-4321", income=80_000.0)
    )
    assert 300 <= score <= 850


def test_server_side_parallelism(report):
    """The CSE445 service-hosting assignment: measure server throughput
    with 1 vs 4 concurrent clients against the threaded socket host.

    The handler sleeps briefly (I/O stand-in), so thread-per-connection
    overlaps requests and concurrent clients finish faster than serial.
    """
    import threading
    import time as _time

    from repro.core import Service, operation
    from repro.transport import HttpClient, HttpServer
    from repro.transport.rest import RestEndpoint, rest_proxy

    class SlowEcho(Service):
        """Echo with a simulated downstream wait."""

        @operation(idempotent=True)
        def echo(self, text: str) -> str:
            _time.sleep(0.005)
            return text

    endpoint = RestEndpoint()
    from repro.core import ServiceHost

    endpoint.mount(ServiceHost(SlowEcho()))
    requests_per_client = 20

    with HttpServer(endpoint) as server:

        def run_client():
            with HttpClient(server.host, server.port) as http:
                proxy = rest_proxy(http, "SlowEcho")
                for index in range(requests_per_client):
                    assert proxy.echo(text=f"m{index}") == f"m{index}"

        begin = _time.perf_counter()
        run_client()
        serial_seconds = _time.perf_counter() - begin

        begin = _time.perf_counter()
        threads = [threading.Thread(target=run_client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        concurrent_seconds = _time.perf_counter() - begin

    serial_rps = requests_per_client / serial_seconds
    concurrent_rps = 4 * requests_per_client / concurrent_seconds
    report(
        "Section III: server-side parallelism (service hosting assignment)",
        f"1 client : {serial_rps:6.0f} req/s\n"
        f"4 clients: {concurrent_rps:6.0f} req/s "
        f"({concurrent_rps / serial_rps:.1f}x aggregate)",
    )
    # thread-per-connection must overlap the handler's I/O waits
    assert concurrent_rps > serial_rps * 1.5
