"""End-to-end integration tests over real sockets.

These are the "deployment" tests of the curriculum: a service hosted on
an HTTP server, consumed through SOAP and REST proxies; the Figure 4 web
application served and driven by a browser-like client; the crawler →
search → registration pipeline; Robot-as-a-Service driven remotely.
"""

import threading

import pytest

from repro.core import (
    BusClient,
    ServiceBroker,
    ServiceBus,
    ServiceFault,
    ServiceHost,
    TimeoutFault,
)
from repro.directory import (
    RegistrationDesk,
    ServiceCrawler,
    ServiceSearchEngine,
    registration_routes,
    synthetic_service_web,
)
from repro.robotics import CommandProgram, corridor, make_robot_service
from repro.security import CircuitBreaker, FaultInjector, with_retry
from repro.services import CreditScoreService, EncryptionService, build_repository, mount_all
from repro.transport import (
    HttpClient,
    HttpRequest,
    HttpServer,
    RestEndpoint,
    SoapEndpoint,
    build_call,
    rest_proxy,
    soap_proxy,
)
from repro.transport.wsdl import contract_to_xml
from repro.web import compose_handlers
from repro.xmlkit import parse


class TestSocketTransport:
    def test_soap_over_real_socket(self):
        endpoint = SoapEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = soap_proxy(http, "Encryption")
                cipher = proxy.caesar(text="hello", shift=3)
                assert proxy.caesar(text=cipher, shift=3, decrypt=True) == "hello"

    def test_rest_over_real_socket(self):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = rest_proxy(http, "Encryption")
                assert proxy.caesar(text="abc", shift=1) == "bcd"

    def test_fault_crosses_the_wire_typed(self):
        endpoint = SoapEndpoint()
        endpoint.mount(ServiceHost(CreditScoreService()))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = soap_proxy(http, "CreditScore")
                with pytest.raises(ServiceFault) as info:
                    proxy.score(ssn="bad")
                assert info.value.code == "Client.BadSsn"

    # a character reference too large for chr() is malformed input (4xx),
    # not a handler crash (500)
    HUGE_REFERENCE = "&#99999999999999999999;"

    def test_soap_huge_character_reference_is_bad_envelope(self):
        endpoint = SoapEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        envelope = build_call("caesar", {"text": "PLACEHOLDER", "shift": 3}).toxml()
        body = envelope.replace("PLACEHOLDER", self.HUGE_REFERENCE)
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                response = http.post("/soap/Encryption", body, content_type="text/xml")
        assert response.status == 400
        assert "Client.BadEnvelope" in response.text()

    def test_rest_huge_character_reference_is_bad_request(self):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        body = (
            f'<arguments><text type="string">{self.HUGE_REFERENCE}</text>'
            '<shift type="int">3</shift></arguments>'
        )
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                response = http.post(
                    "/rest/Encryption/caesar", body, content_type="application/xml"
                )
        assert response.status == 400
        assert "Client.BadRequest" in response.text()

    def test_concurrent_clients(self):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        errors = []
        with HttpServer(endpoint) as server:

            def worker(index):
                try:
                    with HttpClient(server.host, server.port) as http:
                        proxy = rest_proxy(http, "Encryption")
                        for i in range(10):
                            expected = EncryptionService().caesar(
                                text=f"msg{index}-{i}", shift=i
                            )
                            assert proxy.caesar(text=f"msg{index}-{i}", shift=i) == expected
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert errors == []

    def test_keep_alive_reuses_connection(self):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = rest_proxy(http, "Encryption")
                for i in range(20):
                    proxy.caesar(text="x", shift=i)
                # single persistent socket served all 21 requests (incl. contract)


class TestCrossBindingEquivalence:
    """One contract, three bindings — identical observable behaviour."""

    def test_same_result_every_binding(self):
        broker, bus, instances = build_repository()
        soap_endpoint, rest_endpoint = mount_all(instances, broker)
        handler = compose_handlers({"/soap": soap_endpoint, "/rest": rest_endpoint})
        bus_client = BusClient(bus, broker)
        with HttpServer(handler) as server:
            with HttpClient(server.host, server.port) as http:
                soap_p = soap_proxy(http, "Encryption")
                rest_p = rest_proxy(http, "Encryption")
                for shift in (1, 7, 25):
                    expected = bus_client.call("Encryption", "caesar", text="soc", shift=shift)
                    assert soap_p.caesar(text="soc", shift=shift) == expected
                    assert rest_p.caesar(text="soc", shift=shift) == expected

    def test_same_fault_every_binding(self):
        broker, bus, instances = build_repository()
        soap_endpoint, rest_endpoint = mount_all(instances, broker)
        handler = compose_handlers({"/soap": soap_endpoint, "/rest": rest_endpoint})
        bus_client = BusClient(bus, broker)
        codes = set()
        with HttpServer(handler) as server:
            with HttpClient(server.host, server.port) as http:
                for caller in (
                    lambda: bus_client.call("CreditScore", "score", ssn="nope"),
                    lambda: soap_proxy(http, "CreditScore").score(ssn="nope"),
                    lambda: rest_proxy(http, "CreditScore").score(ssn="nope"),
                ):
                    with pytest.raises(ServiceFault) as info:
                        caller()
                    codes.add(info.value.code)
        assert codes == {"Client.BadSsn"}

    def test_wsdl_identical_across_bindings(self):
        broker, bus, instances = build_repository()
        soap_endpoint, rest_endpoint = mount_all(instances, broker)
        handler = compose_handlers({"/soap": soap_endpoint, "/rest": rest_endpoint})
        with HttpServer(handler) as server:
            with HttpClient(server.host, server.port) as http:
                soap_contract = soap_proxy(http, "Mortgage").contract
                rest_contract = rest_proxy(http, "Mortgage").contract
                assert contract_to_xml(soap_contract) == contract_to_xml(rest_contract)


class TestRaasRemote:
    def test_command_program_over_rest(self):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(make_robot_service(corridor(5))))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = rest_proxy(http, "RobotService")
                program = CommandProgram.parse(
                    "repeat-until-goal\n if-wall-ahead\n  right\n else\n  forward\n end\nend"
                )
                result = program.run(proxy)
                assert result["reached_goal"]
                assert result["moves"] == 4

    def test_collision_fault_over_wire(self):
        endpoint = SoapEndpoint()
        endpoint.mount(ServiceHost(make_robot_service(corridor(2))))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = soap_proxy(http, "RobotService")
                proxy.forward(cells=1)
                with pytest.raises(ServiceFault) as info:
                    proxy.forward(cells=1)
                assert info.value.code == "Client.Collision"


class TestDirectoryPipeline:
    def test_crawl_index_register_search(self):
        # 1. crawl the synthetic web
        graph, seeds, _ = synthetic_service_web(
            providers=5, services_per_provider=3, dead_link_rate=0.0, seed=13
        )
        report = ServiceCrawler(graph).crawl(seeds)
        assert report.contracts_found
        # 2. index into the search engine
        engine = ServiceSearchEngine()
        engine.index_many(report.contracts_found)
        # 3. register one more service over the HTTP frontend
        desk = RegistrationDesk(engine)
        router = registration_routes(desk)
        with HttpServer(router) as server:
            with HttpClient(server.host, server.port) as http:
                from repro.core import Operation, Parameter, ServiceContract

                contract = ServiceContract(
                    "MazeSolver", documentation="maze navigation robot service",
                    category="robotics",
                )
                contract.add(Operation("solve", (Parameter("maze", "str"),), returns="list"))
                response = http.post(
                    "/sse/register?submitter=ada",
                    contract_to_xml(contract),
                    content_type="application/xml",
                )
                assert response.status == 201
                # 4. search finds both crawled and registered services
                search = http.get("/sse/search?q=maze+navigation")
                root = parse(search.text())
                names = [hit["name"] for hit in root.findall("hit")]
                assert "MazeSolver" in names


class TestDependabilityComposition:
    """Reliability wrappers around real remote proxies."""

    def test_retry_heals_transient_remote_faults(self):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(EncryptionService()))
        with HttpServer(endpoint) as server:
            with HttpClient(server.host, server.port) as http:
                proxy = rest_proxy(http, "Encryption")
                flaky = FaultInjector(
                    lambda **kw: proxy.caesar(**kw),
                    [ServiceFault("blip"), ServiceFault("blip")],
                )
                healed = with_retry(flaky, attempts=3)
                assert healed(text="abc", shift=1) == "bcd"

    def test_circuit_breaker_guards_dead_endpoint(self):
        clock = {"t": 0.0}

        def dead(**kwargs):
            raise ServiceFault("connection refused")

        breaker = CircuitBreaker(
            dead, failure_threshold=2, recovery_seconds=60, clock=lambda: clock["t"]
        )
        for _ in range(2):
            with pytest.raises(ServiceFault):
                breaker()
        from repro.core import ServiceUnavailable

        with pytest.raises(ServiceUnavailable):
            breaker()  # fails fast without hitting the endpoint


class TestFigure4OverSocket:
    def test_browser_like_session(self):
        import re

        from repro.apps import AccountProvider, AccountStore, build_web_app

        credit = CreditScoreService()
        ssn = next(
            f"{i:03d}-66-7788"
            for i in range(300)
            if credit.score(ssn=f"{i:03d}-66-7788", income=150_000) >= 600
        )
        app = build_web_app(AccountProvider(AccountStore(), credit.score))
        with HttpServer(app) as server:
            with HttpClient(server.host, server.port) as http:
                index = http.get("/")
                assert index.status == 200
                apply_response = http.post(
                    "/apply",
                    f"name=Ada&ssn={ssn}&address=addr&dob=1990-07-04&income=150000",
                    content_type="application/x-www-form-urlencoded",
                )
                assert apply_response.status == 200
                user_id = re.search(r"U\d{5}", apply_response.text()).group(0)
                password_response = http.post(
                    f"/password/{user_id}",
                    "password=Str0ng!pass&retype=Str0ng!pass",
                    content_type="application/x-www-form-urlencoded",
                )
                assert password_response.status == 200
                login = http.post(
                    "/login",
                    f"user_id={user_id}&password=Str0ng!pass",
                    content_type="application/x-www-form-urlencoded",
                )
                assert login.status == 200
                cookie = login.headers.get("Set-Cookie").split(";")[0]
                me = http.get("/me", headers={"Cookie": cookie})
                assert me.status == 200
                assert user_id in me.text()
