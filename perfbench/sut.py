"""The system under test: broker, 3-replica fleet and gateway in one process.

``run.py`` starts this script as a child process and drives it from
outside, so the load generator's interpreter lock and CPU stay out of
the figures.  It can be run by hand too::

    python3 perfbench/sut.py --workload gateway_small --seed 1

On start it stands the system up with the repository's default worker
counts and writes one JSON line, the addresses, to its control channel
(standard output; the program's own output is sent to standard error).
It then answers one JSON command per line on standard input:

* ``mark`` — start of the timed window: snapshot CPU and counters (and
  start recording spans when run with ``--trace``);
* ``stats`` — end of the window: CPU, resident memory, counters, spans;
* ``quit`` (or end of input) — shut everything down and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from repro.core import ServiceBroker  # noqa: E402
from repro.gateway import (  # noqa: E402
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.observability import BatchSpanExporter, TailSampler  # noqa: E402
from repro.observability.runtime import OBS  # noqa: E402
from repro.replication import publish_replicated  # noqa: E402
from repro.security.access import AccessControl  # noqa: E402
from repro.security.auth import PasswordVault, TokenIssuer  # noqa: E402
from repro.services.basic import EncryptionService  # noqa: E402
from repro.services.commerce import CachingService  # noqa: E402
from repro.services.tracestore import TraceStore, tracestore_routes  # noqa: E402
from repro.transport import HttpServer  # noqa: E402
from repro.web import compose_handlers  # noqa: E402

#: fleet_observed: the tail sampler's baseline keep probability.
KEEP_PROBABILITY = 0.02
#: fleet_observed: the replica killed as timing starts.
KILLED_REPLICA = 2


def resident_mb() -> float:
    """Resident set size now (Linux), else the peak."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class System:
    """Everything one workload needs, built with the repository's defaults."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.broker = ServiceBroker()
        self.caches: list[CachingService] = []
        self.store_server: Optional[HttpServer] = None
        self.exporter: Optional[BatchSpanExporter] = None
        self.sampler: Optional[TailSampler] = None
        if workload == "fleet_observed":
            store = TraceStore()
            self.store_server = HttpServer(
                compose_handlers(dict(tracestore_routes(store)))
            ).start()
            self.exporter = BatchSpanExporter(
                self.store_server.host, self.store_server.port, node="sut"
            )
            self.sampler = TailSampler(
                self.exporter,
                keep_probability=KEEP_PROBABILITY,
                rng=random.Random(inputs.sampler_seed(seed)),
            )
            OBS.enable(self.sampler)
        if workload == "soap_bulk":
            self.fleet = publish_replicated(
                self._caching, self.broker, 3, bindings=("rest", "soap")
            )
        else:
            self.fleet = publish_replicated(EncryptionService, self.broker, 3)
        service = self.fleet.service_name
        self.gateway = Gateway(
            self.broker,
            [GatewayRoute(f"/api/{service}", service, permission=inputs.PERMISSION)],
            security=self._security(),
            # admits every benchmark call: the limiter is checked, never denies
            limiter=RateLimiter(RateLimitPolicy(rate=1e6, burst=1e6)),
        )
        self.gateway.start()
        self._mark: dict[str, Any] = {}

    def _caching(self) -> CachingService:
        service = CachingService()
        self.caches.append(service)
        return service

    @staticmethod
    def _security() -> SecurityPolicy:
        vault = PasswordVault()
        vault.set_password(inputs.USER, inputs.PASSWORD, inputs.PASSWORD)
        access = AccessControl()
        access.define_role("client", [inputs.PERMISSION])
        access.assign_role(inputs.USER, "client")
        return SecurityPolicy(TokenIssuer(), access, vault)

    def addresses(self) -> dict[str, Any]:
        server = self.gateway.server
        return {
            "gateway": [server.host, server.port],
            "replicas": [
                [node.server.host, node.server.port] for node in self.fleet.nodes
            ],
            "service": self.fleet.service_name,
        }

    # -- counters ----------------------------------------------------------
    def _servers(self) -> list[HttpServer]:
        servers = [self.gateway.server] + [node.server for node in self.fleet.nodes]
        if self.store_server is not None:
            servers.append(self.store_server)
        return servers

    def counters(self) -> dict[str, float]:
        upstream = self.gateway._http_clients.pool_stats()
        counters = {
            "cpu_s": time.process_time(),
            "rejected": sum(server.rejected_connections for server in self._servers()),
            "upstream_dials": sum(stats["created"] for stats in upstream.values()),
            "cache_hits": 0,
            "cache_lookups": 0,
            "sampler_kept": 0,
            "sampler_decided": 0,
            "export_batches": 0,
            "export_dropped": 0,
        }
        for cache in self.caches:
            stats = cache.stats()
            counters["cache_hits"] += stats["hits"]
            counters["cache_lookups"] += stats["hits"] + stats["misses"]
        if self.sampler is not None:
            counters["sampler_kept"] = self.sampler.kept()
            counters["sampler_decided"] = sum(self.sampler.decisions.values())
            counters["export_batches"] = self.exporter.batches
            counters["export_dropped"] = self.exporter.dropped
        return counters

    def mark(self) -> None:
        if self.workload == "fleet_observed":
            # after warm-up, so the gateway holds live connections to it
            # and the balancer meets the corpse inside the timed window
            self.fleet.kill(KILLED_REPLICA)
        self._mark = self.counters()

    def since_mark(self) -> dict[str, float]:
        now = self.counters()
        delta = {key: now[key] - self._mark.get(key, 0) for key in now}
        delta["rss_mb"] = resident_mb()
        return delta

    def close(self) -> None:
        self.gateway.close()
        self.fleet.close()
        if self.exporter is not None:
            self.exporter.close()
        if self.store_server is not None:
            self.store_server.stop()
        OBS.disable()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    # the control channel is the original stdout; everything else the
    # program prints goes to stderr so it cannot corrupt a message
    control = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(message: dict[str, Any]) -> None:
        control.write(json.dumps(message) + "\n")
        control.flush()

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(tracing.SUT)
        tracing.install(recorder)
    system = System(args.workload, args.seed)
    try:
        send({"ready": True, **system.addresses()})
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "mark":
                system.mark()
                if recorder is not None:
                    recorder.spans.clear()
                    recorder.recording = True
                send({"ok": True})
            elif command == "stats":
                if recorder is not None:
                    recorder.recording = False
                stats = system.since_mark()
                stats["spans"] = recorder.spans if recorder is not None else []
                send(stats)
            elif command == "quit":
                break
    finally:
        system.close()
        control.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
