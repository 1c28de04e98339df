"""The repository benchmark: a client of the service repository, end to end.

Starts the system under test (``sut.py``: broker, a 3-replica fleet and
the gateway) as a child process and drives it from this process through
the repository's own ``HttpClient`` and ``SoapClient``, with two sender
threads on two keep-alive connections.  Run from the repository root::

    python3 perfbench/run.py --workload gateway_small --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/DESIGN.md`` for why each exists):

* ``gateway_small`` — closed loop, 2 clients paced to :data:`PACE`
  requests/s at most, Caesar calls through the gateway to 3 REST replicas;
* ``soap_bulk`` — closed loop, 2 clients paced the same way,
  ``Caching.put``:``get`` at 1:4 with 16 KiB values straight to one
  replica's SOAP binding;
* ``fleet_observed`` — open loop at :data:`OPEN_LOOP_RATE` requests/s
  through the gateway, fleet observability on, one replica killed.

``--trace 0`` prints the end-to-end metrics (throughput and latency in
the summary line), with CPU per call counted in chunks of reference work
that ``canary.py`` times on the same CPUs; ``--trace 1`` runs the
workload twice, untraced then traced, each for half of ``--seconds``,
and prints the per-layer metrics, the tracing overhead and the time no
layer span covers.  Every response is checked against a reference
computed here; the last line of output is one JSON object with the
result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from repro.transport.http11 import encode_query  # noqa: E402
from repro.transport.httpserver import HttpClient  # noqa: E402
from repro.transport.soap import SoapClient  # noqa: E402
from repro.xmlkit import from_element, parse  # noqa: E402

WORKLOADS = ("gateway_small", "soap_bulk", "fleet_observed")
SENDERS = 2
#: fleet_observed arrival rate, requests/s.  Fixed; never retuned.  About
#: 30% of one SUT core at the observed fleet's CPU cost per call, so the
#: open loop stays clear of the unbounded backlog that CPU steal on a
#: shared machine causes near saturation (see DESIGN.md).
OPEN_LOOP_RATE = 250.0
#: Closed loops: requests/s the clients together start at most.  Each
#: client waits for its reply and then for its next turn, so while the
#: system keeps up the SUT meets the same cadence whatever the host's
#: speed (about 30% of a core on each workload's busier process; see
#: DESIGN.md).  Fixed; never retuned.
PACE = {"gateway_small": 500.0, "soap_bulk": 80.0, "fleet_observed": OPEN_LOOP_RATE}
#: the SUT is spawned this many times per run; setup_s is the median.
SETUPS = 3
WARMUP_S = 1.0
#: an open-loop run whose own send lag (p99) exceeds this is invalid.
SEND_LAG_LIMIT_MS = 20.0
#: an open-loop run that completes fewer than this share of its scheduled
#: calls inside the window has a growing backlog and is invalid.
COMPLETED_SHARE_MIN = 0.99
#: whole-run watchdog, under the 180 s a run may take
RUN_DEADLINE_S = 170
TRACE_DIR = ROOT / ".perfbench"


def _placement() -> tuple[Optional[int], Optional[int]]:
    """One CPU for the generator, another for the SUT, when two are free.

    Kept apart, neither process's threads migrate onto the other's CPU,
    so the SUT's single interpreter lock gets one whole core.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[1]


GENERATOR_CPU, SUT_CPU = _placement()


def place_generator() -> None:
    if GENERATOR_CPU is not None:
        os.sched_setaffinity(0, {GENERATOR_CPU})


class InvalidRun(Exception):
    """The open loop fell behind its schedule, so its figures mean nothing."""


# -- the system under test -------------------------------------------------


class Child:
    """A child process answering JSON-line commands on a control pipe."""

    def __init__(self, command: list[str]) -> None:
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def _read(self) -> dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.process.args[1]} exited with code {self.process.wait()}")
        return json.loads(line)

    def command(self, name: str) -> dict[str, Any]:
        self.process.stdin.write(json.dumps({"cmd": name}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.process.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.process.stdin.close()
            self.process.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


class Sut(Child):
    """The SUT child process; ``info`` holds the addresses it serves on."""

    def __init__(self, workload: str, seed: int, *, trace: bool = False) -> None:
        command = [sys.executable, str(HERE / "sut.py"), "--workload", workload,
                   "--seed", str(seed)]
        if trace:
            command.append("--trace")
        if SUT_CPU is not None:
            command += ["--cpu", str(SUT_CPU)]
        self.spawned = time.perf_counter()
        super().__init__(command)
        self.info = self._read()


class Canary(Child):
    """``canary.py`` on one CPU: how fast that CPU ran over a window."""

    def __init__(self, cpu: Optional[int]) -> None:
        command = [sys.executable, str(HERE / "canary.py")]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        super().__init__(command)

    def chunk_ms(self) -> float:
        """Mean CPU time of one canary chunk since the last ``mark``."""
        reading = self.command("read")
        if not reading["chunks"]:
            raise RuntimeError("the canary timed no chunk in the window")
        return reading["chunk_us"] / 1e3


# -- clients ----------------------------------------------------------------


class CaesarClient:
    """One gateway client: a keep-alive connection and a bearer token."""

    def __init__(self, sut: Sut, seed: int, sender: int) -> None:
        host, port = sut.info["gateway"]
        self.http = HttpClient(host, port, pool_size=1)
        response = self.http.post(
            "/auth/token",
            encode_query({"user": inputs.USER, "password": inputs.PASSWORD}),
            content_type="application/x-www-form-urlencoded",
        )
        if response.status != 200:
            raise RuntimeError(f"login refused: HTTP {response.status}")
        self.headers = {"Authorization": f"Bearer {json.loads(response.text())['token']}"}
        self.path = f"/api/{sut.info['service']}/caesar?"
        self.stream = inputs.caesar_stream(seed, sender)
        self.position = 0

    def call(self) -> bool:
        text, shift, expected = self.stream[self.position % len(self.stream)]
        self.position += 1
        response = self.http.get(
            self.path + encode_query({"text": text, "shift": str(shift)}),
            headers=self.headers,
        )
        return response.status == 200 and from_element(parse(response.text())) == expected

    def dials(self) -> int:
        return self.http.pool_stats()["created"]

    def close(self) -> None:
        self.http.close()


class CacheClient:
    """One soap_bulk client: SOAP straight to replica 0, owning half the keys."""

    def __init__(self, sut: Sut, seed: int, sender: int, values: list[str]) -> None:
        host, port = sut.info["replicas"][0]
        self.http = HttpClient(host, port, pool_size=1)
        self.soap = SoapClient(self.http, sut.info["service"])
        self.values = values
        self.expected = {
            key: values[inputs.initial_value(seed, key)] for key in inputs.cache_keys(sender)
        }
        self.stream = inputs.cache_stream(seed, sender)
        self.position = 0

    def call(self) -> bool:
        op, key, value_index = self.stream[self.position % len(self.stream)]
        self.position += 1
        if op == "put":
            value = self.values[value_index]
            ok = self.soap.call("put", {"key": key, "value": value}) is True
            if ok:
                self.expected[key] = value
            return ok
        return self.soap.call("get", {"key": key}) == self.expected[key]

    def dials(self) -> int:
        return self.http.pool_stats()["created"]

    def close(self) -> None:
        self.http.close()


def prepopulate(sut: Sut, seed: int, values: list[str]) -> None:
    """Put every key's initial value on every replica (no shared state)."""
    for host, port in sut.info["replicas"]:
        with HttpClient(host, port, pool_size=1) as http:
            soap = SoapClient(http, sut.info["service"])
            for key in sorted(inputs.cache_keys(0) + inputs.cache_keys(1)):
                value = values[inputs.initial_value(seed, key)]
                if soap.call("put", {"key": key, "value": value}) is not True:
                    raise RuntimeError(f"prepopulating {key} failed")


def make_clients(workload: str, sut: Sut, seed: int) -> list:
    if workload == "soap_bulk":
        values = inputs.cache_values(seed)
        return [CacheClient(sut, seed, n, values) for n in range(SENDERS)]
    return [CaesarClient(sut, seed, n) for n in range(SENDERS)]


def first_correct(workload: str, sut: Sut, seed: int) -> float:
    """Seconds from SUT spawn to its first correct response."""
    if workload == "soap_bulk":
        host, port = sut.info["replicas"][0]
        with HttpClient(host, port, pool_size=1) as http:
            ok = SoapClient(http, sut.info["service"]).call(
                "put", {"key": "setup", "value": "ready"}) is True
    else:
        client = CaesarClient(sut, seed, 0)
        try:
            ok = client.call()
        finally:
            client.close()
    if not ok:
        raise RuntimeError("the SUT's first response was wrong")
    return time.perf_counter() - sut.spawned


# -- load -------------------------------------------------------------------


class Sample:
    """One call: when it was due and sent, when it ended, whether it was right."""

    __slots__ = ("rid", "due", "sent", "ended", "ok", "lag")

    def __init__(self, rid: str, due: float, sent: float, lag: float) -> None:
        self.rid, self.due, self.sent, self.lag = rid, due, sent, lag
        self.ended = sent
        self.ok = False


def _call(client, sample: Sample, recorder) -> Sample:
    if recorder is not None:
        recorder.set_ambient(sample.rid, None)
    try:
        sample.ok = client.call()
    except Exception:  # noqa: BLE001 - a failed call is a counted error
        sample.ok = False
    sample.ended = time.perf_counter()
    return sample


def closed_loop(clients: list, seconds: float, rate: float, recorder=None) -> tuple[list[Sample], float, float]:
    """Each client sends its next call when the last one returns and its turn comes.

    Turns are ``len(clients) / rate`` seconds apart for each client, the
    clients offset evenly; a client whose call overran its turn sends at
    once and does not catch up.
    """
    start = time.perf_counter()
    stop = start + seconds
    cycle = len(clients) / rate
    results: list[list[Sample]] = [[] for _ in clients]

    def sender(index: int) -> None:
        client, mine = clients[index], results[index]
        due = start + cycle * index / len(clients)
        count = 0
        while due < stop:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            count += 1
            mine.append(_call(client, Sample(f"r{index}.{count}", sent, sent, 0.0), recorder))
            due = max(due + cycle, time.perf_counter())

    _run_threads(sender, len(clients))
    return [s for r in results for s in r], start, stop


def open_loop(clients: list, seconds: float, seed: int, recorder=None) -> tuple[list[Sample], float, float]:
    """Calls are due on a seeded Poisson schedule; a free sender takes the next."""
    gaps = inputs.arrival_gaps(seed, OPEN_LOOP_RATE, int(OPEN_LOOP_RATE * seconds * 2) + 16)
    start = time.perf_counter() + 0.01
    stop = start + seconds
    due, at = [], start
    for gap in gaps:
        at += gap
        if at >= stop:
            break
        due.append(at)
    cursor = iter(range(len(due)))
    lock = threading.Lock()
    results: list[list[Sample]] = [[] for _ in clients]

    def sender(index: int) -> None:
        client, mine = clients[index], results[index]
        free = time.perf_counter()
        while True:
            with lock:
                number = next(cursor, None)
            if number is None:
                return
            when = due[number]
            delay = when - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            lag = sent - max(when, free)  # the generator's own lateness
            mine.append(_call(client, Sample(f"r{number}", when, sent, lag), recorder))
            free = time.perf_counter()

    _run_threads(sender, len(clients))
    return [s for r in results for s in r], start, stop


def _run_threads(target: Callable[[int], None], count: int) -> None:
    threads = [threading.Thread(target=target, args=(n,), daemon=True) for n in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- one measured phase ------------------------------------------------------


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


class Phase:
    """Warm up, then measure one window against a running SUT."""

    def __init__(self, workload: str, sut: Sut, seed: int, seconds: float, recorder=None) -> None:
        self.workload = workload
        clients = make_clients(workload, sut, seed)
        canaries: list[Canary] = []
        try:
            for cpu in (SUT_CPU, GENERATOR_CPU):
                canaries.append(Canary(cpu))
            if workload == "soap_bulk":
                prepopulate(sut, seed, clients[0].values)
            closed_loop(clients, WARMUP_S, PACE[workload])
            dials = sum(client.dials() for client in clients)
            for canary in canaries:
                canary.command("mark")
            cpu = time.process_time()
            sut.command("mark")
            if recorder is not None:
                recorder.recording = True
            if workload == "fleet_observed":
                samples, start, stop = open_loop(clients, seconds, seed, recorder)
            else:
                samples, start, stop = closed_loop(clients, seconds, PACE[workload], recorder)
            if recorder is not None:
                recorder.recording = False
            self.client_cpu_s = time.process_time() - cpu
            self.stats = sut.command("stats")
            self.chunk_ms = statistics.mean(canary.chunk_ms() for canary in canaries)
            self.dials = sum(client.dials() for client in clients) - dials
        finally:
            for canary in canaries:
                canary.close()
            for client in clients:
                client.close()
        self.samples = samples
        self.seconds = stop - start
        self.completed = sum(sample.ok for sample in samples)
        self.failed = len(samples) - self.completed
        latencies = sorted((s.ended - s.due) * 1e3 if s.ok else math.inf for s in samples)
        self.p50 = percentile(latencies, 0.50)
        self.p99 = percentile(latencies, 0.99)
        self.send_lag_p99 = percentile(sorted(s.lag * 1e3 for s in samples), 0.99)
        self.in_window = sum(s.ended <= stop for s in samples)
        self.drain_s = max(max(s.ended for s in samples) - stop, 0.0)

    def check_open_loop(self) -> None:
        """Reject an open-loop run that did not keep to its schedule."""
        if self.workload != "fleet_observed":
            return
        if self.send_lag_p99 > SEND_LAG_LIMIT_MS:
            raise InvalidRun(
                f"generator fell behind: send lag p99 {self.send_lag_p99:.1f} ms "
                f"> {SEND_LAG_LIMIT_MS} ms"
            )
        if self.in_window < COMPLETED_SHARE_MIN * len(self.samples):
            raise InvalidRun(
                f"backlog: {self.in_window} of {len(self.samples)} scheduled calls "
                f"completed inside the window (drain {self.drain_s * 1e3:.0f} ms)"
            )

    def throughput(self) -> float:
        return self.completed / self.seconds

    def sut_cpu_ms_per_call(self) -> float:
        return self.stats["cpu_s"] * 1e3 / max(len(self.samples), 1)

    def client_cpu_ms_per_call(self) -> float:
        return self.client_cpu_s * 1e3 / max(len(self.samples), 1)

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        """The bounded metrics; throughput and latency are in :meth:`summary`.

        CPU per call is counted in canary chunks timed on the same two
        CPUs over the same window, so the host's speed cancels out.
        """
        return {
            "sut_cpu_per_call": (self.sut_cpu_ms_per_call() / self.chunk_ms, "canary"),
            "client_cpu_per_call": (self.client_cpu_ms_per_call() / self.chunk_ms, "canary"),
            "sut_rss_mb": (self.stats["rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
        }

    def summary(self) -> str:
        text = (
            f"{len(self.samples)} calls attempted, {self.failed} failed "
            f"(error_rate {self.failed / max(len(self.samples), 1):.4f}); "
            f"throughput {self.throughput():.1f}/s; latency samples {len(self.samples)}, "
            f"p50 {_finite(self.p50):.3f} ms, p99 {_finite(self.p99):.3f} ms; "
            f"CPU per call: SUT {self.sut_cpu_ms_per_call():.4f} ms, "
            f"client {self.client_cpu_ms_per_call():.4f} ms; "
            f"canary chunk {self.chunk_ms * 1e3:.1f} us"
        )
        if self.workload != "fleet_observed":
            return text
        return text + (
            f"; offered {len(self.samples) / self.seconds:.1f}/s, "
            f"completed inside the window {self.in_window / self.seconds:.1f}/s, "
            f"drain after window {self.drain_s * 1e3:.1f} ms, "
            f"send lag p99 {self.send_lag_p99:.3f} ms"
        )


def _finite(value: float) -> float:
    """A failed call's latency is infinite; JSON needs a number."""
    return value if math.isfinite(value) else 1e9


# -- runs -------------------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple[Phase, dict]:
    setups = []
    sut = None
    try:
        for attempt in range(SETUPS):
            sut = Sut(workload, seed)
            setups.append(first_correct(workload, sut, seed))
            if attempt < SETUPS - 1:
                sut.close()
        phase = Phase(workload, sut, seed, seconds)
    finally:
        if sut is not None:
            sut.close()
    phase.check_open_loop()
    print("setup spawns: " + ", ".join(f"{s:.4f}" for s in setups) + " s")
    return phase, phase.end_to_end(statistics.median(setups))


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Phase, dict, int, int]:
    import tracing

    sut = Sut(workload, seed)
    try:
        first_correct(workload, sut, seed)
        plain = Phase(workload, sut, seed, seconds / 2)
    finally:
        sut.close()
    plain.check_open_loop()

    recorder = tracing.Recorder(tracing.GENERATOR)
    tracing.install(recorder)
    sut = Sut(workload, seed, trace=True)
    try:
        first_correct(workload, sut, seed)
        traced = Phase(workload, sut, seed, seconds / 2, recorder)
    finally:
        sut.close()
    traced.check_open_loop()
    spans = recorder.spans + [tuple(span) for span in traced.stats["spans"]]
    write_trace(workload, seed, spans)
    completed = {s.rid for s in traced.samples if s.ok}
    metrics = tracing.analyse(spans, completed)
    stats, calls = traced.stats, max(len(traced.samples), 1)
    metrics.update({
        "tracing.overhead_p50_ms": traced.p50 - plain.p50,
        "transport.client.dials_per_1k": (traced.dials + stats["upstream_dials"]) * 1e3 / calls,
        "transport.server.rejected": float(stats["rejected"]),
        "services.cache_hit_ratio": (
            stats["cache_hits"] / stats["cache_lookups"] if stats["cache_lookups"] else 0.0
        ),
        "observability.tail_kept_ratio": (
            stats["sampler_kept"] / stats["sampler_decided"] if stats["sampler_decided"] else 0.0
        ),
        "observability.export_batches": float(stats["export_batches"]),
        "observability.export_dropped": float(stats["export_dropped"]),
        "loadgen.send_lag_p99_ms": max(plain.send_lag_p99, traced.send_lag_p99),
        "sut_cpu_ms_per_call": plain.sut_cpu_ms_per_call(),
        "client_cpu_ms_per_call": plain.client_cpu_ms_per_call(),
        "throughput_rps": plain.throughput(),
        "latency_p50_ms": _finite(plain.p50),
        "latency_p99_ms": _finite(plain.p99),
    })
    attempted = len(plain.samples) + len(traced.samples)
    failed = plain.failed + traced.failed
    units = per_layer_units()
    return traced, {name: (value, units[name]) for name, value in metrics.items()}, attempted, failed


def write_trace(workload: str, seed: int, spans: list[tuple]) -> None:
    """Keep the run's spans for inspection (one JSON array per run)."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as handle:
        json.dump(spans, handle)


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, as declared in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    place_generator()

    def expire(_signum: int, _frame: Any) -> None:
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if args.trace:
            phase, metrics, attempted, failed = run_traced(
                args.workload, args.seed, args.seconds
            )
        else:
            phase, metrics = run_end_to_end(args.workload, args.seed, args.seconds)
            attempted, failed = len(phase.samples), phase.failed
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    print(f"{args.workload} seed {args.seed}: {phase.summary()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:12.4f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
