"""A reference workload that samples how fast one CPU runs right now.

The benchmark shares its machine's CPUs with other tenants, and the CPU
time a call takes rises and falls with what they do.  ``run.py`` starts
one canary per CPU it measures on.  Every :data:`PERIOD_S` the canary
runs one fixed piece of pure-Python work, :func:`chunk`, which shares no
code with the program, and records the CPU time it took.  A call's CPU
cost divided by the mean chunk time over the same window is then its
cost in chunks, which the host's speed moves far less than milliseconds.

It answers one JSON command per line on standard input::

    python3 perfbench/canary.py --cpu 1

* ``mark`` — forget the chunks timed so far;
* ``read`` — the mean CPU time of a chunk since the mark, and how many;
* ``quit`` (or end of input) — exit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time

#: one chunk of work every this many seconds (about 0.6% of a CPU)
PERIOD_S = 0.05


def chunk() -> int:
    """Dictionary updates, string building and splitting: interpreter work."""
    counts: dict[str, int] = {}
    parts = []
    for i in range(400):
        key = "key-%d" % (i & 63)
        counts[key] = counts.get(key, 0) + i
        parts.append(key.upper())
    return len(",".join(parts).split(",")) + len(counts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    def send(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    timed_ns: list[int] = []
    due = time.monotonic()
    while True:
        wait = due - time.monotonic()
        if wait <= 0:
            started = time.thread_time_ns()
            chunk()
            timed_ns.append(time.thread_time_ns() - started)
            due = max(due + PERIOD_S, time.monotonic())
            continue
        readable, _, _ = select.select([sys.stdin], [], [], wait)
        if not readable:
            continue
        line = sys.stdin.readline()
        command = json.loads(line)["cmd"] if line else "quit"
        if command == "mark":
            timed_ns.clear()
            send({"ok": True})
        elif command == "read":
            mean_us = sum(timed_ns) / len(timed_ns) / 1e3 if timed_ns else 0.0
            send({"chunk_us": mean_us, "chunks": len(timed_ns)})
        elif command == "quit":
            return 0


if __name__ == "__main__":
    sys.exit(main())
