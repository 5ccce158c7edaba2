"""Open-loop HTTP load: requests sent on a fixed schedule.

Request ``i`` is due at ``start + i / rate``. A fixed set of client
threads, each owning one keep-alive connection, take the next request
in schedule order as soon as their connection is free, wait for its
due time and send it. A request whose due time passes while every
connection is busy waits for one, and that wait is part of its
latency: latency is measured from the due time, not from the send.
``late`` is how far the send trailed the later of the due time and the
moment the connection became free — the generator's own delay, which
must stay small for the latencies to mean anything.
"""

from __future__ import annotations

import http.client
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass
class Sample:
    """One request's schedule, timings and answer."""

    index: int
    due: float
    sent: float
    done: float
    free: float
    status: int | None
    body: bytes | None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def wire(self) -> float:
        """Send-to-answer time, excluding any wait for a connection."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        return self.sent - max(self.due, self.free)


def open_loop(
    host: str,
    port: int,
    bodies: list[bytes],
    rate: float,
    connections: int,
    *,
    path: str = "/extract",
    timeout: float = 30.0,
) -> list[Sample]:
    """Send every body at ``rate`` per second over ``connections`` threads."""
    start = time.perf_counter() + 0.02
    counter = itertools.count()
    lock = threading.Lock()
    samples: list[Sample | None] = [None] * len(bodies)
    headers = {"Content-Type": "application/json"}

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = next(counter)
                if index >= len(bodies):
                    return
                free = time.perf_counter()
                due = start + index / rate
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                status = body = error = None
                try:
                    connection.request("POST", path, bodies[index], headers)
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                samples[index] = Sample(
                    index, due, sent, time.perf_counter(), free, status, body, error
                )
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, name=f"bench-client-{n}")
        for n in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for sample in samples if sample is not None]


def tail_quantile(count: int) -> float | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for quantile in (0.99, 0.95, 0.90):
        if count * (1 - quantile) >= 10 - 1e-9:
            return quantile
    return None


def nearest_rank(values: list[float], quantile: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def backlog_grows(latencies: list[float]) -> bool:
    """True when the last quarter's median exceeds twice the first
    quarter's plus 5 ms (latencies in schedule order, seconds)."""
    quarter = max(1, len(latencies) // 4)
    first = statistics.median(latencies[:quarter])
    last = statistics.median(latencies[-quarter:])
    return last > 2 * first + 0.005
