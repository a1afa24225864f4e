"""HTTP load for the serve-mixed workload, from one process.

Two threads, each with one keep-alive connection (the reference box has two
CPUs; the server under test runs in its own process).  The generator holds
only the request paths, freezes what the interpreter has allocated so far
and disables the garbage collector while it sends, so its own pauses do not
show up as server latency.

``drive`` with a ``rate`` is an open loop, which models independent users:
request ``i`` is due at ``start + i / rate`` whether or not earlier requests
have finished, and its latency is measured from when it was due, so a stall
is charged to every request it delays.  ``lateness`` (sent minus due) shows
whether the generator itself kept up.  Without a rate it is a closed loop,
which models users that wait for each reply: a free connection takes the
next ``session`` requests (one browse session) and sends them one after
another, which gives the capacity of the server at that concurrency and the
time one session takes.
"""

from __future__ import annotations

import gc
import http.client
import threading
import time
from dataclasses import dataclass

from worker import CHECK_EVERY

CONNECTIONS = 2


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes | None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its full response."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from sending the request to its full response."""
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def drive(
    host: str,
    port: int,
    paths: list[str],
    first: int,
    seconds: float,
    rate: float | None = None,
    session: int = 1,
) -> list[Sample]:
    """Send ``paths[first:]`` (cyclically) for ``seconds``.

    With a ``rate``, request ``first + k`` is due ``k / rate`` seconds after
    the start; without one, each request is due when its connection is
    free.  A connection takes ``session`` consecutive requests at a time and
    finishes a session it has started even after the window has ended.
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = [first]
    start = time.perf_counter() + 0.01
    stop_at = start + seconds

    def worker() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while True:
                with lock:
                    begin = cursor[0]
                    cursor[0] += session
                for index in range(begin, begin + session):
                    if rate is None:
                        due = time.perf_counter()
                    else:
                        due = start + (index - first) / rate
                    if index == begin and due >= stop_at:
                        return
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    try:
                        connection.request("GET", paths[index % len(paths)])
                        response = connection.getresponse()
                        status, body = response.status, response.read()
                    except (OSError, http.client.HTTPException):
                        status, body = 0, b""
                        connection.close()
                        connection = http.client.HTTPConnection(host, port, timeout=30)
                    done = time.perf_counter()
                    # Only the bodies the output check compares are kept.
                    keep = body if index % CHECK_EVERY == 0 else None
                    samples.append(Sample(index, due, sent, done, status, keep))
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
        gc.unfreeze()
    samples.sort(key=lambda sample: sample.index)
    return samples


def warm(host: str, port: int, paths: list[str]) -> list[int]:
    """Send ``paths`` one after another, untimed; returns the statuses."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    statuses = []
    try:
        for path in paths:
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            statuses.append(response.status)
    finally:
        connection.close()
    return statuses
