"""The benchmark's HTTP load generator (layer ``client``).

One process drives the server with at most two sender threads, each owning
one keep-alive HTTP/1.1 connection.  Request bodies are JSON-encoded before
any timing starts, so the generator's own work per request is a socket write
and a response parse.

* :func:`open_loop` sends on a seeded Poisson schedule regardless of how
  fast answers come back.  Latency is timed from when each request was
  *due*, so a stall also charges the requests queued behind it.
* :func:`closed_loop` keeps both connections busy for a fixed request count
  (the saturation phase).

For every request the generator records four instants: ``due``, ``free``
(when a connection became available for it), ``sent`` and ``done``.
``sent - due`` is the lag (it includes waiting for a busy connection) and
``sent - max(due, free)`` is the generator's own lateness: how long it took
to send while a connection was free.  A run whose lateness exceeds
``MAX_LATE_MS`` measured the generator, not the server, and is invalid.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

#: Connections (and sender threads) the generator uses; the benchmark box
#: has two cores.
CONNECTIONS = 2

#: A serving run whose generator ran later than this while a connection was
#: free is invalid: the figures would describe a starved client.
MAX_LATE_MS = 50.0

#: Per-request socket timeout; a request that takes longer counts as failed.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One pre-encoded ``POST /predict`` body and the rows it carries."""

    body: bytes
    rows: int
    key: int  # index into the workload's table of reference answers


@dataclass
class Sample:
    """The timeline and outcome of one request."""

    request: Request
    due: float
    free: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - max(self.due, self.free)) * 1e3


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def seconds(self) -> float:
        return self.finished - self.started


class Connection:
    """A keep-alive HTTP/1.1 connection that reconnects after an error."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _send(conn: Connection, sample: Sample) -> None:
    sample.sent = time.perf_counter()
    try:
        sample.status, sample.payload = conn.request("POST", "/predict", sample.request.body)
    except (OSError, http.client.HTTPException) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.done = time.perf_counter()


def poisson_schedule(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Offsets (seconds from the phase start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def open_loop(
    connections: Sequence[Connection],
    requests: Sequence[Request],
    offsets: np.ndarray,
    stop: Optional[threading.Event] = None,
) -> PhaseResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` over the connections.

    Each sender thread takes the next unsent request, waits for its due time
    and sends it.  When both connections are busy a due request waits for
    the first one to come free; that wait is part of its latency.  Setting
    ``stop`` ends the phase early; requests not yet sent are dropped from
    the result (they were never attempted).
    """
    phase = PhaseResult()
    samples = [Sample(request=r, due=0.0) for r in requests]
    next_index = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    for sample, offset in zip(samples, offsets):
        sample.due = start + float(offset)

    def sender(conn: Connection) -> None:
        while True:
            free = time.perf_counter()
            with lock:
                index = next_index[0]
                if index >= len(samples):
                    return
                next_index[0] = index + 1
            sample = samples[index]
            sample.free = free
            delay = sample.due - time.perf_counter()
            if stop is not None:
                if stop.wait(max(delay, 0.0)):
                    return
            elif delay > 0:
                time.sleep(delay)
            _send(conn, sample)

    threads = [threading.Thread(target=sender, args=(c,), daemon=True) for c in connections]
    phase.started = start
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.finished = time.perf_counter()
    phase.samples = [s for s in samples if s.sent]
    return phase


def closed_loop(connections: Sequence[Connection], requests: Sequence[Request]) -> PhaseResult:
    """Keep every connection busy until all ``requests`` are answered."""
    phase = PhaseResult()
    samples = [Sample(request=r, due=0.0) for r in requests]
    next_index = [0]
    lock = threading.Lock()

    def sender(conn: Connection) -> None:
        while True:
            with lock:
                index = next_index[0]
                if index >= len(samples):
                    return
                next_index[0] = index + 1
            sample = samples[index]
            sample.due = sample.free = time.perf_counter()
            _send(conn, sample)

    threads = [threading.Thread(target=sender, args=(c,), daemon=True) for c in connections]
    phase.started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.finished = time.perf_counter()
    phase.samples = samples
    return phase


def get_json(host: str, port: int, path: str, method: str = "GET", body: Optional[dict] = None):
    """One request on a fresh connection (control plane: health, metrics, swap)."""
    conn = Connection(host, port)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        status, raw = conn.request(method, path, payload)
    finally:
        conn.close()
    if path == "/metrics":
        return status, raw.decode("utf-8")
    return status, json.loads(raw)
