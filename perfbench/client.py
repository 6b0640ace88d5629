"""HTTP load generator for ``bfl serve``: keep-alive connections, an
open loop at a fixed rate and a closed loop, on at most two threads."""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

#: Connections (and client threads) per phase.
CONNECTIONS = 2


@dataclass
class Sample:
    """One request: ``due`` is when the schedule wanted it sent (the
    send time in a closed loop), ``done`` when its response arrived."""

    rid: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes


class Connection:
    """One keep-alive HTTP/1.1 connection on a raw socket.

    The client shares the machine's two cores with the server, so it
    does as little as it can: one ``sendall`` per request, and a
    response read up to its ``Content-Length``.
    """

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        self._sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        while b"\r\n\r\n" not in self._buffer:
            self._buffer += self._recv()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = next(
            int(line.split(b":", 1)[1])
            for line in lines[1:]
            if line.lower().startswith(b"content-length:")
        )
        while len(rest) < length:
            rest += self._recv()
        self._buffer = rest[length:]
        return status, rest[:length]

    def _recv(self) -> bytes:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self._sock.close()


#: ``make(i) -> (request id, body)`` for the i-th request of a phase.
MakeRequest = Callable[[int], Tuple[str, bytes]]


def _run_threads(port: int, work: Callable[[Connection], None]) -> None:
    errors: List[BaseException] = []

    def target() -> None:
        conn = Connection(port)
        try:
            work(conn)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_requests(rate: float, seconds: float) -> int:
    """How many requests :func:`open_loop` sends."""
    return int(rate * seconds)


def open_loop(
    port: int, make: MakeRequest, rate: float, seconds: float
) -> List[Sample]:
    """Send ``rate * seconds`` requests on a fixed schedule.  A request
    waits for a free connection when both are busy, and its latency
    counts from when it was due, so a stall shows in every request that
    queued behind it."""
    count = open_requests(rate, seconds)
    bodies = [make(i) for i in range(count)]
    samples: List[Optional[Sample]] = [None] * count
    counter = itertools.count()
    start = time.perf_counter() + 0.01

    def work(conn: Connection) -> None:
        while True:
            i = next(counter)
            if i >= count:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rid, body = bodies[i]
            sent = time.perf_counter()
            status, payload = conn.request("POST", "/battery", body)
            samples[i] = Sample(rid, due, sent, time.perf_counter(), status, payload)

    _run_threads(port, work)
    return [s for s in samples if s is not None]


def closed_loop(
    port: int, make: MakeRequest, seconds: float, prepare: int = 0
) -> List[Sample]:
    """Each connection sends its next request when the last returns.
    The first ``prepare`` requests are built before the clock starts, so
    the client spends its share of the two cores on sockets only."""
    prepared = [make(i) for i in range(prepare)]
    samples: List[Sample] = []
    counter = itertools.count()
    deadline = time.perf_counter() + seconds

    def work(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            i = next(counter)
            rid, body = prepared[i] if i < prepare else make(i)
            sent = time.perf_counter()
            status, payload = conn.request("POST", "/battery", body)
            samples.append(
                Sample(rid, sent, sent, time.perf_counter(), status, payload)
            )

    _run_threads(port, work)
    return samples
