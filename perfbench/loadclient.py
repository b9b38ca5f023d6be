"""Single-threaded HTTP/1.1 load client: open-loop schedules and closed loops.

One ``selectors`` event loop drives a fixed set of keep-alive
connections, so the client adds no threads of its own and never needs
more connections than the machine has cores.

Open loop: every request has a *due* time fixed by the schedule before
the run starts.  The loop hands a due request to the first idle
connection; when none is idle the request waits in a FIFO.  Latency is
measured from the due time, so a stall also charges the requests queued
behind it, and ``late`` records how far behind its own schedule the
generator itself noticed each arrival.

Closed loop: each connection sends its next request as soon as the
previous response completes, for a fixed duration.
"""

from __future__ import annotations

import collections
import dataclasses
import selectors
import socket
import time
from typing import Deque, List, Optional, Sequence, Tuple

Address = Tuple[str, int]


def render_request(path: str, body: bytes, request_id: Optional[int] = None) -> bytes:
    """One complete ``POST`` request, headers and body in a single buffer."""
    head = [
        f"POST {path} HTTP/1.1",
        "Host: 127.0.0.1",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if request_id is not None:
        head.append(f"X-Request-Id: {request_id}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


@dataclasses.dataclass
class Outcome:
    """What happened to one request; times are ``perf_counter`` seconds."""

    index: int
    due: float
    noticed: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def wait(self) -> float:
        return self.sent - self.due

    @property
    def late(self) -> float:
        return self.noticed - self.due


class _Connection:
    def __init__(self, address: Address) -> None:
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbuf = bytearray()
        self.outcome: Optional[Outcome] = None
        self.deadline = 0.0

    def close(self) -> None:
        self.sock.close()


def _parse_response(buffer: bytearray) -> Optional[Tuple[int, bytes, int]]:
    """``(status, body, consumed)`` once a whole response is buffered."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buffer[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buffer) < total:
        return None
    return status, bytes(buffer[end + 4 : total]), total


class LoadClient:
    """Keep-alive connections to one server, driven from one thread."""

    def __init__(self, address: Address, connections: int, timeout_s: float = 10.0) -> None:
        if connections < 1:
            raise ValueError("connections must be at least 1")
        self._address = address
        self._timeout_s = timeout_s
        self._selector = selectors.DefaultSelector()
        self._connections: List[_Connection] = []
        for _ in range(connections):
            self._connections.append(self._open())

    def _open(self) -> _Connection:
        connection = _Connection(self._address)
        self._selector.register(connection.sock, selectors.EVENT_READ, connection)
        return connection

    def _replace(self, connection: _Connection) -> None:
        self._selector.unregister(connection.sock)
        connection.close()
        self._connections[self._connections.index(connection)] = self._open()

    def close(self) -> None:
        for connection in self._connections:
            self._selector.unregister(connection.sock)
            connection.close()
        self._connections = []
        self._selector.close()

    def __enter__(self) -> "LoadClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _send(self, connection: _Connection, outcome: Outcome, payload: bytes, finished: List[Outcome]) -> None:
        outcome.sent = time.perf_counter()
        connection.outcome = outcome
        connection.deadline = outcome.sent + self._timeout_s
        try:
            connection.sock.sendall(payload)
        except OSError as error:
            self._fail(connection, f"send: {error}", finished)

    def _fail(self, connection: _Connection, error: str, finished: List[Outcome]) -> None:
        """Finish the connection's request as failed and open a fresh socket."""
        outcome = connection.outcome
        if outcome is not None:
            outcome.error = error
            outcome.done = time.perf_counter()
            finished.append(outcome)
        connection.outcome = None
        self._replace(connection)

    def _poll(self, timeout: float, finished: List[Outcome]) -> None:
        """Wait up to ``timeout`` for responses; append completed outcomes."""
        for key, _ in self._selector.select(max(0.0, timeout)):
            connection: _Connection = key.data
            try:
                chunk = connection.sock.recv(65536)
            except BlockingIOError:
                continue
            except OSError as error:
                self._fail(connection, f"recv: {error}", finished)
                continue
            if not chunk:
                self._fail(connection, "connection closed", finished)
                continue
            connection.inbuf += chunk
            parsed = _parse_response(connection.inbuf)
            if parsed is None:
                continue
            status, body, consumed = parsed
            del connection.inbuf[:consumed]
            outcome = connection.outcome
            if outcome is None:
                continue
            outcome.done = time.perf_counter()
            outcome.status = status
            outcome.body = body
            connection.outcome = None
            finished.append(outcome)
        now = time.perf_counter()
        for connection in list(self._connections):
            if connection.outcome is not None and now > connection.deadline:
                self._fail(connection, "timeout", finished)

    def _idle(self) -> List[_Connection]:
        return [c for c in self._connections if c.outcome is None]

    def _busy(self) -> bool:
        return any(c.outcome is not None for c in self._connections)

    # ------------------------------------------------------------------ #
    def open_loop(self, dues: Sequence[float], payloads: Sequence[bytes]) -> List[Outcome]:
        """Send ``payloads[i]`` at ``start + dues[i]`` (seconds, ascending)."""
        if len(dues) != len(payloads):
            raise ValueError("one due time per payload")
        start = time.perf_counter() + 0.01
        outcomes = [Outcome(index=i, due=start + due) for i, due in enumerate(dues)]
        waiting: Deque[Outcome] = collections.deque()
        finished: List[Outcome] = []
        next_index = 0
        while len(finished) < len(outcomes):
            now = time.perf_counter()
            while next_index < len(outcomes) and outcomes[next_index].due <= now:
                outcomes[next_index].noticed = now
                waiting.append(outcomes[next_index])
                next_index += 1
            for connection in self._idle():
                if not waiting:
                    break
                outcome = waiting.popleft()
                self._send(connection, outcome, payloads[outcome.index], finished)
            if next_index < len(outcomes):
                timeout = outcomes[next_index].due - time.perf_counter()
            else:
                timeout = self._timeout_s
            if self._busy():
                self._poll(timeout, finished)
            elif timeout > 0:
                time.sleep(timeout)
        return outcomes

    def closed_loop(self, payloads: Sequence[bytes], duration_s: float) -> Tuple[List[Outcome], float]:
        """Keep every connection busy for ``duration_s``; cycle ``payloads``.

        Returns the outcomes of requests sent before the end and the
        elapsed time from the first send to the last completion.
        """
        outcomes: List[Outcome] = []
        finished: List[Outcome] = []
        start = time.perf_counter()
        end = start + duration_s
        cursor = 0
        while True:
            now = time.perf_counter()
            if now < end:
                for connection in self._idle():
                    outcome = Outcome(index=cursor % len(payloads), due=now, noticed=now)
                    outcomes.append(outcome)
                    cursor += 1
                    self._send(connection, outcome, payloads[outcome.index], finished)
            elif not self._busy():
                break
            self._poll(end - now if now < end else self._timeout_s, finished)
        last = max((o.done for o in outcomes), default=start)
        return outcomes, last - start


def poisson_dues(rng, rate: float, count: int) -> List[float]:
    """``count`` arrival offsets of a Poisson process of ``rate`` per second."""
    dues: List[float] = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        dues.append(t)
    return dues


def backlog_grew(outcomes: Sequence[Outcome], slack_s: float) -> bool:
    """Did the queue grow across the step?

    Compares the median latency of the last tenth of the step (by due
    time) with that of its first tenth: a backlog that keeps growing adds
    its queueing delay to every later request.  ``slack_s`` absorbs
    ordinary jitter.
    """
    count = len(outcomes)
    tenth = max(1, count // 10)
    ordered = sorted(outcomes, key=lambda o: o.due)
    first = sorted(o.latency for o in ordered[:tenth])
    last = sorted(o.latency for o in ordered[-tenth:])
    return last[len(last) // 2] - first[len(first) // 2] > slack_s
