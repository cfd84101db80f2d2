"""Open-loop HTTP load generator (stdlib only).

One process, one thread per keep-alive connection (callers keep to at
most one connection per CPU, so the generator's own threads do not
queue behind each other).  Every request has
a fixed due time and a fixed connection, so the schedule never slows
down when the server does: a stalled response delays the requests
queued behind it on that connection, and because latency is measured
from each request's *due* time, that wait shows in their latencies.
``late`` (send time minus due time) records how far behind schedule
each send went out, whether the generator or the server held it back.

A closed-loop mode (``deadline`` set) sends each connection's requests
back to back, ignoring due times, until the deadline: the throughput a
client gets when it always waits for the previous reply.

Any status other than 200 (429 and 503 included), a timeout and a
connection error all count as failed.
"""

from __future__ import annotations

import http.client
import threading
import time
from typing import List, NamedTuple, Optional, Sequence


class Request(NamedTuple):
    #: seconds after the schedule starts
    due: float
    connection: int
    path: str
    body: bytes


class Result(NamedTuple):
    request: Request
    #: seconds after the schedule starts
    sent: float
    done: float
    #: HTTP status; 0 for a timeout or connection error
    status: int
    body: Optional[bytes]

    @property
    def failed(self) -> bool:
        return self.status != 200

    @property
    def latency(self) -> float:
        """Seconds from the due time (open loop) to the reply."""
        return self.done - self.request.due

    @property
    def late(self) -> float:
        return max(0.0, self.sent - self.request.due)


def run(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int,
    timeout: float = 10.0,
    deadline: Optional[float] = None,
) -> List[Result]:
    """Send ``requests`` and return one :class:`Result` per request
    sent, in schedule order.  With ``deadline`` (seconds) the run is
    closed-loop and stops sending once the deadline has passed; the
    due time of each result is then its send time."""
    lanes: List[List[Request]] = [[] for _ in range(connections)]
    for request in sorted(requests, key=lambda r: r.due):
        lanes[request.connection].append(request)
    results: List[List[Result]] = [[] for _ in range(connections)]
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=_lane,
            args=(host, port, lane, results[index], start, timeout, deadline),
            name=f"loadgen-{index}",
        )
        for index, lane in enumerate(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = [result for lane in results for result in lane]
    merged.sort(key=lambda result: (result.request.due, result.request.connection))
    return merged


def _lane(host, port, lane, out, start, timeout, deadline) -> None:
    connection = None
    for request in lane:
        now = time.perf_counter() - start
        if deadline is not None:
            if now >= deadline:
                break
            request = request._replace(due=now)
        elif request.due > now:
            time.sleep(request.due - now)
        if connection is None:
            connection = http.client.HTTPConnection(host, port, timeout=timeout)
        sent = time.perf_counter() - start
        try:
            connection.request(
                "POST", request.path, body=request.body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
            status = response.status
            if response.getheader("Connection", "").lower() == "close":
                connection.close()
                connection = None
        except (OSError, http.client.HTTPException):
            status, body = 0, None
            connection.close()
            connection = None
        out.append(Result(request, sent, time.perf_counter() - start, status, body))
    if connection is not None:
        connection.close()
