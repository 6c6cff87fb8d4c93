"""Load generator for the serve workload, run as its own process.

Reads a plan (JSON on standard input), sends it to a running ``repro
serve`` HTTP endpoint over keep-alive connections, and prints the results
(JSON on standard output).  Running the client outside the server's
process keeps its work off the server's interpreter lock.

One thread drives every connection with non-blocking sockets.  It pins
itself to the server's ``cpu`` at idle priority and polls instead of
sleeping, so it runs only while the server waits, and the server preempts
it as soon as a request wakes a server thread.  No request then waits for
another CPU to wake up or be scheduled: on a shared virtual machine that
wait varied by milliseconds from run to run and was charged to the server
as latency.

Plan::

    {"port": 8405, "connections": 2,
     "cpu": 0, "expected": {"0x..": "<sha256 of the expected body>", ...},
     "steps": [{"rate": 100, "addresses": ["0x..", ...]}, ...],
     "closed": {"seconds": 6.0, "window_s": 0.5, "addresses": ["0x..", ...]}}

Each open-loop step sends address ``i`` at ``start + i / rate`` (open
loop: the schedule does not wait for replies), request ``i`` on connection
``i % connections``, and reports every request as ``[due, sent, done,
status, address, digest]``: times in seconds from the start of the step,
``digest`` empty when the body matched ``expected``, else the body's
sha256.  The closed-loop step sends back to back on every connection until
its time is up and reports totals, plus the replies completed in each
whole ``window_s`` of it (it sends thousands of requests a second).
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import socket
import sys
import time

clock = time.perf_counter


class _Lane:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, port: int, expected: dict[str, str]) -> None:
        self.expected = expected
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = bytearray()
        self.pending: list | None = None      # [due, sent, address]

    def send(self, due: float, address: str) -> None:
        self.pending = [due, clock(), address]
        self.sock.sendall(f"GET /v1/contract/{address} HTTP/1.1\r\n"
                          f"Host: 127.0.0.1\r\n\r\n".encode("ascii"))

    def receive(self) -> list | None:
        """Read what arrived; the finished row once a reply is complete."""
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return None
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.buffer[:head_end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body = bytes(self.buffer[head_end + 4:end])
        del self.buffer[:end]
        due, sent, address = self.pending
        self.pending = None
        digest = hashlib.sha256(body).hexdigest()
        return [due, sent, clock(), int(head[0].split()[1]), address,
                "" if self.expected.get(address) == digest else digest]

    def close(self) -> None:
        self.sock.close()


def _drive(port: int, connections: int, expected: dict[str, str],
           next_request) -> list[list]:
    """Run lanes until ``next_request(lane, now)`` has nothing more to send
    and every reply is in.  It returns ``(due, address)`` to send now,
    ``None`` to wait, or ``False`` when the lane is finished."""
    lanes = [_Lane(port, expected) for _ in range(connections)]
    finished = [False] * connections
    rows: list[list] = []
    try:
        while True:
            now = clock()
            for index, lane in enumerate(lanes):
                if lane.pending is None and not finished[index]:
                    request = next_request(index, now)
                    if request is False:
                        finished[index] = True
                    elif request is not None:
                        lane.send(*request)
            busy = [lane for lane in lanes if lane.pending is not None]
            if not busy and all(finished):
                return rows
            readable, _, _ = select.select([lane.sock for lane in busy],
                                           [], [], 0)
            for index, lane in enumerate(lanes):
                if lane.sock not in readable:
                    continue
                try:
                    row = lane.receive()
                except OSError:
                    # A dropped connection fails its request; reconnect.
                    due, sent, address = lane.pending
                    row = [due, sent, clock(), 0, address, ""]
                    lane.close()
                    lanes[index] = _Lane(port, expected)
                if row is not None:
                    rows.append(row)
    finally:
        for lane in lanes:
            lane.close()


def open_step(port: int, connections: int, expected: dict[str, str],
              rate: float, addresses: list[str]) -> list[list]:
    start = clock() + 0.01
    cursor = list(range(connections))

    def next_request(lane: int, now: float):
        number = cursor[lane]
        if number >= len(addresses):
            return False
        due = start + number / rate
        if due > now:
            return None
        cursor[lane] += connections
        return due, addresses[number]

    rows = _drive(port, connections, expected, next_request)
    return sorted([due - start, sent - start, done - start, status, address,
                   digest] for due, sent, done, status, address, digest
                  in rows)


def closed_step(port: int, connections: int, expected: dict[str, str],
                seconds: float, window_s: float,
                addresses: list[str]) -> dict:
    start = clock()
    until = start + seconds
    cursor = list(range(connections))

    def next_request(lane: int, now: float):
        if now >= until:
            return False
        address = addresses[cursor[lane] % len(addresses)]
        cursor[lane] += connections
        return now, address

    rows = _drive(port, connections, expected, next_request)
    statuses: dict[int, int] = {}
    windows = [0] * max(1, int(seconds / window_s))
    for row in rows:
        statuses[row[3]] = statuses.get(row[3], 0) + 1
        window = int((row[2] - start) / window_s)
        if window < len(windows):
            windows[window] += 1
    return {"count": len(rows), "windows": windows,
            "seconds": max((row[2] for row in rows), default=start) - start,
            "statuses": statuses,
            "service_s": sum(row[2] - row[1] for row in rows),
            "unmatched": [[row[4], row[5]] for row in rows
                          if row[3] == 200 and row[5]]}


def main() -> int:
    plan = json.load(sys.stdin)
    os.sched_setaffinity(0, {plan["cpu"]})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    port, connections = plan["port"], plan["connections"]
    expected = plan["expected"]
    steps = [open_step(port, connections, expected, step["rate"],
                       step["addresses"])
             for step in plan["steps"]]
    closed = closed_step(port, connections, expected,
                         plan["closed"]["seconds"],
                         plan["closed"]["window_s"],
                         plan["closed"]["addresses"])
    json.dump({"steps": steps, "closed": closed}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
