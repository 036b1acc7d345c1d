"""The load generator: a closed loop per connection over a real socket.

One process, at most ``nproc`` connections.  Each connection keeps
exactly one request outstanding: it sends the next frame only after the
previous answer arrived and was checked.  Request bodies are encoded
before timing starts; only the wire id is spliced in per send.

Every answer is checked against the oracle: a read's payload must hold
the expected ``"result":...`` bytes; a write must come back ``ok`` and
durable (``acked == version``); a read-your-write must return exactly
the node that connection's last write created.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import struct
import time
from dataclasses import dataclass, field

from workloads import Request, apply_body, frame, ryw_body, write_label

_LEN = struct.Struct(">I")
_OPS = re.compile(rb'"ops":(\d+)')
_SUPERSTEPS = re.compile(rb'"supersteps":(\d+)')

#: A request that takes longer than this fails the run (a hung server).
STALL_SECONDS = 60.0
#: How often a timed phase reads the server's CPU time.
MARK_SECONDS = 0.5


class BenchFailure(RuntimeError):
    """A wrong answer, a non-``ok`` status, or a dead connection."""


@dataclass
class Tally:
    """What one phase of closed-loop traffic observed."""

    read_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    by_key: dict[str, list[int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    resp_bytes: int = 0
    ops: int = 0
    supersteps: int = 0
    acked: list[tuple[str, int, int]] = field(default_factory=list)  # label, node, version
    elapsed_s: float = 0.0
    client_cpu_s: float = 0.0
    probes: list[tuple[int, int]] = field(default_factory=list)  # server's (when, CPU ns)
    probe_ns: float = 0.0  # their mean
    done_ns: list[int] = field(default_factory=list)  # every completion
    read_done_ns: list[int] = field(default_factory=list)  # aligned with read_ns
    marks: list[tuple] = field(default_factory=list)  # (when, *mark())

    @property
    def completed(self) -> int:
        return len(self.read_ns) + len(self.write_ns)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)


class Connection:
    """One socket, one outstanding request, one position in a sequence."""

    def __init__(self, port: int, index: int, sequence: list[int], requests, anchor: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.index = index
        self.sequence = sequence
        self.requests: list[Request] = requests
        self.anchor = anchor
        self.pos = 0
        self.writes = 0
        self.buf = bytearray()
        self.rid = 0
        self.sent_rid = 0
        self.current: "Request | None" = None
        self.expected = b""
        self.sent_ns = 0
        self.last_write_node: "int | None" = None
        self.last_write_label = ""

    def close(self) -> None:
        self.sock.close()

    def next_rid(self) -> int:
        self.rid += 1
        return self.index * 100_000_000 + self.rid

    def send_next(self) -> None:
        req = self.requests[self.sequence[self.pos % len(self.sequence)]]
        self.pos += 1
        body, self.expected = req.body, req.expected
        if req.kind == "apply":
            self.last_write_label = write_label(self.index, self.writes)
            self.writes += 1
            body = apply_body(self.anchor, self.last_write_label)
        elif req.kind == "ryw":
            body = ryw_body(self.last_write_label)
            self.expected = b'"result":[%d]' % self.last_write_node
        self.current = req
        self.sent_ns = time.perf_counter_ns()
        self.sent_rid = self.next_rid()
        self.sock.sendall(frame(self.sent_rid, body))

    def take_frame(self) -> "bytes | None":
        if len(self.buf) < 4:
            return None
        (n,) = _LEN.unpack_from(self.buf)
        if len(self.buf) < 4 + n:
            return None
        payload = bytes(self.buf[4 : 4 + n])
        del self.buf[: 4 + n]
        return payload


def check(conn: Connection, payload: bytes, tally: Tally, count: bool) -> None:
    """Record one answer; a wrong one counts as failed."""
    req = conn.current
    elapsed = time.perf_counter_ns() - conn.sent_ns
    tally.attempted += 1
    if count:
        tally.resp_bytes += 4 + len(payload)
    rid_ok = (b'"id":%d,' % conn.sent_rid) in payload
    if req.kind == "apply":
        response = json.loads(payload)
        result = response.get("result") or {}
        if (
            not rid_ok
            or response.get("status") != "ok"
            or result.get("acked") != result.get("version")
        ):
            tally.fail(f"apply: {payload[:200]!r}")
            conn.last_write_node = -1
            return
        conn.last_write_node = result["nodes"]["n"]
        tally.acked.append((conn.last_write_label, conn.last_write_node, result["version"]))
        tally.write_ns.append(elapsed)
        tally.done_ns.append(conn.sent_ns + elapsed)
        return
    if not rid_ok or b'"status":"ok"' not in payload or conn.expected not in payload:
        tally.fail(f"{req.key}: {payload[:200]!r}")
        return
    if count and req.layer == "rpq":
        m = _OPS.search(payload)
        s = _SUPERSTEPS.search(payload)
        tally.ops += int(m.group(1)) if m else 0
        tally.supersteps += int(s.group(1)) if s else 0
    tally.read_ns.append(elapsed)
    tally.read_done_ns.append(conn.sent_ns + elapsed)
    tally.done_ns.append(conn.sent_ns + elapsed)
    tally.by_key.setdefault(req.key, []).append(elapsed)


def closed_loop(conns: list[Connection], seconds: float, *, limit: "int | None" = None,
                count: bool = False, mark=None) -> Tally:
    """Drive every connection for ``seconds`` (or ``limit`` requests each).

    ``mark()``, if given, is read every :data:`MARK_SECONDS` (and at both
    ends) so the phase can be cut into blocks afterwards.
    """
    tally = Tally()
    sel = selectors.DefaultSelector()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    next_mark = t0
    if mark is not None:
        tally.marks.append((time.perf_counter_ns(), *mark()))
        next_mark += MARK_SECONDS
    sent = {c: 0 for c in conns}
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        conn.send_next()
        sent[conn] = 1
    active = len(conns)
    try:
        while active:
            events = sel.select(timeout=STALL_SECONDS)
            if not events:
                raise BenchFailure(f"no answer within {STALL_SECONDS:.0f} s")
            for key, _ in events:
                conn = key.data
                data = conn.sock.recv(1 << 20)
                if not data:
                    raise BenchFailure("server closed the connection")
                conn.buf += data
                payload = conn.take_frame()
                if payload is None:
                    continue
                check(conn, payload, tally, count)
                if mark is not None and time.perf_counter() >= next_mark:
                    tally.marks.append((time.perf_counter_ns(), *mark()))
                    next_mark += MARK_SECONDS
                more = sent[conn] < limit if limit is not None else time.perf_counter() < deadline
                if more:
                    conn.send_next()
                    sent[conn] += 1
                else:
                    sel.unregister(conn.sock)
                    active -= 1
    finally:
        sel.close()
    tally.elapsed_s = time.perf_counter() - t0
    tally.client_cpu_s = time.process_time() - cpu0
    if mark is not None:
        tally.marks.append((time.perf_counter_ns(), *mark()))
    return tally


def call(conn: Connection, request: dict) -> dict:
    """One control request (``stats``), answered and decoded."""
    body = json.dumps(request, separators=(",", ":"), sort_keys=True).encode()[1:]
    conn.sock.sendall(frame(conn.next_rid(), body))
    conn.sock.settimeout(STALL_SECONDS)
    try:
        while (payload := conn.take_frame()) is None:
            data = conn.sock.recv(1 << 20)
            if not data:
                raise BenchFailure("server closed the connection")
            conn.buf += data
    finally:
        conn.sock.settimeout(None)
    return json.loads(payload)
