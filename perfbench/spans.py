"""Timing wrappers around the service's public calls, and span arithmetic.

:func:`install` replaces each name at the place its caller looks it up
(a module global such as ``repro.service.server.encode_frame``, or a
class attribute such as ``WriteAheadLog.sync``) with a wrapper that
records a span: name, start, end, parent span and the request's wire id.
Nothing inside ``src/`` changes; the wrappers live only in a traced
server process.

Spans are kept in memory (:class:`SpanRecorder`) and written out by the
server entry when the benchmark asks.  :func:`layer_times` turns them into
per-request self-times per layer, plus the two remainders:

* ``server.wait_ms``: time the request was pending while the server ran
  other requests' spans (with one query slot, mostly the governor queue);
* ``server.other_ms``: the rest of the request's server-side time --
  event-loop scheduling, socket reads and writes, the yield after every
  superstep.

A request's server-side time runs from the start of decoding its frame to
the end of encoding its response.  Its layer self-times, ``wait`` and
``other`` add up to it; :func:`layer_times` checks that ``other`` never
goes negative beyond :data:`ACCOUNT_TOLERANCE`, which would mean spans
overlap or were counted twice.
"""

from __future__ import annotations

import bisect
import functools
from collections import defaultdict
from time import perf_counter_ns

#: Spans charged to another layer than their own name; every other span
#: name is its layer.  ``bench.probe`` is the host probe, not a request's.
CHARGED_TO = {"server.exec": "server.dispatch"}

#: Largest negative remainder accepted, as a share of a request's time.
ACCOUNT_TOLERANCE = 0.01


class SpanRecorder:
    """An in-memory span buffer for one single-threaded server process.

    A span is ``[name, start_ns, end_ns, parent, rid, value]``; ``parent``
    indexes the same buffer (-1 for a top-level span) and ``value`` is an
    optional count (bytes written, for instance).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid = None  # the wire id of the request being worked on
        self.queued: dict[int, int] = {}  # rid -> time its ticket was queued
        self.waits: list[tuple[int, int]] = []  # (rid, ns spent queued)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.rid, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, value=None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        if value is not None:
            span[5] = value
        self.stack.pop()

    def drain(self) -> dict:
        """Hand over everything recorded so far and start empty."""
        out = {"spans": self.spans, "waits": self.waits}
        self.spans, self.waits = [], []
        return out

    # -- wrapper factories -----------------------------------------------------

    def timed(self, name: str, fn, *, rid_of=None, value_of=None, when=None):
        """``fn`` wrapped in a span; ``rid_of(args)`` names the request."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            saved = self.rid
            if rid_of is not None:
                self.rid = rid_of(args)
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, value_of(result) if value_of and result is not None else None)
                self.rid = saved

        return wrapper


def install(rec: SpanRecorder) -> None:
    """Wrap every traced call at the name its caller looks up."""
    import repro.sqlbackend as sqlbackend
    import repro.sqlbackend.backend as sql_backend_module
    import repro.storage.mvcc as mvcc
    from repro.core.frozen import FrozenGraph
    from repro.core.graph import Graph
    from repro.service import server
    from repro.service.governor import AdmissionGovernor
    from repro.storage.wal import WriteAheadLog

    def request_id(args):
        request = args[-1]
        return request.get("id") if isinstance(request, dict) else None

    # -- service.protocol ------------------------------------------------------
    class TracedFrameDecoder(server.FrameDecoder):
        def feed(self, data):
            frames = super().feed(data)
            while True:
                start = perf_counter_ns()
                try:
                    obj = next(frames)
                except StopIteration:
                    return
                rec.spans.append(
                    ["protocol.decode", start, perf_counter_ns(), -1, obj.get("id"), None]
                )
                yield obj

    server.FrameDecoder = TracedFrameDecoder
    server.encode_frame = rec.timed(
        "protocol.encode", server.encode_frame, rid_of=request_id, value_of=len
    )

    # -- service.server / service.governor -------------------------------------
    QueryService, QueryTask = server.QueryService, server.QueryTask
    QueryService.submit = rec.timed("server.dispatch", QueryService.submit, rid_of=request_id)
    admit = rec.timed("governor.admit", AdmissionGovernor.admit)

    @functools.wraps(admit)
    def admit_and_note_queue(self, key, **kwargs):
        ticket = admit(self, key, **kwargs)
        if not ticket.admitted:
            rec.queued[rec.rid] = perf_counter_ns()
        return ticket

    AdmissionGovernor.admit = admit_and_note_queue
    steps = QueryTask.steps

    @functools.wraps(steps)
    def traced_steps(task):
        gen = steps(task)
        rid = task.request_id
        try:
            while True:
                if rid in rec.queued and task.ticket is not None and task.ticket.admitted:
                    rec.waits.append((rid, perf_counter_ns() - rec.queued.pop(rid)))
                saved, rec.rid = rec.rid, rid
                idx = rec.open("server.exec")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                    rec.rid = saved
                yield item
        finally:
            gen.close()

    QueryTask.steps = traced_steps

    # -- automata (plan cache + kernel) ----------------------------------------
    class TracedStepper(server.RpqStepper):
        __init__ = rec.timed("automata.compile", server.RpqStepper.__init__)
        step = rec.timed("automata.step", server.RpqStepper.step)

    server.RpqStepper = TracedStepper

    # -- the section-3/4 evaluators --------------------------------------------
    server.lorel = rec.timed("lorel.eval", server.lorel)
    server.lorel_rows = rec.timed("lorel.eval", server.lorel_rows)
    server.unql = rec.timed("unql.eval", server.unql)
    server.to_obj = rec.timed("unql.eval", server.to_obj)
    server.where_is = rec.timed("browse.find", server.where_is)
    for name in ("sql_backend_for", "lorel_sql_backend_for", "unql_sql"):
        setattr(sqlbackend, name, rec.timed("sqlbackend.eval", getattr(sqlbackend, name)))
    sqlbackend.SqlBackend.rpq_nodes = rec.timed(
        "sqlbackend.eval", sqlbackend.SqlBackend.rpq_nodes
    )
    sqlbackend.LorelSqlBackend.evaluate = rec.timed(
        "sqlbackend.eval", sqlbackend.LorelSqlBackend.evaluate
    )

    # -- core.frozen: every FrozenGraph built from a Graph ---------------------
    def from_graph(args):
        return not isinstance(args[0], FrozenGraph)

    for module in (server, mvcc, sql_backend_module):
        module.freeze = rec.timed("frozen.freeze", module.freeze, when=from_graph)
    Graph.freeze = rec.timed("frozen.freeze", Graph.freeze)

    # -- storage.mvcc / storage.wal --------------------------------------------
    store = mvcc.VersionedGraphStore
    store.commit = rec.timed("mvcc.commit", store.commit)
    store.view = rec.timed("mvcc.publish", store.view)
    WriteAheadLog.append = rec.timed("wal.append", WriteAheadLog.append, value_of=int)
    WriteAheadLog.sync = rec.timed("wal.sync", WriteAheadLog.sync)


# -- analysis (client side) ------------------------------------------------------


def layer_times(dump: dict) -> dict:
    """Per-request self-time per layer, request times and the remainders.

    Returns ``{"requests": n, "layers": {layer: total_ns}, "counts":
    {span name: (calls, summed value)}, "request_ns": total, "wait_ns":
    total, "other_ns": total, "queue_ns": total, "worst_remainder":
    share}`` over the requests whose decode and encode both fall in the
    dump.
    """
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    layers: dict[str, int] = defaultdict(int)
    counts: dict[str, list] = defaultdict(lambda: [0, 0])
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    own: dict[int, int] = defaultdict(int)
    top: list[tuple[int, int, object]] = []
    for i, (name, t0, t1, parent, rid, value) in enumerate(spans):
        layers[CHARGED_TO.get(name, name)] += (t1 - t0) - child_ns[i]
        tally = counts[name]
        tally[0] += 1
        tally[1] += value or 0
        if parent < 0:
            top.append((t0, t1, rid))
            if rid is not None:
                own[rid] += t1 - t0
        if name == "protocol.decode" and rid not in start:
            start[rid] = t0
        elif name == "protocol.encode":
            end[rid] = t1
    top.sort()
    starts = [t0 for t0, _, _ in top]
    cumulative = [0]
    for t0, t1, _ in top:
        cumulative.append(cumulative[-1] + (t1 - t0))

    def busy(lo: int, hi: int) -> int:
        """Server time inside top-level spans within [lo, hi]."""
        i = bisect.bisect_left(starts, lo)
        j = bisect.bisect_right(starts, hi)
        total = cumulative[j] - cumulative[i]
        if i > 0 and top[i - 1][1] > lo:  # a span straddling lo
            total += min(top[i - 1][1], hi) - lo
        if j > i and top[j - 1][1] > hi:  # the last one runs past hi
            total -= top[j - 1][1] - hi
        return total

    done = [rid for rid in end if rid in start]
    request_ns = wait_ns = other_ns = 0
    worst = 0.0
    for rid in done:
        total = end[rid] - start[rid]
        wait = busy(start[rid], end[rid]) - own[rid]
        other = total - own[rid] - wait
        request_ns += total
        wait_ns += wait
        other_ns += other
        if total > 0:
            worst = min(worst, other / total)
    queue = {rid: ns for rid, ns in dump["waits"]}
    return {
        "requests": len(done),
        "layers": dict(layers),
        "counts": {k: tuple(v) for k, v in counts.items()},
        "request_ns": request_ns,
        "wait_ns": wait_ns,
        "other_ns": other_ns,
        "queue_ns": sum(queue.get(rid, 0) for rid in done),
        "worst_remainder": worst,
    }
