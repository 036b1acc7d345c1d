"""Server entry: build a query service from generated inputs and serve it.

    python3 perfbench/server.py --inputs FILE [--store DIR] [--trace] [--cpu N]

The process loads the input document the benchmark wrote (node ids, root,
labelled edges), builds the graph, and starts a real
:class:`~repro.service.AsyncQueryServer` on an ephemeral localhost port.
With ``--store`` it first creates a :class:`~repro.storage.mvcc.
VersionedGraphStore` over the graph in ``DIR`` and serves from it, which
enables ``apply`` writes.  It prints ``READY <port>`` once listening.

While serving it times a fixed pure-Python walk (:class:`HostProbe`)
every :data:`PROBE_EVERY_S` seconds, in CPU time on the server's own
thread: the host's current speed, which the benchmark divides out of its
timings.  ``--cpu N`` pins the process to CPU ``N`` first.  With ``--trace`` it also installs timing wrappers (see
:mod:`spans`).  Each ``SIGUSR1`` writes what was recorded since the last
one -- probe samples and, when traced, spans -- to the next
``DIR/dump-<k>.json``, where ``DIR`` holds the input file, so the
benchmark can cut one run into phases.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, install  # noqa: E402
from workloads import inputs_to_graph  # noqa: E402

from repro.service import AsyncQueryServer, QueryService  # noqa: E402
from repro.storage.mvcc import VersionedGraphStore  # noqa: E402

#: One event-loop thread runs one query at a time; a second connection's
#: request waits in the governor's queue, which is what makes the queue
#: wait measurable.  The queue is far deeper than the two connections
#: can fill, so nothing is ever shed.
MAX_INFLIGHT = 1
MAX_QUEUE = 16


#: A probe runs every this many seconds (about 1% of a core).
PROBE_EVERY_S = 0.1


class HostProbe:
    """A fixed walk over a 50k-key dict, timed in this thread's CPU time.

    The walk visits keys in shuffled order, so like the interpreter's own
    dict and list work it slows when a neighbour on the host takes the
    caches.  It allocates nothing a garbage collector tracks, so its time
    does not depend on the server's heap.
    """

    def __init__(self) -> None:
        import random

        self.keys = [f"k{i}" for i in range(50_000)]
        self.table = {key: i for i, key in enumerate(self.keys)}
        self.walk = random.Random(0).sample(range(len(self.keys)), 1000)
        self.samples: list[tuple[int, int]] = []  # (when, CPU ns)

    def once(self) -> None:
        table, keys = self.table, self.keys
        start = time.thread_time_ns()
        total = 0
        for i in self.walk:
            total += table[keys[i]]
        self.samples.append((time.perf_counter_ns(), time.thread_time_ns() - start))

    async def run(self, recorder: "SpanRecorder | None") -> None:
        while True:
            await asyncio.sleep(PROBE_EVERY_S)
            if recorder is None:
                self.once()
                continue
            idx = recorder.open("bench.probe")  # other work, not a request's
            self.once()
            recorder.close(idx)


async def serve(service: QueryService, recorder: "SpanRecorder | None", out: Path) -> None:
    server = AsyncQueryServer(service, "127.0.0.1", 0)
    await server.start()
    host = HostProbe()
    prober = asyncio.ensure_future(host.run(recorder))
    dumps = iter(range(1, 1_000_000))

    def dump() -> None:
        path = out / f"dump-{next(dumps)}.json"
        doc = {"probe_ns": host.samples, "trace": recorder.drain() if recorder else None}
        host.samples = []
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.rename(path)

    asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, dump)
    print(f"READY {server.bound_port}", flush=True)
    try:
        await server.serve_forever()
    finally:
        prober.cancel()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    graph = inputs_to_graph(json.loads(Path(args.inputs).read_text()))
    limits = {"max_inflight": MAX_INFLIGHT, "max_queue": MAX_QUEUE}
    if args.store:
        # no automatic checkpoint fold inside a run: a fold landing in
        # one run and not the next would set the write numbers
        store = VersionedGraphStore.create(args.store, graph, checkpoint_every=None)
        service = QueryService(store=store, **limits)
    else:
        service = QueryService(graph, **limits)
    recorder = None
    if args.trace:  # after set-up: only served requests are traced
        recorder = SpanRecorder()
        install(recorder)
    asyncio.run(serve(service, recorder, Path(args.inputs).parent))


if __name__ == "__main__":
    main()
