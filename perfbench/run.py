"""The serving benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
inputs from ``--seed``, starts the query server from source
(``perfbench/server.py`` over ``src/``), sets it up and warms it up, then
drives it for ``--seconds`` with a closed-loop client over localhost TCP
and checks every answer.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: half the time untraced (the reference for the tracing
overhead), then an exact-count phase and half the time against a server
with timing wrappers installed (see ``perfbench/spans.py``).  The line
before the result is the run record: host, load, sample counts and the
per-request-kind latency table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A block of the timed phase spans at least this long (20 probe samples)
#: and holds at least this many reads (ten beyond p90).
MIN_BLOCK_SECONDS = 2.0
MIN_BLOCK_READS = 100
#: How long a server may take to start listening.
READY_SECONDS = 120.0
#: The server's probe (a fixed dict walk, see server.py) at the reference
#: host speed, in CPU nanoseconds.  Timed metrics are scaled by (the mean
#: probe over the same stretch of the run) / REF_PROBE_NS, so a run on a
#: host slowed by its neighbours reports what the same work costs at
#: reference speed (see :func:`blocks` for stolen CPU time).
REF_PROBE_NS = 850_000
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


#: With two CPUs or more, the server and the client each get one of their
#: own: no migrations, and the client never queues behind the server.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) >= 2 else (None, None)


def fail_setup(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- host record -----------------------------------------------------------------


def host_state() -> dict:
    """Load average and CPU steal ticks (all CPUs, then each), to explain a noisy run."""
    load1 = float(Path("/proc/loadavg").read_text().split()[0])
    steal = [
        int(f[8]) if len(f) > 8 else 0
        for f in (line.split() for line in Path("/proc/stat").read_text().splitlines())
        if f and f[0].startswith("cpu")
    ]
    return {"loadavg_1m": load1, "steal_ticks": steal[0], "steal_ticks_per_cpu": steal[1:]}


def fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    real = str(path.resolve())
    for line in Path("/proc/mounts").read_text().splitlines():
        parts = line.split()
        mount = parts[1]
        if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
            best, kind = mount, parts[2]
    return kind


def git_sha() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def stolen_ticks() -> int:
    """Ticks the hypervisor took from the server's and the client's CPUs."""
    ours = {f"cpu{c}" for c in (SERVER_CPU, CLIENT_CPU) if c is not None} or {"cpu"}
    return sum(
        int(f[8])
        for f in (line.split() for line in Path("/proc/stat").read_text().splitlines())
        if f and f[0] in ours and len(f) > 8
    )


def proc_hwm_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# -- the server process ------------------------------------------------------------


class Server:
    """One spawned server entry; always killed and reaped by :meth:`stop`."""

    def __init__(self, inputs: Path, *, store: "Path | None", trace: bool, tag: str):
        cmd = [sys.executable, str(HERE / "server.py"), "--inputs", str(inputs)]
        if store is not None:
            cmd += ["--store", str(store)]
        if trace:
            cmd += ["--trace"]
        if SERVER_CPU is not None:
            cmd += ["--cpu", str(SERVER_CPU)]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.out = inputs.parent
        self.dumps = 0
        self.stderr = open(WORK / f"server-{tag}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.stderr, env=env, cwd=ROOT
        )
        line = self._ready_line()
        if not line.startswith(b"READY "):
            self.stop()
            raise RuntimeError(f"server did not start (see {self.stderr.name}): {line!r}")
        self.port = int(line.split()[1])

    def _ready_line(self) -> bytes:
        import selectors

        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=READY_SECONDS):
                return b""
        return self.proc.stdout.readline()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def dump(self) -> dict:
        """Probe samples and spans recorded since the last dump."""
        self.dumps += 1
        path = self.out / f"dump-{self.dumps}.json"
        path.unlink(missing_ok=True)  # a previous server's
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + READY_SECONDS
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server wrote no dump")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def stop(self) -> None:
        """SIGKILL -- the durability drill needs exactly that -- and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# -- phases --------------------------------------------------------------------------


def warm_up(server: Server, wl) -> "object":
    """One request of every op in the workload; returns its tally."""
    from client import Connection, closed_loop

    firsts: dict[str, int] = {}
    for seq in wl.sequences:
        for ix in seq[:2000]:
            firsts.setdefault(wl.requests[ix].layer + wl.requests[ix].kind, ix)
    order = list(firsts.values())
    if wl.store:  # a read-your-write only makes sense right after its write
        order.sort(key=lambda ix: {"apply": 0, "ryw": 1}.get(wl.requests[ix].kind, 2))
    conn = Connection(server.port, 7, order, wl.requests, wl.anchor)
    try:
        return closed_loop([conn], 0, limit=len(order))
    finally:
        conn.close()


def drill(store_dir: Path, anchor: int, acked: list) -> "str | None":
    """Reopen a SIGKILLed server's store; every acknowledged write must be there."""
    from repro.core.labels import sym
    from repro.storage.mvcc import VersionedGraphStore

    store = VersionedGraphStore(store_dir)
    try:
        graph = store.graph
        newest = max((version for _, _, version in acked), default=0)
        if store.version < newest:
            return f"recovered version {store.version} < acknowledged {newest}"
        present = {(e.label, e.dst) for e in graph.edges_from(anchor)}
        lost = [label for label, node, _ in acked if (sym(label), node) not in present]
        if lost:
            return f"{len(lost)} acknowledged writes lost, first {lost[0]}"
        return None
    finally:
        store.close()


def percentile(values_ns: list, q: float) -> float:
    """The q-quantile in milliseconds (inclusive interpolation)."""
    if len(values_ns) < 2:
        return values_ns[0] / 1e6 if values_ns else 0.0
    cuts = statistics.quantiles(values_ns, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] / 1e6


def blocks(tally) -> list[dict]:
    """The timed phase cut into blocks of MIN_BLOCK_SECONDS and MIN_BLOCK_READS.

    Each block is scaled to reference host speed by what the host did
    during it: the probes' CPU time (how fast the server's CPU ran) and
    the ticks stolen from the server's and the client's CPUs (a closed
    loop stands still while either side waits for its CPU).  The run
    reports the median block.  Completion times are in increasing order
    (one client thread appends them).
    """
    marks, done, reads = tally.marks, tally.done_ns, tally.read_done_ns
    cuts = [0]
    for i in range(1, len(marks)):
        t0, t1 = marks[cuts[-1]][0], marks[i][0]
        n_reads = bisect.bisect_left(reads, t1) - bisect.bisect_left(reads, t0)
        if n_reads >= MIN_BLOCK_READS and t1 - t0 >= MIN_BLOCK_SECONDS * 1e9:
            cuts.append(i)
    if cuts[-1] != len(marks) - 1:  # a short tail joins the block before it
        cuts[-1 if len(cuts) > 1 else len(cuts):] = [len(marks) - 1]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        (t0, cpu0, stolen0), (t1, cpu1, stolen1) = marks[a], marks[b]
        seconds = (t1 - t0) / 1e9
        n = bisect.bisect_left(done, t1) - bisect.bisect_left(done, t0)
        lo, hi = bisect.bisect_left(reads, t0), bisect.bisect_left(reads, t1)
        latencies = tally.read_ns[lo:hi]
        inside = [ns for when, ns in tally.probes if t0 <= when < t1]
        cpu_slow = (statistics.fmean(inside) if inside else tally.probe_ns) / REF_PROBE_NS
        stolen = min(0.5, (stolen1 - stolen0) / (seconds * CLOCK_TICKS))
        slow = cpu_slow / (1 - stolen)
        out.append(
            {
                "seconds": seconds,
                "requests": n,
                "reads": len(latencies),
                "cpu_slowdown": cpu_slow,
                "stolen_share": stolen,
                "throughput_rps": n / seconds * slow,
                "cpu_ms_per_req": 1e3 * (cpu1 - cpu0) / max(1, n) / cpu_slow,
                "read_p50_ms": percentile(latencies, 0.5) / slow,
                "read_p90_ms": percentile(latencies, 0.9) / slow,
            }
        )
    return out


def kind_table(tally) -> dict:
    return {
        key: {
            "n": len(v),
            "p50_ms": round(percentile(v, 0.5), 4),
            "p90_ms": round(percentile(v, 0.9), 4),
        }
        for key, v in sorted(tally.by_key.items(), key=lambda kv: -len(kv[1]))[:40]
    }


# -- the run ----------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    import workloads
    from client import Connection, call, closed_loop
    from spans import ACCOUNT_TOLERANCE, layer_times

    record: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(_CPUS),
        "work_fs": fs_type(WORK),
        "host_start": host_state(),
    }
    wl = workloads.build(workload, seed, scale=scale)
    inputs = WORK / "inputs.json"
    inputs.write_text(json.dumps(workloads.graph_to_inputs(wl.graph)))
    problems: list[str] = []
    attempted = failed = 0
    acked: list = []

    def absorb(tally) -> None:
        nonlocal attempted, failed
        attempted += tally.attempted
        failed += tally.failed
        problems.extend(tally.failures)
        acked.extend(tally.acked)

    servers: list[Server] = []

    def start(tag: str, traced: bool = False) -> "tuple[Server, Path | None]":
        store = WORK / f"store-{tag}" if wl.store else None
        server = Server(inputs, store=store, trace=traced, tag=tag)
        servers.append(server)
        absorb(warm_up(server, wl))
        return server, store

    def timed(server: Server, span_s: float):
        conns = [
            Connection(server.port, i, sequence, wl.requests, wl.anchor)
            for i, sequence in enumerate(wl.sequences)
        ]
        try:
            server.dump()  # start both the probe and the spans afresh
            tally = closed_loop(
                conns, span_s, mark=lambda: (proc_cpu_s(server.pid), stolen_ticks())
            )
            cpu = tally.marks[-1][1] - tally.marks[0][1]
            dump = server.dump()
            stats = call(conns[0], {"op": "stats"})["result"]
        finally:
            for conn in conns:
                conn.close()
        absorb(tally)
        tally.probes = dump["probe_ns"]
        tally.probe_ns = statistics.fmean(ns for _, ns in tally.probes)
        return tally, cpu, stats, dump["trace"]

    def count_phase(server: Server):
        """A fixed request prefix on one connection: its counts repeat exactly."""
        conn = Connection(server.port, 9, wl.count_sequence, wl.requests, wl.anchor)
        try:
            before = call(conn, {"op": "stats"})["result"]
            tally = closed_loop([conn], 0, limit=len(wl.count_sequence), count=True)
            after = call(conn, {"op": "stats"})["result"]
        finally:
            conn.close()
        absorb(tally)
        return tally, before, after

    def finish(server: Server, store: "Path | None") -> None:
        server.stop()
        if store is not None:
            lost = drill(store, wl.anchor, acked)
            if lost:
                problems.append(f"durability drill: {lost}")
        acked.clear()

    metrics: dict = {}
    try:
        if not trace:
            setups = []
            for k in range(SETUPS):
                server, store = start(f"s{k}")
                setups.append(time.perf_counter() - server.started)
                if k < SETUPS - 1:
                    finish(server, store)
            tally, cpu_s, stats, _ = timed(server, seconds)
            rss = proc_hwm_mib(server.pid)
            finish(server, store)
            n = tally.completed
            slow = tally.probe_ns / REF_PROBE_NS  # > 1: the host ran slow
            per_block = blocks(tally)
            metrics = {
                "setup_s": (statistics.median(setups) / slow, "s"),
                **{
                    name: (statistics.median(b[name] for b in per_block), unit)
                    for name, unit in (
                        ("throughput_rps", "1/s"),
                        ("cpu_ms_per_req", "ms"),
                        ("read_p50_ms", "ms"),
                        ("read_p90_ms", "ms"),
                    )
                },
                "server_rss_mib": (rss, "MiB"),
            }
            record["setups_s"] = setups
            record["host_slowdown"] = slow
            record["blocks"] = per_block
            record["unscaled_whole_run"] = {
                "throughput_rps": n / tally.elapsed_s,
                "cpu_ms_per_req": 1e3 * cpu_s / n,
                "read_p50_ms": percentile(tally.read_ns, 0.5),
                "read_p90_ms": percentile(tally.read_ns, 0.9),
                "server_busy_share": cpu_s / tally.elapsed_s,
                "client_cpu_ms_per_req": 1e3 * tally.client_cpu_s / n,
            }
        else:
            # both servers see the same history before their timed half,
            # so the throughput ratio is the tracing overhead alone
            server, store = start("plain")
            count_phase(server)
            plain, _, _, _ = timed(server, seconds / 2)
            finish(server, store)

            server, store = start("traced", traced=True)
            server.dump()  # warm-up: not measured
            exact, before, after = count_phase(server)
            count_spans = layer_times(server.dump()["trace"])
            traced, _, stats, spans = timed(server, seconds / 2)
            timing = layer_times(spans)
            finish(server, store)
            if timing["worst_remainder"] < -ACCOUNT_TOLERANCE:
                problems.append(
                    f"span accounting: a request's remainder is {timing['worst_remainder']:.3%}"
                )
            metrics = per_layer(plain, traced, exact, count_spans, timing, before, after)
            record["account"] = {
                k: timing[k] for k in ("requests", "request_ns", "wait_ns", "other_ns", "queue_ns")
            }
            record["account"]["layers_ns"] = timing["layers"]
            tally = traced
        record["samples"] = {
            "reads": len(tally.read_ns),
            "writes": len(tally.write_ns),
            "reads_beyond_p90": len(tally.read_ns) // 10,
            "writes_beyond_p90": len(tally.write_ns) // 10,
        }
        record["by_kind"] = kind_table(tally)
        record["plan_cache"] = stats.get("plan_cache")
        record["governor"] = stats.get("governor")
    finally:
        for server in servers:
            server.stop()
    record["host_end"] = host_state()
    record["problems"] = problems
    return {
        "record": record,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def per_layer(plain, traced, exact, count_spans, timing, before, after) -> dict:
    """The ``--trace 1`` metrics (see perfbench/README.md for each).

    Times are scaled to reference host speed like the end-to-end ones:
    server-side times by the traced server's probe, write latencies by
    the untraced server's.
    """
    n = max(1, timing["requests"])
    layer = timing["layers"]
    calls = timing["counts"]

    def per_req(name: str, scale: float) -> float:
        return layer.get(name, 0) / n / scale

    def per_call(span: str, name: str, scale: float) -> float:
        k = calls.get(span, (0, 0))[0]
        return layer.get(name, 0) / k / scale if k else 0.0

    def delta(path: str) -> int:
        a, b = before, after
        for part in path.split("."):
            a, b = a[part], b[part]
        return b - a

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    m_exact = max(1, exact.completed)
    commits = count_spans["counts"].get("mvcc.commit", (0, 0))[0]
    hits, misses = delta("plan_cache.hits"), delta("plan_cache.misses")
    admitted, shed = delta("governor.admitted"), delta("governor.shed")
    sql_ok = delta("metrics.service_sql_answered")
    sql_fallback = delta("metrics.service_sql_fallback")
    slow = traced.probe_ns / REF_PROBE_NS
    ms, us = 1e6 * slow, 1e3 * slow
    plain_slow = plain.probe_ns / REF_PROBE_NS
    return {
        "protocol.decode_us": (per_req("protocol.decode", us), "us"),
        "protocol.encode_us": (per_req("protocol.encode", us), "us"),
        "protocol.resp_bytes": (exact.resp_bytes / m_exact, "bytes"),
        "governor.admit_us": (per_req("governor.admit", us), "us"),
        "governor.queue_wait_ms": (timing["queue_ns"] / n / ms, "ms"),
        "governor.shed_share": (share(shed, admitted + shed), "share"),
        "server.dispatch_us": (per_req("server.dispatch", us), "us"),
        "server.wait_ms": (timing["wait_ns"] / n / ms, "ms"),
        "server.other_ms": (timing["other_ns"] / n / ms, "ms"),
        "server.request_ms": (timing["request_ns"] / n / ms, "ms"),
        "automata.compile_us": (per_req("automata.compile", us), "us"),
        "automata.plan_cache_hit_rate": (share(hits, hits + misses), "share"),
        "automata.step_ms": (per_req("automata.step", ms), "ms"),
        "automata.edges_scanned": (exact.ops / m_exact, "count"),
        "automata.supersteps": (exact.supersteps / m_exact, "count"),
        "lorel.eval_ms": (per_req("lorel.eval", ms), "ms"),
        "unql.eval_ms": (per_req("unql.eval", ms), "ms"),
        "browse.find_ms": (per_req("browse.find", ms), "ms"),
        "sqlbackend.eval_ms": (per_req("sqlbackend.eval", ms), "ms"),
        "sqlbackend.answered_share": (share(sql_ok, sql_ok + sql_fallback), "share"),
        "frozen.freeze_ms": (per_req("frozen.freeze", ms), "ms"),
        "frozen.freezes_per_req": (
            count_spans["counts"].get("frozen.freeze", (0, 0))[0] / m_exact, "count"
        ),
        "mvcc.commit_ms": (per_call("mvcc.commit", "mvcc.commit", ms), "ms"),
        "mvcc.publish_ms": (per_req("mvcc.publish", ms), "ms"),
        "wal.append_us": (per_call("wal.append", "wal.append", us), "us"),
        "wal.sync_ms": (per_call("mvcc.commit", "wal.sync", ms), "ms"),
        "wal.bytes_per_commit": (
            share(count_spans["counts"].get("wal.append", (0, 0))[1], commits), "bytes"
        ),
        "wal.fsyncs_per_commit": (
            share(count_spans["counts"].get("wal.sync", (0, 0))[0], commits), "count"
        ),
        "write_p50_ms": (percentile(plain.write_ns, 0.5) / plain_slow, "ms"),
        "write_p90_ms": (percentile(plain.write_ns, 0.9) / plain_slow, "ms"),
        "fail_share": (share(plain.failed, plain.attempted), "share"),
        "client.cpu_ms_per_req": (1e3 * plain.client_cpu_s / max(1, plain.completed), "ms"),
        "host.probe_ms": (traced.probe_ns / 1e6, "ms"),
        # each side's throughput scaled to reference host speed first
        "trace.overhead_share": (
            1
            - (traced.completed / traced.elapsed_s * traced.probe_ns)
            / (plain.completed / plain.elapsed_s * plain.probe_ns),
            "share",
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="graph size factor (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail_setup(f"no src/repro under {ROOT}; run from the root of a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        fail_setup(f"imported repro from {repro.__file__}, not from this checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}")
    if CLIENT_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps({"record": out["record"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
