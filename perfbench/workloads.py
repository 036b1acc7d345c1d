"""Seeded inputs, request families and the answer oracle for each workload.

Everything the server receives is produced here from ``--seed``: the
graph (written to an input file the server entry loads) and the request
sequences the load generator sends.  The expected answer of every
distinct read request is computed up front by calling the library
directly on the same generated graph, so the timed phase only compares
bytes.

The seed draws the traffic: which requests are sent, in which order,
and what the writes add.  The graphs and the request families are fixed
(:data:`GRAPH_SEED`): with the crawl seed varying too, the lookup
family's mean edges scanned per request moved between 367 and 588 over
crawl seeds 1-8, because the number of hosts -- the root's out-degree --
moved between 54 and 79.  A cost mix that moves by a quarter with the
seed would drown every bound, so the seed varies only what a run can
average over.
"""

from __future__ import annotations

import itertools
import json
import random
import struct
import zlib
from dataclasses import dataclass

from repro.automata.product import rpq_nodes
from repro.browse import where_is
from repro.core.builder import to_obj
from repro.core.frozen import freeze
from repro.core.graph import Graph
from repro.core.labels import LabelKind
from repro.datasets.movies import generate_movies
from repro.datasets.webgraph import stream_crawl_edges
from repro.lorel import lorel, lorel_rows
from repro.storage.mvcc import SnapshotView
from repro.unql import unql

#: Seed of the generated databases (the crawl and the movie graph).
GRAPH_SEED = 0
#: Pages in the crawl behind ``lookup``, ``closure`` and ``mixed_write``.
CRAWL_PAGES = 20_000
#: Mean pages per host.  Large hosts keep the root's out-degree (one link
#: per host) near 50, so ``lookup``'s short patterns scan hundreds of
#: edges, not thousands, while the closures still sweep the whole crawl.
CRAWL_MEAN_HOST = 400
#: Entries in the movie database behind ``engines``.
MOVIE_ENTRIES = 500
#: Requests pre-drawn per connection; read-only sequences wrap around.
SEQUENCE_LENGTH = 40_000

WORKLOADS = ("lookup", "closure", "engines", "mixed_write")

_LEN = struct.Struct(">I")


def canonical(obj) -> bytes:
    """The server's JSON spelling (``encode_frame``: compact, sorted keys)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def frame(rid: int, body: bytes) -> bytes:
    """One wire frame: ``body`` is a pre-encoded request minus its id."""
    payload = b'{"id":%d,' % rid + body
    return _LEN.pack(len(payload)) + payload


@dataclass
class Request:
    """One distinct request of a workload's family."""

    key: str  # short name for the per-pattern table
    body: bytes  # pre-encoded JSON object tail, without the leading '{"id":N,'
    kind: str  # "read" | "apply" | "ryw"
    layer: str  # the op kind, for warm-up ("rpq", "lorel", "sql:rpq", ...)
    expected: bytes = b""  # b'"result":<canonical answer>' for reads


@dataclass
class Workload:
    name: str
    graph: Graph
    requests: list[Request]
    sequences: list[list[int]]  # one per connection: indices into ``requests``
    count_sequence: list[int]  # the single-connection exact-count phase
    store: bool = False
    anchor: int = 0  # the node ``apply`` requests hang new nodes from


def _body(obj: dict) -> bytes:
    return canonical(obj)[1:]  # drop the leading '{'; frame() supplies '{"id":N,'


# -- graphs ---------------------------------------------------------------------


def crawl_graph(pages: int = CRAWL_PAGES, seed: int = GRAPH_SEED) -> Graph:
    g = Graph()
    for node in range(pages):
        g.ensure_node(node)
    for src, label, dst in stream_crawl_edges(pages, seed=seed, mean_host=CRAWL_MEAN_HOST):
        g.add_edge(src, label, dst)
    g.set_root(0)
    return g


def graph_to_inputs(graph: Graph) -> dict:
    """The server's input document: node ids, root and labelled edges."""
    edges = []
    for edge in graph.edges():
        label = edge.label
        wire = (
            label.value
            if label.kind is LabelKind.SYMBOL
            else {"kind": label.kind.value, "value": label.value}
        )
        edges.append([edge.src, wire, edge.dst])
    return {"nodes": sorted(graph.nodes()), "root": graph.root, "edges": edges}


def inputs_to_graph(doc: dict) -> Graph:
    """Rebuild a graph with the node ids the benchmark generated."""
    from repro.service.server import label_from_wire

    g = Graph()
    for node in doc["nodes"]:
        g.ensure_node(node)
    for src, label, dst in doc["edges"]:
        g.add_edge(src, label_from_wire(label), dst)
    g.set_root(doc["root"])
    return g


# -- request families ----------------------------------------------------------

_ATOMS = ("link", "ref", "cite", "_", "(link|ref)", "(ref|cite)", "(link|cite)")


def lookup_family() -> list[str]:
    """Short RPQs: ``link`` then one to three more steps (399 patterns).

    The rank order (a fixed hash of the text) does not depend on the seed.
    """
    family = [
        "link." + ".".join(tail)
        for n in (1, 2, 3)
        for tail in itertools.product(_ATOMS, repeat=n)
    ]
    return sorted(family, key=lambda p: zlib.crc32(p.encode()))


#: Kleene-star closures over the crawl and their weights in the deck.
#: The weights place p50 and p90 inside one pattern's cost band each.
CLOSURE_DECK = (
    ("link*.cite", 3),
    ("link*.ref", 3),
    ("(link|cite)*.ref", 2),
    ("(link|ref)*.cite", 2),
)

#: The engines mix: (op, query, engine, weight).  One UnQL query in 40
#: holds the loop for ~100 ms, and the other connection's request waits
#: behind it, so about 5% of latencies are long: p90 stays inside the bulk
#: instead of next to that jump.  UnQL still takes about a third of the
#: server's time, no engine more than half.
ENGINES_DECK = (
    ("lorel", "select m.Title from DB.Entry.Movie m where m.Year < 1940", "native", 6),
    ("lorel", 'select m.Title from DB.Entry.Movie m where m.Director = "Hitchcock"', "native", 6),
    ("unql", r"select \t where {Entry: {Movie: {Title: \t}}} in db", "native", 1),
    ("find", "Bogart", "native", 5),
    ("find", "1942", "native", 5),
    ("rpq", "Entry.Movie.Title", "sql", 6),
    ("rpq", "Entry.Movie.Cast.Actors", "sql", 6),
    ("lorel", "select m.Title from DB.Entry.Movie m where m.Year < 1940", "sql", 5),
)


def _zipf_sequence(rng: random.Random, n_items: int, length: int, s: float = 1.0) -> list[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n_items)]
    return rng.choices(range(n_items), weights=weights, k=length)


def _deck_sequence(rng: random.Random, weights: list[int], length: int) -> list[int]:
    """Shuffled decks with exact proportions, dealt back to back."""
    deck = [i for i, w in enumerate(weights) for _ in range(w)]
    out: list[int] = []
    while len(out) < length:
        rng.shuffle(deck)
        out.extend(deck)
    return out[:length]


def _rpq_reads(graph: Graph, patterns, engine: str = "native") -> list[Request]:
    frozen = freeze(graph)
    requests = []
    for pattern in patterns:
        obj = {"op": "rpq", "query": pattern}
        if engine != "native":
            obj["engine"] = engine
        answer = sorted(rpq_nodes(frozen, pattern))
        requests.append(
            Request(
                key=pattern if engine == "native" else f"{engine}:{pattern}",
                body=_body(obj),
                kind="read",
                layer="rpq" if engine == "native" else f"{engine}:rpq",
                expected=b'"result":' + canonical(answer),
            )
        )
    return requests


def build(name: str, seed: int, *, scale: float = 1.0) -> Workload:
    """Generate one workload's inputs and oracle; ``seed`` draws the traffic.

    ``scale`` shrinks the graphs for the self-test; runs use 1.0.
    """
    rng = random.Random(f"perfbench-{name}-{seed}")
    if name in ("lookup", "mixed_write"):
        graph = crawl_graph(max(200, int(CRAWL_PAGES * scale)))
        if name == "mixed_write":
            return _mixed_write(graph, rng)
        requests = _rpq_reads(graph, lookup_family())
        seqs = [_zipf_sequence(rng, len(requests), SEQUENCE_LENGTH) for _ in range(2)]
        return Workload(name, graph, requests, seqs, seqs[0][:1000])
    if name == "closure":
        graph = crawl_graph(max(200, int(CRAWL_PAGES * scale)))
        requests = _rpq_reads(graph, [p for p, _ in CLOSURE_DECK])
        weights = [w for _, w in CLOSURE_DECK]
        seqs = [_deck_sequence(rng, weights, SEQUENCE_LENGTH) for _ in range(2)]
        return Workload(name, graph, requests, seqs, seqs[0][: 2 * sum(weights)])
    if name == "engines":
        graph = generate_movies(max(20, int(MOVIE_ENTRIES * scale)), seed=GRAPH_SEED)
        requests = _engine_reads(graph)
        weights = [w for *_, w in ENGINES_DECK]
        seqs = [_deck_sequence(rng, weights, SEQUENCE_LENGTH) for _ in range(2)]
        return Workload(name, graph, requests, seqs, seqs[0][: 2 * sum(weights)])
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")


def _engine_reads(graph: Graph) -> list[Request]:
    """Expected answers come from the native engines, for SQL requests too."""
    view = SnapshotView(freeze(graph), 0)
    frozen = view.frozen
    requests = []
    for op, query, engine, _ in ENGINES_DECK:
        if op == "lorel":
            answer = lorel_rows(lorel(query, view.oem))
        elif op == "unql":
            answer = to_obj(unql(query, db=view.graph))
        elif op == "find":  # the server reads a JSON scalar if the text is one
            try:
                value = json.loads(query)
            except json.JSONDecodeError:
                value = query
            answer = where_is(view.graph, value)
        else:
            answer = sorted(rpq_nodes(frozen, query))
        obj = {"op": op, "query": query}
        if engine != "native":
            obj["engine"] = engine
        layer = op if engine == "native" else f"{engine}:{op}"
        requests.append(
            Request(
                key=f"{layer}:{query}"[:60],
                body=_body(obj),
                kind="read",
                layer=layer,
                expected=b'"result":' + canonical(answer),
            )
        )
    return requests


#: Writes hang below a chain of this many ``inbox`` edges from the root.
#: A lookup pattern has at most four steps and needs two to get back to
#: the root (``link`` out, ``ref`` or ``cite`` in), so it can reach at
#: most two chain nodes: written edges, one level deeper still, never
#: change a lookup answer or edge count.
INBOX_DEPTH = 4


def _mixed_write(graph: Graph, rng: random.Random) -> Workload:
    """One connection: apply, read-your-write, then two lookup reads.

    A single connection makes every third read the one that pays for the
    new snapshot, so p50 sits among the plain reads and p90 among the
    reads after a commit, never on the boundary between them.
    """
    node = graph.root
    for _ in range(INBOX_DEPTH):
        node = _chain(graph, node)
    requests = _rpq_reads(graph, lookup_family())
    apply_ix, ryw_ix = len(requests), len(requests) + 1
    requests.append(Request("apply", b"", "apply", "apply"))
    requests.append(Request("ryw", b"", "ryw", "rpq"))
    reads = _zipf_sequence(rng, apply_ix, SEQUENCE_LENGTH)
    seq = []
    for i in range(0, SEQUENCE_LENGTH // 2, 2):
        seq += [apply_ix, ryw_ix, reads[i], reads[i + 1]]
    return Workload(
        "mixed_write", graph, requests, [seq], seq[:120], store=True, anchor=node
    )


def _chain(graph: Graph, node: int) -> int:
    child = graph.new_node()
    graph.add_edge(node, "inbox", child)
    return child


def write_label(conn: int, k: int) -> str:
    """The edge label of a connection's ``k``-th write (never in a read family)."""
    return f"w{conn}_{k}"


def apply_body(anchor: int, label: str) -> bytes:
    return _body(
        {
            "op": "apply",
            "mutations": [
                {"kind": "node", "name": "n"},
                {"kind": "edge", "src": anchor, "label": label, "dst": "n"},
            ],
            "sync": True,
        }
    )


def ryw_body(label: str) -> bytes:
    return _body({"op": "rpq", "query": ".".join(["inbox"] * INBOX_DEPTH + [label])})

