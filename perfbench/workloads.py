"""The benchmark's three workloads: inputs, set-up, oracle and write path.

Every workload serves one graph through one deployment and replays one
seeded, cyclic stream of rounds.  A round is a block of single
``distance`` reads, a ``distances`` batch (not in every round) and a wave
of §8.3 pendant writes (to the served index, or to an ingest twin on the
read-only workloads).  Why each workload exists is recorded in
``perfbench/README.md``; the parameters below are what a run
reports as its provenance.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.caching.engine import ENV_CACHE_ENTRIES
from repro.core.directed import DirectedISLabelIndex
from repro.core.index import ISLabelIndex
from repro.core.serialization import save_snapshot
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import barabasi_albert, ensure_connected, random_weights
from repro.loadgen.drivers import FLEET_SERVE_ARGS
from repro.loadgen.generators import derive_seed, uniform_pairs, zipf_pairs
from repro.serving import wire
from repro.serving.chaos import FaultInjector
from repro.serving.remote import RemoteEngine
from repro.serving.scheduler import SchedulerPolicy, assign_shards
from repro.workloads.datasets import dataset_builders

__all__ = [
    "Params",
    "WORKLOADS",
    "WRITES_PER_ROUND",
    "BATCH",
    "Stream",
    "Served",
    "setup",
    "build_stream",
]

_now = time.perf_counter

#: §8.3 pendant writes at the end of every round: one insert and
#: the delete of the same pendant.
WRITES_PER_ROUND = 2

#: Pairs per ``distances`` batch: the ``max_batch`` of loadgen fleets.
BATCH = 256


@dataclass(frozen=True)
class Params:
    """One workload's inputs and round shape (reported as provenance)."""

    graph: str  # "web", "google" or "ba-digraph"
    scale: float
    engine: str  # "fast", "cached:fast" or "remote"
    #: Zipf exponent of the query endpoints; None draws them uniformly.
    zipf_theta: Optional[float] = None
    #: Oracle-checked pairs in one cycle of the stream.
    pool: int = 4096
    #: Single ``distance`` reads per round.
    reads_per_round: int = 64
    #: Entry budget of the ``cached:`` tier (its ``REPRO_CACHE_ENTRIES``
    #: deployment knob); None keeps the library default.
    cache_entries: Optional[int] = None
    #: One batch every this many rounds.
    batch_every: int = 1
    shards: int = 1
    #: Untimed rounds before timing starts.
    warm_rounds: int = 2
    #: Timed rounds over which the (count) metrics are taken.
    count_rounds: int = 8


WORKLOADS: Dict[str, Params] = {
    "directed-csr": Params(
        graph="ba-digraph",
        scale=1.0,
        engine="fast",
        # Not a multiple of the 512 slots two rounds consume, so the point
        # reads visit every pair of the pool over a run.
        pool=4000,
        reads_per_round=128,
        batch_every=2,
    ),
    "remote-fleet": Params(
        graph="web",
        scale=1.0,
        engine="remote",
        shards=4,
        # A batch costs as much as ~130 remote point reads; this many
        # keeps point reads about half of the loop.
        reads_per_round=128,
    ),
    "cached-updates": Params(
        graph="google",
        scale=1.0,
        engine="cached:fast",
        zipf_theta=1.1,
        pool=16384,
        # One insert and one delete after every 32 reads.
        reads_per_round=32,
        batch_every=4,
        # A bounded LRU, filled during warm-up, keeps the hit ratio and
        # the heap steady over the run (the default 65,536 entries would
        # still be filling at the end, so a faster host would see another
        # cache than a slower one); a pool wrap re-reads pairs far older
        # than it holds.
        cache_entries=2048,
        warm_rounds=60,
        count_rounds=32,
    ),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _orient(undirected, seed: int, both: float = 0.1) -> DiGraph:
    """Each edge becomes one arc, or both with probability ``both``
    (the orientation of ``benchmarks/bench_directed_fastpath.py``)."""
    rng = random.Random(seed)
    one_way = (1.0 - both) / 2
    dg = DiGraph()
    for v in undirected.vertices():
        dg.add_vertex(v)
    for u, v, w in undirected.edges():
        roll = rng.random()
        if roll < one_way:
            dg.merge_edge(u, v, w)
        elif roll < 2 * one_way:
            dg.merge_edge(v, u, w)
        else:
            dg.merge_edge(u, v, w)
            dg.merge_edge(v, u, w)
    return dg


def make_graph(params: Params):
    """The workload's graph; fixed for a given scale (the seed drives
    only the query and write streams)."""
    if params.graph == "ba-digraph":
        n = max(300, int(12_000 * params.scale))
        base = random_weights(barabasi_albert(n, 3, seed=13), 9, seed=13)
        return _orient(ensure_connected(base, seed=13), 46)
    return dataset_builders()[params.graph](params.scale)


def is_directed(params: Params) -> bool:
    return params.graph == "ba-digraph"


def writes_to_served(params: Params) -> bool:
    """Whether the round's write wave goes to the served index (the
    ``cached:`` workload) or to an ingest twin that serves no reads."""
    return params.engine.startswith("cached:")


# ----------------------------------------------------------------------
# §8.3 pendant writes
# ----------------------------------------------------------------------
class PendantWriter:
    """Alternates inserting a degree-1 vertex anchored at a rotating
    ``G_k`` vertex with deleting the most recent one.

    A ``G_k``-anchored pendant patches no existing label, so every
    base-graph distance, and therefore every oracle answer, survives
    the write.  The sequence is deterministic.
    """

    def __init__(self, dynamic, directed: bool) -> None:
        self.dynamic = dynamic
        self.directed = directed
        anchors = sorted(dynamic.index.hierarchy.gk.vertices())
        self.anchors = anchors or sorted(dynamic.graph.vertices())
        self.next_id = max(dynamic.graph.vertices()) + 1
        self.live: List[int] = []
        self.applied = 0

    def next_kind(self) -> str:
        return "delete" if self.live and self.applied % 2 == 1 else "insert"

    def apply(self) -> str:
        kind = self.next_kind()
        self.applied += 1
        if kind == "delete":
            self.dynamic.delete_vertex(self.live.pop())
            return kind
        anchor = self.anchors[(self.applied // 2) % len(self.anchors)]
        vertex = self.next_id
        self.next_id += 1
        if self.directed:
            self.dynamic.insert_vertex(vertex, {anchor: 1}, {anchor: 1})
        else:
            self.dynamic.insert_vertex(vertex, {anchor: 1})
        self.live.append(vertex)
        return kind


def _dynamic(graph, index, directed: bool):
    cls = DynamicDirectedISLabelIndex if directed else DynamicISLabelIndex
    return cls.from_parts(graph, index)


# ----------------------------------------------------------------------
# Served targets
# ----------------------------------------------------------------------
class Served:
    """What one set-up produced: the read paths, the write path of
    workloads that write to the served index, and its teardown."""

    def __init__(self, graph, stages: Dict[str, float]) -> None:
        self.graph = graph
        self.stages = stages
        self.engine = None  # in-process engine object, or the remote client
        self.read: Callable[[int, int], float] = None  # type: ignore[assignment]
        self.read_batch: Callable[[List[Tuple[int, int]]], List[float]] = None  # type: ignore[assignment]
        self.writer: Optional[PendantWriter] = None
        self.index_bytes = 0
        self.label_entries = 0
        self.hierarchy_k = 0
        self.gk_vertices = 0
        # remote-fleet only
        self.injector: Optional[FaultInjector] = None
        self.snapshot_dir: Optional[str] = None
        self.worker_pids: List[int] = []

    def close(self) -> None:
        """Release everything.  ``FaultInjector.teardown`` raises
        ``AssertionError`` if a fleet worker survives it."""
        if self.injector is not None:
            # Reaping the fleet first closes the client's sockets from the
            # far end, so the client's reader threads exit at once.
            injector, self.injector = self.injector, None
            injector.teardown()
            self.engine.close()
        if self.snapshot_dir is not None:
            shutil.rmtree(self.snapshot_dir, ignore_errors=True)
            self.snapshot_dir = None


@contextmanager
def _cache_budget(entries: Optional[int]):
    """Set the ``cached:`` tier's entry budget for the index build."""
    if entries is None:
        yield
        return
    previous = os.environ.get(ENV_CACHE_ENTRIES)
    os.environ[ENV_CACHE_ENTRIES] = str(entries)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[ENV_CACHE_ENTRIES]
        else:
            os.environ[ENV_CACHE_ENTRIES] = previous


def setup(params: Params, workdir: str, attempt: int, on_build=None) -> Served:
    """Generate the graph and stand the workload's target up until the
    first query can be answered.  ``on_build`` wraps the index build call
    (the traced run splits it into hierarchy and labelling)."""
    stages: Dict[str, float] = {}
    t0 = _now()
    graph = make_graph(params)
    t1 = _now()
    stages["graph.gen_s"] = t1 - t0
    directed = is_directed(params)
    build = DirectedISLabelIndex.build if directed else ISLabelIndex.build
    if on_build is not None:
        build = on_build(build)
    engine_name = "fast" if params.engine == "remote" else params.engine
    with _cache_budget(params.cache_entries):
        index = build(graph, engine=engine_name)
    t2 = _now()
    stages["index.build_s"] = t2 - t1
    index._fast.freeze()
    t3 = _now()
    stages["engine.freeze_s"] = t3 - t2
    served = Served(graph, stages)
    served.hierarchy_k = index.k
    served.gk_vertices = index.gk.num_vertices
    served.label_entries = (
        index.label_entries if directed else index.stats.label_entries
    )
    if params.engine != "remote":
        served.engine = index._fast
        served.read = index.distance
        served.read_batch = index.distances
        inner = getattr(index._fast, "inner", index._fast)
        served.index_bytes = inner.nbytes()
        if writes_to_served(params):
            served.writer = PendantWriter(_dynamic(graph, index, directed), directed)
        return served

    snap = os.path.join(workdir, f"snapshot-{attempt}")
    served.snapshot_dir = snap
    served.index_bytes = save_snapshot(index, snap, shards=params.shards)
    t4 = _now()
    stages["snapshot.write_s"] = t4 - t3
    injector = FaultInjector()
    try:
        injector.spawn_fleet(
            snap,
            assign_shards(params.shards, 1, 1),
            serve_args=list(FLEET_SERVE_ARGS),
        )
        engine = RemoteEngine(
            addresses=injector.addresses,
            policy=SchedulerPolicy(max_batch=BATCH),
        )
        engine.freeze()
    except BaseException:
        injector.teardown()
        raise
    stages["fleet.ready_s"] = _now() - t4
    served.injector = injector
    served.engine = engine
    served.read = engine.distance
    served.read_batch = engine.distances
    served.worker_pids = [w.proc.pid for w in injector.workers if w.proc is not None]
    return served


def open_probe(served: Served):
    """A second connection to the fleet worker, for raw wire timings:
    ``(pipelined connection, its socket)``."""
    sock = socket.create_connection(served.injector.addresses[0], timeout=30.0)
    hello = wire.request(sock, {"op": "hello"})
    if "error" in hello:
        sock.close()
        raise RuntimeError(f"probe handshake failed: {hello['error']}")
    return wire.PipelinedConnection(sock), sock


# ----------------------------------------------------------------------
# The seeded stream and its oracle
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """The seeded, cyclic stream of rounds and its expected answers.

    Rounds consume the pool in order: ``reads_per_round`` slots of single
    reads, then, every ``batch_every`` rounds, a batch of the next
    ``BATCH`` slots.
    """

    pairs: List[Tuple[int, int]]
    expected: List[float]
    reads_per_round: int
    batch_every: int
    #: Writes to the ingest twin of a read-only workload.
    twin: Optional[PendantWriter]

    def round_slots(self, r: int) -> Tuple[List[int], List[int]]:
        """(read slots, batch slots) of round ``r``; the batch may be empty."""
        n = len(self.pairs)
        start = r * self.reads_per_round + (r // self.batch_every) * BATCH
        reads = [(start + i) % n for i in range(self.reads_per_round)]
        if (r + 1) % self.batch_every:
            return reads, []
        start += self.reads_per_round
        return reads, [(start + i) % n for i in range(BATCH)]


def build_stream(params: Params, name: str, seed: int, graph) -> Stream:
    """Seeded pairs and the oracle's expected answers.

    Expected answers come from the ``dict`` reference engine, built on a
    private copy of the graph outside any timed region.  For read-only
    workloads that reference index doubles as the ingest twin the
    pendant writes go to: they leave every base-graph distance intact.
    """
    directed = is_directed(params)
    vertices = sorted(graph.vertices())
    pair_seed = derive_seed(seed, name, "pairs")
    if params.zipf_theta is not None:
        pairs = zipf_pairs(vertices, params.pool, pair_seed, theta=params.zipf_theta)
    else:
        pairs = uniform_pairs(vertices, params.pool, pair_seed)
    own = graph.copy()
    build = DirectedISLabelIndex.build if directed else ISLabelIndex.build
    reference = build(own, engine="dict")
    # Zipf streams repeat pairs; ask the oracle once per distinct pair.
    distinct = list(dict.fromkeys(pairs))
    answers = dict(zip(distinct, reference.distances(distinct)))
    expected = [answers[pair] for pair in pairs]

    twin = None
    if not writes_to_served(params):
        twin = PendantWriter(_dynamic(own, reference, directed), directed)
    return Stream(
        pairs=pairs,
        expected=expected,
        reads_per_round=params.reads_per_round,
        batch_every=params.batch_every,
        twin=twin,
    )

