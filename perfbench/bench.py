"""One benchmark run: set-up, oracle, warm-up, timed rounds, metrics.

A run measures one workload (``workloads.WORKLOADS``) in a closed loop
with a single caller thread, pinned (with the fleet worker it spawns) to
one CPU.  Rounds interleave point reads, a 256-pair batch and §8.3
pendant writes, so every metric aggregates samples from the whole run
rather than from one phase after another; a run on a shared host
therefore sees the same drift in all of its metrics, and each timing is
a percentile or median over the whole run (point latencies per query
pair first, see ``slot_medians``).

``trace=False`` reports the end-to-end metrics.  ``trace=True`` is a
separate run that records spans around the calls into each layer
(``spans.Tracer``) and reports the per-layer metrics instead.  Its first
``count_rounds`` timed rounds are fully traced and yield the (count)
metrics, which repeat exactly for a given seed; after them traced and
untraced rounds alternate, which gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.core.directed as directed_mod
import repro.core.fastlabels as fastlabels_mod
import repro.core.index as index_mod
from repro.serving import wire

import spans
import workloads
from workloads import Params, Served, Stream

__all__ = ["END_TO_END", "PER_LAYER", "run", "provenance"]

ROOT = Path(__file__).resolve().parents[1]

#: (name, unit) of every end-to-end metric; each run reports all of them.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("point_p50_us", "us"),
    ("point_p99_us", "us"),
    ("batch_pairs_per_s", "pairs/s"),
    ("write_p50_us", "us"),
    ("ok_frac", "fraction"),
    ("index_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
]

#: (name, unit) of every per-layer metric of the traced run.  A layer
#: a workload bypasses reports 0, which is itself the check that it was
#: bypassed.  Times are means per call unless the name says otherwise.
PER_LAYER: List[Tuple[str, str]] = [
    ("graph.gen_s", "s"),
    ("hierarchy.build_s", "s"),
    ("hierarchy.k", "count"),
    ("hierarchy.gk_vertices", "count"),
    ("labeling.build_s", "s"),
    ("labeling.entries", "count"),
    ("engine.freeze_s", "s"),
    ("snapshot.write_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("fleet.ready_s", "s"),
    ("index.facade_us", "us"),
    ("engine.eq1_us", "us"),
    ("engine.seeds_us", "us"),
    ("apsp.stage_us", "us"),
    ("csr.search_us", "us"),
    ("csr.settled", "count"),
    ("query.eq1_only_frac", "fraction"),
    ("batch.eq1_us_per_pair", "us"),
    ("batch.stage2_us_per_pair", "us"),
    ("wire.ping_us", "us"),
    ("server.distances_us", "us"),
    ("remote.client_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("scheduler.dispatch_per_batch", "count"),
    ("scheduler.avg_bucket", "count"),
    ("remote.batch_us_per_frame", "us"),
    ("server.requests", "count"),
    ("server.queries", "count"),
    ("remote.failovers", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.flushes", "count"),
    ("cache.invalidated", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_us", "us"),
    ("cache.miss_us", "us"),
    ("updates.insert_us", "us"),
    ("updates.delete_us", "us"),
    ("engine.refreeze_after_write", "count"),
    ("engine.refreeze_read_us", "us"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
]

#: Per-layer metrics that must repeat exactly for a given seed.
COUNT_METRICS = (
    "hierarchy.k",
    "hierarchy.gk_vertices",
    "labeling.entries",
    "snapshot.bytes",
    "csr.settled",
    "query.eq1_only_frac",
    "wire.request_bytes",
    "wire.response_bytes",
    "scheduler.dispatch_per_batch",
    "scheduler.avg_bucket",
    "server.requests",
    "server.queries",
    "remote.failovers",
    "cache.hit_ratio",
    "cache.hits",
    "cache.misses",
    "cache.flushes",
    "cache.invalidated",
    "cache.evictions",
    "engine.refreeze_after_write",
)

_ns = time.perf_counter_ns

#: Point reads a run collects at least.  Reads walk the pool in order and
#: every pool holds more than 1000 slots, so the p99 over slots has ten
#: slots beyond it.
MIN_POINT_SAMPLES = 1000
#: Set-ups per run: one before the timed loop, the others spread evenly
#: over it and one after it; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Raw ping and single-pair ``distances`` requests per round on the
#: remote probe connection (traced runs, outside the count window, so
#: that the server's counters there see only the client's traffic).
PROBES_PER_ROUND = 8

#: Engine methods the traced run wraps, by span name.
_ENGINE_SPANS = {
    "freeze": "engine.freeze",
    "eq1": "engine.eq1",
    "search_distance": "apsp.stage",
    **{
        attr: "engine.seeds"
        for attr in (
            "seeds",
            "seeds_np",
            "seeds_out",
            "seeds_in",
            "seeds_out_np",
            "seeds_in_np",
            "_seeds_f",
            "_seeds_r",
            "_seeds_f_np",
            "_seeds_r_np",
        )
    },
}


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the host-drift sentinel."""
    started = _ns()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (_ns() - started) / 1e6


def _coin(r: int) -> bool:
    """Whether alternating-phase round ``r`` is traced: a fixed
    pseudo-random choice, so that traced and untraced rounds do not
    line up with the periodic structure of the stream (batch rounds)."""
    return bool(zlib.crc32(b"round:%d" % r) & 1)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def slot_medians(samples: List[int], slots: List[int]) -> List[float]:
    """The median latency of each pool slot (query pair) read in a run.

    Over a run every slot is read several times (about eight times on
    ``remote-fleet``, four on ``directed-csr``, once on ``cached-updates``,
    whose pool is larger).  A host stall that hits one read of a pair does
    not make the pair slow; a cost that every read of the pair pays does.
    """
    by_slot: Dict[int, List[int]] = {}
    for sample, slot in zip(samples, slots):
        by_slot.setdefault(slot, []).append(sample)
    return [median(values) for values in by_slot.values()]


@contextmanager
def pinned_to_one_cpu() -> Iterator[Optional[int]]:
    """Pin this process to the highest-numbered CPU it may run on for the
    duration of the block, and yield that CPU (None where affinity cannot
    be set).

    Processes spawned inside the block, the fleet worker among them,
    inherit the pin.  On a virtualized shared host, a wake-up on another vCPU
    waits until the hypervisor schedules that vCPU, a delay that follows
    the other tenants' load; with the client and the worker on one vCPU a
    remote round trip is two context switches inside the guest.  A
    single-threaded in-process run loses nothing by it.
    """
    try:
        allowed = os.sched_getaffinity(0)
        cpu = max(allowed)
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        yield None
        return
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def _git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (None outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(
    name: str, params: Params, seed: int, seconds: float, trace: bool, cpu: Optional[int]
):
    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": dataclasses.asdict(params),
        "constants": {
            "batch": workloads.BATCH,
            "writes_per_round": workloads.WRITES_PER_ROUND,
            "setup_repeats": SETUP_REPEATS,
            "min_point_samples": MIN_POINT_SAMPLES,
        },
    }


def _worker_peak_rss_kib(pids: List[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


# ----------------------------------------------------------------------
# Per-run recording
# ----------------------------------------------------------------------
class Record:
    """Samples of one run, split by round kind (traced or not)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        # key: traced round? -> samples
        self.point: Dict[bool, List[int]] = {False: [], True: []}
        # the pool slot each point sample read
        self.point_slot: Dict[bool, List[int]] = {False: [], True: []}
        self.batch_ns: Dict[bool, List[int]] = {False: [], True: []}
        self.batch_pairs: Dict[bool, int] = {False: 0, True: 0}
        self.writes: Dict[str, List[int]] = {"insert": [], "delete": []}
        # mean latency of the writes of each timed wave (an insert and a delete)
        self.waves: List[float] = []
        # traced runs only: point reads of the alternating phase, keyed
        # by (traced round?, read class)
        self.classes: Dict[Tuple[bool, str], List[int]] = {}
        self.ping_ns: List[int] = []
        self.probe_ns: List[int] = []
        self.frames_in_batches = 0
        self.batch_ns_with_frames = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


class WireCounter:
    """Frames and bytes the remote client sends and receives (traced)."""

    def __init__(self, exclude) -> None:
        self.exclude = exclude  # the probe connection's socket
        self.lock = threading.Lock()
        self.sent = [0, 0]  # frames, bytes
        self.received = [0, 0]

    @staticmethod
    def _size(payload: dict) -> int:
        return 4 + len(json.dumps(payload, separators=(",", ":")).encode("utf-8"))

    def patch(self, patches: spans.Patches) -> None:
        send, recv = wire.send_frame, wire.recv_frame

        def counting_send(sock, payload):
            if sock is not self.exclude:
                with self.lock:
                    self.sent[0] += 1
                    self.sent[1] += self._size(payload)
            return send(sock, payload)

        def counting_recv(sock):
            frame = recv(sock)
            if frame is not None and sock is not self.exclude:
                with self.lock:
                    self.received[0] += 1
                    self.received[1] += self._size(frame)
            return frame

        patches.add(wire, "send_frame", counting_send)
        patches.add(wire, "recv_frame", counting_recv)

    def snapshot(self) -> Tuple[int, int, int, int]:
        with self.lock:
            return (*self.sent, *self.received)


class Runner:
    def __init__(
        self,
        name: str,
        params: Params,
        seed: int,
        seconds: float,
        trace: bool,
        workdir: str,
    ) -> None:
        self.name = name
        self.params = params
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.remote = params.engine == "remote"
        self.cached = params.engine.startswith("cached:")
        self.record = Record()
        self.calib: List[float] = []
        self.tracer: Optional[spans.Tracer] = spans.Tracer() if trace else None
        self.patches = spans.Patches()
        self.settled: Dict[int, int] = {}
        self.served: Optional[Served] = None
        self.stream: Optional[Stream] = None
        self.probe: Optional[wire.PipelinedConnection] = None
        self.probe_sock = None
        self.wire_counter: Optional[WireCounter] = None
        self.reaped = True
        self.counts: Dict[str, float] = {}
        self._shape = (0, 0, 0)
        self._snapshot_bytes = 0
        self.setup_times: List[float] = []
        self.setup_rows: List[Dict[str, float]] = []

    # -- set-up ----------------------------------------------------------
    def _timed_build(self, stages: Dict[str, float]):
        """Wrap the index build so the hierarchy peel is timed apart."""

        def on_build(build):
            def traced_build(graph, **kwargs):
                patches = spans.Patches()
                for owner, attr in (
                    (index_mod, "build_hierarchy"),
                    (directed_mod, "_build_directed_hierarchy"),
                ):
                    inner = getattr(owner, attr)

                    def timed(*args, _inner=inner, **kw):
                        started = time.perf_counter()
                        try:
                            return _inner(*args, **kw)
                        finally:
                            stages["hierarchy.build_s"] = time.perf_counter() - started

                    patches.add(owner, attr, timed)
                patches.install()
                try:
                    return build(graph, **kwargs)
                finally:
                    patches.remove()

            return traced_build

        return on_build

    def _set_up(self, attempt: int) -> Served:
        """One set-up, timed; the time and stage split are recorded."""
        gc.collect()
        split: Dict[str, float] = {}
        on_build = self._timed_build(split) if self.trace else None
        started = time.perf_counter()
        served = workloads.setup(self.params, self.workdir, attempt, on_build)
        self.setup_times.append(time.perf_counter() - started)
        self.setup_rows.append({**served.stages, **split})
        return served

    def _close_served(self) -> None:
        served, self.served = self.served, None
        self._close(served)

    def _close(self, served: Optional[Served]) -> None:
        if served is None:
            return
        pids = list(served.worker_pids)
        try:
            served.close()
        except AssertionError as exc:  # FaultInjector.teardown's reap check
            self.reaped = False
            self.record.fail(f"fleet teardown: {exc}")
        for pid in pids:
            # Teardown waits on every worker, so a pid that still exists
            # (and is ours to signal) is a worker that outlived it.
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            self.reaped = False
            self.record.fail(f"fleet worker {pid} survived teardown")

    # -- tracing ---------------------------------------------------------
    def _plan_tracing(self) -> None:
        tracer = self.tracer
        served = self.served
        if not self.remote:
            engine = getattr(served.engine, "inner", served.engine)
            base = type(engine)
            traced = spans.traced_engine_class(base, tracer, _ENGINE_SPANS)
            self.patches.add(engine, "__class__", traced)
            if engine is not served.engine:
                # The cached: decorator in front of the packed engine.
                self.patches.add(
                    served.engine,
                    "distance",
                    tracer.wrap("cache.distance", served.engine.distance),
                )

            def note_settled(index: int, result) -> None:
                self.settled[index] = result[2].settled_total

            csr = tracer.wrap(
                "csr.search", fastlabels_mod.csr_label_bidijkstra, note_settled
            )
            self.patches.add(fastlabels_mod, "csr_label_bidijkstra", csr)
            self.patches.add(index_mod, "csr_label_bidijkstra", csr)
            self.patches.add(
                fastlabels_mod,
                "batch_eq1",
                tracer.wrap("batch.eq1", fastlabels_mod.batch_eq1),
            )
            self.patches.add(
                fastlabels_mod,
                "batch_table_stage",
                tracer.wrap("batch.stage2", fastlabels_mod.batch_table_stage),
            )
        else:
            self.wire_counter = WireCounter(self.probe_sock)
            self.wire_counter.patch(self.patches)
        root = "remote" if self.remote else "index"
        self.traced_read = tracer.wrap(f"{root}.distance", served.read)
        self.traced_batch = tracer.wrap(f"{root}.distances", served.read_batch)

    # -- rounds ----------------------------------------------------------
    def _engine_frozen(self) -> bool:
        engine = self.served.engine
        return bool(getattr(getattr(engine, "inner", engine), "frozen", True))

    def _write(self, writer, traced: bool, in_window: bool, timed: bool) -> Optional[int]:
        """Apply the writer's next write; its latency, or None if it failed."""
        rec = self.record
        if self.tracer is not None and traced:
            self.tracer.begin_op("write")
        rec.attempted += 1
        kind = writer.next_kind()
        started = _ns()
        try:
            writer.apply()
        except Exception as exc:  # noqa: BLE001 - a failed write is counted
            rec.fail(f"{kind}: {exc!r}")
            return None
        elapsed = _ns() - started
        if timed:
            rec.writes[kind].append(elapsed)
        if in_window and writer is self.served.writer and not self._engine_frozen():
            self.counts["engine.refreeze_after_write"] = (
                self.counts.get("engine.refreeze_after_write", 0) + 1
            )
        return elapsed

    def run_round(self, r: int, timed: bool, traced: bool, in_window: bool) -> None:
        served, stream, rec = self.served, self.stream, self.record
        tracer = self.tracer if traced else None
        read = self.traced_read if traced else served.read
        read_batch = self.traced_batch if traced else served.read_batch
        observe = self.trace
        cache = getattr(served.engine, "cache", None) if observe else None
        expected = stream.expected
        pairs = stream.pairs

        point_slots, batch_slots = stream.round_slots(r)
        for slot in point_slots:
            s, t = pairs[slot]
            if tracer is not None:
                tracer.begin_op("point")
            if observe:
                hits_before = cache.hits if cache is not None else 0
                was_frozen = self._engine_frozen()
            rec.attempted += 1
            started = _ns()
            try:
                got = read(s, t)
            except Exception as exc:  # noqa: BLE001 - counted against ok_frac
                rec.fail(f"distance({s}, {t}): {exc!r}")
                continue
            elapsed = _ns() - started
            if got != expected[slot]:
                rec.fail(f"distance({s}, {t}) = {got}, expected {expected[slot]}")
                continue
            if not timed:
                continue
            rec.point[traced].append(elapsed)
            rec.point_slot[traced].append(slot)
            if observe and not in_window:
                if cache is not None and cache.hits > hits_before:
                    kind = "hit"
                elif not was_frozen:
                    kind = "refreeze"  # this read paid the re-freeze
                else:
                    kind = "plain" if cache is None else "miss"
                rec.classes.setdefault((traced, kind), []).append(elapsed)

        # The batch goes before the writes: a write that drops the frozen
        # engine is paid for by the next round's first cache miss (in
        # ``point_p99_us``), never by a batch.
        if batch_slots:
            self._batch(batch_slots, tracer, read_batch, timed, traced, in_window)

        writer = served.writer or stream.twin
        wave = [
            self._write(writer, traced, in_window, timed)
            for _ in range(workloads.WRITES_PER_ROUND)
        ]
        if timed and None not in wave:
            rec.waves.append(sum(wave) / len(wave))

        if self.probe is not None and timed and not in_window:
            for slot in point_slots[:PROBES_PER_ROUND]:
                started = _ns()
                self.probe.request({"op": "ping"})
                rec.ping_ns.append(_ns() - started)
                started = _ns()
                answer = self.probe.request(
                    {"op": "distances", "pairs": [pairs[slot]]}
                )
                rec.probe_ns.append(_ns() - started)
                if answer.get("distances") != [expected[slot]]:
                    rec.fail(f"probe distances{pairs[slot]}: {answer}")

    def _batch(self, slots, tracer, read_batch, timed, traced, in_window) -> None:
        served, stream, rec = self.served, self.stream, self.record
        pairs, expected = stream.pairs, stream.expected
        batch = [pairs[i] for i in slots]
        if tracer is not None:
            tracer.begin_op("batch")
        scheduler = served.engine.scheduler if (self.trace and self.remote) else None
        calls_before = scheduler.stats()["dispatch_calls"] if scheduler else 0
        rec.attempted += len(batch)
        started = _ns()
        try:
            got = read_batch(batch)
        except Exception as exc:  # noqa: BLE001 - counted against ok_frac
            rec.failed += len(batch) - 1
            rec.fail(f"distances(batch of {len(batch)}): {exc!r}")
            got = None
        elapsed = _ns() - started
        if got is not None:
            wrong = [i for i, v in zip(slots, got) if v != expected[i]]
            if len(got) != len(batch):
                wrong = slots
            for i in wrong:
                rec.fail(f"batch distance{pairs[i]}: expected {expected[i]}")
            if timed:
                rec.batch_ns[traced].append(elapsed)
                rec.batch_pairs[traced] += len(batch)
            if scheduler is not None:
                frames = scheduler.stats()["dispatch_calls"] - calls_before
                if in_window:
                    self.counts["batch_frames"] = self.counts.get("batch_frames", 0) + frames
                    self.counts["batches"] = self.counts.get("batches", 0) + 1
                if timed and not traced:
                    rec.frames_in_batches += frames
                    rec.batch_ns_with_frames += elapsed

    # -- counters over the count window ------------------------------------
    def _counter_snapshot(self) -> Dict[str, float]:
        snap: Dict[str, float] = {}
        cache = getattr(self.served.engine, "cache", None)
        if cache is not None:
            stats = cache.stats()
            for key in ("hits", "misses", "flushes", "invalidated", "evictions"):
                snap[f"cache.{key}"] = stats[key]
        if self.remote:
            sched = self.served.engine.scheduler.stats()
            snap["dispatch_calls"] = sched["dispatch_calls"]
            snap["queries_scheduled"] = sched["queries_scheduled"]
            server = self.probe.request({"op": "stats"})
            snap["server.requests"] = server["requests_served"]
            snap["server.queries"] = server["queries_served"]
            sent_frames, sent_bytes, recv_frames, recv_bytes = self.wire_counter.snapshot()
            snap.update(
                sent_frames=sent_frames,
                sent_bytes=sent_bytes,
                recv_frames=recv_frames,
                recv_bytes=recv_bytes,
            )
        return snap

    # -- the run -----------------------------------------------------------
    def execute(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        try:
            return self._execute()
        finally:
            # Whatever failed, no fleet worker outlives the run.
            self._close_served_and_probe()

    def _execute(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        params = self.params
        self.calib.append(calibrate())
        # The first set-up serves the run.  The others are spread over the
        # timed loop (which pauses for them) and its end, so that set-up
        # time samples the drifting host far apart.
        self.served = self._set_up(0)
        self.stream = workloads.build_stream(
            params, self.name, self.seed, self.served.graph
        )
        if self.trace:
            if self.remote:
                self.probe, self.probe_sock = workloads.open_probe(self.served)
            self._plan_tracing()

        for r in range(params.warm_rounds):
            self.run_round(r, timed=False, traced=False, in_window=False)
        gc.collect()

        lo, hi = params.warm_rounds, params.warm_rounds + params.count_rounds
        op_window = (0, 0)
        before: Dict[str, float] = {}
        after: Dict[str, float] = {}
        mid_setups = SETUP_REPEATS - 2
        started = time.perf_counter()
        marks = [started + self.seconds * (i + 1) / (mid_setups + 1) for i in range(mid_setups)]
        deadline = started + self.seconds
        halfway = started + self.seconds / 2
        r = lo
        while True:
            traced = self.trace and (r < hi or _coin(r))
            if self.trace and r == lo:
                before = self._counter_snapshot()
                op_window = (len(self.tracer.op_kinds), 0)
            if traced:
                self.patches.install()
            try:
                self.run_round(r, timed=True, traced=traced, in_window=lo <= r < hi)
            finally:
                self.patches.remove()
            r += 1
            if self.trace and r == hi:
                after = self._counter_snapshot()
                op_window = (op_window[0], len(self.tracer.op_kinds))
            now = time.perf_counter()
            if halfway is not None and now >= halfway:
                self.calib.append(calibrate())
                halfway = None
            if marks and now >= marks[0] and r >= hi:
                marks.pop(0)
                self._close(self._set_up(len(self.setup_times)))
                gc.collect()
                paused = time.perf_counter() - now
                deadline += paused
                marks = [m + paused for m in marks]
                if halfway is not None:
                    halfway += paused
                now = time.perf_counter()
            if (
                now >= deadline
                and r >= hi
                and not marks
                and (self.trace or len(self.record.point[False]) >= MIN_POINT_SAMPLES)
            ):
                break
        if halfway is not None:
            self.calib.append(calibrate())
        timed_rounds = r - lo

        served = self.served
        worker_rss_kib = _worker_peak_rss_kib(served.worker_pids)
        failovers = len(getattr(served.engine, "failovers", []) or [])
        index_bytes = served.index_bytes
        self._shape = (served.hierarchy_k, served.gk_vertices, served.label_entries)
        self._snapshot_bytes = index_bytes if self.remote else 0
        self._close_served_and_probe()
        self.stream = None
        self._close(self._set_up(len(self.setup_times)))
        self.calib.append(calibrate())
        peak_rss_mib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_rss_kib
        ) / 1024

        if self.trace:
            metrics = self._per_layer(before, after, op_window, failovers)
        else:
            metrics = self._end_to_end(index_bytes, peak_rss_mib)
        diagnostics = {
            "host.calib_ms": self.calib,
            "setup_s": self.setup_times,
            "timed_rounds": timed_rounds,
            "point_samples": len(self.record.point[False]) + len(self.record.point[True]),
            "point_slots": len(set(self.record.point_slot[False])),
            "batches": len(self.record.batch_ns[False]) + len(self.record.batch_ns[True]),
            "writes": {k: len(self.record.writes[k]) for k in ("insert", "delete")},
            "failures": self.record.failures,
            "fleet_reaped": self.reaped,
        }
        return metrics, diagnostics

    def _close_served_and_probe(self) -> None:
        # The fleet goes first: its exit closes the probe's socket from
        # the far end, so the probe's reader thread ends at once.
        probe, self.probe = self.probe, None
        self._close_served()
        if probe is not None:
            probe.close()

    # -- metrics -----------------------------------------------------------
    def _end_to_end(self, index_bytes: int, peak_rss_mib: float) -> Dict[str, float]:
        rec = self.record
        per_slot = slot_medians(rec.point[False], rec.point_slot[False])
        return {
            "setup_s": median(self.setup_times),
            "point_p50_us": percentile(per_slot, 50) / 1e3,
            "point_p99_us": percentile(per_slot, 99) / 1e3,
            # The median batch: a batch that the host preempted is one
            # sample, not a share of the run's throughput.
            "batch_pairs_per_s": workloads.BATCH * 1e9 / median(rec.batch_ns[False]),
            # Per wave: half the writes are inserts and half deletes, whose
            # latencies differ by up to 4x, so a median over single writes
            # would sit on the gap between the two.
            "write_p50_us": median(rec.waves) / 1e3,
            "ok_frac": (rec.attempted - rec.failed) / rec.attempted,
            "index_mib": index_bytes / 2**20,
            "peak_rss_mib": peak_rss_mib,
        }

    def _per_layer(
        self,
        before: Dict[str, float],
        after: Dict[str, float],
        op_window: Tuple[int, int],
        failovers: int,
    ) -> Dict[str, float]:
        rec = self.record
        tracer = self.tracer
        served_k, served_gk, entries = self._shape
        out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

        # Set-up, median over the run's set-ups.
        setup_rows = self.setup_rows

        def stage(key: str) -> float:
            return median([row.get(key, 0.0) for row in setup_rows])

        out["graph.gen_s"] = stage("graph.gen_s")
        out["hierarchy.build_s"] = stage("hierarchy.build_s")
        out["labeling.build_s"] = median(
            [
                row["index.build_s"] - row.get("hierarchy.build_s", 0.0)
                for row in setup_rows
            ]
        )
        out["engine.freeze_s"] = stage("engine.freeze_s")
        out["snapshot.write_s"] = stage("snapshot.write_s")
        out["fleet.ready_s"] = stage("fleet.ready_s")
        out["hierarchy.k"] = served_k
        out["hierarchy.gk_vertices"] = served_gk
        out["labeling.entries"] = entries
        out["snapshot.bytes"] = self._snapshot_bytes

        # Span-derived layer times over every traced round.
        totals = tracer.totals()
        root = "remote" if self.remote else "index"

        def mean_us(kind: str, name: str, own: bool = False) -> float:
            calls, total, self_total = totals.get((kind, name), (0, 0, 0))
            return (self_total if own else total) / calls / 1e3 if calls else 0.0

        if not self.remote:
            out["index.facade_us"] = mean_us("point", f"{root}.distance", own=True)
        out["engine.eq1_us"] = mean_us("point", "engine.eq1")
        out["engine.seeds_us"] = mean_us("point", "engine.seeds")
        out["apsp.stage_us"] = mean_us("point", "apsp.stage")
        out["csr.search_us"] = mean_us("point", "csr.search")
        traced_pairs = rec.batch_pairs[True]
        if traced_pairs:
            eq1 = totals.get(("batch", "batch.eq1"), (0, 0, 0))[1]
            stage2 = (
                totals.get(("batch", "batch.stage2"), (0, 0, 0))[1]
                + totals.get(("batch", "csr.search"), (0, 0, 0))[1]
            )
            out["batch.eq1_us_per_pair"] = eq1 / traced_pairs / 1e3
            out["batch.stage2_us_per_pair"] = stage2 / traced_pairs / 1e3

        # Counts over the fully traced window (they repeat for a seed).
        lo, hi = op_window
        names = tracer.names_per_op(lo, hi)
        point_ops = [i for i in range(lo, hi) if tracer.op_kinds[i] == "point"]
        with_eq1 = [i for i in point_ops if "engine.eq1" in names.get(i, ())]
        if with_eq1:
            eq1_only = [
                i
                for i in with_eq1
                if not names[i] & {"apsp.stage", "csr.search"}
            ]
            out["query.eq1_only_frac"] = len(eq1_only) / len(with_eq1)
        settled = [
            n
            for index, n in self.settled.items()
            if lo <= tracer.spans[index].op < hi
            and tracer.op_kinds[tracer.spans[index].op] == "point"
        ]
        if settled:
            out["csr.settled"] = sum(settled) / len(settled)

        def delta(key: str) -> float:
            return after.get(key, 0) - before.get(key, 0)

        if self.cached:
            for key in ("hits", "misses", "flushes", "invalidated", "evictions"):
                out[f"cache.{key}"] = delta(f"cache.{key}")
            lookups = out["cache.hits"] + out["cache.misses"]
            out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
            out["cache.hit_us"] = median(rec.classes.get((False, "hit"), [])) / 1e3
            out["cache.miss_us"] = median(rec.classes.get((False, "miss"), [])) / 1e3
        refreezes = rec.classes.get((False, "refreeze"), [])
        out["engine.refreeze_read_us"] = median(refreezes) / 1e3
        out["engine.refreeze_after_write"] = self.counts.get(
            "engine.refreeze_after_write", 0
        )
        out["updates.insert_us"] = median(rec.writes["insert"]) / 1e3
        out["updates.delete_us"] = median(rec.writes["delete"]) / 1e3

        if self.remote:
            out["wire.ping_us"] = median(rec.ping_ns) / 1e3
            out["server.distances_us"] = median(rec.probe_ns) / 1e3
            out["remote.client_us"] = (
                median(rec.point[False]) / 1e3 - out["server.distances_us"]
            )
            frames = delta("sent_frames")
            if frames:
                out["wire.request_bytes"] = delta("sent_bytes") / frames
            frames = delta("recv_frames")
            if frames:
                out["wire.response_bytes"] = delta("recv_bytes") / frames
            if self.counts.get("batches"):
                out["scheduler.dispatch_per_batch"] = (
                    self.counts["batch_frames"] / self.counts["batches"]
                )
            calls = delta("dispatch_calls")
            if calls:
                out["scheduler.avg_bucket"] = delta("queries_scheduled") / calls
            if rec.frames_in_batches:
                out["remote.batch_us_per_frame"] = (
                    rec.batch_ns_with_frames / rec.frames_in_batches / 1e3
                )
            # The closing ``stats`` request counts itself.
            out["server.requests"] = delta("server.requests") - 1
            out["server.queries"] = delta("server.queries")
            out["remote.failovers"] = failovers

        out["host.calib_ms"] = median(self.calib)
        # Tracing overhead: traced over untraced median latency within each
        # read class (cache hit, miss, refreeze read), weighted by the
        # class's share of untraced reads.  Comparing whole-run medians
        # would mostly compare class mixes.
        weighted = weight = 0.0
        for (traced, kind), untraced in rec.classes.items():
            with_spans = rec.classes.get((True, kind))
            if traced or not with_spans:
                continue
            weighted += len(untraced) * median(with_spans) / median(untraced)
            weight += len(untraced)
        if weight:
            out["trace.overhead_frac"] = weighted / weight - 1
        return out


def run(
    name: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Tuple[Dict[str, object], int, Dict[str, object]]:
    """Run one workload; returns (result line, exit code, diagnostics)."""
    params = workloads.WORKLOADS[name]
    runner = Runner(name, params, seed, seconds, trace, workdir)
    with pinned_to_one_cpu() as cpu:
        metrics, diagnostics = runner.execute()
    units = dict(PER_LAYER if trace else END_TO_END)
    rec = runner.record
    correct = rec.failed == 0 and runner.reaped
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    diagnostics["provenance"] = provenance(name, params, seed, seconds, trace, cpu)
    return result, (0 if correct else 1), diagnostics
