"""Outside-in tracing of the program's layers, and the per-layer metrics.

The traced run records spans from the benchmark's own files: :func:`install`
wraps public entry points of each layer and records one span per call (name,
start, end, parent).  Callers bind most of these names with ``from ... import``,
so a function is patched into the namespace of the module that calls it
(``repro.incremental.maintainer.build_box_index``, not
``repro.enumeration.index.build_box_index``); methods are patched on their
class.  Spans stay in memory and each process writes its own out when it
exits; the benchmark merges them.  A layer's self time is its spans' duration
minus the time their child spans cover.

:data:`LAYER_METRICS` lists every per-layer metric with the entry points it is
measured from and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    measured_from: str
    moves: str  #: "<end-to-end metric> on <workload>"


LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("forest_algebra.term_build_ms_per_doc", "ms", "lower",
                "MaintainedTerm.__init__", "main_op_p50_ms on ingest"),
    LayerMetric("forest_algebra.rebalance_ms_per_edit", "ms", "lower",
                "MaintainedTerm.apply_edit", "main_op_p50_ms on edit_page"),
    LayerMetric("circuits.box_build_ms_per_doc", "ms", "lower",
                "build_leaf_box + build_internal_box (incl. _internal_plan)",
                "ops_per_s on ingest"),
    LayerMetric("circuits.plan_misses", "count", "lower",
                "calls of _internal_plan", "ops_per_s on ingest"),
    LayerMetric("circuits.build_cache_hit_rate", "ratio", "higher",
                "Engine.stats() build_cache_hits / (hits + misses)",
                "ops_per_s on ingest"),
    LayerMetric("enumeration.index_build_ms_per_doc", "ms", "lower",
                "build_box_index during add_tree", "main_op_p50_ms on ingest"),
    LayerMetric("enumeration.index_build_ms_per_edit", "ms", "lower",
                "build_box_index during edits", "main_op_p50_ms on edit_page"),
    LayerMetric("incremental.trunk_boxes_per_edit", "count", "lower",
                "BatchUpdateReport.boxes_rebuilt", "main_op_p50_ms on edit_page"),
    LayerMetric("incremental.apply_report_self_ms", "ms", "lower",
                "IncrementalCircuitMaintainer.apply_report self time per call",
                "main_op_p50_ms on edit_page"),
    LayerMetric("incremental.changed_mask_ms_per_edit", "ms", "lower",
                "box_changed_mask", "main_op_p50_ms and the printed edit_batch_p99_ms on edit_page"),
    LayerMetric("engine.cursor.notify_ms_per_batch", "ms", "lower",
                "LocalDocument.apply_edits self time",
                "main_op_p50_ms and the printed edit_batch_p99_ms on edit_page"),
    LayerMetric("engine.cursor.resume_rate", "ratio", "higher",
                "BatchUpdateReport resumed / (resumed + invalidated)",
                "ops_per_s on edit_page"),
    LayerMetric("engine.cursor.fetch_ms_per_page", "ms", "lower",
                "Cursor.fetch", "ops_per_s on edit_page, main_op_p50_ms on remote_stream"),
    LayerMetric("enumeration.answers_per_s", "answers/s", "higher",
                "answers / time inside Cursor.fetch and the shard worker's stream iterator",
                "ops_per_s on remote_stream and edit_page"),
    LayerMetric("engine.sharding.wait_ms_per_chunk", "ms", "lower",
                "ShardPool.stream_next_chunk (server process)",
                "the printed first_answer_p50_ms on remote_stream"),
    LayerMetric("engine.sharding.collect_ms_per_call", "ms", "lower",
                "ShardPool.collect (server process)", "main_op_p50_ms on remote_stream"),
    LayerMetric("engine.sharding.answers_per_chunk", "answers", "higher",
                "answers streamed / stats()['streaming']['chunks']",
                "ops_per_s on remote_stream"),
    LayerMetric("engine.sharding.credit_window", "count", "higher",
                "stats()['streaming']['credit']", "ops_per_s on remote_stream"),
    LayerMetric("net.encode_us_per_answer", "us", "lower",
                "encode_frame (server process)", "ops_per_s on remote_stream"),
    LayerMetric("net.decode_us_per_answer", "us", "lower",
                "decode_frame_body (client process)", "ops_per_s on remote_stream"),
    LayerMetric("net.wire_bytes_per_answer", "B", "lower",
                "bytes of answer-carrying frames from encode_frame",
                "ops_per_s on remote_stream"),
    LayerMetric("net.round_trips_per_stream", "count", "lower",
                "RemoteEngine.net_stats() round_trips / streams",
                "the printed first_answer_p50_ms on remote_stream"),
    LayerMetric("net.executor_wait_ms", "ms", "lower",
                "EngineServer._run_engine: submit to start on the engine lane",
                "main_op_p50_ms on remote_stream"),
    LayerMetric("net.client_wait_ms_per_op", "ms", "lower",
                "recv_frame self time in the client (socket wait)",
                "ops_per_s on remote_stream"),
    LayerMetric("engine.facade_self_ms_per_op", "ms", "lower",
                "self time of Engine.add_tree, Document.page, Document.apply_edits, Document.stream",
                "ops_per_s on edit_page and remote_stream"),
    LayerMetric("automata.compile_ms", "ms", "lower",
                "Engine.compile during set-up", "setup_s on all workloads"),
    LayerMetric("runtime.gc_pause_ms", "ms", "lower",
                "gc.callbacks pause per op, all processes",
                "ops_per_s and the printed ingest_doc_p90_ms on ingest"),
    LayerMetric("runtime.gc_gen2_collections", "count", "lower",
                "gc.callbacks generation-2 collections, all processes",
                "ops_per_s and the printed ingest_doc_p90_ms on ingest"),
    LayerMetric("trace.overhead_pct", "%", "lower",
                "traced against untraced rate of the same workload", "none (tracing cost)"),
    LayerMetric("trace.attributed_share", "ratio", "higher",
                "share of the client's op time inside a layer span", "none (reconciliation)"),
)

FACADE_SPANS = ("Engine.add_tree", "Document.page", "Document.apply_edits", "Document.stream")


class SpanRecorder:
    """In-memory spans of one process: ``[id, name, start, end, parent, answers, bytes]``.

    ``answers`` and ``bytes`` count the answers and wire bytes a span handled,
    where that applies.  GC pauses are kept as ``(start, end, generation)``.
    """

    def __init__(self):
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.spans: List[list] = []
        self.gc_events: List[Tuple[float, float, int]] = []
        self._ids = itertools.count(1)
        self._gc_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        record = [next(self._ids), name, perf_counter(), 0.0, stack[-1] if stack else 0, 0, 0]
        stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack().pop()
        self.spans.append(record)

    def add(self, name: str, start: float, end: float, answers: int = 0) -> None:
        """Record a finished span with no parent."""
        self.spans.append([next(self._ids), name, start, end, 0, answers, 0])

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(record, args, result)``
        may fill in the span's answer and byte counts."""

        def wrapper(*args, **kwargs):
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if count is not None:
                count(record, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_events.append((self._gc_start, perf_counter(), info["generation"]))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "gc": self.gc_events}, handle)


class _TimedAnswers:
    """An answer iterator that times each ``next``.  When the stream ends it
    records one span whose duration is the time spent inside ``next``
    (starting at the first call) and whose answer count is the stream's."""

    def __init__(self, iterator, recorder: SpanRecorder):
        self._iterator = iterator
        self._recorder = recorder
        self._first = None
        self._busy = 0.0
        self._answers = 0

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        if self._first is None:
            self._first = start
        try:
            answer = next(self._iterator)
        except StopIteration:
            self._busy += perf_counter() - start
            self._recorder.add("stream_iterator", self._first, self._first + self._busy, self._answers)
            raise
        self._busy += perf_counter() - start
        self._answers += 1
        return answer


def _answers_in_frame(value) -> int:
    """Answers carried by a wire frame: a stream chunk or a page reply."""
    if isinstance(value, list) and len(value) >= 3:
        if value[1] == "chunk":
            return len(value[2])
        if value[1] == "ok" and isinstance(value[2], dict):
            answers = value[2].get("answers")
            if isinstance(answers, tuple):
                return len(answers)
    return 0


def _count_page(record, args, result) -> None:
    record[5] = len(result.answers)


def _count_encoded(record, args, result) -> None:
    answers = _answers_in_frame(args[0])
    if answers:
        record[5] = answers
        record[6] = len(result)


def _count_decoded(record, args, result) -> None:
    record[5] = _answers_in_frame(result)


def install(recorder: SpanRecorder, spans_dir: Optional[str] = None) -> None:
    """Patch the span wrappers into this process (and its future forks).

    With ``spans_dir``, shard workers forked after this call reset their
    inherited spans at start and write their own to ``spans_dir`` on exit.
    """
    import repro.circuits.build as circuits_build
    import repro.engine.sharding as sharding
    import repro.incremental.maintainer as maintainer
    import repro.net.client as net_client
    import repro.net.framing as framing
    import repro.net.server as net_server
    from repro.engine.cursor import Cursor
    from repro.engine.document import Document
    from repro.engine.engine import Engine
    from repro.engine.local import LocalDocument
    from repro.forest_algebra.maintenance import MaintainedTerm
    from repro.incremental.maintainer import IncrementalCircuitMaintainer
    from repro.net.server import EngineServer

    def patch(owner, attribute, name=None, count=None):
        setattr(owner, attribute, recorder.wrap(name or attribute, getattr(owner, attribute), count))

    patch(MaintainedTerm, "__init__", "MaintainedTerm.__init__")
    patch(MaintainedTerm, "apply_edit", "MaintainedTerm.apply_edit")
    patch(maintainer, "build_leaf_box")
    patch(maintainer, "build_internal_box")
    patch(circuits_build, "_internal_plan")
    patch(maintainer, "build_box_index")
    patch(maintainer, "box_changed_mask")
    patch(IncrementalCircuitMaintainer, "apply_report", "IncrementalCircuitMaintainer.apply_report")
    patch(LocalDocument, "apply_edits", "LocalDocument.apply_edits")
    patch(Cursor, "fetch", "Cursor.fetch", _count_page)
    patch(sharding.ShardPool, "stream_next_chunk", "ShardPool.stream_next_chunk")
    patch(sharding.ShardPool, "collect", "ShardPool.collect")
    patch(net_server, "encode_frame", count=_count_encoded)
    patch(framing, "decode_frame_body", count=_count_decoded)
    patch(net_client, "recv_frame")
    patch(Engine, "add_tree", "Engine.add_tree")
    patch(Engine, "compile", "Engine.compile")
    for method in ("page", "apply_edits", "stream"):
        patch(Document, method, f"Document.{method}")

    answers = LocalDocument.answers

    def timed_answers(self):
        return _TimedAnswers(answers(self), recorder)

    LocalDocument.answers = timed_answers

    run_engine = EngineServer._run_engine

    async def run_engine_timed(self, op, fn):
        # The executor hop: time from submitting the call to its start on
        # the single engine lane, kept as a span of its own.
        submitted = perf_counter()

        def started():
            recorder.add("executor_wait", submitted, perf_counter())
            return fn()

        return await run_engine(self, op, started)

    EngineServer._run_engine = run_engine_timed

    if spans_dir is not None:
        worker_main = sharding._shard_worker_main

        def traced_worker_main(*args, **kwargs):
            recorder.reset()
            try:
                return worker_main(*args, **kwargs)
            finally:
                recorder.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"))

        sharding._shard_worker_main = traced_worker_main

    gc.callbacks.append(recorder.on_gc)


# ------------------------------------------------------------------ analysis
@dataclass
class SpanTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    answers: int = 0
    nbytes: int = 0


def aggregate(
    processes: List[dict], start: float, end: float
) -> Tuple[Dict[str, SpanTotals], List[Tuple[float, float, int]]]:
    """Per-name totals of the spans (and the GC pauses) inside ``[start, end]``.

    ``processes`` holds one ``{"spans": ..., "gc": ...}`` dump per process;
    parent links are resolved within each process.
    """
    totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
    pauses = []
    for dump in processes:
        covered: Dict[int, float] = defaultdict(float)
        for _id, _name, s, e, parent, _a, _b in dump["spans"]:
            covered[parent] += e - s
        for span_id, name, s, e, _parent, answers, nbytes in dump["spans"]:
            if s < start or e > end:
                continue
            entry = totals[name]
            entry.count += 1
            entry.total_s += e - s
            entry.self_s += e - s - covered.get(span_id, 0.0)
            entry.answers += answers
            entry.nbytes += nbytes
        pauses.extend(p for p in dump["gc"] if p[0] >= start and p[1] <= end)
    return totals, pauses


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(
    totals: Dict[str, SpanTotals],
    pauses: List[Tuple[float, float, int]],
    setup_totals: Dict[str, SpanTotals],
    facts: Dict[str, float],
) -> Dict[str, Tuple[float, int]]:
    """``{metric: (value, samples)}`` for every metric of :data:`LAYER_METRICS`.

    ``facts`` carries what the workload counted itself over the traced phase:
    ``ops``, ``docs``, ``edits``, ``streams``, ``streamed_answers``,
    ``boxes_rebuilt``, ``resumed``, ``invalidated``, ``cache_hits``,
    ``cache_misses``, ``stream_chunks``, ``credit_window``,
    ``round_trips``, ``overhead_pct``.  A metric whose layer did no work on
    the workload reads 0 with 0 samples.
    """
    t = defaultdict(SpanTotals, totals)
    ms = 1000.0
    ops, docs, edits = facts.get("ops", 0), facts.get("docs", 0), facts.get("edits", 0)
    streams = facts.get("streams", 0)
    boxes = t["build_leaf_box"].total_s + t["build_internal_box"].total_s
    fetch, iterate = t["Cursor.fetch"], t["stream_iterator"]
    encoded, decoded = t["encode_frame"], t["decode_frame_body"]
    facade = [t[name] for name in FACADE_SPANS]
    facade_calls = sum(s.count for s in facade)
    resumed, invalidated = facts.get("resumed", 0), facts.get("invalidated", 0)
    hits, misses = facts.get("cache_hits", 0), facts.get("cache_misses", 0)
    root = t["op"]
    per_doc_index = t["build_box_index"].self_s if docs else 0.0
    per_edit_index = t["build_box_index"].self_s if edits else 0.0
    values = {
        "forest_algebra.term_build_ms_per_doc": (
            _ratio(t["MaintainedTerm.__init__"].self_s * ms, docs), int(docs)),
        "forest_algebra.rebalance_ms_per_edit": (
            _ratio(t["MaintainedTerm.apply_edit"].self_s * ms, edits), int(edits)),
        "circuits.box_build_ms_per_doc": (_ratio(boxes * ms, docs), int(docs)),
        "circuits.plan_misses": (t["_internal_plan"].count, t["_internal_plan"].count),
        "circuits.build_cache_hit_rate": (_ratio(hits, hits + misses), int(hits + misses)),
        "enumeration.index_build_ms_per_doc": (_ratio(per_doc_index * ms, docs), int(docs)),
        "enumeration.index_build_ms_per_edit": (_ratio(per_edit_index * ms, edits), int(edits)),
        "incremental.trunk_boxes_per_edit": (
            _ratio(facts.get("boxes_rebuilt", 0), edits), int(edits)),
        "incremental.apply_report_self_ms": (
            _ratio(t["IncrementalCircuitMaintainer.apply_report"].self_s * ms,
                   t["IncrementalCircuitMaintainer.apply_report"].count),
            t["IncrementalCircuitMaintainer.apply_report"].count),
        "incremental.changed_mask_ms_per_edit": (
            _ratio(t["box_changed_mask"].self_s * ms, edits), int(edits)),
        "engine.cursor.notify_ms_per_batch": (
            _ratio(t["LocalDocument.apply_edits"].self_s * ms, t["LocalDocument.apply_edits"].count),
            t["LocalDocument.apply_edits"].count),
        "engine.cursor.resume_rate": (
            _ratio(resumed, resumed + invalidated), int(resumed + invalidated)),
        "engine.cursor.fetch_ms_per_page": (_ratio(fetch.total_s * ms, fetch.count), fetch.count),
        "enumeration.answers_per_s": (
            _ratio(fetch.answers + iterate.answers, fetch.total_s + iterate.total_s),
            fetch.count + iterate.count),
        "engine.sharding.wait_ms_per_chunk": (
            _ratio(t["ShardPool.stream_next_chunk"].total_s * ms, t["ShardPool.stream_next_chunk"].count),
            t["ShardPool.stream_next_chunk"].count),
        "engine.sharding.collect_ms_per_call": (
            _ratio(t["ShardPool.collect"].total_s * ms, t["ShardPool.collect"].count),
            t["ShardPool.collect"].count),
        "engine.sharding.answers_per_chunk": (
            _ratio(facts.get("streamed_answers", 0), facts.get("stream_chunks", 0)),
            int(facts.get("stream_chunks", 0))),
        "engine.sharding.credit_window": (facts.get("credit_window", 0), 1 if streams else 0),
        "net.encode_us_per_answer": (
            _ratio(encoded.total_s * 1e6, encoded.answers), encoded.count),
        "net.decode_us_per_answer": (
            _ratio(decoded.total_s * 1e6, decoded.answers), decoded.count),
        "net.wire_bytes_per_answer": (_ratio(encoded.nbytes, encoded.answers), encoded.count),
        "net.round_trips_per_stream": (_ratio(facts.get("round_trips", 0), streams), int(streams)),
        "net.executor_wait_ms": (
            _ratio(t["executor_wait"].total_s * ms, t["executor_wait"].count), t["executor_wait"].count),
        "net.client_wait_ms_per_op": (
            _ratio(t["recv_frame"].self_s * ms, ops) if t["recv_frame"].count else 0.0,
            t["recv_frame"].count),
        "engine.facade_self_ms_per_op": (
            _ratio(sum(s.self_s for s in facade) * ms, facade_calls), facade_calls),
        "automata.compile_ms": (
            setup_totals["Engine.compile"].total_s * ms, setup_totals["Engine.compile"].count),
        "runtime.gc_pause_ms": (
            _ratio(sum(e - s for s, e, _g in pauses) * ms, ops), len(pauses)),
        "runtime.gc_gen2_collections": (
            sum(1 for _s, _e, g in pauses if g == 2), len(pauses)),
        "trace.overhead_pct": (facts.get("overhead_pct", 0.0), int(ops)),
        "trace.attributed_share": (_ratio(root.total_s - root.self_s, root.total_s), root.count),
    }
    assert set(values) == {m.name for m in LAYER_METRICS}
    return values


def self_time_by_name(totals: Dict[str, SpanTotals]) -> List[Tuple[str, float, int]]:
    """``(span name, self seconds, calls)``, largest self time first."""
    rows = [(name, s.self_s, s.count) for name, s in totals.items()]
    return sorted(rows, key=lambda row: -row[1])
