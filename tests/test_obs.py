"""The observability layer: histograms, Prometheus text, traces, SLOs, events.

What is pinned here:

* **Mergeable histograms** — fixed shared bucket bounds make the sharded
  merge (element-wise bucket addition) *identical* to recording every sample
  in a single process; quantiles are conservative bucket upper bounds.
* **Prometheus round trip** — ``Engine.metrics_text()`` parses back with
  :func:`repro.obs.parse_prometheus_text` to the same counts, sums and
  cumulative buckets.
* **One coherent trace** — a sharded ``stream()`` under an injected worker
  crash produces a single Chrome-trace JSON holding the parent span, spans
  from both shard process rows and the failover retry, linked by
  ``trace_id`` / ``parent_id``.
* **SLO monitoring** — ``delay_budget`` records every per-answer delay and
  every breach (event + counter) without raising; ``delay_strict`` raises.
* **Precise lifecycle errors** — monitoring calls on a closed engine, or on
  one whose constructor raised, get an :class:`~repro.errors.EngineError`
  naming the situation, never an ``AttributeError``; ``close()`` is
  idempotent.
* **Zero overhead when off** — without tracing/budgets the local stream is
  the runtime's own iterator and no per-answer hook is installed.
"""

from __future__ import annotations

import json
import glob
import os

import pytest

from repro import Engine, EngineError, ShardTimeoutError
from repro.automata.queries import select_labeled
from repro.obs import (
    DelayMonitor,
    EventLog,
    Histogram,
    MetricsRegistry,
    Tracer,
    parse_prometheus_text,
    render_prometheus,
)
from repro.trees.edits import Relabel
from repro.trees.generators import random_tree

LABELS = ("a", "b", "c", "d")


def tree_query():
    return select_labeled("a", LABELS)


def small_tree(seed=7, size=30):
    return random_tree(size, LABELS, seed)


# ================================================================ histograms
class TestHistogram:
    def test_observe_count_sum_max(self):
        h = Histogram()
        for v in (0.5, 0.25, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(2.75)
        assert h.max == 2.0

    def test_quantile_is_conservative_bucket_upper_bound(self):
        h = Histogram()
        for _ in range(99):
            h.observe(2e-6)  # bucket (1e-6, 2.5e-6]
        h.observe(0.2)  # bucket (1e-1, 2.5e-1]
        assert h.quantile(0.50) == 2.5e-6
        assert h.quantile(0.50) >= 2e-6  # never below the true quantile
        assert h.quantile(0.999) == 2.5e-1
        assert h.quantile(1.0) == 2.5e-1

    def test_overflow_bucket_reports_exact_max(self):
        h = Histogram()
        h.observe(120.0)  # beyond the last bound (60 s)
        assert h.quantile(0.99) == 120.0
        assert h.counts[-1] == 1

    def test_empty_quantiles_are_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_merge_requires_matching_bounds(self):
        with pytest.raises(ValueError, match="bucket bounds"):
            Histogram().merge(Histogram(bounds=(1.0, 2.0)))

    def test_sharded_merge_equals_single_process_recording(self):
        """The satellite invariant: merging per-shard histograms bucket-wise
        is indistinguishable from having recorded every sample in one
        process (dyadic samples so float sums are exact)."""
        shard_a = [0.5, 0.25, 0.125, 4.0]
        shard_b = [0.0625, 8.0, 0.25]
        ra, rb, single = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for v in shard_a:
            ra.observe("answer_delay_seconds", v)
            single.observe("answer_delay_seconds", v)
        for v in shard_b:
            rb.observe("answer_delay_seconds", v)
            single.observe("answer_delay_seconds", v)
        ra.inc("delay_violations", 2)
        rb.inc("delay_violations", 1)
        single.inc("delay_violations", 3)

        parent = MetricsRegistry()
        for wire in (ra.to_wire(), rb.to_wire(), None):  # None: a dead shard
            parent.merge_wire(wire)
        assert parent.snapshot() == single.snapshot()

    def test_registry_snapshot_shape(self):
        r = MetricsRegistry()
        r.observe("x_seconds", 0.004)
        r.inc("hits")
        snap = r.snapshot()
        assert snap["x_seconds"]["type"] == "histogram"
        assert snap["x_seconds"]["count"] == 1
        assert snap["x_seconds"]["p50"] == 5e-3
        assert snap["hits"] == {"type": "counter", "value": 1}

    def test_timer_is_a_bound_observe(self):
        r = MetricsRegistry()
        t = r.timer("op_seconds")
        t(0.5)
        t(0.25)
        assert r.histograms["op_seconds"].count == 2


# ================================================================ prometheus
class TestPrometheusText:
    def test_render_parse_round_trip(self):
        r = MetricsRegistry()
        for v in (2e-6, 3e-4, 0.02, 0.02, 7.0):
            r.observe("update_batch_seconds", v)
        r.inc("failovers_total", 4)
        r.inc("migrations", 2)  # _total appended by the renderer
        text = render_prometheus(r.snapshot())
        parsed = parse_prometheus_text(text)

        hist = parsed["repro_update_batch_seconds"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 5
        assert hist["sum"] == pytest.approx(2e-6 + 3e-4 + 0.02 + 0.02 + 7.0)
        assert hist["buckets"]["+Inf"] == 5  # cumulative series ends at count
        cumulative = [hist["buckets"][le] for le in hist["buckets"]]
        assert cumulative == sorted(cumulative)  # cumulative ⇒ monotone
        assert parsed["repro_failovers_total"]["value"] == 4
        assert parsed["repro_migrations_total"]["value"] == 2

    def test_engine_metrics_text_round_trips(self):
        with Engine(delay_budget=60.0) as engine:
            doc = engine.add_tree(small_tree(), tree_query())
            answers = doc.answers()
            doc.apply_edits([Relabel(0, "b")])
            metrics = engine.metrics()
            parsed = parse_prometheus_text(engine.metrics_text())
        delay = parsed["repro_answer_delay_seconds"]
        assert delay["count"] == len(answers)
        assert delay["count"] == metrics["answer_delay_seconds"]["count"]
        assert delay["sum"] == pytest.approx(metrics["answer_delay_seconds"]["sum"])
        assert (
            parsed["repro_failovers_total"]["value"]
            == metrics["failovers_total"]["value"]
            == 0
        )


# ==================================================================== engine
class TestEngineMetrics:
    def _workload(self, engine):
        """The same deterministic workload on any engine; returns answer count."""
        docs = [
            engine.add_tree(small_tree(seed), tree_query(), doc_id=f"d{seed}")
            for seed in (1, 2, 3)
        ]
        total = sum(len(doc.answers()) for doc in docs)
        for doc in docs:
            doc.apply_edits([Relabel(0, "a"), Relabel(1, "b")])
        total += sum(len(doc.answers()) for doc in docs)
        return total

    def test_sharded_histograms_merge_to_single_process_totals(self):
        with Engine(delay_budget=60.0) as local:
            local_total = self._workload(local)
            local_metrics = local.metrics()
        with Engine(workers=2, delay_budget=60.0) as sharded:
            sharded_total = self._workload(sharded)
            sharded_metrics = sharded.metrics()

        assert local_total == sharded_total
        # The merged worker histograms carry exactly the per-answer and
        # per-edit sample counts of the single process (timings differ, the
        # sample population does not).
        for name in (
            "answer_delay_seconds",
            "update_apply_seconds",
            "update_batch_seconds",
            "ingest_build_seconds",
        ):
            assert sharded_metrics[name]["count"] == local_metrics[name]["count"], name
        assert local_metrics["answer_delay_seconds"]["count"] == local_total
        # Parent-side protocol metrics only exist on the sharded engine.
        assert sharded_metrics["protocol_round_trip_seconds"]["count"] > 0
        assert "protocol_round_trip_seconds" not in local_metrics
        assert sharded_metrics["shard_deaths_total"]["value"] == 0

    def test_delay_budget_records_violations_without_raising(self):
        with Engine(delay_budget=1e-12) as engine:  # everything breaches
            doc = engine.add_tree(small_tree(), tree_query())
            answers = doc.answers()
            metrics = engine.metrics()
            events = engine.events()
        assert len(answers) > 0
        assert metrics["answer_delay_seconds"]["count"] == len(answers)
        assert metrics["delay_violations"]["value"] == len(answers)
        violation = [e for e in events if e["kind"] == "delay_violation"]
        assert violation and violation[0]["budget"] == 1e-12
        assert violation[0]["seconds"] > 1e-12

    def test_delay_strict_raises_on_first_breach(self):
        with Engine(delay_budget=1e-12, delay_strict=True) as engine:
            doc = engine.add_tree(small_tree(), tree_query())
            with pytest.raises(EngineError, match="delay SLO violated"):
                list(doc.stream())

    def test_budget_validation(self):
        with pytest.raises(EngineError, match="delay budget must be positive"):
            Engine(delay_budget=0.0)
        with pytest.raises(EngineError, match="slow_op_seconds must be positive"):
            Engine(slow_op_seconds=-1.0)
        with pytest.raises(EngineError, match="must be positive"):
            DelayMonitor(-1.0, MetricsRegistry())

    def test_zero_overhead_when_off(self):
        """No budget, no tracing: the local stream is the runtime's own
        iterator and no per-answer hook is installed anywhere."""
        with Engine() as engine:
            doc = engine.add_tree(small_tree(), tree_query())
            store = engine._store
            assert store.delay_monitor is None
            maintainer = store.document(doc.doc_id).maintainer
            assert maintainer.on_delay is None
            iterator = doc.stream()
            # the exact generator the runtime hands out — no wrapper frames
            assert iterator.gi_code.co_name == "iterate"
            assert engine._tracer.enabled is False
        with Engine(delay_budget=1.0) as engine:
            doc = engine.add_tree(small_tree(), tree_query())
            maintainer = engine._store.document(doc.doc_id).maintainer
            assert maintainer.on_delay == engine._store.delay_monitor.observe


# ===================================================================== events
class TestEvents:
    def test_fault_injection_is_an_event(self):
        with Engine(workers=1, fault_plan="0:count:0:slow:0.0") as engine:
            doc = engine.add_tree(small_tree(), tree_query())
            doc.count()
            events = engine.events()
        fired = [e for e in events if e["kind"] == "fault_injected"]
        assert fired == [
            {"kind": "fault_injected", "ts": fired[0]["ts"],
             "shard": 0, "op": "count", "action": "slow"}
        ]

    def test_timeout_message_carries_stats_snapshot(self):
        """Satellite: ShardTimeoutError names the hung shard's live load."""
        with Engine(workers=1, deadline=0.4, fault_plan="0:count:0:hang") as engine:
            doc = engine.add_tree(small_tree(), tree_query())
            with pytest.raises(ShardTimeoutError) as excinfo:
                doc.count()
            message = str(excinfo.value)
            assert "[shard 0 at timeout: " in message
            # the hung count request itself is still in flight
            assert "inflight_requests=1" in message
            assert "queued_replies=0" in message
            assert "streams_open=0" in message
            events = engine.events()
            metrics = engine.metrics()
        kinds = [e["kind"] for e in events]
        assert "shard_timeout" in kinds
        assert "shard_death" in kinds
        assert metrics["shard_timeouts_total"]["value"] == 1
        assert metrics["shard_deaths_total"]["value"] == 1

    def test_event_log_is_a_ring(self):
        log = EventLog(capacity=3)
        for n in range(5):
            log.emit("tick", n=n)
        assert [e["n"] for e in log.snapshot()] == [2, 3, 4]
        assert len(log) == 3


# ===================================================================== tracer
class TestTracer:
    def test_disabled_tracer_is_inert_and_shared(self):
        t = Tracer()
        assert t.begin("x") is None
        assert t.span("x") is t.span("y")  # one shared no-op CM
        t.finish(None)  # no-op
        assert t.drain() == []

    def test_span_nesting_and_context(self):
        t = Tracer(enabled=True, process="parent")
        with t.span("outer") as outer:
            assert t.current_context() == outer.context
            with t.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert t.current_context() is None
        drained = t.drain()
        assert [s["name"] for s in drained] == ["inner", "outer"]
        assert t.drain() == []  # drain clears

    def test_chrome_trace_shape(self):
        t = Tracer(enabled=True, process="parent")
        with t.span("op", doc_id="'d'"):
            pass
        t.absorb([{  # a drained worker span
            "name": "count", "trace_id": "t:parent:0", "span_id": "shard-1:0",
            "parent_id": "parent:0", "process": "shard-1",
            "start_wall": 123.0, "duration": 0.5, "attrs": {},
        }])
        trace = t.chrome_trace()
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"parent", "shard-1"}
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"op", "count"}
        assert all(e["dur"] > 0 for e in spans)

    def test_trace_env_auto_dump_on_close(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        engine = Engine()
        assert engine._tracer.enabled
        doc = engine.add_tree(small_tree(), tree_query())
        doc.answers()
        engine.close()
        paths = glob.glob(os.path.join(str(tmp_path), "trace-*.json"))
        assert len(paths) == 1
        with open(paths[0], encoding="utf8") as handle:
            trace = json.load(handle)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_dump_trace_requires_tracing(self, tmp_path):
        with Engine() as engine:
            with pytest.raises(EngineError, match="tracing is off"):
                engine.dump_trace(str(tmp_path / "t.json"))

    def test_sharded_stream_crash_yields_one_linked_trace(self, tmp_path):
        """The acceptance trace: one sharded stream under an injected worker
        crash exports a single Chrome trace holding the parent stream span,
        spans from both shard process rows, and the failover retry linked
        under the stream span."""
        with Engine(
            workers=2,
            replicas=2,
            trace=True,
            fault_plan="*:stream_chunk:0:crash",
        ) as engine:
            doc = engine.add_tree(small_tree(size=60), tree_query())
            answers = list(doc.stream())  # crash mid-stream, failover, finish
            assert engine.failovers_total >= 1
            engine.await_repairs()
            path = engine.dump_trace(str(tmp_path / "trace.json"))
        with open(path, encoding="utf8") as handle:
            trace = json.load(handle)
        assert len(answers) > 0

        events = trace["traceEvents"]
        process_of = {
            e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        spans = [e for e in events if e["ph"] == "X"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        # parent + both shard rows are present in the one file
        assert "parent" in process_of.values()
        assert {"shard-0", "shard-1"} <= set(process_of.values())

        stream = by_name["stream"][0]
        assert process_of[stream["pid"]] == "parent"
        # the failover retry is linked under the stream span
        retry = by_name["failover_retry"][0]
        assert retry["args"]["parent_id"] == stream["args"]["span_id"]
        assert retry["args"]["trace_id"] == stream["args"]["trace_id"]
        # the surviving worker's stream_open span joined the same trace
        worker_opens = [
            s for s in by_name.get("stream_open", ())
            if process_of[s["pid"]].startswith("shard-")
        ]
        assert any(
            s["args"]["trace_id"] == stream["args"]["trace_id"]
            for s in worker_opens
        )
        # the repair of the crashed replica was traced on the respawned worker
        assert "restore" in by_name


# ================================================================= lifecycle
class TestLifecycleErrors:
    def test_close_is_idempotent_and_monitoring_errors_are_precise(self):
        engine = Engine()
        engine.add_tree(small_tree(), tree_query())
        engine.close()
        engine.close()  # satellite: second close is a silent no-op
        for call in (engine.stats, engine.metrics, engine.metrics_text, engine.events):
            with pytest.raises(EngineError, match="engine is closed"):
                call()
        with pytest.raises(EngineError, match="engine is closed"):
            engine.dump_trace("unused.json")

    @pytest.mark.parametrize("front_end", ["in-process", "workers=1", "remote"])
    def test_document_ops_on_a_closed_engine_say_closed(self, front_end):
        """Every front end reports its closed state before looking up the
        document: no ``no document with id`` error, no stale epoch."""
        from repro.net import EngineServer, RemoteEngine

        served = Engine(workers=1 if front_end == "workers=1" else 0)
        server = None
        engine = served
        if front_end == "remote":
            server = EngineServer(served).start()
            engine = RemoteEngine(server.address)
        try:
            doc = engine.add_tree(small_tree(), tree_query())
            engine.close()
            calls = (
                doc.stream,
                doc.page,
                lambda: doc.apply_edits([]),
                doc.count,
                lambda: doc.epoch,
                lambda: engine.remove(doc.doc_id),
            )
            for call in calls:
                with pytest.raises(EngineError, match="this engine is closed"):
                    call()
        finally:
            if server is not None:
                engine.close()
                server.stop()
            served.close()

    def test_failed_construction_monitoring_raises_engine_error(self):
        captured = {}

        class Probe(Engine):
            def __init__(self, *args, **kwargs):
                captured["husk"] = self
                super().__init__(*args, **kwargs)

        with pytest.raises(EngineError, match="page_size"):
            Probe(page_size=0)  # raises before _closed is ever assigned
        husk = captured["husk"]
        for call in (husk.stats, husk.metrics, husk.events):
            with pytest.raises(EngineError, match="never finished construction"):
                call()
        husk.close()  # still safe: nothing was created, nothing to release
