"""The three benchmark workloads: ``ingest``, ``edit_page`` and ``remote_stream``.

Each workload loads mainly one phase of the pipeline, so every layer does most
of its work in one workload and little in the others.  All three run a closed
loop: one client in the benchmark process sends the next request only after
the previous reply arrived (pagination needs the previous page's cursor
anyway).  A workload's measured time is the sum of its operations' durations,
so correctness bookkeeping between operations is never timed.  Durations are
reported at the reference host speed of :mod:`calibrate`.

Every workload is gated on the same end-to-end metrics (``run.END_TO_END``):
``setup_s``, ``peak_rss_mb``, ``ops_per_s`` over all of its operations, and
``main_op_p50_ms``, the median duration of its ``main_op``: ``add_tree`` on
``ingest``, the edit batch on ``edit_page`` and the page fetch on
``remote_stream``.  What :meth:`end_to_end` returns beside them (each kind's
median and tail, nodes and answers per second, the first answer's delay) is
printed for diagnosis but not gated.  The tails sit where rare long pauses
land: generation-2 collections on one ingested document in four and on about
one edit batch in a hundred, and pauses of the server process under the
remote page tail.  In sets of ten runs the ingest p90 spread by 20-40% of its
median, the edit p99 by 35%, and the remote page p99 by 5% in one set and 35%
in another, wider than the 25% a regression bound may be.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import calibrate
import inputs as gen
from layers import SpanRecorder
from repro import Engine
from repro.bench.workloads import query_for_name
from repro.errors import CursorInvalidatedError, ReproError
from repro.net import RemoteEngine

PAGE_SIZE = 100



class Clock:
    """Times one workload's operations.

    ``elapsed`` sums the operations' wall-clock durations and bounds the run.
    The kernel of :mod:`calibrate` is timed before the first operation, then
    between operations every ``CALIBRATE_EVERY`` seconds of measured time, and
    once more at :meth:`finish`; each duration is reported scaled by the
    kernel timings that bracket it.
    """

    CALIBRATE_EVERY = 0.1

    def __init__(self, recorder: Optional[SpanRecorder]):
        self.recorder = recorder
        self.elapsed = 0.0
        self.ops = 0
        self.failed = 0
        self.kernel_s: List[float] = []
        self._next_calibration = 0.0
        #: kind -> [(wall seconds, index of the kernel timing before it)]
        self._samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        self._op_kinds = set()

    def op(self, kind: str, fn, *args):
        """Run one operation; a :class:`ReproError` counts as a failed op."""
        if self.elapsed >= self._next_calibration:
            self.kernel_s.append(calibrate.kernel_seconds())
            self._next_calibration = self.elapsed + self.CALIBRATE_EVERY
        record = self.recorder.open("op") if self.recorder is not None else None
        start = perf_counter()
        try:
            result = fn(*args)
        except ReproError as exc:
            print(f"{kind} failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            result = None
        finally:
            took = perf_counter() - start
            if record is not None:
                self.recorder.close(record)
            self.elapsed += took
            self.ops += 1
        self._op_kinds.add(kind)
        self.record(kind, took)
        return result

    def record(self, kind: str, seconds: float) -> None:
        """Add a duration measured inside the current operation."""
        self._samples[kind].append((seconds, len(self.kernel_s) - 1))

    def finish(self) -> None:
        self.kernel_s.append(calibrate.kernel_seconds())

    def __call__(self, kind: str) -> List[float]:
        """The calibrated durations (seconds) of one kind of operation."""
        k = self.kernel_s
        return [seconds * calibrate.speed_factor(k[i], k[i + 1]) for seconds, i in self._samples[kind]]

    def total(self) -> float:
        """Calibrated sum of every operation's duration."""
        return sum(sum(self(kind)) for kind in self._op_kinds)

def digest(answers) -> int:
    """Order-sensitive digest of an answer sequence (comparable in-process only)."""
    value = len(answers)
    for answer in answers:
        value = (value * 1000003 + hash(answer)) & 0xFFFFFFFFFFFFFFFF
    return value


def proc_status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


# --------------------------------------------------------------------- ingest
class Ingest:
    """An in-process engine adds a corpus of distinct trees, one ``add_tree``
    at a time.  Documents stay registered; past ``retained`` live documents
    the oldest is removed, so the heap grows to a fixed working set (and
    memory stays bounded) however many documents a run gets through."""

    name = "ingest"
    in_process = True
    main_op = "add_tree"

    def __init__(self, smoke: bool):
        self.sizes = (16, 64) if smoke else (128, 2048)
        self.retained = 8 if smoke else 16
        self.docs_per_s = 12  # about twice what a fast run reaches

    def make_inputs(self, seed: int, seconds: float):
        count = int(self.docs_per_s * seconds) + 20
        return gen.ingest_inputs(seed, count, *self.sizes)

    def setup(self, corpus, tmp, spans_dir):
        engine = Engine()
        queries = {name: engine.compile(query_for_name(name)) for name in ("descendant", "nondet-6")}
        return {"engine": engine, "queries": queries, "live": []}

    def measure(self, state, corpus, seconds: float, clock: Clock) -> Dict[str, float]:
        engine, queries, live = state["engine"], state["queries"], state["live"]
        before = engine.stats()
        nodes = docs = 0
        for index, doc in enumerate(corpus):
            if clock.elapsed >= seconds:
                break
            handle = clock.op("add_tree", engine.add_tree, doc.tree, queries[doc.query])
            if handle is None:
                continue
            live.append((index, handle))
            nodes += doc.tree.size()
            docs += 1
            if len(live) > self.retained:
                clock.op("remove", live.pop(0)[1].remove)
        if clock.elapsed < seconds:
            print("ingest: the corpus ran out before the measured time", file=sys.stderr)
        after = engine.stats()
        return {
            "nodes": nodes,
            "docs": docs,
            "cache_hits": after["build_cache_hits"] - before["build_cache_hits"],
            "cache_misses": after["build_cache_misses"] - before["build_cache_misses"],
        }

    def end_to_end(self, clock: Clock, facts) -> Dict[str, tuple]:
        docs = clock("add_tree")
        return {
            "ingest_nodes_per_s": (facts["nodes"] / sum(docs), "nodes/s", f"over {len(docs)} documents"),
            "ingest_doc_p50_ms": percentile(docs, 0.5),
            "ingest_doc_p90_ms": percentile(docs, 0.9),
        }

    def rate(self, clock: Clock, facts) -> float:
        return facts["nodes"] / clock.total()

    def check(self, state, corpus) -> Tuple[List[str], int]:
        """Sampled live documents' answer counts against a fresh one-document
        engine: the oldest and newest, the first heavy one, the first version."""
        live = state["live"]
        picks = {live[0], live[-1]}
        picks.update([entry for entry in live if corpus[entry[0]].query == "nondet-6"][:1])
        picks.update([entry for entry in live if corpus[entry[0]].source is not None][:1])
        failures = []
        for index, handle in sorted(picks, key=lambda entry: entry[0]):
            doc = corpus[index]
            with Engine() as fresh:
                expected = fresh.add_tree(doc.tree, fresh.compile(query_for_name(doc.query))).count()
            actual = handle.count()
            if actual != expected:
                failures.append(f"document {index}: {actual} answers, a fresh engine gives {expected}")
        return failures, len(picks)

    def close(self, state) -> None:
        state["engine"].close()


# ------------------------------------------------------------------ edit_page
class EditPage:
    """An in-process engine holds a few large documents with open cursors;
    each round applies one edit batch, then fetches a few pages."""

    name = "edit_page"
    in_process = True
    main_op = "edit"

    def __init__(self, smoke: bool):
        self.docs = 3
        self.size = 256 if smoke else 8192
        self.rounds_per_s = 200  # about twice what a fast run reaches
        self.cursors_per_doc = 4
        self.reads = 3

    def make_inputs(self, seed: int, seconds: float):
        rounds = int(self.rounds_per_s * seconds) + 10
        return gen.edit_page_inputs(seed, self.docs, self.size, rounds, self.cursors_per_doc, self.reads)

    def setup(self, inputs, tmp, spans_dir):
        engine = Engine()
        query = engine.compile(query_for_name("pairs"))
        docs = [engine.add_tree(tree, query) for tree in inputs.trees]
        cursors = [[doc.page(page_size=PAGE_SIZE) for _ in range(inputs.cursors_per_doc)] for doc in docs]
        return {"engine": engine, "docs": docs, "cursors": cursors, "applied": [[] for _ in docs]}

    def _next_page(self, state, doc: int, slot: int):
        handle, page = state["docs"][doc], state["cursors"][doc][slot]
        if page.exhausted:
            page = handle.page(page_size=PAGE_SIZE)
        else:
            try:
                page = handle.page(cursor=page)
            except CursorInvalidatedError:
                page = handle.page(page_size=PAGE_SIZE)
        state["cursors"][doc][slot] = page

    def measure(self, state, inputs, seconds: float, clock: Clock) -> Dict[str, float]:
        engine, docs, applied = state["engine"], state["docs"], state["applied"]
        facts = defaultdict(float)
        before = engine.stats()
        for round_ in inputs.rounds:
            if clock.elapsed >= seconds:
                break
            report = clock.op("edit", docs[round_.doc].apply_edits, round_.batch)
            applied[round_.doc].append(round_.batch)
            if report is not None:
                facts["edits"] += len(round_.batch)
                facts["boxes_rebuilt"] += report.boxes_rebuilt
                facts["resumed"] += report.cursors_resumed
                facts["invalidated"] += report.cursors_invalidated
            for doc, slot in round_.reads:
                clock.op("page", self._next_page, state, doc, slot)
        if clock.elapsed < seconds:
            print("edit_page: the schedule ran out before the measured time", file=sys.stderr)
        after = engine.stats()
        facts["cache_hits"] = after["build_cache_hits"] - before["build_cache_hits"]
        facts["cache_misses"] = after["build_cache_misses"] - before["build_cache_misses"]
        return facts

    def end_to_end(self, clock: Clock, facts) -> Dict[str, tuple]:
        edits, pages = clock("edit"), clock("page")
        return {
            "edit_batch_p50_ms": percentile(edits, 0.5),
            "edit_batch_p99_ms": percentile(edits, 0.99),
            "page_p50_ms": percentile(pages, 0.5),
            "page_p99_ms": percentile(pages, 0.99),
        }

    def rate(self, clock: Clock, facts) -> float:
        return clock.ops / clock.total()

    def check(self, state, inputs) -> Tuple[List[str], int]:
        """Each document's final answer set against a fresh ``add_tree`` of its final tree."""
        failures = []
        for index, (tree, handle) in enumerate(zip(inputs.trees, state["docs"])):
            final = gen.replay(tree, state["applied"][index])
            with Engine() as fresh:
                expected = set(fresh.add_tree(final, fresh.compile(query_for_name("pairs"))).stream())
            actual = set(handle.stream())
            if actual != expected:
                failures.append(
                    f"document {index}: {len(actual)} answers, {len(actual ^ expected)} differ "
                    "from a fresh build of the final tree"
                )
        return failures, len(inputs.trees)

    def close(self, state) -> None:
        state["engine"].close()


# -------------------------------------------------------------- remote_stream
class ServerProcess:
    """``EngineServer(Engine(workers=1))`` in a child process (``server.py``)."""

    def __init__(self, tmp: str, spans_dir: Optional[str]):
        # A fresh catalog per server, so every set-up compiles its query cold.
        command = [sys.executable, os.path.join(os.path.dirname(__file__), "server.py"),
                   "--catalog", os.path.join(tmp, f"catalog-{os.getpid()}")]
        if spans_dir is not None:
            command += ["--spans-dir", spans_dir]
        # Its own process group, so that kill() reaches the shard worker too.
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
            line = self.process.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("the engine server did not start")
            self.port = json.loads(line)["port"]
        except BaseException:
            self.kill()
            raise

    def stop(self) -> int:
        """Shut the server down; returns the summed peak RSS (kB) of the
        server and its shard worker."""
        try:
            out, _ = self.process.communicate(input="", timeout=120.0)
        except BaseException:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"the engine server exited with {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])["peak_rss_kb"]

    def close(self) -> None:
        """Shut down cleanly if still running; kill the group if that fails."""
        if self.process.returncode is None:
            try:
                self.process.communicate(input="", timeout=60.0)
            except BaseException:
                self.kill()
                raise

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


class RemoteStream:
    """One ``RemoteEngine`` over one TCP connection drives a served engine:
    full streams, page walks, and a rare edit batch inside a walk."""

    name = "remote_stream"
    in_process = False
    main_op = "page"

    def __init__(self, smoke: bool):
        self.docs = 3
        self.size = 64 if smoke else 2048
        self.walks = 3 if smoke else 10
        self.pages = 4 if smoke else 20
        self.edit_every = 2 if smoke else 5

    def make_inputs(self, seed: int, seconds: float):
        cycles = int(2 * seconds) + 4  # a cycle takes about two seconds
        return gen.remote_inputs(seed, self.docs, self.size, cycles, self.walks, self.pages, self.edit_every)

    def setup(self, inputs, tmp, spans_dir):
        server = ServerProcess(tmp, spans_dir)
        try:
            remote = RemoteEngine(("127.0.0.1", server.port))
            query = remote.compile(query_for_name("descendant"))
            docs = [remote.add_tree(tree, query) for tree in inputs.trees]
        except BaseException:
            server.kill()
            raise
        return {"server": server, "remote": remote, "docs": docs, "events": [],
                "epochs": [0] * len(docs)}

    def _stream(self, handle, clock: Clock):
        start = perf_counter()
        answers = []
        for answer in handle.stream():
            if not answers:
                clock.record("first_answer", perf_counter() - start)
            answers.append(answer)
        return answers

    def _page(self, handle, page):
        if page is None:
            return handle.page(page_size=PAGE_SIZE)
        try:
            return handle.page(cursor=page)
        except CursorInvalidatedError:
            return handle.page(page_size=PAGE_SIZE)

    def measure(self, state, inputs, seconds: float, clock: Clock) -> Dict[str, float]:
        remote, docs, events, epochs = state["remote"], state["docs"], state["events"], state["epochs"]
        facts = defaultdict(float)
        before = remote.stats()
        for cycle in inputs.cycles:
            if clock.elapsed >= seconds:
                break
            doc = cycle.stream_doc
            answers = clock.op("stream", self._stream, docs[doc], clock)
            if answers is not None:
                events.append(("stream", doc, epochs[doc], digest(answers)))
                facts["streams"] += 1
                facts["streamed_answers"] += len(answers)
            del answers
            for walk in cycle.walks:
                page = None
                for index in range(walk.pages):
                    if walk.batch is not None and index == walk.pages // 2:
                        report = clock.op("edit", docs[walk.doc].apply_edits, walk.batch)
                        events.append(("edit", walk.doc, walk.batch))
                        epochs[walk.doc] += 1
                        if report is not None:
                            facts["edits"] += len(walk.batch)
                            facts["boxes_rebuilt"] += report.boxes_rebuilt
                            facts["resumed"] += report.cursors_resumed
                            facts["invalidated"] += report.cursors_invalidated
                    page = clock.op("page", self._page, docs[walk.doc], page)
        if clock.elapsed < seconds:
            print("remote_stream: the schedule ran out before the measured time", file=sys.stderr)
        after = remote.stats()
        facts["stream_chunks"] = after["streaming"]["chunks"] - before["streaming"]["chunks"]
        facts["credit_window"] = after["streaming"]["credit"]
        facts["round_trips"] = after["net"]["round_trips"] - before["net"]["round_trips"]
        facts["cache_hits"] = after["build_cache_hits"] - before["build_cache_hits"]
        facts["cache_misses"] = after["build_cache_misses"] - before["build_cache_misses"]
        return facts

    def end_to_end(self, clock: Clock, facts) -> Dict[str, tuple]:
        streams, pages = clock("stream"), clock("page")
        return {
            "page_p50_ms": percentile(pages, 0.5),
            "page_p99_ms": percentile(pages, 0.99),
            "stream_answers_per_s": (
                facts["streamed_answers"] / sum(streams), "answers/s", f"over {len(streams)} streams"
            ),
            "first_answer_p50_ms": percentile(clock("first_answer"), 0.5),
        }

    def rate(self, clock: Clock, facts) -> float:
        return clock.ops / clock.total()

    def check(self, state, inputs) -> Tuple[List[str], int]:
        """Every streamed answer sequence against an in-process oracle that
        replays the same edit batches in the same order."""
        failures, checked = [], 0
        with Engine() as oracle:
            query = oracle.compile(query_for_name("descendant"))
            docs = [oracle.add_tree(tree, query) for tree in inputs.trees]
            epochs = [0] * len(docs)
            expected = {}
            for event in state["events"]:
                if event[0] == "edit":
                    _, doc, batch = event
                    docs[doc].apply_edits(batch)
                    epochs[doc] += 1
                    continue
                _, doc, epoch, streamed = event
                checked += 1
                if epochs[doc] != epoch:
                    failures.append(f"document {doc}: streamed at epoch {epoch}, oracle at {epochs[doc]}")
                    continue
                if (doc, epoch) not in expected:
                    expected[doc, epoch] = digest(list(docs[doc].stream()))
                if streamed != expected[doc, epoch]:
                    failures.append(f"document {doc} epoch {epoch}: streamed answers differ from the oracle")
        return failures, checked

    def stop(self, state) -> int:
        """Stop the server; returns the summed peak RSS (kB) of the server
        and its shard worker, the processes under test."""
        state["remote"].close()
        return state["server"].stop()

    def close(self, state) -> None:
        state["remote"].close()
        state["server"].close()


WORKLOADS = {cls.name: cls for cls in (Ingest, EditPage, RemoteStream)}


def percentile(samples: List[float], q: float) -> tuple:
    """``(value, unit, how)`` of durations in seconds, in ms.

    The median, or the nearest-rank quantile ``q`` lowered to the highest one
    that still has at least ten samples beyond it.
    """
    n = len(samples)
    if q == 0.5:
        return (statistics.median(samples) * 1000.0, "ms", f"median of {n}")
    ordered = sorted(samples)
    rank = max(0, min(math.ceil(q * n) - 1, n - 11))
    return (ordered[rank] * 1000.0, "ms", f"p{100.0 * (rank + 1) / n:.4g} of {n}")
