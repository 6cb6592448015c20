"""Tests for the network serving tier (PR 9).

Covers the wire codec (round trips, hardening, byte-corruption fuzz), the
canonical-payload codec hardening in :mod:`repro.automata.serialize`, the
:class:`~repro.engine.sharding.AdaptiveCredit` controller, the server's
per-connection limits and HELLO versioning, typed error propagation over
real TCP, catalog leases + concurrent ``gc()``, and the incremental
(completion-order) ingest path.  The transcript-exactness of the network
tier against the in-process oracle lives in
``test_fuzz_differential.TestNetworkDifferential``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import socket
import sys
import time

import pytest

from repro import Engine, queries
from repro.automata.serialize import (
    MAX_PAYLOAD_BYTES,
    canonical_json,
    loads_payload,
    query_digest,
    query_from_payload,
    query_payload,
)
from repro.engine.catalog import QueryCatalog
from repro.engine.sharding import STREAM_CREDIT, AdaptiveCredit
from repro.core.results import UpdateStats
from repro.engine.local import BatchUpdateReport
from repro.errors import (
    CodecError,
    CursorInvalidatedError,
    EngineError,
    InvalidAutomatonError,
    ProtocolError,
    ReproError,
    ServingError,
    ShardDiedError,
    ShardTimeoutError,
    StaleIteratorError,
)
from repro.net import EngineServer, RemoteEngine
from repro.net.framing import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame_body,
    decode_wire,
    encode_frame,
    encode_wire,
    recv_frame,
    send_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.engine.cursor import CursorInvalidation
from repro.spanners.compile import regex_to_wva
from repro.trees.edits import Delete, Insert, InsertRight, Relabel
from repro.trees.unranked import UnrankedTree


def _fork_or_skip():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip(f"fork start method unavailable on {sys.platform}")


def _tree():
    return UnrankedTree.from_nested(("c", [("a", ["b", "a"]), ("b", ["a"]), "a"]))


# ===================================================== wire codec round trips
class TestWireCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**70,
            "",
            "héllo\n",
            1.5,
            -0.0,
            (),
            (1, "two", None),
            ((1, 2), (3, (4,))),
            frozenset(),
            frozenset({1, 2, 3}),
            frozenset({("x", 1), ("y", 2)}),
            [],
            [1, [2, [3]]],
            {},
            {"b": 1, "a": [2], "nested": {"k": (1, 2)}},
            {1: "int key", ("t", 0): "tuple key"},
        ],
    )
    def test_value_round_trip(self, value):
        assert decode_wire(encode_wire(value)) == value

    def test_float_round_trip_is_exact(self):
        for value in (0.1, 1e-300, float("inf"), float("-inf"), 3.141592653589793):
            assert decode_wire(encode_wire(value)) == value

    def test_tree_round_trip_preserves_node_ids(self):
        tree = _tree()
        clone = decode_wire(encode_wire(tree))
        assert isinstance(clone, UnrankedTree)
        original = [(n.node_id, n.label, None if n.parent is None else n.parent.node_id)
                    for n in tree.nodes()]
        decoded = [(n.node_id, n.label, None if n.parent is None else n.parent.node_id)
                   for n in clone.nodes()]
        assert decoded == original
        assert clone._next_id == tree._next_id
        # Edits against original node ids apply to the clone: the wire
        # transfer must not renumber (the whole protocol depends on it).
        Relabel(1, "b").apply_to_tree(clone)
        assert clone._nodes[1].label == "b"

    @pytest.mark.parametrize(
        "edit",
        [Relabel(3, "b"), Insert(0, "c"), InsertRight(2, "a"), Delete(4)],
    )
    def test_tree_edit_round_trip(self, edit):
        clone = decode_wire(encode_wire(edit))
        assert type(clone) is type(edit)
        assert clone == edit

    def test_report_round_trip(self):
        report = BatchUpdateReport(
            document_id="doc-1",
            epoch=7,
            stats=[UpdateStats(10, 3, 0.25, new_node_id=12, new_position_id=None)],
            boxes_rebuilt=4,
            cursors_resumed=2,
            cursors_invalidated=1,
        )
        clone = decode_wire(encode_wire(report))
        assert isinstance(clone, BatchUpdateReport)
        assert clone.document_id == "doc-1" and clone.epoch == 7
        assert clone.boxes_rebuilt == 4
        assert clone.cursors_resumed == 2 and clone.cursors_invalidated == 1
        assert len(clone.stats) == 1
        stat = clone.stats[0]
        assert (stat.trunk_size, stat.rebuilt_subterm_size) == (10, 3)
        assert stat.seconds == 0.25 and stat.new_node_id == 12
        assert stat.new_position_id is None

    def test_exception_round_trip_preserves_type_and_message(self):
        for exc in (
            ServingError("no document with id 9"),
            EngineError("this engine is closed"),
            StaleIteratorError("document was edited"),
            ShardDiedError("shard 2 died"),
            ProtocolError("bad frame"),
        ):
            clone = decode_wire(encode_wire(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)

    def test_shard_timeout_round_trip_preserves_attrs(self):
        exc = ShardTimeoutError(
            "shard 1 exceeded the deadline", shard=1, op="page", elapsed=2.5, deadline=2.0
        )
        clone = decode_wire(encode_wire(exc))
        assert type(clone) is ShardTimeoutError
        assert isinstance(clone, ShardDiedError)
        assert clone.shard == 1 and clone.op == "page"
        assert clone.elapsed == 2.5 and clone.deadline == 2.0

    def test_cursor_invalidated_round_trip_preserves_report(self):
        report = CursorInvalidation(
            cursor_id=3,
            document_id="d",
            base_epoch=1,
            invalidated_epoch=2,
            answers_delivered=5,
            edit="delete node 4",
            boxes_hit=2,
            regions=(("a", 4, 9, (0, 2)), ("r", 0, 17, (1,))),
        )
        exc = CursorInvalidatedError("cursor 3 invalidated", report=report)
        clone = decode_wire(encode_wire(exc))
        assert type(clone) is CursorInvalidatedError
        assert isinstance(clone.report, CursorInvalidation)
        assert clone.report.answers_delivered == 5
        assert clone.report.invalidated_epoch == 2
        # the overlap regions survive the wire exactly (tuples, not lists),
        # so the client-side report text equals the server-side one
        assert clone.report.regions == report.regions
        assert clone.report.describe() == report.describe()

    def test_unknown_exception_type_degrades_to_engine_error(self):
        frame = json.loads(canonical_json(encode_wire(ValueError("boom"))))
        clone = decode_wire(frame)
        assert type(clone) is EngineError
        assert "ValueError" in str(clone) and "boom" in str(clone)

    def test_uncodable_value_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            encode_wire(object())

    def test_encode_depth_bomb_raises_protocol_error(self):
        bomb = []
        for _ in range(200):
            bomb = [bomb]
        with pytest.raises(ProtocolError, match="nested deeper"):
            encode_wire(bomb)

    def test_decode_depth_bomb_raises_protocol_error(self):
        bomb = ["l", []]
        for _ in range(200):
            bomb = ["l", [bomb]]
        with pytest.raises(ProtocolError, match="nested deeper"):
            decode_wire(bomb)

    def test_oversized_frame_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="frame"):
            encode_frame("x" * 1024, max_frame_bytes=256)

    def test_frame_round_trip(self):
        value = [3, "ok", {"answers": ((frozenset({("x", 1)}),)), "epoch": 2}]
        data = encode_frame(value, MAX_FRAME_BYTES)
        assert decode_frame_body(data[4:], MAX_FRAME_BYTES) == value

    def test_corrupted_frames_raise_only_typed_errors(self):
        """Random byte corruption must surface as ProtocolError/CodecError,
        never as a bare KeyError/TypeError/ValueError from the decoder."""
        tree = _tree()
        value = [
            7,
            "ok",
            {
                "tree": tree,
                "edits": (Relabel(1, "b"), Delete(2)),
                "answers": (frozenset({("x", 1)}), frozenset({("x", 2)})),
                "f": 0.25,
            },
        ]
        body = encode_frame(value, MAX_FRAME_BYTES)[4:]
        rng = random.Random(1234)
        decoded = 0
        for _ in range(400):
            corrupt = bytearray(body)
            for _ in range(rng.randint(1, 4)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            try:
                decode_frame_body(bytes(corrupt), MAX_FRAME_BYTES)
                decoded += 1  # corruption can land in string content: fine
            except (ProtocolError, CodecError):
                pass
        assert decoded < 400  # sanity: the fuzz actually corrupted something


# ============================================ canonical codec hardening
class TestSerializeHardening:
    def test_oversized_payload_raises_codec_error(self):
        with pytest.raises(CodecError, match="bytes"):
            loads_payload("[1]" * 10, max_bytes=8)

    def test_truncated_payload_names_offset(self):
        text = canonical_json({"k": [1, 2, 3]})
        with pytest.raises(CodecError, match="truncated"):
            loads_payload(text[: len(text) - 4])

    def test_malformed_payload_names_offset(self):
        with pytest.raises(CodecError, match="offset"):
            loads_payload('{"k": [1, 2,]}')

    def test_recursion_bomb_raises_codec_error(self):
        bomb = "[" * 2000 + "]" * 2000
        with pytest.raises(CodecError):
            loads_payload(bomb)

    def test_default_payload_ceiling_is_enforced(self):
        assert MAX_PAYLOAD_BYTES == 64 * 1024 * 1024

    def test_corrupted_query_payloads_raise_only_typed_errors(self):
        query = queries.select_labeled("a")
        payload_text = canonical_json(query_payload(query))
        rng = random.Random(99)
        ok = 0
        for _ in range(300):
            corrupt = bytearray(payload_text.encode("utf8"))
            for _ in range(rng.randint(1, 3)):
                corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
            try:
                payload = loads_payload(bytes(corrupt))
                query_from_payload(payload)
                ok += 1
            except (CodecError, InvalidAutomatonError):
                pass  # both are precise, typed, and part of the contract
        assert ok < 300

    def test_query_payload_round_trip_keeps_digest(self):
        query = queries.select_labeled("b")
        payload = loads_payload(canonical_json(query_payload(query)))
        rebuilt = query_from_payload(payload)
        assert query_digest(rebuilt) == query_digest(query)


# ===================================================== adaptive credit unit
class TestAdaptiveCredit:
    def test_two_stalls_grow_the_window(self):
        credit = AdaptiveCredit(4)
        credit.note_stall()
        assert credit.window == 4
        credit.note_stall()
        assert credit.window == 8
        assert credit.grown_total == 1

    def test_growth_caps_at_max_window(self):
        credit = AdaptiveCredit(4)
        for _ in range(40):
            credit.note_stall()
        assert credit.window == AdaptiveCredit.MAX_WINDOW

    def test_two_full_buffers_shrink_the_window(self):
        credit = AdaptiveCredit(8)
        credit.note_buffered(8, 8)
        assert credit.window == 8
        credit.note_buffered(8, 8)
        assert credit.window == 4
        assert credit.shrunk_total == 1

    def test_shrink_floors_at_min_window(self):
        credit = AdaptiveCredit(4)
        for _ in range(40):
            credit.note_buffered(99, 4)
        assert credit.window == AdaptiveCredit.MIN_WINDOW

    def test_alternating_signals_cancel(self):
        credit = AdaptiveCredit(8)
        for _ in range(10):
            credit.note_stall()
            credit.note_buffered(8, 8)
        assert credit.window == 8
        assert credit.grown_total == 0 and credit.shrunk_total == 0

    def test_partial_buffer_resets_the_shrink_streak(self):
        credit = AdaptiveCredit(8)
        credit.note_buffered(8, 8)
        credit.note_buffered(3, 8)  # buffer drained below capacity
        credit.note_buffered(8, 8)
        assert credit.window == 8

    def test_initial_credit_divides_across_open_streams(self):
        credit = AdaptiveCredit(16)
        assert credit.initial_credit(0) == 16
        assert credit.initial_credit(1) == 8
        assert credit.initial_credit(7) == 2
        assert credit.initial_credit(100) == AdaptiveCredit.MIN_WINDOW

    def test_window_published_as_metric(self):
        metrics = MetricsRegistry()
        credit = AdaptiveCredit(4, metrics=metrics)
        credit.note_stall()
        credit.note_stall()
        snapshot = metrics.snapshot()
        assert snapshot["stream_credit_window"]["value"] == 8
        assert snapshot["stream_credit_grown_total"]["value"] == 1


# ===================================================== server + limits
@pytest.fixture()
def served_engine():
    with Engine(page_size=3) as engine:
        server = EngineServer(engine, idle_timeout=None).start()
        try:
            yield engine, server
        finally:
            server.stop()


def _raw_connect(server):
    sock = socket.create_connection(server.address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestServerProtocol:
    def test_hello_version_mismatch_gets_typed_error(self, served_engine):
        _engine, server = served_engine
        sock = _raw_connect(server)
        try:
            send_frame(sock, [0, "hello", {"protocol": 999}], MAX_FRAME_BYTES)
            reply = recv_frame(sock, MAX_FRAME_BYTES)
            assert reply[1] == "err"
            assert isinstance(reply[2], ProtocolError)
            assert "revision" in str(reply[2])
            assert recv_frame(sock, MAX_FRAME_BYTES) is None  # then closed
        finally:
            sock.close()

    def test_first_frame_must_be_hello(self, served_engine):
        _engine, server = served_engine
        sock = _raw_connect(server)
        try:
            send_frame(sock, [1, "ping"], MAX_FRAME_BYTES)
            reply = recv_frame(sock, MAX_FRAME_BYTES)
            assert reply[1] == "err" and isinstance(reply[2], ProtocolError)
            assert recv_frame(sock, MAX_FRAME_BYTES) is None
        finally:
            sock.close()

    def test_oversized_frame_kills_only_that_connection(self):
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, max_frame_bytes=4096).start()
            try:
                healthy = RemoteEngine(server.address, max_frame_bytes=4096)
                rogue = _raw_connect(server)
                try:
                    send_frame(rogue, [0, "hello", {"protocol": PROTOCOL_VERSION}], 4096)
                    assert recv_frame(rogue, 4096)[1] == "ok"
                    # Announce a frame far over the server's ceiling.
                    rogue.sendall((1 << 24).to_bytes(4, "big") + b"x" * 64)
                    assert recv_frame(rogue, 4096) is None  # dropped
                finally:
                    rogue.close()
                # The other connection is untouched, and the incident is
                # on the record.
                assert healthy.ping() == "pong"
                kinds = [e["kind"] for e in engine.events()]
                assert "net_protocol_error" in kinds
                healthy.close()
            finally:
                server.stop()

    def test_garbage_frame_body_kills_only_that_connection(self, served_engine):
        _engine, server = served_engine
        rogue = _raw_connect(server)
        try:
            send_frame(rogue, [0, "hello", {"protocol": PROTOCOL_VERSION}], MAX_FRAME_BYTES)
            assert recv_frame(rogue, MAX_FRAME_BYTES)[1] == "ok"
            rogue.sendall((8).to_bytes(4, "big") + b"\xff\x00garbage"[:8])
            assert recv_frame(rogue, MAX_FRAME_BYTES) is None
        finally:
            rogue.close()
        with RemoteEngine(server.address) as healthy:
            assert healthy.ping() == "pong"

    def test_stream_limit_is_typed_error_and_connection_survives(self):
        tree = UnrankedTree.from_nested(("b", ["a"] * 30))
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, max_streams=1).start()
            try:
                with RemoteEngine(server.address, stream_chunk_size=1) as remote:
                    doc = remote.add_tree(tree, queries.select_labeled("a"))
                    first = iter(doc.stream())
                    next(first)  # stream 1 open and producing
                    second = iter(doc.stream())
                    with pytest.raises(ProtocolError, match="stream limit"):
                        next(second)
                    # the connection (and the first stream) still work
                    assert remote.ping() == "pong"
                    next(first)
            finally:
                server.stop()

    def test_unstarted_stream_holds_no_server_slot(self):
        tree = UnrankedTree.from_nested(("b", ["a"] * 30))
        with Engine() as engine:
            server = EngineServer(engine, max_streams=1).start()
            try:
                with RemoteEngine(server.address, stream_chunk_size=1) as remote:
                    doc = remote.add_tree(tree, queries.select_labeled("a"))
                    abandoned = doc.stream()  # never iterated
                    del abandoned
                    assert len(list(doc.stream())) == 30
            finally:
                server.stop()

    def test_idle_timeout_drops_the_connection(self):
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, idle_timeout=0.2).start()
            try:
                sock = _raw_connect(server)
                try:
                    send_frame(sock, [0, "hello", {"protocol": PROTOCOL_VERSION}], MAX_FRAME_BYTES)
                    assert recv_frame(sock, MAX_FRAME_BYTES)[1] == "ok"
                    time.sleep(0.6)
                    assert recv_frame(sock, MAX_FRAME_BYTES) is None
                finally:
                    sock.close()
                reasons = [
                    e.get("reason")
                    for e in engine.events()
                    if e["kind"] == "net_disconnect"
                ]
                assert "idle-timeout" in reasons
            finally:
                server.stop()

    def test_unknown_op_is_typed_error_connection_survives(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            with pytest.raises(ProtocolError, match="unknown request op"):
                remote._call("frobnicate")
            assert remote.ping() == "pong"

    def test_unix_socket_serving(self, tmp_path):
        path = os.path.join(str(tmp_path), "engine.sock")
        with Engine(page_size=3) as engine:
            server = EngineServer(engine, host=None, unix_path=path).start()
            try:
                with RemoteEngine(unix_path=path) as remote:
                    doc = remote.add_tree(_tree(), queries.select_labeled("a"))
                    assert doc.count() == len(list(doc.stream()))
            finally:
                server.stop()


@pytest.fixture(params=["in-process", "workers=1", "remote"])
def front_end(request):
    """Each serving front end: in-process, sharded, and networked."""
    with Engine(workers=1 if request.param == "workers=1" else 0) as engine:
        if request.param != "remote":
            yield engine
            return
        server = EngineServer(engine, idle_timeout=None).start()
        try:
            with RemoteEngine(server.address) as remote:
                yield remote
        finally:
            server.stop()


class TestFrontHalfParity:
    """Every front end enforces the shared front-half rules with the same
    exception type and message."""

    @staticmethod
    def _raises(error_type, message, call):
        with pytest.raises(ReproError) as info:
            call()
        assert type(info.value) is error_type
        assert str(info.value) == message

    def test_ingest_rules(self, front_end):
        word_query = regex_to_wva(".*x{aa}.*", ["a", "b"])
        tree_query = queries.select_labeled("a")
        self._raises(
            ServingError,
            "doc_ids (2) and contents (1) differ in length",
            lambda: front_end.add_documents(["ab"], word_query, doc_ids=[1, 2]),
        )
        self._raises(
            ServingError,
            "queries (2) and contents (1) differ in length",
            lambda: front_end.add_documents(["ab"], queries=[word_query, word_query]),
        )
        self._raises(
            ServingError,
            "add_documents needs a query: pass query= (shared) or queries= (per item)",
            lambda: front_end.add_documents(["ab"]),
        )
        digest = front_end.compile(word_query).digest
        self._raises(
            EngineError,
            f"cannot serve a tree document under a word query (digest {digest[:12]}...)",
            lambda: front_end.add_tree(_tree(), word_query),
        )
        front_end.add_tree(_tree(), tree_query, doc_id="taken")
        self._raises(
            ServingError,
            "document id 'taken' already in use",
            lambda: front_end.add_word("ab", word_query, doc_id="taken"),
        )
        self._raises(
            ServingError,
            "document id 'twice' already in use",
            lambda: front_end.add_documents(["ab", "ba"], word_query, doc_ids=["twice", "twice"]),
        )
        assert front_end.doc_ids() == ["taken"]

    def test_page_rules(self, front_end):
        tree = UnrankedTree.from_nested(("b", ["a"] * 9))
        doc = front_end.add_tree(tree, queries.select_labeled("a"), doc_id="first")
        other = front_end.add_tree(tree.copy(), queries.select_labeled("a"), doc_id="second")
        page = doc.page(page_size=2)
        self._raises(
            EngineError,
            "page_size is fixed when a cursor is opened; continue with page(cursor=...) only",
            lambda: doc.page(cursor=page, page_size=5),
        )
        self._raises(EngineError, "page_size must be >= 1", lambda: doc.page(page_size=0))
        self._raises(
            EngineError,
            f"page cursor {page.cursor_id} belongs to document 'first', not 'second'",
            lambda: other.page(cursor=page),
        )
        assert doc.page(cursor=page).offset == 2


class TestRemoteEngineSurface:
    def test_typed_errors_travel_over_tcp(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            with pytest.raises(ServingError, match="no document with id"):
                remote._call("page", 999, None, 3)
            doc = remote.add_tree(_tree(), queries.select_labeled("a"))
            with pytest.raises(EngineError, match="not reachable"):
                doc.runtime()
            remote.remove(doc.doc_id)
            with pytest.raises(ServingError):
                remote.document(doc.doc_id)

    def test_page_validation_mirrors_engine(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            doc = remote.add_tree(
                UnrankedTree.from_nested(("b", ["a"] * 9)), queries.select_labeled("a")
            )
            page = doc.page(page_size=2)
            with pytest.raises(EngineError, match="page_size is fixed"):
                doc.page(cursor=page, page_size=5)
            with pytest.raises(EngineError, match="page_size must be >= 1"):
                doc.page(page_size=0)
            other = remote.add_tree(_tree(), queries.select_labeled("a"))
            with pytest.raises(EngineError, match="belongs to document"):
                other.page(cursor=page)

    def test_stale_stream_over_tcp(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            doc = remote.add_tree(
                UnrankedTree.from_nested(("b", ["a"] * 6)), queries.select_labeled("a")
            )
            iterator = iter(doc.stream())
            next(iterator)
            doc.apply_edits([Relabel(1, "b")])
            with pytest.raises(StaleIteratorError):
                next(iterator)

    def test_cursor_invalidation_report_parity_over_tcp(self, served_engine):
        """The fine-grained invalidation report — overlap regions and the
        describe() text — reaching a RemoteEngine client is identical to the
        one an in-process engine produces for the same scenario."""
        _engine, server = served_engine
        query = queries.select_labeled("a")
        target = next(
            n.node_id for n in _tree().nodes() if n.label == "a" and n.is_leaf()
        )

        def run(doc):
            page = doc.page(page_size=1)
            doc.apply_edits([Relabel(target, "b")])  # removes an undelivered answer
            with pytest.raises(CursorInvalidatedError) as excinfo:
                doc.page(cursor=page)
            return excinfo.value.report

        with Engine() as local_engine:
            local_report = run(local_engine.add_tree(_tree(), query, doc_id="parity"))
        with RemoteEngine(server.address) as remote:
            remote_report = run(remote.add_tree(_tree(), query, doc_id="parity"))
        assert remote_report.regions  # the enriched fields crossed the wire
        assert remote_report.regions == local_report.regions
        assert remote_report.describe() == local_report.describe()

    def test_compile_is_digest_checked_and_cached(self, served_engine):
        engine, server = served_engine
        with RemoteEngine(server.address) as remote:
            query = remote.compile(queries.select_labeled("a"))
            again = remote.compile(queries.select_labeled("a"))
            assert again is query  # client-side cache by digest
            assert query.digest in engine._queries  # really landed server-side

    def test_concurrent_clients_share_one_engine(self, served_engine):
        _engine, server = served_engine
        with RemoteEngine(server.address) as one, RemoteEngine(server.address) as two:
            doc = one.add_tree(_tree(), queries.select_labeled("a"))
            assert one.ping() == "pong" and two.ping() == "pong"
            # Per-connection document namespaces: client two can't see
            # client one's handle, but the server stats do.
            assert doc.doc_id not in two
            assert two._call("stats")["documents"] == 1

    def test_no_pickle_on_the_wire(self, served_engine):
        """Every frame both ways is canonical JSON — never a pickle."""
        _engine, server = served_engine
        remote = RemoteEngine(server.address)
        try:
            real_send = socket.socket.sendall
            seen = []

            def spy(self, data, *args):
                seen.append(bytes(data))
                return real_send(self, data, *args)

            socket.socket.sendall = spy
            try:
                doc = remote.add_tree(_tree(), queries.select_labeled("a"))
                list(doc.stream())
            finally:
                socket.socket.sendall = real_send
            assert seen
            for blob in seen:
                body = blob[4:]
                assert not body.startswith(b"\x80")  # pickle protocol marker
                json.loads(body.decode("utf8"))  # must parse as JSON
        finally:
            remote.close()


# ===================================================== catalog leases + gc
class TestCatalogLeases:
    def test_open_engine_leases_its_digests(self, tmp_path):
        root = str(tmp_path / "catalog")
        with Engine(catalog=root) as engine:
            query = engine.compile(queries.select_labeled("a"))
            catalog = QueryCatalog(root)
            assert query.digest in catalog.live_digests()
            removed = catalog.gc()  # no keep= needed anymore
            assert query.digest not in removed
            assert query.digest in catalog
        # lease released on close: now it is garbage
        removed = QueryCatalog(root).gc()
        assert query.digest in removed

    def test_concurrent_gc_spares_every_open_engine(self, tmp_path):
        root = str(tmp_path / "catalog")
        with Engine(catalog=root) as one:
            q1 = one.compile(queries.select_labeled("a"))
            with Engine(catalog=root) as two:
                q2 = two.compile(queries.select_labeled("b"))
                catalog = QueryCatalog(root)
                removed = catalog.gc()
                assert q1.digest not in removed and q2.digest not in removed
                # engines keep working through a concurrent gc
                doc = two.add_tree(_tree(), queries.select_labeled("b"))
                assert doc.count() >= 0
            # two closed, one still open: q2 without other users is garbage
            removed = QueryCatalog(root).gc()
            assert q2.digest in removed
            assert q1.digest not in removed

    def test_stale_lease_of_dead_process_is_reaped(self, tmp_path):
        root = str(tmp_path / "catalog")
        with Engine(catalog=root) as engine:
            query = engine.compile(queries.select_labeled("a"))
        catalog = QueryCatalog(root)
        # Forge a lease from a process that no longer exists.
        os.makedirs(catalog.leases_root, exist_ok=True)
        stale = os.path.join(catalog.leases_root, "lease-dead.json")
        with open(stale, "w", encoding="utf8") as handle:
            json.dump(
                {
                    "pid": 2**22 - 1,
                    "host": socket.gethostname(),
                    "created_unix": 0,
                    "digests": [query.digest],
                },
                handle,
            )
        assert query.digest not in catalog.live_digests()
        assert not os.path.exists(stale)  # reaped during the scan
        assert query.digest in catalog.gc()

    def test_corrupt_lease_is_discarded(self, tmp_path):
        root = str(tmp_path / "catalog")
        catalog = QueryCatalog(root)
        os.makedirs(catalog.leases_root, exist_ok=True)
        junk = os.path.join(catalog.leases_root, "lease-junk.json")
        with open(junk, "w", encoding="utf8") as handle:
            handle.write("{not json")
        assert catalog.live_digests() == set()
        assert not os.path.exists(junk)


# ===================================================== incremental ingest
class TestIncrementalIngest:
    def test_iter_yields_in_order_on_local_engine(self):
        with Engine(page_size=3) as engine:
            trees = [UnrankedTree.from_nested(("b", ["a"] * n)) for n in (2, 3, 4)]
            docs = list(
                engine.add_documents_iter(
                    trees, queries.select_labeled("a"), doc_ids=["x", "y", "z"]
                )
            )
            assert [doc.doc_id for doc in docs] == ["x", "y", "z"]
            assert engine.stats()["ingest_stragglers"] == 0

    def test_straggler_does_not_delay_other_documents(self):
        """With one shard's ingest artificially slowed, the fast shard's
        documents must be yielded (and usable) before the slow reply lands,
        and the straggler must be counted and logged."""
        _fork_or_skip()
        with Engine(
            workers=2, start_method="fork", fault_plan="0:add_batch:*:slow:0.5"
        ) as engine:
            trees = [UnrankedTree.from_nested(("b", ["a"] * 3)) for _ in range(4)]
            arrivals = []
            for doc in engine.add_documents_iter(trees, queries.select_labeled("a")):
                arrivals.append((doc.doc_id, time.perf_counter()))
            assert len(arrivals) == 4
            placements = engine._shard_of
            fast = [d for d, _t in arrivals if placements[d] == 1]
            slow = [d for d, _t in arrivals if placements[d] == 0]
            if fast and slow:  # both shards got documents (placement-dependent)
                last_fast = max(t for d, t in arrivals if placements[d] == 1)
                first_slow = min(t for d, t in arrivals if placements[d] == 0)
                assert last_fast < first_slow
            assert engine.ingest_stragglers_total >= 1
            assert engine.stats()["ingest_stragglers"] >= 1
            assert any(e["kind"] == "ingest_straggler" for e in engine.events())

    def test_batch_add_documents_unchanged_by_refactor(self):
        _fork_or_skip()
        with Engine(workers=2, start_method="fork") as engine:
            trees = [UnrankedTree.from_nested(("b", ["a"] * 3)) for _ in range(3)]
            docs = engine.add_documents(trees, queries.select_labeled("a"))
            assert [doc.doc_id for doc in docs] == [0, 1, 2]
            with pytest.raises(ServingError, match="already in use"):
                engine.add_documents(
                    [UnrankedTree.from_nested(("b", ["a"]))],
                    queries.select_labeled("a"),
                    doc_ids=[0],
                )
