"""`RemoteEngine`: the blocking client of an :class:`EngineServer`.

A ``RemoteEngine`` connects to a served engine over TCP or a unix socket
and exposes the same serving surface as a local :class:`repro.Engine` —
``compile`` / ``add`` / ``add_documents`` / ``document`` handles with
``stream()`` / ``page()`` / ``count()`` / ``apply_edits()`` / ``remove()``
— returning the same :class:`~repro.engine.query.Query`,
:class:`~repro.engine.document.Document`,
:class:`~repro.engine.document.ResultPage` and
:class:`~repro.engine.store.BatchUpdateReport` objects, raising the same
typed errors (:class:`~repro.errors.CursorInvalidatedError` with its
report, :class:`~repro.errors.StaleIteratorError`,
:class:`~repro.errors.ShardDiedError`, ...), and yielding byte-identical
answers.  Code written against a local engine runs unchanged against a
remote one.

The client is a single-threaded demultiplexer over one socket, the same
shape as the shard pool's parent side: requests carry fresh ids, replies
are routed by id into per-request slots, and stream chunk frames land in
per-stream buffers so a stream being consumed never blocks an interleaved
``page()`` on the same connection.

Streaming reuses the engine's credit-window discipline end to end: the
client runs the shard pool's stream consumer
(:meth:`~repro.engine.sharding.AdaptiveCredit.next_chunk`) under its own
adaptive controller, supplying only the socket's receive and grant.  A
consumer that keeps draining the buffer dry (the server is the
bottleneck) grows the window so more chunks travel per round trip, while
a slow consumer whose buffer stays full shrinks it toward the minimum so
the server never racks up unread frames.  Argument validation, paging
rules, the epoch mirror and the stale-on-edit guard are the local engine's
own front half (``repro.engine.engine._ServingFacade``), so a stream goes
stale at exactly the answer boundary where a local engine's would.

Queries are compiled *locally first* — ``compile`` normalizes the source,
computes the canonical digest, and ships the canonical payload (never a
pickle); the server answers with its digest and the client verifies the
two match, so a codec divergence surfaces as a loud
:class:`~repro.errors.ProtocolError` instead of silently serving the
wrong query.
"""

from __future__ import annotations

import itertools
import socket
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.automata.serialize import query_payload
from repro.engine.document import STREAM_PAGE_SIZE
from repro.engine.engine import _ServingFacade
from repro.engine.query import Query
from repro.engine.sharding import STREAM_CREDIT, AdaptiveCredit, _PushStream
from repro.errors import EngineError, ProtocolError
from repro.net.framing import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.obs.metrics import MetricsRegistry

__all__ = ["RemoteEngine"]


class RemoteEngine(_ServingFacade):
    """Blocking client of one :class:`~repro.net.server.EngineServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` of the server's TCP listener (usually
        ``server.address``).  Mutually optional with ``unix_path``.
    unix_path:
        Path of the server's unix socket (used when ``address`` is None).
    page_size:
        Default ``page()`` size; ``None`` inherits the server engine's.
    stream_chunk_size:
        Answers per pushed stream chunk; ``None`` inherits the server's.
    timeout:
        Socket timeout in seconds for every reply wait (``None`` = block
        forever); an expiry raises :class:`~repro.errors.ProtocolError`.
    """

    def __init__(
        self,
        address: Optional[Tuple[str, int]] = None,
        *,
        unix_path: Optional[str] = None,
        page_size: Optional[int] = None,
        stream_chunk_size: Optional[int] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ):
        if (address is None) == (unix_path is None):
            raise EngineError("pass exactly one of address=(host, port) or unix_path=")
        super().__init__()
        self.max_frame_bytes = max_frame_bytes
        self.timeout = timeout
        self.workers = 0  # documents live in the server process, not in shards of ours
        if address is not None:
            self._sock = socket.create_connection(tuple(address), timeout=timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(unix_path)
        self._closed = False
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, Tuple[str, object]] = {}
        self._streams: Dict[int, _PushStream] = {}
        self._deferred_closes: List[int] = []
        self._metrics = MetricsRegistry()
        self.credit = AdaptiveCredit(STREAM_CREDIT, metrics=self._metrics)
        self.stream_chunks_total = 0
        self.stream_round_trips_total = 0
        try:
            self.server_info = self._hello()
        except BaseException:
            self._sock.close()
            self._closed = True
            raise
        self.page_size = (
            int(page_size) if page_size is not None else self.server_info["page_size"]
        )
        if self.page_size < 1:
            raise EngineError("page_size must be >= 1")
        self.stream_chunk_size = (
            int(stream_chunk_size)
            if stream_chunk_size is not None
            else self.server_info.get("chunk_size", STREAM_PAGE_SIZE)
        )

    def _hello(self) -> Dict[str, object]:
        send_frame(self._sock, [0, "hello", {"protocol": PROTOCOL_VERSION}], self.max_frame_bytes)
        reply = self._recv_raw()
        if reply is None:
            raise ProtocolError("the server closed the connection during HELLO")
        if not (isinstance(reply, list) and len(reply) == 3 and reply[0] == 0):
            raise ProtocolError("malformed HELLO reply from server")
        if reply[1] == "err" and isinstance(reply[2], BaseException):
            raise reply[2]
        if reply[1] != "ok" or not isinstance(reply[2], dict):
            raise ProtocolError("malformed HELLO reply from server")
        return reply[2]

    # -------------------------------------------------------------- transport
    def _send(self, frame_value) -> None:
        # Flush stream closes deferred from generator finalizers first, so
        # they can never interleave inside another frame's bytes.
        while self._deferred_closes:
            request_id = self._deferred_closes.pop()
            send_frame(self._sock, [request_id, "stream_close"], self.max_frame_bytes)
        send_frame(self._sock, frame_value, self.max_frame_bytes)

    def _recv_raw(self):
        try:
            return recv_frame(self._sock, self.max_frame_bytes)
        except socket.timeout:
            raise ProtocolError(
                f"timed out after {self.timeout}s waiting for the server"
            ) from None

    def _recv_one(self) -> None:
        """Receive and route exactly one reply frame."""
        frame = self._recv_raw()
        if frame is None:
            raise ProtocolError("the server closed the connection")
        if not (
            isinstance(frame, list)
            and len(frame) >= 2
            and isinstance(frame[0], int)
            and isinstance(frame[1], str)
        ):
            raise ProtocolError("malformed reply frame: expected [request_id, status, ...]")
        request_id, status = frame[0], frame[1]
        if status == "chunk":
            if not (
                len(frame) == 4
                and isinstance(frame[2], tuple)
                and isinstance(frame[3], bool)
            ):
                raise ProtocolError("malformed stream chunk frame")
            stream = self._streams.get(request_id)
            if stream is None:
                return  # chunk already in flight when we closed the stream
            stream.chunks.append((frame[2], frame[3]))
            self.stream_chunks_total += 1
            self._metrics.inc("net_stream_chunks_total")
            if frame[3]:
                stream.done = True
            return
        if status == "err":
            error = frame[2] if len(frame) >= 3 else None
            if not isinstance(error, BaseException):
                raise ProtocolError("error frame without a decodable exception")
            stream = self._streams.get(request_id)
            if stream is not None:
                stream.error = error
                stream.done = True
                return
            self._pending[request_id] = ("err", error)
            return
        if status == "ok":
            self._pending[request_id] = ("ok", frame[2] if len(frame) >= 3 else None)
            return
        raise ProtocolError(f"unknown reply status {status!r} from server")

    def _call(self, op: str, *args):
        """One round trip: send ``[rid, op, *args]``, wait for its reply."""
        self._check_open()
        request_id = next(self._request_ids)
        start = perf_counter()
        self._send([request_id, op, *args])
        while request_id not in self._pending:
            self._recv_one()
        status, payload = self._pending.pop(request_id)
        self._metrics.observe("net_round_trip_seconds", perf_counter() - start)
        if status == "err":
            raise payload
        return payload

    # ------------------------------------------------------------ back half
    def _compile_new(self, kind: str, query_source, digest: str, pattern) -> Query:
        """Compile a query on the server; the digests must match.

        The canonical payload travels (never a pickle); the client computed
        the digest locally and cross-checks the server's answer.
        """
        reply = self._call("compile", query_payload(query_source))
        if not (isinstance(reply, dict) and reply.get("digest") == digest):
            raise ProtocolError(
                f"query digest mismatch: client computed {digest[:12]}..., server "
                f"answered {str(reply.get('digest') if isinstance(reply, dict) else reply)[:12]}... "
                "(codec divergence between client and server)"
            )
        return Query(kind=kind, source=query_source, digest=digest, pattern=pattern, entry=None)

    def _ingest(self, rows):
        """One round trip for the whole batch; the server assigns missing ids."""
        reply = self._call(
            "add_documents",
            [[doc_id, content, compiled.digest] for doc_id, _kind, content, compiled in rows],
        )
        assigned = reply["doc_ids"] if isinstance(reply, dict) else None
        if not isinstance(assigned, (list, tuple)) or len(assigned) != len(rows):
            raise ProtocolError("malformed add_documents reply from server")
        for index, ((_doc_id, kind, _content, compiled), doc_id) in enumerate(zip(rows, assigned)):
            yield index, self._register(doc_id, kind, compiled)

    def _remove(self, doc_id) -> None:
        self._call("remove", doc_id)

    def _apply(self, doc_id, edits):
        return self._call("apply_edits", doc_id, edits)

    def _fetch_epoch(self, doc_id) -> int:
        return self._call("epoch", doc_id)

    def _count(self, doc_id, limit: Optional[int]) -> int:
        self.document(doc_id)
        return self._call("count", doc_id, limit)

    def _runtime(self, doc_id):
        self.document(doc_id)
        raise EngineError(
            f"document {doc_id!r} lives in the server process; "
            "its runtime is not reachable over the network"
        )

    def _fetch_page(self, doc_id, cursor_id: Optional[int], size: int):
        payload = self._call("page", doc_id, cursor_id, size)
        if not isinstance(payload, dict):
            raise ProtocolError("malformed page reply from server")
        return payload

    # ---------------------------------------------------------------- streams
    def _stream(self, doc_id):
        """Credit-window push stream over the socket (adaptive, demuxed)."""
        self.document(doc_id)
        return self._guarded(doc_id, self._pushed_chunks(doc_id))

    def _pushed_chunks(self, doc_id):
        """The answer tuples of one push stream, via the shared credit consumer.

        The stream opens when its first answer is asked for, like a sharded
        engine's, so a ``stream()`` that is never iterated holds no
        server-side stream slot.
        """
        request_id = next(self._request_ids)
        stream = _PushStream(request_id, self.credit.initial_credit(len(self._streams)))
        self._streams[request_id] = stream

        def send_grant(grant: int) -> None:
            self._send([stream.request_id, "stream_credit", grant])
            self._note_round_trip()

        try:
            self._send([request_id, "stream_open", doc_id, self.stream_chunk_size, stream.window])
            self._note_round_trip()
            while True:
                chunk = self.credit.next_chunk(
                    stream, self._recv_one, send_grant, "net_stream_stall_seconds"
                )
                if chunk is None:
                    return
                yield chunk[0]
                if chunk[1]:
                    return
        finally:
            self._close_stream(stream)

    def _note_round_trip(self) -> None:
        self.stream_round_trips_total += 1
        self._metrics.inc("net_stream_round_trips_total")

    def _close_stream(self, stream: _PushStream) -> None:
        if stream.closed:
            return
        stream.closed = True
        self._streams.pop(stream.request_id, None)
        if not stream.done and not self._closed:
            # Deferred: this may run inside a generator finalizer triggered
            # at an arbitrary point (even mid-send); the close frame goes
            # out with the next regular send instead.
            self._deferred_closes.append(stream.request_id)

    # ------------------------------------------------------------- monitoring
    def net_stats(self) -> Dict[str, object]:
        """Client-side transport counters (the adaptive window included)."""
        stalls = self._metrics.histograms.get("net_stream_stall_seconds")
        return {
            "credit": self.credit.window,
            "credit_start": STREAM_CREDIT,
            "credit_grown": self.credit.grown_total,
            "credit_shrunk": self.credit.shrunk_total,
            "chunks": self.stream_chunks_total,
            "round_trips": self.stream_round_trips_total,
            "stalls": 0 if stalls is None else stalls.count,
            "open_streams": len(self._streams),
        }

    def stats(self) -> Dict[str, object]:
        """The server engine's :meth:`~repro.Engine.stats`, plus a ``net``
        section with this client's transport counters."""
        payload = self._call("stats")
        payload["net"] = self.net_stats()
        return payload

    def metrics(self) -> Dict[str, object]:
        """The server engine's metrics, overlaid with this client's
        ``net_*`` histograms/counters (client-side names win on collision:
        ``stream_credit_window`` is the *client's* window)."""
        payload = self._call("metrics")
        payload.update(self._metrics.snapshot())
        return payload

    def events(self) -> List[Dict[str, object]]:
        """The server engine's merged operational event log."""
        return self._call("events")

    def ping(self) -> str:
        return self._call("ping")

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the connection (idempotent); server-side state is dropped
        by the server's disconnect handling."""
        if self._closed:
            return
        self._closed = True
        for stream in list(self._streams.values()):
            stream.closed = True
            stream.done = True
        self._streams.clear()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self._closed else "open"
        return f"RemoteEngine({state}, documents={len(self._documents)})"
