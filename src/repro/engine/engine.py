"""`Engine`: the unified front door over trees, words and spanners.

One object owns the whole serving pipeline of the paper — translate
(Lemma 7.4 / Theorem 8.5) → homogenize (Lemma 2.1) → circuit + index
(Lemma 3.7 / 6.3) → duplicate-free enumeration (Theorem 6.5) → Lemma 7.3
updates — behind four nouns:

* :class:`Engine` — owns a :class:`~repro.engine.catalog.QueryCatalog`,
  backend/config defaults, and (optionally) a pool of shard worker
  processes;
* :class:`~repro.engine.query.Query` — one polymorphic compiled-query
  handle for unranked-tree TVA queries, word VAs and regex spanners,
  compiled and persisted through one content-addressed path;
* :class:`~repro.engine.document.Document` — a tree or word handle with
  ``apply_edits``, epochs, and ``stream()`` / ``page()`` enumeration;
* :class:`~repro.engine.document.ResultPage` — the one page type, backed by
  edit-stable cursors.

``Engine(workers=N)`` shards documents across ``N`` worker processes that
share the engine's catalog directory (compiled once by the parent, loaded by
every worker); edits and page fetches are routed by document id and
:meth:`Engine.stats` merges the per-shard statistics.  The worker protocol
is pipelined (request-id tagged, see :mod:`repro.engine.sharding`):
:meth:`Engine.add_documents` ships one document batch per shard with every
batch in flight at once, so per-document builds overlap across workers, and
sharded :meth:`~repro.engine.document.Document.stream` consumes result
chunks the worker pushes under a bounded credit window instead of paying one
round trip per page.

``Engine(workers=N, replicas=R)`` additionally makes the fleet fault
tolerant (PR 6):

* **replicated placement.**  Each document is placed on ``R`` shards,
  load-aware over the live in-flight/document counters instead of blind
  round-robin.  Writes (ingest, ``apply_edits``, cursor opens and page
  fetches — cursor state is deterministic, so mirroring keeps cursor ids
  and positions in lockstep) go to *every* live replica; plain reads
  (``stream``, ``count``, ``epoch``) go to the least-loaded live replica.
* **failover + rebuild.**  When a shard dies (crash, hang past the
  ``deadline``, or protocol violation — all surface as
  :class:`~repro.errors.ShardDiedError` subtypes), in-flight reads retry
  transparently on a surviving replica, a replacement worker is respawned
  in the background, and every under-replicated document is re-migrated
  onto it: the engine keeps each document's original content plus its edit
  log, and the replacement *replays* them, reproducing node/position ids,
  epochs and enumeration order byte-identically.
  :class:`~repro.errors.ShardDiedError` reaches the caller only when every
  replica of a document is gone.
* **observability.**  :meth:`Engine.stats` reports ``deaths_total``,
  ``timeouts_total``, ``failovers_total``, ``migrations_total``,
  ``repairs_pending`` and, per shard, ``generation`` and ``replica_of``.

With ``replicas=1`` (the default) none of this machinery engages: a dead
shard stays dead and its documents are precisely unreachable, exactly the
PR-4/5 behavior.
"""

from __future__ import annotations

import itertools
import os
import pickle
import shutil
import tempfile
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.automata.serialize import query_digest
from repro.engine.catalog import QueryCatalog
from repro.engine.codec import CompiledQuery
from repro.engine.document import Document, ResultPage, STREAM_PAGE_SIZE
from repro.engine.local import BatchUpdateReport, LocalStore, _batch_rows
from repro.engine.query import Query, normalize_query_source
from repro.engine.sharding import STREAM_CREDIT, ShardPool
from repro.errors import EngineError, ServingError, ShardDiedError, StaleIteratorError
from repro.obs import EventLog, MetricsRegistry, Tracer, render_prometheus
from repro.obs.tracing import trace_path_from_env
from repro.trees.unranked import UnrankedTree

__all__ = ["Engine"]


class _ServingFacade:
    """The front half of the serving API, shared by :class:`Engine` and
    :class:`repro.net.RemoteEngine`.

    Every rule that does not depend on where the documents live is written
    here once: argument validation, the content-keyed query memo, the
    document handles, page-argument normalization, the epoch mirror (every
    edit flows through the front end, so the mirror is exact without a read
    round trip) and the stale-on-edit guard of pushed streams.  A subclass
    supplies the back half:

    * ``_compile_new(kind, source, digest, pattern)`` — a new :class:`Query`;
    * ``_ingest(rows)`` — ``(row index, Document)`` pairs in completion
      order, registering each document through :meth:`_register`;
    * ``_apply(doc_id, edits)`` — the edit batch's
      :class:`~repro.engine.local.BatchUpdateReport`;
    * ``_fetch_epoch(doc_id)`` and ``_fetch_page(doc_id, cursor_id, size)``
      — the stored epoch and one page payload
      (:meth:`~repro.engine.local.LocalDocument._page_payload`);
    * ``_remove(doc_id)``, ``_stream(doc_id)``, ``_count(doc_id, limit)`` and
      ``_runtime(doc_id)``.
    """

    def __init__(self):
        self._queries: Dict[str, Query] = {}
        self._documents: Dict[object, Document] = {}
        #: doc_id → epoch mirror; pushed streams check staleness against it
        self._epochs: Dict[object, int] = {}

    def _check_open(self) -> None:
        # getattr, not attribute access: a constructor that raised during
        # parameter validation never assigned ``_closed``, and a monitoring
        # call on such a husk must get a precise EngineError, not an
        # AttributeError.
        closed = getattr(self, "_closed", None)
        if closed is None:
            raise EngineError(
                "this engine never finished construction (its constructor raised); "
                "create a new Engine"
            )
        if closed:
            raise EngineError("this engine is closed")

    # ---------------------------------------------------------------- queries
    def compile(self, source, alphabet=None) -> Query:
        """Compile a query of any kind (memoized by content digest).

        ``source`` may be an :class:`~repro.automata.unranked_tva.UnrankedTVA`
        (tree query), a :class:`~repro.automata.wva.WVA` (word query), a
        :class:`~repro.spanners.Spanner`, a spanner regex string (pass
        ``alphabet=``), or an already-compiled :class:`Query` (returned
        as-is).  Equal query *content* yields one shared compiled query.
        """
        self._check_open()
        if isinstance(source, Query):
            return source
        kind, query_source, pattern = normalize_query_source(source, alphabet)
        digest = query_digest(query_source)
        query = self._queries.get(digest)
        if query is None:
            query = self._compile_new(kind, query_source, digest, pattern)
            self._queries[digest] = query
        return query

    # -------------------------------------------------------------- documents
    def add(self, content, query, doc_id=None, alphabet=None) -> Document:
        """Add a document of either kind (dispatch on ``content``'s type).

        :class:`~repro.trees.unranked.UnrankedTree` → tree document; any
        string / sequence of letters → word document.
        """
        if isinstance(content, UnrankedTree):
            return self.add_tree(content, query, doc_id=doc_id, alphabet=alphabet)
        return self.add_word(content, query, doc_id=doc_id, alphabet=alphabet)

    def add_tree(self, tree: UnrankedTree, query, doc_id=None, alphabet=None) -> Document:
        """Serve an unranked tree under a standing tree query (Theorem 8.1)."""
        return self._add("tree", tree, query, doc_id, alphabet)

    def add_word(self, word, query, doc_id=None, alphabet=None) -> Document:
        """Serve a word under a standing word/spanner query (Theorem 8.5)."""
        return self._add("word", list(word), query, doc_id, alphabet)

    def _add(self, kind: str, content, query, doc_id, alphabet) -> Document:
        # Single adds ride the batch path (a batch of one), so there is
        # exactly one ingest protocol to keep correct.
        doc_ids = None if doc_id is None else [doc_id]
        return self.add_documents(
            [content], query, doc_ids=doc_ids, alphabet=alphabet, _kind=kind
        )[0]

    def add_documents(
        self,
        contents,
        query=None,
        *,
        queries=None,
        doc_ids=None,
        alphabet=None,
        _kind=None,
    ) -> List[Document]:
        """Add many documents at once — the pipelined ingest path.

        ``contents`` is a sequence of documents (each an
        :class:`~repro.trees.unranked.UnrankedTree` or a word); ``query`` is
        the standing query they share, or ``queries`` gives one per document.
        ``doc_ids`` optionally fixes ids (``None`` entries auto-assign).
        Returns the handles in the caller's order: the batch's
        completion-order stream (:meth:`Engine.add_documents_iter`), waited
        out and reordered.

        On a sharded engine the documents are grouped per shard (load-aware
        placement over the live shards, ``replicas`` shards per document) and
        shipped as **one pickled batch per worker, all batches in flight
        before any reply is collected** — so the per-document builds, the
        dominant serving cost, overlap across the worker processes instead of
        paying one synchronous round trip each.

        If an item fails, the documents the batch had already added stay
        registered and the item's original exception is re-raised.  If a
        worker process dies mid-batch, the documents that landed on no other
        replica are reported in a precise
        :class:`~repro.errors.ShardDiedError`; documents with at least one
        surviving replica stay registered (and are re-replicated in the
        background when ``replicas >= 2``).
        """
        rows = self._prepare_ingest(contents, query, queries, doc_ids, alphabet, _kind)
        landed = dict(self._ingest(rows))
        return [landed[index] for index in range(len(rows)) if index in landed]

    def _prepare_ingest(self, contents, query, queries, doc_ids, alphabet, kind):
        """Validate one ingest batch into ``(doc_id, kind, content, compiled)`` rows."""
        self._check_open()
        rows = []
        for content, item_query, doc_id in _batch_rows(
            contents, query, queries, doc_ids, self._documents
        ):
            compiled = self.compile(item_query, alphabet=alphabet)
            # add_tree / add_word name the kind; the check below reports a mismatch
            item_kind = kind or ("tree" if isinstance(content, UnrankedTree) else "word")
            if compiled.kind != item_kind:
                raise EngineError(
                    f"cannot serve a {item_kind} document under a {compiled.kind} query "
                    f"(digest {compiled.digest[:12]}...)"
                )
            rows.append((doc_id, item_kind, content, compiled))
        return rows

    def _register(self, doc_id, kind: str, compiled: Query) -> Document:
        document = Document(self, doc_id, kind, compiled)
        self._documents[doc_id] = document
        self._epochs[doc_id] = 0
        return document

    def document(self, doc_id) -> Document:
        """The handle of a served document."""
        self._check_open()
        try:
            return self._documents[doc_id]
        except KeyError:
            raise ServingError(f"no document with id {doc_id!r}") from None

    def remove(self, doc_id) -> None:
        """Drop a document (its cursors are closed)."""
        self.document(doc_id)  # raises on unknown ids
        self._remove(doc_id)
        del self._documents[doc_id]
        self._epochs.pop(doc_id, None)

    def doc_ids(self) -> List[object]:
        return list(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id) -> bool:
        return doc_id in self._documents

    # ---------------------------------------------------------------- traffic
    def apply_edits(self, doc_id, edits) -> BatchUpdateReport:
        """Apply one edit batch to a document (one epoch step), routed by id."""
        self.document(doc_id)
        try:
            report = self._apply(doc_id, list(edits))
        except BaseException:
            # The batch may have partially applied (the epoch still advances
            # on a partial batch): resync the mirror so live streams see it.
            try:
                self._epochs[doc_id] = self._fetch_epoch(doc_id)
            except Exception:  # noqa: BLE001 — unknowable: streams go stale
                self._epochs.pop(doc_id, None)
            raise
        self._epochs[doc_id] = report.epoch
        return report

    def _doc_epoch(self, doc_id) -> int:
        self.document(doc_id)
        epoch = self._epochs.get(doc_id)
        if epoch is None:  # mirror lost after a failed batch: resync
            epoch = self._epochs[doc_id] = self._fetch_epoch(doc_id)
        return epoch

    def _page(self, doc_id, cursor, page_size: Optional[int]) -> ResultPage:
        self.document(doc_id)
        if isinstance(cursor, ResultPage):
            if cursor.document_id != doc_id:
                raise EngineError(
                    f"page cursor {cursor.cursor_id} belongs to document "
                    f"{cursor.document_id!r}, not {doc_id!r}"
                )
            cursor_id: Optional[int] = cursor.cursor_id
        else:
            cursor_id = cursor
        if cursor_id is not None and page_size is not None:
            raise EngineError(
                "page_size is fixed when a cursor is opened; "
                "continue with page(cursor=...) only"
            )
        size = self.page_size if page_size is None else page_size
        if size < 1:
            raise EngineError("page_size must be >= 1")
        payload = self._fetch_page(doc_id, cursor_id, size)
        return ResultPage(
            answers=tuple(payload["answers"]),
            offset=payload["offset"],
            exhausted=payload["exhausted"],
            cursor_id=payload["cursor_id"],
            document_id=doc_id,
            epoch=payload["epoch"],
        )

    def _guarded(self, doc_id, chunks):
        """The answers of a pushed stream, stale-checked at every answer.

        ``chunks`` is the stream's generator of answer tuples (it opens the
        stream when first advanced).  Staleness is checked against the epoch mirror before
        every yielded answer — an edit landing after the final answer ends
        the stream with StopIteration, like the runtime's own iterator — so
        the stream raises :class:`~repro.errors.StaleIteratorError` at
        exactly the answer boundary where an in-process stream would.  The
        base epoch is captured *eagerly* (this is not a generator), matching
        the runtime iterator: an edit or removal landing between creating
        the stream and its first answer invalidates it too.
        """
        start_epoch = self._doc_epoch(doc_id)  # resyncs a lost mirror
        epochs = self._epochs

        def check_fresh():
            if epochs.get(doc_id) != start_epoch:
                raise StaleIteratorError(
                    f"document {doc_id!r} was edited (or removed) while stream() "
                    "was running; restart the stream, or use page() for "
                    "edit-stable pagination"
                )

        def iterate():
            try:
                check_fresh()
                for answers in chunks:
                    for answer in answers:
                        check_fresh()
                        yield answer
            finally:
                chunks.close()

        return iterate()

    # ---------------------------------------------------------------- context
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover — best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class Engine(_ServingFacade):
    """The unified enumeration engine (Theorems 8.1 + 8.5, one API).

    Parameters
    ----------
    catalog:
        ``None``, a directory path, or a :class:`QueryCatalog`.  With a
        catalog, :meth:`compile` persists every compiled query through the
        content-addressed path, so a fresh process (or a shard worker) loads
        instead of compiling.  A sharded engine *requires* a shared catalog
        directory; when none is given it creates a private temporary one
        (removed on :meth:`close`).
    backend:
        Default relation backend (``"pairs"`` / ``"matrix"`` / ``"bitset"`` /
        ``"numpy"``) for every document; ``None`` = the library default.
    workers:
        ``0`` (default) serves in-process; ``N >= 1`` partitions documents
        across ``N`` worker processes (load-aware placement, routed by
        document id afterwards).
    replicas:
        Copies of each document across distinct shards (default 1).  With
        ``replicas >= 2`` the engine survives any single shard death with
        zero document and zero in-flight-answer loss: reads fail over to a
        surviving replica and a replacement worker is respawned and
        re-populated in the background.  Requires ``replicas <= workers``.
    deadline:
        Seconds any single protocol wait (request reply, stream chunk) may
        block (default ``None`` = unbounded).  On expiry the hung worker is
        killed and the wait raises :class:`~repro.errors.ShardTimeoutError`
        — which, with replicas, fails over like a crash.
    fault_plan:
        A :class:`~repro.engine.faults.FaultPlan` (or spec string) injected
        into the workers for robustness testing; defaults to the
        ``REPRO_FAULTS`` environment variable.  See
        :mod:`repro.engine.faults`.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` = the platform default.
        The workers are safe under all of them.
    page_size:
        Default :meth:`Document.page` size.
    build_cache_size:
        Capacity (cached subtree roots) of the cross-document build cache
        each store keeps: documents sharing subtree content (per compiled
        query) build those subtrees once — boxes and enumeration index
        included.  ``None`` = the library default
        (:data:`repro.circuits.build.DEFAULT_BUILD_CACHE_SIZE`), ``0``
        disables caching.  Sharded engines give every worker its own cache
        of this capacity; hit/miss/eviction counters surface through
        :meth:`stats` as ``build_cache_hits`` / ``build_cache_misses`` /
        ``build_cache_evictions`` (summed across shards).
    trace:
        ``True`` enables request tracing: every engine call opens a span,
        shard workers parent their protocol spans under it, and
        :meth:`dump_trace` exports one coherent Chrome-trace JSON.  A
        prebuilt :class:`~repro.obs.Tracer` may be passed instead.  Setting
        the ``REPRO_TRACE`` environment variable to a directory enables
        tracing too and auto-dumps the trace there on :meth:`close`.
        Default off — the instrumentation left in the hot paths is a single
        attribute check (gated under 5% by the benchmark suite).
    delay_budget:
        Opt-in per-answer delay SLO (seconds).  Arms a
        :class:`~repro.obs.DelayMonitor` in every store/worker: each
        produced answer's delay is recorded into the
        ``answer_delay_seconds`` histogram (see :meth:`metrics`) and every
        budget breach logs a ``delay_violation`` event (never raises unless
        ``delay_strict``).  ``None`` (default) keeps the enumeration hot
        path entirely hook-free.
    delay_strict:
        With a ``delay_budget``, raise :class:`~repro.errors.EngineError`
        on the first breach instead of just recording it (in-process
        engines only; sharded workers always record).
    slow_op_seconds:
        Threshold above which a shard protocol round trip is logged as a
        ``slow_op`` event (default 1.0; ``None`` disables).
    """

    def __init__(
        self,
        catalog=None,
        *,
        backend: Optional[str] = None,
        workers: int = 0,
        replicas: int = 1,
        deadline: Optional[float] = None,
        fault_plan=None,
        start_method: Optional[str] = None,
        page_size: int = 50,
        build_cache_size: Optional[int] = None,
        trace=False,
        delay_budget: Optional[float] = None,
        delay_strict: bool = False,
        slow_op_seconds: Optional[float] = 1.0,
    ):
        if backend is not None:
            from repro.enumeration.relations import validate_backend

            validate_backend(backend)
        if page_size < 1:
            raise EngineError("page_size must be >= 1")
        if delay_budget is not None and delay_budget <= 0:
            raise EngineError(f"the delay budget must be positive, got {delay_budget}")
        if slow_op_seconds is not None and slow_op_seconds <= 0:
            raise EngineError(
                f"slow_op_seconds must be positive (None disables), got {slow_op_seconds}"
            )
        if workers < 0:
            raise EngineError(f"workers must be >= 0, got {workers}")
        if replicas < 1:
            raise EngineError(f"replicas must be >= 1, got {replicas}")
        if replicas > 1 and not workers:
            raise EngineError("replication requires a sharded engine (workers >= 1)")
        if workers and replicas > workers:
            raise EngineError(
                f"replicas={replicas} needs at least that many workers, got {workers}"
            )
        if build_cache_size is not None and build_cache_size < 0:
            raise EngineError(
                f"build_cache_size must be >= 0 (0 disables), got {build_cache_size}"
            )
        self.backend = backend
        self.build_cache_size = build_cache_size
        self.page_size = page_size
        self.replicas = replicas
        self.deadline = deadline
        # Observability (see :mod:`repro.obs`): parent-side tracer, metrics
        # registry and event ring.  REPRO_TRACE=dir enables tracing from the
        # environment (headless runs) and auto-dumps on close().
        if isinstance(trace, Tracer):
            self._tracer = trace
        else:
            self._tracer = Tracer(
                enabled=bool(trace) or trace_path_from_env() is not None,
                process="parent",
            )
        self._metrics = MetricsRegistry()
        self._events = EventLog()
        self._delay_budget = delay_budget
        # Everything close() touches exists before any step that can raise,
        # so a failed construction cleans up (and __del__ stays safe).
        super().__init__()
        self._closed = False
        self._pool: Optional[ShardPool] = None
        self._store: Optional[LocalStore] = None
        self._owned_catalog_dir: Optional[str] = None
        #: live replica shards of each document, in placement order
        self._replicas_of: Dict[object, List[int]] = {}
        #: (doc_id, cursor_id) → shards holding that cursor.  Cursor state is
        #: deterministic and page fetches are mirrored, so every holder's
        #: copy of a cursor stays in lockstep; a replica rebuilt *after* the
        #: cursor was opened never joins (it only holds cursors opened since
        #: its restore).
        self._cursor_holders: Dict[Tuple[object, int], Set[int]] = {}
        #: per document, the next cursor id the workers will assign (mirrors
        #: ``LocalDocument._next_cursor_id`` — shipped on restore so rebuilt
        #: replicas keep assigning the same ids as the survivors)
        self._next_cursor_ids: Dict[object, int] = {}
        #: doc_id → (kind, pickled original content, query digest); retained
        #: only under replication, it is the "move bytes" half of migration
        self._ingest_blobs: Dict[object, tuple] = {}
        #: doc_id → every edit batch ever attempted, the "replay" half
        self._edit_logs: Dict[object, List[list]] = {}
        #: in-flight restore requests: {shard, generation, doc_id, request_id}
        self._repairs: List[dict] = []
        #: documents placed per shard (replica-counted), for load-aware placement
        self._placed: Dict[int, int] = {}
        self.failovers_total = 0
        self.migrations_total = 0
        #: batches whose shard reply arrived more than twice as late as the
        #: batch's first reply (arrival-order ingest makes these visible —
        #: the fast shards were already collected while the straggler built)
        self.ingest_stragglers_total = 0
        #: catalog lease naming the digests this engine keeps live, so
        #: ``catalog.gc()`` without an explicit keep-list never collects them
        self._lease = None
        #: monotonic logical cursor counters, accumulated per edit batch at
        #: the parent.  Shard-side per-document totals reset when a failover
        #: rebuilds a replica, so summing them across shards undercounts
        #: (and replication over-counts by ~R); every edit batch flows
        #: through this engine, so these parent-side sums are exact.
        self.cursors_resumed_total = 0
        self.cursors_invalidated_total = 0
        #: per shard, the query digests whose source was already shipped
        self._queries_sent: Dict[int, set] = {}
        self._doc_ids = itertools.count()

        if workers and fault_plan is None:
            from repro.engine.faults import plan_from_env

            fault_plan = plan_from_env()
        if isinstance(fault_plan, str):
            from repro.engine.faults import parse_fault_spec

            fault_plan = parse_fault_spec(fault_plan)

        if isinstance(catalog, QueryCatalog):
            self.catalog: Optional[QueryCatalog] = catalog
        elif catalog is not None:
            self.catalog = QueryCatalog(os.fspath(catalog))
        elif workers:
            # Sharding needs a directory the workers can share; own a
            # temporary one when the caller did not provide any.
            self._owned_catalog_dir = tempfile.mkdtemp(prefix="repro-engine-catalog-")
            self.catalog = QueryCatalog(self._owned_catalog_dir)
        else:
            self.catalog = None
        if self.catalog is not None:
            self._lease = self.catalog.acquire_lease()

        try:
            if workers:
                self._pool = ShardPool(
                    workers,
                    self.catalog.root,
                    relation_backend=backend,
                    start_method=start_method,
                    deadline=deadline,
                    fault_plan=fault_plan,
                    build_cache_size=build_cache_size,
                    metrics=self._metrics,
                    on_event=self._events.emit,
                    slow_op_seconds=slow_op_seconds,
                    trace=self._tracer.enabled,
                    delay_budget=delay_budget,
                )
            else:
                self._store = LocalStore(
                    catalog=self.catalog,
                    relation_backend=backend,
                    build_cache_size=build_cache_size,
                    metrics=self._metrics,
                    events=self._events,
                    delay_budget=delay_budget,
                    delay_strict=delay_strict,
                )
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ state
    @property
    def workers(self) -> int:
        """Number of shard worker processes (0 = in-process engine)."""
        return len(self._pool) if self._pool is not None else 0

    @property
    def _shard_of(self) -> Dict[object, int]:
        """doc_id → primary (first-replica) shard, for introspection/tests."""
        return {
            doc_id: replicas[0]
            for doc_id, replicas in self._replicas_of.items()
            if replicas
        }

    # ---------------------------------------------------------------- queries
    def _compile_new(self, kind: str, query_source, digest: str, pattern) -> Query:
        """Compile a query not seen before; with a catalog, persist it.

        One content-addressed path for all kinds: in-process through the
        content-keyed cache, cross-process through the catalog digest, so
        every other process (shard workers included) loads instead of
        compiling.
        """
        if self.catalog is not None:
            entry = self.catalog.get(query_source)
            if digest not in self.catalog:
                self.catalog.save(query_source, automaton=entry.automaton)
        else:
            from repro.core.enumerator import compiled_automaton_for

            entry = CompiledQuery(
                kind=kind, digest=digest, automaton=compiled_automaton_for(query_source)
            )
            entry.attach(query_source)
        if self._lease is not None:
            # Record the digest as live, so a concurrent `catalog.gc()`
            # (no keep-list) in any process never collects it from under us.
            self._lease.add(digest)
        return Query(kind=kind, source=query_source, digest=digest, pattern=pattern, entry=entry)

    # -------------------------------------------------------------- documents
    def add_documents_iter(
        self,
        contents,
        query=None,
        *,
        queries=None,
        doc_ids=None,
        alphabet=None,
    ):
        """:meth:`add_documents`, yielding each handle as its build lands.

        Returns an iterator of :class:`Document` handles in **completion
        order**: on a sharded engine each document is yielded as soon as
        every shard it was placed on has acknowledged its batch, so the
        documents on fast shards are usable while a straggler shard is
        still building.  Batch-level failures (a dead shard's lost
        documents, a failed item's original exception) are raised at the
        end, after every surviving document has been yielded — the same
        error semantics as :meth:`add_documents`.  A single-process engine
        yields each document as soon as it is built, in caller order.
        Arguments are validated before the iterator is returned.
        """
        rows = self._prepare_ingest(contents, query, queries, doc_ids, alphabet, None)
        return (document for _index, document in self._ingest(rows))

    def _ingest(self, rows):
        """Build one validated batch; yields ``(row index, Document)`` pairs.

        Ids left ``None`` are assigned here, skipping every id in use or
        named elsewhere in the batch.  A single-process engine builds the
        documents in order; a sharded one yields them in shard-completion
        order (:meth:`_ingest_sharded_iter`).
        """
        claimed = {row[0] for row in rows if row[0] is not None}
        assigned = []
        for doc_id, kind, content, compiled in rows:
            if doc_id is None:
                doc_id = next(self._doc_ids)
                while doc_id in self._documents or doc_id in claimed:
                    doc_id = next(self._doc_ids)
                claimed.add(doc_id)
            assigned.append((doc_id, kind, content, compiled))
        span = self._tracer.begin("add_documents", docs=len(assigned))
        start = perf_counter()
        try:
            if self._pool is None:
                for index, (doc_id, kind, content, compiled) in enumerate(assigned):
                    add = self._store.add_tree if kind == "tree" else self._store.add_word
                    add(content, compiled.source, doc_id=doc_id)
                    yield index, self._register(doc_id, kind, compiled)
            else:
                yield from self._ingest_sharded_iter(
                    assigned, trace_ctx=None if span is None else span.context
                )
        finally:
            self._tracer.finish(span)
            self._metrics.observe("ingest_batch_seconds", perf_counter() - start)

    def _release_placement(self, shard: int) -> None:
        """Return one placement slot of a shard (replica lost, removed or
        never materialized); the counter never goes negative."""
        self._placed[shard] = max(0, self._placed.get(shard, 0) - 1)

    def _pick_shards(self, count: int) -> List[int]:
        """Load-aware placement: the ``count`` least-loaded live shards.

        Load is (in-flight requests, documents placed), with the shard index
        as a deterministic tie-break — so an idle fleet fills round-robin,
        but a shard bogged down in slow builds (or briefly absent while
        respawning) stops attracting new documents.  Returns fewer than
        ``count`` shards when fewer are live (degraded placement); raises
        only when no shard is live at all.
        """
        pool = self._pool
        live = [shard for shard in range(len(pool)) if pool.is_alive(shard)]
        if not live:
            raise EngineError(
                "every shard worker of this engine is dead; close the engine"
            )
        ranked = sorted(
            live, key=lambda s: (pool.inflight(s), self._placed.get(s, 0), s)
        )
        chosen = ranked[: min(count, len(ranked))]
        for shard in chosen:
            self._placed[shard] = self._placed.get(shard, 0) + 1
        return chosen

    def _ingest_sharded_iter(self, items, trace_ctx=None):
        """Sharded batch ingest, yielding ``(row index, Document)`` pairs in
        shard-completion order.

        All batches go out before any reply is read (builds overlap), and
        replies are processed in **arrival order**
        (:meth:`~repro.engine.sharding.ShardPool.wait_replies`): a document
        is registered and yielded the moment its last placement shard has
        acknowledged, so one straggler shard delays only its own documents.
        Shard deaths and per-item failures keep their PR-5/6 semantics —
        documents with a surviving replica stay registered, lost ones are
        reported in a precise :class:`~repro.errors.ShardDiedError`, and a
        failed item's original exception is re-raised — but only after every
        surviving document has been yielded.
        """
        self._reap_repairs()
        # Group per shard; ship each query's source to a shard once (later
        # adds of the same content carry only the digest).
        placements: Dict[object, List[int]] = {}
        batches: Dict[int, List] = {}
        for doc_id, kind, content, compiled in items:
            shards = self._pick_shards(self.replicas)
            placements[doc_id] = shards
            for shard in shards:
                sent = self._queries_sent.setdefault(shard, set())
                source = None if compiled.digest in sent else compiled.source
                sent.add(compiled.digest)
                batches.setdefault(shard, []).append(
                    (doc_id, kind, content, source, compiled.digest)
                )
        # Issue every batch before collecting any reply: builds overlap
        # across the worker processes.
        request_ids: Dict[int, int] = {}
        died: List[tuple] = []  # (shard, doc_ids, error)
        item_failure = None  # (shard, doc_id, original exception)
        for shard, batch in batches.items():
            try:
                request_ids[shard] = self._pool.submit(
                    shard, "add_batch", batch, trace_ctx=trace_ctx
                )
            except ShardDiedError as exc:
                died.append((shard, [entry[0] for entry in batch], exc))
        #: per document: placement shards that have not acknowledged yet
        remaining: Dict[object, Set[int]] = {
            doc_id: set(placements[doc_id]) for doc_id, _k, _c, _q in items
        }
        for shard, doc_ids, _exc in died:  # dead at submit: never acknowledges
            for doc_id in doc_ids:
                remaining[doc_id].discard(shard)
        landed: Dict[object, List[int]] = {doc_id: [] for doc_id, _k, _c, _q in items}
        finalized: Set[object] = set()
        registered_ids: Set[object] = set()
        batch_t0 = perf_counter()
        first_reply: Optional[float] = None

        def finalize_ready():
            """Register + yield every document whose placements all reported."""
            for index, (doc_id, kind, content, compiled) in enumerate(items):
                if doc_id in finalized or remaining[doc_id]:
                    continue
                finalized.add(doc_id)
                shards = [s for s in placements[doc_id] if s in landed[doc_id]]
                for shard in placements[doc_id]:
                    if shard not in shards:
                        self._release_placement(shard)
                if not shards:
                    continue
                self._replicas_of[doc_id] = shards
                registered_ids.add(doc_id)
                document = self._register(doc_id, kind, compiled)
                if self.replicas > 1:
                    self._ingest_blobs[doc_id] = (kind, pickle.dumps(content), compiled.digest)
                    self._edit_logs[doc_id] = []
                yield index, document

        yield from finalize_ready()  # placements lost entirely at submit time
        pending = dict(request_ids)
        while pending:
            for shard in self._pool.wait_replies(pending):
                request_id = pending.pop(shard)
                try:
                    payload = self._pool.collect(shard, request_id)
                except ShardDiedError as exc:
                    died.append((shard, [entry[0] for entry in batches[shard]], exc))
                    for entry in batches[shard]:
                        remaining[entry[0]].discard(shard)
                    continue
                elapsed = perf_counter() - batch_t0
                if first_reply is None:
                    first_reply = elapsed
                elif elapsed > 2.0 * max(first_reply, 0.010):
                    # This shard took over twice as long as the batch's first
                    # reply: with the old lockstep collection its documents
                    # would have delayed the whole ingest return.
                    self.ingest_stragglers_total += 1
                    self._events.emit(
                        "ingest_straggler",
                        shard=shard,
                        elapsed=elapsed,
                        first_reply=first_reply,
                    )
                added = {summary["doc_id"] for summary in payload["added"]}
                for entry in batches[shard]:
                    doc_id = entry[0]
                    if doc_id in added:
                        landed[doc_id].append(shard)
                    remaining[doc_id].discard(shard)
                if payload["error"] is not None and item_failure is None:
                    item_failure = (shard, payload["failed_doc_id"], payload["error"])
            yield from finalize_ready()
        # Failover: respawn dead shards and re-replicate before reporting, so
        # a partially-lost batch is already being repaired when the caller
        # handles the error (no-op with replicas=1).
        for shard in {shard for shard, _ids, _exc in died}:
            self._after_death(shard)
        if died:
            lost = [
                (shard, [d for d in doc_ids if d not in registered_ids], exc)
                for shard, doc_ids, exc in died
            ]
            lost = [(shard, ids, exc) for shard, ids, exc in lost if ids]
            if lost:
                detail = "; ".join(
                    f"shard {shard} died with document ids {doc_ids!r} in flight"
                    for shard, doc_ids, _exc in lost
                )
                raise ShardDiedError(f"batch ingest failed: {detail}") from lost[0][2]
        if item_failure is not None:
            _shard, _doc_id, error = item_failure
            raise error

    def _remove(self, doc_id) -> None:
        if self._pool is None:
            self._store.remove(doc_id)
            return
        self._reap_repairs()

        def forget(replies):
            # Forget the document before handling deaths so it is not
            # re-migrated onto the respawned worker.  With no replica
            # acknowledging, the document is *not* removed.
            if not replies:
                return
            for shard in self._replicas_of.pop(doc_id, []):
                self._release_placement(shard)
            self._ingest_blobs.pop(doc_id, None)
            self._edit_logs.pop(doc_id, None)
            self._next_cursor_ids.pop(doc_id, None)
            for key in [key for key in self._cursor_holders if key[0] == doc_id]:
                del self._cursor_holders[key]

        replies, app_error, death_error = self._fan_out(
            self._write_targets(doc_id), "remove", doc_id, settle=forget
        )
        if not replies:
            raise app_error if app_error is not None else death_error

    # ----------------------------------------------------------- fault repair
    def _write_targets(self, doc_id) -> List[int]:
        """The shards a write (edits, cursor open, remove) must reach.

        Replicated writes go to every live replica in lockstep; with
        ``replicas=1`` the single home shard is returned even when dead, so
        the pool raises its precise dead-shard error (PR-5 behavior).
        """
        replicas = self._replicas_of[doc_id]
        if self.replicas == 1:
            return [replicas[0]]
        targets = [shard for shard in replicas if self._pool.is_alive(shard)]
        if not targets:
            raise ShardDiedError(
                f"every replica of document {doc_id!r} is gone "
                f"(all shard workers holding it died)"
            )
        return targets

    def _pick_read_replica(self, doc_id) -> int:
        """The least-loaded live replica (reads); the home shard if R=1."""
        replicas = self._replicas_of[doc_id]
        if self.replicas == 1:
            return replicas[0]
        pool = self._pool
        live = [shard for shard in replicas if pool.is_alive(shard)]
        if not live:
            raise ShardDiedError(
                f"every replica of document {doc_id!r} is gone "
                f"(all shard workers holding it died)"
            )
        return min(live, key=lambda s: (pool.inflight(s), s))

    def _after_death(self, shard: int) -> None:
        """Failover bookkeeping once a shard's death has been observed.

        With ``replicas=1`` this is a no-op: the PR-5 contract (a dead
        shard's documents are precisely unreachable, surviving shards stay
        usable) is preserved exactly.  With replication: the dead shard is
        retired from every replica set and cursor-holder set, a replacement
        worker is respawned at the same index, and every document now below
        its replication factor is re-migrated onto it in the background —
        restore requests are pipelined and collected lazily
        (:meth:`_reap_repairs` / :meth:`await_repairs`), and the pipe's FIFO
        ordering guarantees any later write or read routed to the new worker
        observes the fully rebuilt document.
        """
        if self.replicas == 1:
            return
        pool = self._pool
        if pool.is_alive(shard):
            return  # already respawned (a stale observation of an old death)
        start = perf_counter()
        span = self._tracer.begin("failover", shard=shard)
        failover_ctx = None if span is None else span.context
        for doc_id, replicas in self._replicas_of.items():
            if shard in replicas:
                replicas.remove(shard)
                self._release_placement(shard)
        for key in list(self._cursor_holders):
            holders = self._cursor_holders[key]
            holders.discard(shard)
            if not holders:
                del self._cursor_holders[key]
        dead_generation = pool.generation(shard)
        self._repairs = [
            repair
            for repair in self._repairs
            if not (repair["shard"] == shard and repair["generation"] == dead_generation)
        ]
        pool.respawn(shard)
        generation = pool.generation(shard)
        self._queries_sent[shard] = set()
        sent = self._queries_sent[shard]
        for doc_id, replicas in self._replicas_of.items():
            if len(replicas) >= self.replicas or shard in replicas:
                continue
            blob = self._ingest_blobs.get(doc_id)
            if blob is None:
                continue
            kind, content_bytes, digest = blob
            query = self._queries.get(digest)
            source = None if digest in sent or query is None else query.source
            sent.add(digest)
            try:
                request_id = self._pool.submit(
                    shard,
                    "restore",
                    doc_id,
                    kind,
                    pickle.loads(content_bytes),
                    source,
                    digest,
                    list(self._edit_logs.get(doc_id, ())),
                    self._next_cursor_ids.get(doc_id, 0),
                    trace_ctx=failover_ctx,
                )
            except ShardDiedError:
                # The replacement died instantly; the next observation of
                # this death respawns and re-migrates again.
                break
            replicas.append(shard)
            self._placed[shard] = self._placed.get(shard, 0) + 1
            self.migrations_total += 1
            self._repairs.append(
                {
                    "shard": shard,
                    "generation": generation,
                    "doc_id": doc_id,
                    "request_id": request_id,
                    "t0": perf_counter(),
                }
            )
        self._tracer.finish(span)
        self._metrics.observe("failover_seconds", perf_counter() - start)

    def _reap_repairs(self, block: bool = False) -> None:
        """Collect finished background restores; with ``block``, all of them.

        A restore whose worker died is dropped (its death handling
        re-migrated); a restore that failed on a live worker counts as a
        replica loss (availability shrinks; nothing is corrupted).
        """
        pool = self._pool
        while self._repairs:
            repairs, self._repairs = self._repairs, []
            dead_seen: List[int] = []
            for repair in repairs:
                shard = repair["shard"]
                if pool.generation(shard) != repair["generation"]:
                    continue
                try:
                    if not block and not pool.poll_reply(shard, repair["request_id"]):
                        self._repairs.append(repair)
                        continue
                    pool.collect(shard, repair["request_id"])
                    self._metrics.observe("repair_seconds", perf_counter() - repair["t0"])
                except ShardDiedError:
                    dead_seen.append(shard)
                except EngineError:
                    replicas = self._replicas_of.get(repair["doc_id"])
                    if replicas and shard in replicas:
                        replicas.remove(shard)
                        self._release_placement(shard)
            for shard in set(dead_seen):
                self._after_death(shard)
            if not block:
                return

    def await_repairs(self) -> None:
        """Block until every background re-migration has been acknowledged.

        Deterministic tests and benchmarks call this to pin down "the fleet
        is back at full replication"; regular traffic never needs to — the
        pipe's FIFO ordering already hides rebuild latency.
        """
        self._check_open()
        if self._pool is not None:
            self._reap_repairs(block=True)

    def _fan_out(self, targets, op: str, *args, trace_ctx=None, settle=None):
        """Send one request to every target replica, then collect every reply.

        Returns ``(replies, app_error, death_error)``: the ``(shard,
        payload)`` of each replica that answered, the first application
        error a live replica raised (deterministic, so the same on every
        replica) and the last shard death observed.  ``settle(replies)`` runs
        before the dead shards are failed over (:meth:`_after_death`); a
        death counts as a failover when another replica still answered.
        """
        pool = self._pool
        submitted, dead_seen = [], []
        death_error: Optional[BaseException] = None
        for shard in targets:
            try:
                submitted.append((shard, pool.submit(shard, op, *args, trace_ctx=trace_ctx)))
            except ShardDiedError as exc:
                dead_seen.append(shard)
                death_error = exc
        replies: List[tuple] = []
        app_error: Optional[BaseException] = None
        for shard, request_id in submitted:
            try:
                replies.append((shard, pool.collect(shard, request_id)))
            except ShardDiedError as exc:
                dead_seen.append(shard)
                death_error = exc
            except BaseException as exc:  # noqa: BLE001 — deterministic app error
                if app_error is None:
                    app_error = exc
        if settle is not None:
            settle(replies)
        for shard in set(dead_seen):
            self._after_death(shard)
        if dead_seen and (replies or app_error is not None):
            self.failovers_total += 1  # the answer survived a replica death
        return replies, app_error, death_error

    def _read_request(self, doc_id, op: str, *args):
        """Route one read to a live replica, failing over on shard death."""
        attempts = 2 * len(self._pool) + 2
        last_error: Optional[BaseException] = None
        for _ in range(attempts):
            shard = self._pick_read_replica(doc_id)
            try:
                return self._pool.request(shard, op, doc_id, *args)
            except ShardDiedError as exc:
                if self.replicas == 1:
                    raise
                last_error = exc
                self._after_death(shard)
                self.failovers_total += 1
        raise last_error

    # ---------------------------------------------------------------- traffic
    def _apply(self, doc_id, edits) -> BatchUpdateReport:
        if self._pool is None:
            with self._tracer.span("apply_edits", doc_id=repr(doc_id)):
                return self._store.document(doc_id).apply_edits(edits)
        self._reap_repairs()
        span = self._tracer.begin("apply_edits", doc_id=repr(doc_id), edits=len(edits))
        try:
            return self._apply_edits_sharded(
                doc_id, edits, None if span is None else span.context
            )
        finally:
            self._tracer.finish(span)

    def _apply_edits_sharded(self, doc_id, edits, trace_ctx) -> BatchUpdateReport:
        """Apply an edit batch on **every live replica in lockstep**.

        Same edits, same order, deterministic outcome: epochs, cursor
        decisions and enumeration state stay byte-identical across replicas.
        The batch is also appended to the document's edit log so a future
        restore replays it.
        """
        if self.replicas > 1:
            log = self._edit_logs.get(doc_id)
            if log is not None:
                log.append(list(edits))
        replies, app_error, death_error = self._fan_out(
            self._write_targets(doc_id), "edits", doc_id, edits, trace_ctx=trace_ctx
        )
        if app_error is not None:
            raise app_error
        if not replies:
            raise death_error
        reports: List[BatchUpdateReport] = [report for _shard, report in replies]
        report = reports[0]
        if len(reports) > 1:
            if any(other.epoch != report.epoch for other in reports[1:]):
                self._events.emit(
                    "replica_divergence",
                    doc_id=repr(doc_id),
                    epochs=[r.epoch for r in reports],
                )
                raise EngineError(
                    f"replica divergence on document {doc_id!r}: edit batch produced "
                    f"epochs {[r.epoch for r in reports]!r} across replicas"
                )
            # A replica rebuilt after some cursors were opened holds only a
            # subset of them, so its per-batch cursor counters can undercount;
            # the max across replicas is the true per-batch number.
            report.cursors_resumed = max(r.cursors_resumed for r in reports)
            report.cursors_invalidated = max(r.cursors_invalidated for r in reports)
        # Accumulate the logical per-batch counts parent-side: shard-held
        # totals reset when a failover rebuilds a replica, so stats() sums
        # these monotonic counters instead of the shard-side ones.
        self.cursors_resumed_total += report.cursors_resumed
        self.cursors_invalidated_total += report.cursors_invalidated
        return report

    def _fetch_epoch(self, doc_id) -> int:
        if self._pool is None:
            return self._store.document(doc_id).epoch
        return self._read_request(doc_id, "epoch")

    def _count(self, doc_id, limit: Optional[int]) -> int:
        self.document(doc_id)
        if self._pool is not None:
            self._reap_repairs()
            return self._read_request(doc_id, "count", limit)
        return self._store.document(doc_id).count(limit=limit)

    def _runtime(self, doc_id):
        self.document(doc_id)
        if self._pool is not None:
            raise EngineError(
                f"document {doc_id!r} lives in shard worker {self._shard_of[doc_id]}; "
                "its runtime is not reachable from the parent process"
            )
        return self._store.document(doc_id).enumerator

    def _stream(self, doc_id):
        self.document(doc_id)
        if self._pool is None:
            # Zero-overhead facade: the exact per-answer iterator of the
            # runtime (Theorem 6.5 delay), StaleIteratorError on edits.
            return self._store.document(doc_id).enumerator.assignments()
        self._reap_repairs()
        return self._guarded(doc_id, self._stream_pushed(doc_id))

    def _stream_pushed(self, doc_id):
        """Sharded ``stream()``: answer chunks pushed by the worker under credit.

        The worker iterates the runtime's own per-answer iterator and pushes
        result chunks ahead of consumption (bounded by the credit window), so
        a long stream costs one round trip per credit grant instead of one
        per page; :meth:`_guarded` checks staleness at every answer.

        Replicated documents stream from the least-loaded live replica; if
        that replica dies mid-stream, the stream transparently reopens on a
        survivor and skips the answers already yielded — enumeration order
        is deterministic and identical across replicas, so no in-flight
        answer is lost, duplicated or reordered by the failover.
        """
        yielded = 0
        attempts = 2 * len(self._pool) + 2
        # Explicit begin/finish (not a with-block): a generator suspends
        # across yields, so the span covers the stream's whole lifetime
        # and closes in the finally whenever the consumer stops.
        span = self._tracer.begin("stream", doc_id=repr(doc_id))
        ctx = None if span is None else span.context
        try:
            while True:
                shard = self._pick_read_replica(doc_id)
                stream = None
                try:
                    stream = self._pool.stream_open(
                        shard, doc_id, STREAM_PAGE_SIZE, trace_ctx=ctx
                    )
                    replay = yielded  # answers already served before this (re)open
                    while True:
                        chunk = self._pool.stream_next_chunk(stream)
                        if chunk is None:
                            return
                        answers, exhausted = chunk
                        if replay:
                            skipped = min(replay, len(answers))
                            answers, replay = answers[skipped:], replay - skipped
                        # Every answer of a chunk is consumed before the next
                        # chunk is asked for, so counting here is exact.
                        yielded += len(answers)
                        yield answers
                        if exhausted:
                            return
                except ShardDiedError:
                    attempts -= 1
                    if self.replicas == 1 or attempts <= 0:
                        raise
                    retry = self._tracer.begin(
                        "failover_retry", parent=ctx, dead_shard=shard
                    )
                    try:
                        self._after_death(shard)
                    finally:
                        self._tracer.finish(retry)
                    self.failovers_total += 1
                finally:
                    if stream is not None:
                        self._pool.stream_close(stream)
        finally:
            self._tracer.finish(span)

    def _fetch_page(self, doc_id, cursor_id: Optional[int], size: int):
        if self._pool is None:
            return self._store.document(doc_id)._page_payload(cursor_id, size)
        return self._page_sharded(doc_id, cursor_id, size)

    def _page_sharded(self, doc_id, cursor_id: Optional[int], size: int):
        """One page request, mirrored to every replica that holds the cursor.

        Cursor opens and fetches are **writes** (they advance worker-side
        cursor state), so they go to all live holders in lockstep; cursor
        behavior is deterministic, so every holder returns the same page and
        the first reply is served.  A holder dying mid-fetch costs nothing:
        the surviving holders advanced identically.
        """
        self._reap_repairs()
        pool = self._pool
        key = None if cursor_id is None else (doc_id, cursor_id)
        if cursor_id is None:
            targets = self._write_targets(doc_id)
        else:
            holders = self._cursor_holders.get(key)
            targets = []
            if holders:
                targets = [
                    shard
                    for shard in self._replicas_of[doc_id]
                    if shard in holders and pool.is_alive(shard)
                ]
            if not targets:
                # Unknown / released / orphaned cursor: one replica produces
                # the precise worker-side error (or dead-shard error).
                targets = [self._pick_read_replica(doc_id)]
        replies, app_error, death_error = self._fan_out(
            targets, "page", doc_id, cursor_id, size
        )
        if not replies:
            if app_error is not None:
                # Deterministic across replicas (invalidation, released id,
                # ...): the worker-side cursor is released everywhere.
                if key is not None:
                    self._cursor_holders.pop(key, None)
                raise app_error
            raise death_error
        payload = replies[0][1]
        holders = {shard for shard, _payload in replies}
        if cursor_id is None:
            self._next_cursor_ids[doc_id] = self._next_cursor_ids.get(doc_id, 0) + 1
            if not payload["exhausted"]:
                self._cursor_holders[(doc_id, payload["cursor_id"])] = holders
        elif payload["exhausted"]:
            self._cursor_holders.pop(key, None)
        else:
            self._cursor_holders[key] = holders
        return payload

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, object]:
        """A monitoring snapshot; sharded engines merge per-shard stats.

        Sharded engines additionally report the protocol counters of the
        pipelined shard pool: ``shards`` (per shard: liveness, respawn
        ``generation``, ``replica_of`` document ids, in-flight request
        count, queued replies, open streams, message totals),
        ``queue_depth`` (total in-flight requests at snapshot time) and
        ``streaming`` (result chunks received vs round trips paid — with
        credit-based streaming the round trips stay well under one per
        chunk).  The failover machinery is observable through
        ``deaths_total`` / ``timeouts_total`` (from the pool),
        ``failovers_total`` / ``migrations_total`` / ``repairs_pending``
        (from the engine) and ``replicas``.  The
        ``cursors_resumed_across_edit_batches`` counter measures the cursor
        resume rate the ROADMAP asks for; on a sharded engine it (and
        ``cursors_invalidated``) comes from the parent-side monotonic
        accumulators — one count per logical cursor event — rather than the
        shard-held totals, which reset whenever a failover rebuilds a
        replica and double-count under replication.
        """
        self._check_open()
        if self._pool is None:
            merged = self._store.stats()
            merged["workers"] = 0
            merged["replicas"] = 1
            merged["deaths_total"] = 0
            merged["timeouts_total"] = 0
            merged["failovers_total"] = 0
            merged["migrations_total"] = 0
            merged["repairs_pending"] = 0
        else:
            self._reap_repairs()
            # Pipelined gather (all shards asked before any reply is read);
            # a dead shard reports None instead of failing the snapshot.
            per_shard = self._pool.broadcast("stats", skip_dead=True)
            merged = {}
            for shard_stats in per_shard:
                if shard_stats is None:  # dead shard: its numbers are gone
                    continue
                for key, value in shard_stats.items():
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        continue
                    if key == "compiled_queries":
                        # Every shard loads the same standing queries; summing
                        # would multiply the count by the worker count.
                        merged[key] = max(merged.get(key, 0), value)
                    else:
                        merged[key] = merged.get(key, 0) + value
            if self.replicas > 1:
                # Summing per-shard document counts would count every
                # replica; report logical documents instead.
                merged["documents"] = len(self._documents)
            # Logical cursor counters (see the docstring): the shard-side
            # sums computed above are replaced by the parent-side monotonic
            # accumulators, which survive replica rebuilds.
            merged["cursors_resumed_across_edit_batches"] = self.cursors_resumed_total
            merged["cursors_invalidated"] = self.cursors_invalidated_total
            merged["relation_backend"] = self.backend
            merged["workers"] = len(self._pool)
            merged["replicas"] = self.replicas
            merged["per_shard"] = per_shard
            shard_counters = self._pool.shard_stats()
            for index, entry in enumerate(shard_counters):
                entry["replica_of"] = [
                    doc_id
                    for doc_id, replicas in self._replicas_of.items()
                    if index in replicas
                ]
            merged["shards"] = shard_counters
            merged["queue_depth"] = sum(s["inflight_requests"] for s in shard_counters)
            merged["streams_open"] = sum(s["streams_open"] for s in shard_counters)
            merged["streaming"] = {
                "chunks": sum(s["stream_chunks"] for s in shard_counters),
                "round_trips": sum(s["stream_round_trips"] for s in shard_counters),
                "chunk_size": STREAM_PAGE_SIZE,
                # the *live* adaptive window (starts at STREAM_CREDIT)
                "credit": self._pool.credit.window,
                "credit_start": STREAM_CREDIT,
                "credit_grown": self._pool.credit.grown_total,
                "credit_shrunk": self._pool.credit.shrunk_total,
            }
            merged["deaths_total"] = self._pool.deaths_total
            merged["timeouts_total"] = self._pool.timeouts_total
            merged["failovers_total"] = self.failovers_total
            merged["migrations_total"] = self.migrations_total
            merged["repairs_pending"] = len(self._repairs)
        merged["ingest_stragglers"] = self.ingest_stragglers_total
        merged["queries_compiled"] = len(self._queries)
        merged["catalog_entries"] = len(self.catalog) if self.catalog is not None else 0
        return merged

    # -------------------------------------------------------- observability
    def metrics(self) -> Dict[str, object]:
        """Latency histograms and counters, merged across the whole engine.

        Returns ``{name: snapshot}`` where a histogram snapshot carries
        ``count`` / ``sum`` / ``p50`` / ``p95`` / ``p99`` / ``max`` plus the
        raw buckets, and a counter carries ``value``.  On a sharded engine
        every worker's registry is gathered over the protocol and merged
        bucket-wise into the parent's — all histograms share one fixed bound
        table, so the merged result is identical to single-process recording
        (the test suite pins this).  Dead shards contribute nothing.

        Catalog of metrics: ``answer_delay_seconds`` (per answer, only under
        a ``delay_budget``), ``update_apply_seconds`` (per edit trunk
        rebuild) and ``update_batch_seconds`` (per batch),
        ``ingest_build_seconds`` (per document) and ``ingest_batch_seconds``
        (per :meth:`add_documents` call), ``build_cache_hit_seconds``,
        ``protocol_round_trip_seconds``, ``stream_stall_seconds``,
        ``failover_seconds`` and ``repair_seconds``; counters
        ``delay_violations``, ``failovers_total``, ``migrations_total`` and
        (sharded) ``shard_deaths_total`` / ``shard_timeouts_total``.
        """
        self._check_open()
        registry = MetricsRegistry()
        registry.merge_wire(self._metrics.to_wire())
        if self._pool is not None:
            self._reap_repairs()
            for wire in self._pool.broadcast("metrics", skip_dead=True):
                registry.merge_wire(wire)
            registry.counters["shard_deaths_total"] = self._pool.deaths_total
            registry.counters["shard_timeouts_total"] = self._pool.timeouts_total
        registry.counters["failovers_total"] = self.failovers_total
        registry.counters["migrations_total"] = self.migrations_total
        return registry.snapshot()

    def metrics_text(self) -> str:
        """:meth:`metrics` in the Prometheus text exposition format.

        Histograms become cumulative ``repro_<name>_bucket{le=...}`` series
        plus ``_sum`` / ``_count``; counters become ``_total`` samples.
        Parseable back with :func:`repro.obs.parse_prometheus_text`.
        """
        return render_prometheus(self.metrics())

    def events(self) -> List[Dict[str, object]]:
        """The structured operational event log, oldest first.

        Plain dicts ``{"kind", "ts", ...}``: shard deaths/timeouts/protocol
        violations, slow protocol round trips, fault-plan firings and delay
        SLO violations.  Sharded engines merge the parent ring with every
        live worker's (sorted by wall-clock ``ts``); each ring retains the
        most recent :data:`repro.obs.slo.DEFAULT_EVENT_LOG_SIZE` events.
        """
        self._check_open()
        events = self._events.snapshot()
        if self._pool is not None:
            for shard_events in self._pool.broadcast("events", skip_dead=True):
                if shard_events:
                    events.extend(shard_events)
            events.sort(key=lambda event: event.get("ts", 0.0))
        return events

    def dump_trace(self, path: str) -> str:
        """Export the engine's spans as one Chrome-trace JSON file.

        Gathers every live worker's finished spans over the protocol
        (``trace_drain``), merges them with the parent's, and writes the
        combined ``traceEvents`` to ``path`` — load it in ``chrome://tracing``
        or Perfetto.  One logical call (``stream()``, ``add_documents``,
        ``apply_edits``) shows up as one trace: the parent span, the
        per-shard protocol spans parented under it, and any failover retries.
        Requires tracing (``trace=True`` or ``REPRO_TRACE``).
        """
        self._check_open()
        if not self._tracer.enabled:
            raise EngineError(
                "tracing is off; construct the engine with trace=True "
                "(or set REPRO_TRACE) to record spans"
            )
        if self._pool is not None:
            for wire in self._pool.broadcast("trace_drain", skip_dead=True):
                self._tracer.absorb(wire)
        return self._tracer.dump(path)

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Shut down workers and release owned resources (idempotent).

        Safe on an engine whose constructor raised during parameter
        validation (nothing was created, so there is nothing to release).
        With ``REPRO_TRACE`` set and tracing on, the engine's Chrome trace
        is dumped there (best-effort) before the workers go away.
        """
        if getattr(self, "_closed", True):
            return
        if self._tracer.enabled:
            path = trace_path_from_env()
            if path is not None:
                try:
                    self.dump_trace(path)
                except Exception:  # noqa: BLE001 — never block shutdown
                    pass
        self._closed = True
        lease = getattr(self, "_lease", None)
        if lease is not None:
            self._lease = None
            try:
                lease.release()
            except Exception:  # noqa: BLE001 — never block shutdown
                pass
        if self._pool is not None:
            self._pool.close()
        self._store = None
        self._documents.clear()
        self._replicas_of.clear()
        self._epochs.clear()
        self._cursor_holders.clear()
        self._next_cursor_ids.clear()
        self._ingest_blobs.clear()
        self._edit_logs.clear()
        self._repairs.clear()
        if self._owned_catalog_dir is not None:
            shutil.rmtree(self._owned_catalog_dir, ignore_errors=True)

    def __repr__(self) -> str:  # pragma: no cover
        if self.workers:
            mode = f"workers={self.workers}"
            if self.replicas > 1:
                mode += f", replicas={self.replicas}"
        else:
            mode = "in-process"
        return (
            f"Engine({mode}, backend={self.backend!r}, "
            f"documents={len(self._documents)}, queries={len(self._queries)})"
        )
