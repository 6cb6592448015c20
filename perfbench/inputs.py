"""Seeded inputs of the benchmark workloads, generated before any timing.

Every input is a pure function of the workload seed: the trees, the edit
scripts, the ingest corpus and the traffic schedules.  The program under test
only ever receives these generated values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.automata.queries import DEFAULT_LABELS
from repro.bench.workloads import tree_for_experiment
from repro.trees.edits import Delete, EditOperation, Insert, InsertRight, random_edit
from repro.trees.unranked import UnrankedTree

#: relabel / insert / insertR / delete weights of ``mixed_workload``
EDIT_MIX = (1.0, 1.0, 1.0, 1.0)

#: Labels of the ``edit_page`` documents: the alphabet of the ``pairs`` query,
#: with ``a`` and ``b`` drawn once in 60 each.  An 8192-node document then has
#: about 140 ``a`` and 140 ``b`` nodes, so about 20k answers: cursors walk a
#: couple of hundred pages, and the final-state oracle enumerates the whole
#: answer set in well under a second (uniform labels would give 7.5M answers).
SPARSE_AB_LABELS: Tuple[str, ...] = ("a", "b") + ("c",) * 58


class EditDrawer:
    """Draws ``mixed_workload`` edits one at a time on a scratch copy of a tree.

    The draw is the library's :func:`random_edit` with ``mixed_workload``'s
    weights.  ``mixed_workload`` lists every node of the tree per draw by a
    tree walk, about 3 ms on an 8192-node tree; this class hands
    :func:`random_edit` a node table kept up to date edit by edit, so drawing
    thousands of edits takes about a second.  Each drawn edit is applied to
    the scratch tree, so a script is valid when replayed in order.
    """

    def __init__(self, tree: UnrankedTree, labels: Sequence[str], rng: random.Random):
        self.tree = tree.copy()
        self.labels = labels
        self.rng = rng
        self._nodes = {node.node_id: node for node in self.tree.nodes()}

    # the two methods random_edit reads from the tree it draws on
    def nodes(self):
        return self._nodes.values()

    def size(self) -> int:
        return len(self._nodes)

    def draw(self) -> EditOperation:
        edit = random_edit(self, self.labels, self.rng, weights=EDIT_MIX)
        node = edit.apply_to_tree(self.tree)
        if isinstance(edit, Delete):
            del self._nodes[edit.node_id]
        elif isinstance(edit, (Insert, InsertRight)):
            self._nodes[node.node_id] = node
        return edit


def replay(tree: UnrankedTree, batches: Sequence[Sequence[EditOperation]]) -> UnrankedTree:
    """A copy of ``tree`` with ``batches`` applied by the reference tree semantics."""
    result = tree.copy()
    for batch in batches:
        for edit in batch:
            edit.apply_to_tree(result)
    return result


class SpreadSizes:
    """Log-uniform sizes in ``[low, high]`` from a golden-ratio sequence.

    Consecutive draws step through the log-size range by the golden ratio
    from the fixed point ``start``, so every prefix of the sequence covers the
    range evenly and every seed gets the same sequence of sizes: the seed
    picks the trees, not how large they are.  With a seeded starting point,
    the peak RSS of ``ingest`` spread by 14% of its median over five seeds
    (it is the largest working set of consecutive documents) against 0% over
    runs of one seed.
    """

    def __init__(self, start: float, low: int, high: int):
        self._log_low = math.log(low)
        self._log_span = math.log(high) - self._log_low
        self._u = start

    def draw(self) -> int:
        self._u = (self._u + 0.6180339887498949) % 1.0
        return int(round(math.exp(self._log_low + self._u * self._log_span)))


# --------------------------------------------------------------------- ingest
@dataclass
class IngestDoc:
    tree: UnrankedTree
    query: str  #: benchmark query name
    source: Optional[int]  #: index of the document this one is a version of


#: every fourth document runs the heavy query
def ingest_query(index: int) -> str:
    return "nondet-6" if index % 4 == 3 else "descendant"


def ingest_inputs(seed: int, count: int, min_size: int, max_size: int) -> List[IngestDoc]:
    """A corpus of ``count`` distinct trees for one ``add_tree`` each.

    Sizes are log-uniform in ``[min_size, max_size]`` (:class:`SpreadSizes`,
    one sequence per query).  Every fourth document runs ``nondet-6``, the
    others ``descendant``.  Every third document is a version of the latest
    original document of the same query, four ``mixed_workload`` edits away,
    so the build cache meets shared subtrees.
    """
    rng = random.Random(seed)
    sizes = {query: SpreadSizes(start, min_size, max_size)
             for query, start in (("descendant", 0.0), ("nondet-6", 0.5))}
    latest = {}  # query -> index of its latest original document
    corpus: List[IngestDoc] = []
    for index in range(count):
        query = ingest_query(index)
        source = latest.get(query)
        if index % 3 == 2 and source is not None:
            drawer = EditDrawer(corpus[source].tree, DEFAULT_LABELS, rng)
            for _ in range(4):
                drawer.draw()
            corpus.append(IngestDoc(drawer.tree, query, source))
        else:
            tree = tree_for_experiment(sizes[query].draw(), "random", seed=rng.randrange(2**31))
            latest[query] = index
            corpus.append(IngestDoc(tree, query, None))
    return corpus


# ------------------------------------------------------------------ edit_page
@dataclass
class EditRound:
    doc: int
    batch: List[EditOperation]
    #: (document, cursor slot) of each page fetched after the batch; the
    #: first is on the edited document
    reads: List[Tuple[int, int]]


@dataclass
class EditPageInputs:
    trees: List[UnrankedTree]
    rounds: List[EditRound]
    cursors_per_doc: int


def edit_page_inputs(
    seed: int, docs: int, size: int, rounds: int, cursors_per_doc: int, reads: int
) -> EditPageInputs:
    rng = random.Random(seed)
    trees = [
        tree_for_experiment(size, "random", seed=rng.randrange(2**31), labels=SPARSE_AB_LABELS)
        for _ in range(docs)
    ]
    drawers = [EditDrawer(tree, SPARSE_AB_LABELS, rng) for tree in trees]
    schedule: List[EditRound] = []
    for _ in range(rounds):
        doc = rng.randrange(docs)
        batch = [drawers[doc].draw() for _ in range(rng.randint(1, 4))]
        picks = [(doc, rng.randrange(cursors_per_doc))]
        for _ in range(reads - 1):
            picks.append((rng.randrange(docs), rng.randrange(cursors_per_doc)))
        schedule.append(EditRound(doc, batch, picks))
    return EditPageInputs(trees=trees, rounds=schedule, cursors_per_doc=cursors_per_doc)


# -------------------------------------------------------------- remote_stream
@dataclass
class Walk:
    doc: int
    pages: int
    #: edit batch applied to the walked document halfway through, or None
    batch: Optional[List[EditOperation]] = None


@dataclass
class StreamCycle:
    stream_doc: int
    walks: List[Walk] = field(default_factory=list)


@dataclass
class RemoteInputs:
    trees: List[UnrankedTree]
    cycles: List[StreamCycle]


def remote_inputs(
    seed: int, docs: int, size: int, cycles: int, walks: int, pages: int, edit_every: int
) -> RemoteInputs:
    """Cycles of one full stream followed by ``walks`` page walks.

    Every ``edit_every``-th walk carries an edit batch applied halfway
    through it, so the walk's cursor resumes or is invalidated.
    """
    rng = random.Random(seed)
    trees = [tree_for_experiment(size, "random", seed=rng.randrange(2**31)) for _ in range(docs)]
    drawers = [EditDrawer(tree, DEFAULT_LABELS, rng) for tree in trees]
    schedule: List[StreamCycle] = []
    walk_index = 0
    for index in range(cycles):
        cycle = StreamCycle(stream_doc=index % docs)
        for _ in range(walks):
            doc = rng.randrange(docs)
            batch = None
            walk_index += 1
            if walk_index % edit_every == 0:
                batch = [drawers[doc].draw() for _ in range(rng.randint(1, 4))]
            cycle.walks.append(Walk(doc, pages, batch))
        schedule.append(cycle)
    return RemoteInputs(trees=trees, cycles=schedule)
