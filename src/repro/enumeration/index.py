"""The enumeration index (Definition 6.1, Lemma 6.3).

For every box ``B`` of the circuit the index stores:

* for every ∪-gate ``g`` of ``B``, its **first interesting box** ``fib(g)``:
  the first box (in the preorder of ``B``'s subtree) containing a var- or
  ×-gate ∪-reachable from ``g``;
* for every boxed set ``Γ ⊆ B`` with ``1 ≤ |Γ| ≤ 2``, its **first
  bidirectional box** ``fbb(Γ)``: the first box whose two subtrees both
  contain gates ∪-reachable from ``Γ``;
* the ∪-reachability relation ``R(X, B)`` for every *target box* ``X``
  (every fib/fbb value and the children of ``B``), together with the
  preorder ranks of the target boxes.

Everything is computed bottom-up, per box, from the children's index entries
(equations (3)–(5) of the appendix), which is exactly what makes the index
incrementally maintainable: when an update rebuilds the boxes on a trunk
(Lemma 7.3), recomputing the index entries of those boxes reuses the
untouched entries of the reused subtrees.

Preorder ranks are stored as *path tuples* relative to the box owning the
index ((0,) for the box itself, (1, …) for targets in the left subtree,
(2, …) for targets in the right subtree); comparing tuples lexicographically
compares preorder positions without any global numbering — global numberings
would be invalidated by updates.  Because a rank is the literal box-tree path
to the target, the lca queries of Definition 6.1 reduce to rank-prefix
arithmetic: ``X`` is an ancestor of ``Y`` iff ``rank(X)`` minus its trailing
0 is a prefix of ``rank(Y)``, and the lca of two targets is the box at their
ranks' longest common prefix.  The index therefore stores no lca table at
all — the quadratic fixed-point closure the paper's presentation suggests is
replaced by O(1)-per-pair arithmetic on material the index already carries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuits.gates import AssignmentCircuit, Box
from repro.enumeration.relations import Relation, iter_bits
from repro.enumeration.wiring import wire_relation
from repro.errors import CircuitStructureError, IndexError_

__all__ = [
    "TargetInfo",
    "BoxIndex",
    "build_box_index",
    "build_index",
    "fib_of_slots",
    "fbb_of_slots",
    "fib_of_mask",
    "fbb_of_mask",
]

SIDE_SELF = "self"
SIDE_LEFT = "left"
SIDE_RIGHT = "right"


class TargetInfo:
    """Index entry for one target box ``X`` of a box ``B``.

    Holds the ∪-reachability relation ``R(X, B)``, which side of ``B`` the
    target lies on, and its preorder rank (a path tuple, see module docs).
    """

    __slots__ = ("box", "relation", "side", "rank")

    def __init__(self, box: Box, relation: Relation, side: str, rank: Tuple[int, ...]):
        self.box = box
        self.relation = relation
        self.side = side
        self.rank = rank

    def __repr__(self) -> str:  # pragma: no cover
        return f"TargetInfo(side={self.side}, rank={self.rank}, rel={len(self.relation)})"


class BoxIndex:
    """The per-box part of the index structure ``I(C)`` of Definition 6.1."""

    __slots__ = ("box", "fib", "fbb_pair", "targets", "fib_ranks", "fbb_ranks")

    def __init__(self, box: Box):
        self.box = box
        #: per ∪-gate slot: the first interesting box
        self.fib: List[Box] = []
        #: per pair of slots (i ≤ j): the first bidirectional box (missing = None)
        self.fbb_pair: Dict[Tuple[int, int], Box] = {}
        #: target box -> TargetInfo (relation, side, rank)
        self.targets: Dict[Box, TargetInfo] = {}
        #: per ∪-gate slot: rank of fib[slot] (parallel to fib; avoids a
        #: targets lookup per slot on the enumeration hot path)
        self.fib_ranks: List[Tuple[int, ...]] = []
        #: (i, j) -> (rank, box) for fbb_pair (precomputed rank for min-scans)
        self.fbb_ranks: Dict[Tuple[int, int], Tuple[Tuple[int, ...], Box]] = {}

    # ------------------------------------------------------------------ api
    def relation_to(self, box: Box) -> Relation:
        """Return the stored relation ``R(box, B)``."""
        try:
            return self.targets[box].relation
        except KeyError:
            raise IndexError_("no stored reachability relation for this target box") from None

    def is_ancestor(self, ancestor: Box, descendant: Box) -> bool:
        """Return True if ``ancestor`` is an ancestor of (or equal to) ``descendant``.

        A pure rank comparison: the ancestor's path (its rank minus the
        trailing 0) must be a prefix of the descendant's rank.
        """
        try:
            ancestor_rank = self.targets[ancestor].rank
            descendant_rank = self.targets[descendant].rank
        except KeyError:
            raise IndexError_("ancestor query on a non-target pair") from None
        prefix = len(ancestor_rank) - 1
        return ancestor_rank[:prefix] == descendant_rank[:prefix]

    def __repr__(self) -> str:  # pragma: no cover
        return f"BoxIndex(targets={len(self.targets)}, width={len(self.fib)})"


# --------------------------------------------------------------------------- set-level helpers
def fib_of_mask(index: BoxIndex, slot_mask: int) -> Box:
    """``fib(Γ)`` for a boxed set given as a bitmask over slots (equation (1)).

    Mask-native twin of :func:`fib_of_slots`: iterates the set bits and
    compares the precomputed ``fib_ranks``, with no set/sort allocation.
    """
    best: Optional[Box] = None
    best_rank: Optional[Tuple[int, ...]] = None
    fib = index.fib
    fib_ranks = index.fib_ranks
    while slot_mask:
        low = slot_mask & -slot_mask
        slot = low.bit_length() - 1
        slot_mask ^= low
        rank = fib_ranks[slot]
        if best_rank is None or rank < best_rank:
            best, best_rank = fib[slot], rank
    if best is None:
        raise IndexError_("fib of an empty boxed set requested")
    return best


def fbb_of_mask(index: BoxIndex, slot_mask: int) -> Optional[Box]:
    """``fbb(Γ)`` for a boxed set given as a bitmask over slots.

    Mask-native twin of :func:`fbb_of_slots`: scans the (i ≤ j) bit pairs of
    the mask against the precomputed ``fbb_ranks`` table.
    """
    best: Optional[Box] = None
    best_rank: Optional[Tuple[int, ...]] = None
    fbb_ranks = index.fbb_ranks
    outer = slot_mask
    while outer:
        low_i = outer & -outer
        i = low_i.bit_length() - 1
        inner = outer  # pairs (i, j) with j >= i, including the singleton (i, i)
        outer ^= low_i
        while inner:
            low_j = inner & -inner
            j = low_j.bit_length() - 1
            inner ^= low_j
            entry = fbb_ranks.get((i, j))
            if entry is None:
                continue
            rank, candidate = entry
            if best_rank is None or rank < best_rank:
                best, best_rank = candidate, rank
    return best


def fib_of_slots(index: BoxIndex, slots: Iterable[int]) -> Box:
    """``fib(Γ)`` for a boxed set given by its slots (equation (1))."""
    best: Optional[Box] = None
    best_rank: Optional[Tuple[int, ...]] = None
    targets = index.targets
    fib = index.fib
    for slot in slots:
        candidate = fib[slot]
        rank = targets[candidate].rank
        if best_rank is None or rank < best_rank:
            best, best_rank = candidate, rank
    if best is None:
        raise IndexError_("fib of an empty boxed set requested")
    return best


def fbb_of_slots(index: BoxIndex, slots: Iterable[int]) -> Optional[Box]:
    """``fbb(Γ)`` for a boxed set given by its slots.

    Following Definition 6.1 and Observation 6.2, the first bidirectional box
    of a larger set is the preorder-minimum of the stored values for the
    pairs (and singletons) included in the set.
    """
    slot_list = sorted(set(slots))
    best: Optional[Box] = None
    best_rank: Optional[Tuple[int, ...]] = None
    fbb_pair = index.fbb_pair
    targets = index.targets
    for i, a in enumerate(slot_list):
        for b in slot_list[i:]:
            candidate = fbb_pair.get((a, b))
            if candidate is None:
                continue
            rank = targets[candidate].rank
            if best_rank is None or rank < best_rank:
                best, best_rank = candidate, rank
    return best


# --------------------------------------------------------------------------- construction
def _finalize_ranks(index: BoxIndex) -> None:
    """Precompute the rank tables read by the mask-native lookups."""
    targets = index.targets
    index.fib_ranks = [targets[b].rank for b in index.fib]
    index.fbb_ranks = {key: (targets[b].rank, b) for key, b in index.fbb_pair.items()}


def build_box_index(box: Box, relation_backend: Optional[str] = None) -> BoxIndex:
    """Build the index entry of a single box from its children's entries.

    For internal boxes, both children must already carry a ``BoxIndex`` (the
    construction is bottom-up).  The freshly built index is also stored on
    ``box.index`` for convenience.
    """
    index = BoxIndex(box)
    n = box.n_unions
    targets = index.targets
    identity = Relation.identity(n, backend=relation_backend)
    targets[box] = TargetInfo(box, identity, SIDE_SELF, (0,))

    if box.is_leaf_box():
        # Fast path: every slot of a leaf box has only var-gate inputs, so the
        # box is its own first interesting box for every slot, no pair has a
        # bidirectional box, and the only target is the box itself.
        index.fib = [box] * n
        _finalize_ranks(index)
        box.index = index
        return index

    left_box = box.left_child
    right_box = box.right_child
    left_index: BoxIndex = left_box.index
    right_index: BoxIndex = right_box.index
    if left_index is None or right_index is None:
        raise IndexError_("children must be indexed before their parent (bottom-up order)")

    # Input wiring, recorded once at circuit-construction time
    # (Box.add_union_gate / the box plans); no isinstance rescan of gate
    # inputs happens here.
    local_mask = box.local_mask
    left_inputs = box.left_input_masks
    right_inputs = box.right_input_masks

    left_relation = wire_relation(box, SIDE_LEFT, backend=relation_backend)
    right_relation = wire_relation(box, SIDE_RIGHT, backend=relation_backend)
    left_targets = left_index.targets
    right_targets = right_index.targets
    left_rank = (1,) + left_targets[left_box].rank
    right_rank = (2,) + right_targets[right_box].rank
    targets[left_box] = TargetInfo(left_box, left_relation, SIDE_LEFT, left_rank)
    targets[right_box] = TargetInfo(right_box, right_relation, SIDE_RIGHT, right_rank)

    fib = index.fib
    fbb_pair = index.fbb_pair

    if left_box.is_leaf_box() and right_box.is_leaf_box():
        # Cherry fast path (both children are leaves) — what the generic code
        # below computes, specialized: a leaf's fib is itself for every slot
        # and its fbb table is empty, so the only targets are the box and its
        # two children, every fib value is one of those, and a pair of slots
        # has a fbb iff it reaches both children (then the fbb is the box).
        for slot in range(n):
            if (local_mask >> slot) & 1:
                fib.append(box)
            elif left_inputs[slot]:
                fib.append(left_box)
            elif right_inputs[slot]:
                fib.append(right_box)
            else:
                raise CircuitStructureError("∪-gate with no inputs during index construction")
        for i in range(n):
            lefts_i = left_inputs[i]
            rights_i = right_inputs[i]
            for j in range(i, n):
                if (lefts_i | left_inputs[j]) and (rights_i | right_inputs[j]):
                    fbb_pair[(i, j)] = box
        _finalize_ranks(index)
        box.index = index
        return index

    def ensure_target(target: Box, side: str) -> None:
        if target in targets:
            return
        if side == SIDE_LEFT:
            info = left_targets.get(target)
            wire = left_relation
            prefix = 1
        else:
            info = right_targets.get(target)
            wire = right_relation
            prefix = 2
        if info is None:
            raise IndexError_("target box is not indexed in the child entry")
        rank = (prefix,) + info.rank
        targets[target] = TargetInfo(target, info.relation.compose(wire), side, rank)

    # ------------------------------------------------------------------- fib
    for slot in range(n):
        if (local_mask >> slot) & 1:
            fib.append(box)
            continue
        if left_inputs[slot]:
            side = SIDE_LEFT
            child_index = left_index
            child_slots = left_inputs[slot]
        elif right_inputs[slot]:
            side = SIDE_RIGHT
            child_index = right_index
            child_slots = right_inputs[slot]
        else:
            raise CircuitStructureError("∪-gate with no inputs during index construction")
        best = fib_of_slots(child_index, iter_bits(child_slots))
        fib.append(best)
        ensure_target(best, side)

    # ------------------------------------------------------------------- fbb
    for i in range(n):
        lefts_i = left_inputs[i]
        rights_i = right_inputs[i]
        for j in range(i, n):
            lefts = lefts_i | left_inputs[j]
            rights = rights_i | right_inputs[j]
            if lefts and rights:
                fbb_pair[(i, j)] = box
            elif lefts:
                value = fbb_of_slots(left_index, iter_bits(lefts))
                if value is not None:
                    fbb_pair[(i, j)] = value
                    ensure_target(value, SIDE_LEFT)
            elif rights:
                value = fbb_of_slots(right_index, iter_bits(rights))
                if value is not None:
                    fbb_pair[(i, j)] = value
                    ensure_target(value, SIDE_RIGHT)

    _finalize_ranks(index)
    box.index = index
    return index


def build_index(circuit: AssignmentCircuit, relation_backend: Optional[str] = None) -> None:
    """Build the full index ``I(C)`` bottom-up over all boxes (Lemma 6.3)."""
    # Post-order traversal of the tree of boxes.
    order: List[Box] = []
    stack: List[Tuple[Box, bool]] = [(circuit.root_box, False)]
    while stack:
        current, visited = stack.pop()
        if visited or current.is_leaf_box():
            order.append(current)
        else:
            stack.append((current, True))
            stack.append((current.right_child, False))
            stack.append((current.left_child, False))
    for current in order:
        build_box_index(current, relation_backend=relation_backend)
