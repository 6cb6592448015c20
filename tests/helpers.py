"""Shared helpers for the test suite: reference automata and random generators.

The binary-TVA builders here are small hand-written queries whose answer sets
are easy to compute independently; they are used throughout the tests of the
circuit and enumeration layers.  The random generators produce arbitrary
(generally nondeterministic) automata and trees for the property-based tests
that compare the enumeration pipeline against the brute-force oracles.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

from repro.assignments import Assignment
from repro.automata.binary_tva import BinaryTVA
from repro.automata.unranked_tva import UnrankedTVA
from repro.trees.binary import BinaryTree

LABELS = ("a", "b", "c")


# --------------------------------------------------------------------------- hand-written binary TVAs
def select_a_leaf() -> BinaryTVA:
    """Φ(x): ``x`` is a leaf labelled ``a`` (exactly one occurrence of x)."""
    labels = LABELS
    initial = [(l, frozenset(), "q0") for l in labels]
    initial.append(("a", frozenset({"x"}), "q1"))
    delta = []
    for l in labels:
        delta.append((l, "q0", "q0", "q0"))
        delta.append((l, "q1", "q0", "q1"))
        delta.append((l, "q0", "q1", "q1"))
    return BinaryTVA(["q0", "q1"], ["x"], initial, delta, ["q1"], name="select_a_leaf")


def select_pair_ab() -> BinaryTVA:
    """Φ(x, y): ``x`` is an ``a``-leaf and ``y`` is a ``b``-leaf (one each)."""
    labels = LABELS
    states = ["q00", "q10", "q01", "q11"]
    initial = [(l, frozenset(), "q00") for l in labels]
    initial.append(("a", frozenset({"x"}), "q10"))
    initial.append(("b", frozenset({"y"}), "q01"))
    delta = []
    for l in labels:
        for sx1 in (0, 1):
            for sy1 in (0, 1):
                for sx2 in (0, 1):
                    for sy2 in (0, 1):
                        if sx1 + sx2 <= 1 and sy1 + sy2 <= 1:
                            q1 = f"q{sx1}{sy1}"
                            q2 = f"q{sx2}{sy2}"
                            q = f"q{sx1 + sx2}{sy1 + sy2}"
                            delta.append((l, q1, q2, q))
    return BinaryTVA(states, ["x", "y"], initial, delta, ["q11"], name="select_pair_ab")


def nondet_witness() -> BinaryTVA:
    """Φ(x): ``x`` is an ``a``-leaf and some ``b``-leaf exists (guessed witness).

    The witness ``b``-leaf is chosen nondeterministically, so the automaton
    has one run per (answer, witness) pair: a good stress test for duplicate
    elimination (Section 5).
    """
    labels = LABELS
    states = ["q0", "qx", "qb", "qxb"]
    initial = [(l, frozenset(), "q0") for l in labels]
    initial.append(("a", frozenset({"x"}), "qx"))
    initial.append(("b", frozenset(), "qb"))
    allowed = {
        ("q0", "q0"): "q0",
        ("qx", "q0"): "qx",
        ("q0", "qx"): "qx",
        ("qb", "q0"): "qb",
        ("q0", "qb"): "qb",
        ("qx", "qb"): "qxb",
        ("qb", "qx"): "qxb",
        ("qxb", "q0"): "qxb",
        ("q0", "qxb"): "qxb",
    }
    delta = [(l, q1, q2, q) for l in labels for (q1, q2), q in allowed.items()]
    return BinaryTVA(states, ["x"], initial, delta, ["qxb"], name="nondet_witness")


def subset_of_a_leaves() -> BinaryTVA:
    """Φ(X): ``X`` is any (possibly empty) set of ``a``-leaves (second-order)."""
    labels = LABELS
    initial = [(l, frozenset(), "q0") for l in labels]
    initial.append(("a", frozenset({"X"}), "q1"))
    delta = []
    for l in labels:
        for q1 in ("q0", "q1"):
            for q2 in ("q0", "q1"):
                q = "q1" if "q1" in (q1, q2) else "q0"
                delta.append((l, q1, q2, q))
    return BinaryTVA(["q0", "q1"], ["X"], initial, delta, ["q0", "q1"], name="subset_of_a_leaves")


def boolean_has_a_leaf() -> BinaryTVA:
    """Boolean query (no variables): the tree has some ``a``-labelled leaf."""
    labels = LABELS
    initial = [(l, frozenset(), "no") for l in labels]
    initial.append(("a", frozenset(), "yes"))
    delta = []
    for l in labels:
        for q1 in ("no", "yes"):
            for q2 in ("no", "yes"):
                q = "yes" if "yes" in (q1, q2) else "no"
                delta.append((l, q1, q2, q))
    return BinaryTVA(["no", "yes"], [], initial, delta, ["yes"], name="boolean_has_a_leaf")


ALL_BINARY_TVAS = [
    select_a_leaf,
    select_pair_ab,
    nondet_witness,
    subset_of_a_leaves,
    boolean_has_a_leaf,
]


# --------------------------------------------------------------------------- random generators
def random_binary_tva(
    seed: int,
    n_states: int = 3,
    labels: Sequence[str] = LABELS,
    variables: Sequence[str] = ("x",),
    initial_density: float = 0.5,
    delta_density: float = 0.25,
) -> BinaryTVA:
    """A random (usually nondeterministic) binary TVA."""
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n_states)]
    var_sets = [frozenset()] + [frozenset({v}) for v in variables]
    if len(variables) >= 2:
        var_sets.append(frozenset(variables))
    initial = []
    for l in labels:
        for vs in var_sets:
            for q in states:
                if rng.random() < initial_density:
                    initial.append((l, vs, q))
    delta = []
    for l in labels:
        for q1 in states:
            for q2 in states:
                for q in states:
                    if rng.random() < delta_density:
                        delta.append((l, q1, q2, q))
    final = [q for q in states if rng.random() < 0.5]
    if not final:
        final = [rng.choice(states)]
    return BinaryTVA(states, variables, initial, delta, final, name=f"random_{seed}")


def random_unranked_tva(
    seed: int,
    n_states: int = 3,
    labels: Sequence[str] = LABELS,
    variables: Sequence[str] = ("x",),
    initial_density: float = 0.5,
    delta_density: float = 0.3,
) -> UnrankedTVA:
    """A random (usually nondeterministic) stepwise unranked TVA."""
    rng = random.Random(seed)
    states = [f"u{i}" for i in range(n_states)]
    var_sets = [frozenset()] + [frozenset({v}) for v in variables]
    initial = []
    for l in labels:
        for vs in var_sets:
            for q in states:
                if rng.random() < initial_density:
                    initial.append((l, vs, q))
    delta = []
    for q in states:
        for qc in states:
            for qn in states:
                if rng.random() < delta_density:
                    delta.append((q, qc, qn))
    final = [q for q in states if rng.random() < 0.5]
    if not final:
        final = [rng.choice(states)]
    return UnrankedTVA(states, variables, initial, delta, final, name=f"random_unranked_{seed}")


def random_binary_tree_nested(seed: int, n_internal: int, labels: Sequence[str] = LABELS):
    """Nested-tuple representation of a random binary tree (for BinaryTree.from_nested)."""
    rng = random.Random(seed)

    def build(remaining: int):
        if remaining == 0:
            return rng.choice(list(labels))
        left_share = rng.randint(0, remaining - 1)
        return (rng.choice(list(labels)), build(left_share), build(remaining - 1 - left_share))

    return build(n_internal)


def random_binary_tree(seed: int, n_internal: int, labels: Sequence[str] = LABELS) -> BinaryTree:
    """A random binary tree with ``n_internal`` internal nodes."""
    return BinaryTree.from_nested(random_binary_tree_nested(seed, n_internal, labels))


def assignments_sorted(assignments) -> List[Tuple]:
    """Deterministic ordering of a collection of assignments (for comparisons)."""
    return sorted(tuple(sorted(a, key=repr)) for a in assignments)


def trunk_hits_cursor(document, cursor, node_id) -> bool:
    """Could an edit at ``node_id`` hit ``cursor``? (whole-box upper bound)

    Intersects the node's prospective trunk
    (:meth:`~repro.engine.local.LocalDocument.trunk_boxes`) with the boxes
    the cursor can still read (:meth:`~repro.engine.cursor.Cursor.referenced_boxes`)
    by build serial.  An edit whose rebuilt boxes are fingerprint-equal at
    every slot the cursor still reads lets it resume even where this says
    ``True``; a ``False`` can only turn into an invalidation through
    rebalancing.
    """
    trunk = {box.serial for box in document.trunk_boxes(node_id)}
    return any(box.serial in trunk for box in cursor.referenced_boxes())
