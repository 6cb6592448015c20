"""∪-reachability relations between boxes (Sections 5–6).

A relation ``R(B', B)`` relates the ∪-gates of a lower box ``B'`` to the
∪-gates of an upper box ``B`` (or, during enumeration, to the positions of a
boxed set ``Γ``): ``(g', g) ∈ R`` iff there is a path of ∪-gates from ``g'``
to ``g``.  The enumeration algorithms only ever *compose* such relations,
project them to one side, or test them for emptiness; the index of Section 6
precomputes the relations needed so that all compositions at enumeration time
involve relations of size at most width².

Three composition backends are provided:

* ``"pairs"`` — the naive join over explicit pair sets, the ``O(w³)`` bound
  used in the body of the paper.  Every pair is a tuple object; composition
  builds a dict index of the upper relation and joins through it.  Simple,
  allocation-heavy, and the reference the other backends are tested against.
* ``"matrix"`` — Boolean matrix multiplication with numpy, the ``O(w^ω)``
  refinement discussed after Lemma 6.4 (Theorem 6.5).  Wins asymptotically,
  but each operation pays numpy call overhead, so it only beats the others
  once the width is large (tens of states and up).
* ``"bitset"`` — one Python-int bitmask per lower slot (bit ``u`` set iff
  ``(l, u) ∈ R``).  Composition, projection and emptiness are word-parallel
  OR/AND loops with **zero per-pair object allocation**: composing through a
  mid slot is a single ``|=`` of a machine word (or a few words for widths
  beyond 64).  At the widths the circuits of Lemma 3.7 produce (width ≤ |Q|,
  usually well under 64) this is the fastest backend by a wide margin and is
  therefore the default.

Complexity per composition of ``w×w`` relations with ``p`` pairs:
``pairs`` is ``O(p·w)`` with ``O(p)`` tuple allocations, ``matrix`` is
``O(w^ω)`` plus constant numpy overhead, ``bitset`` is ``O(w·⌈w/64⌉)`` word
operations with no allocation beyond the result masks.

The backend is chosen per relation at creation time (and propagated through
compositions), with a module-level default that the benchmarks switch to
compare the backends (experiment E10).  Mixed-backend compositions resolve
to the "fastest" of the two operands' backends (bitset > matrix > pairs).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import BackendError

__all__ = [
    "Relation",
    "set_default_backend",
    "get_default_backend",
    "validate_backend",
    "VALID_BACKENDS",
    "iter_bits",
    "mask_of",
]

_DEFAULT_BACKEND = "bitset"
_VALID_BACKENDS = ("pairs", "matrix", "bitset")
#: the selectable composition backends, in documentation order
VALID_BACKENDS = _VALID_BACKENDS

#: interned identity relations, keyed by (n, backend) — see Relation.identity.
_IDENTITY_CACHE: Dict[Tuple[int, str], "Relation"] = {}


def validate_backend(backend: str) -> str:
    """Return ``backend`` unchanged if valid, else raise a helpful error.

    The error is a :class:`repro.errors.BackendError` (which is also a
    ``ValueError``, for callers that caught the historical type).  It lists
    the valid backends and, on a near-miss (``"bitsets"``, ``"matrx"``, ...),
    suggests the one probably meant.  Called everywhere a backend name enters
    the library (``relation_backend=`` keyword arguments,
    :func:`set_default_backend`, :class:`Relation` construction,
    ``Engine(backend=...)``) so typos fail fast with the same message instead
    of deep inside a build.
    """
    if backend in _VALID_BACKENDS:
        return backend
    message = (
        f"unknown relation backend {backend!r}; valid backends are "
        + ", ".join(repr(b) for b in _VALID_BACKENDS)
    )
    if isinstance(backend, str):
        import difflib

        close = difflib.get_close_matches(backend, _VALID_BACKENDS, n=1, cutoff=0.6)
        if close:
            message += f" (did you mean {close[0]!r}?)"
    raise BackendError(message)


def set_default_backend(backend: str) -> None:
    """Set the default composition backend (one of :data:`VALID_BACKENDS`)."""
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = validate_backend(backend)


def get_default_backend() -> str:
    """Return the current default composition backend."""
    return _DEFAULT_BACKEND


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(bits: Iterable[int]) -> int:
    """The bitmask with exactly the given bit positions set."""
    mask = 0
    for bit in bits:
        mask |= 1 << bit
    return mask


def _masks_from_matrix(matrix: np.ndarray) -> List[int]:
    """Per-row bitmasks of a Boolean matrix (row index = lower slot)."""
    if matrix.size == 0:
        return [0] * matrix.shape[0]
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class Relation:
    """A binary relation between ``n_lower`` lower slots and ``n_upper`` upper slots."""

    __slots__ = (
        "n_lower",
        "n_upper",
        "backend",
        "_pairs",
        "_matrix",
        "_masks",
        "_canonical",
    )

    def __init__(
        self,
        n_lower: int,
        n_upper: int,
        pairs: Iterable[Tuple[int, int]] = (),
        backend: Optional[str] = None,
    ):
        self.n_lower = n_lower
        self.n_upper = n_upper
        self.backend = validate_backend(backend) if backend is not None else _DEFAULT_BACKEND
        self._pairs: Optional[FrozenSet[Tuple[int, int]]] = None
        self._matrix: Optional[np.ndarray] = None
        self._masks: Optional[List[int]] = None
        self._canonical: Optional[Tuple[int, ...]] = None
        if self.backend == "matrix":
            matrix = np.zeros((n_lower, n_upper), dtype=bool)
            pair_list = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
            if pair_list:
                arr = np.asarray(pair_list, dtype=np.intp)
                matrix[arr[:, 0], arr[:, 1]] = True
            self._matrix = matrix
        elif self.backend == "bitset":
            masks = [0] * n_lower
            for lower, upper in pairs:
                masks[lower] |= 1 << upper
            self._masks = masks
        else:
            self._pairs = frozenset(pairs)

    # ------------------------------------------------------------ constructors
    @classmethod
    def identity(cls, n: int, backend: Optional[str] = None) -> "Relation":
        """The identity relation on ``n`` slots (interned per size and backend).

        Relations are immutable, so the index construction — which needs one
        identity per box — shares a single object per (n, backend).
        """
        if backend is None:
            backend = _DEFAULT_BACKEND
        cached = _IDENTITY_CACHE.get((n, backend))
        if cached is not None:
            return cached
        rel = cls(n, n, (), backend=backend)
        if rel.backend == "bitset":
            rel._masks = [1 << i for i in range(n)]
        elif rel.backend == "matrix":
            rel._matrix = np.eye(n, dtype=bool)
        else:
            rel._pairs = frozenset((i, i) for i in range(n))
        _IDENTITY_CACHE[(n, backend)] = rel
        return rel

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, backend: Optional[str] = None) -> "Relation":
        """Build a relation from a Boolean matrix (lower × upper)."""
        rel = cls(matrix.shape[0], matrix.shape[1], (), backend=backend)
        if rel.backend == "matrix":
            rel._matrix = matrix.astype(bool)
        elif rel.backend == "bitset":
            rel._masks = _masks_from_matrix(matrix.astype(bool))
        else:
            lowers, uppers = np.nonzero(matrix)
            rel._pairs = frozenset(zip(lowers.tolist(), uppers.tolist()))
        return rel

    @classmethod
    def from_masks(
        cls, n_lower: int, n_upper: int, masks: Sequence[int], backend: Optional[str] = None
    ) -> "Relation":
        """Build a relation from per-lower-slot bitmasks of upper slots."""
        rel = cls(n_lower, n_upper, (), backend=backend)
        if rel.backend == "bitset":
            rel._masks = list(masks)
        elif rel.backend == "matrix":
            matrix = np.zeros((n_lower, n_upper), dtype=bool)
            for lower, mask in enumerate(masks):
                for upper in iter_bits(mask):
                    matrix[lower, upper] = True
            rel._matrix = matrix
        else:
            rel._pairs = frozenset(
                (lower, upper) for lower, mask in enumerate(masks) for upper in iter_bits(mask)
            )
        return rel

    # ----------------------------------------------------------------- access
    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        """Return the relation as a frozenset of (lower, upper) pairs."""
        if self._pairs is None:
            if self._masks is None and self._matrix is not None:
                lowers, uppers = np.nonzero(self._matrix)
                self._pairs = frozenset(zip(lowers.tolist(), uppers.tolist()))
            else:
                self._pairs = frozenset(
                    (lower, upper)
                    for lower, mask in enumerate(self._masks_ref())
                    for upper in iter_bits(mask)
                )
        return self._pairs

    def matrix(self) -> np.ndarray:
        """Return the relation as a Boolean matrix (lower × upper)."""
        if self._matrix is None:
            matrix = np.zeros((self.n_lower, self.n_upper), dtype=bool)
            if self._masks is not None:
                for lower, mask in enumerate(self._masks):
                    for upper in iter_bits(mask):
                        matrix[lower, upper] = True
            else:
                for lower, upper in self._pairs:
                    matrix[lower, upper] = True
            self._matrix = matrix
        return self._matrix

    def _masks_ref(self) -> List[int]:
        """The cached per-lower-slot bitmask list (internal: NOT to be mutated).

        Relations are aggressively shared (interned identities and wire
        relations, plan-level caches), so internal hot paths read this shared
        list while the public :meth:`masks` hands out a copy.
        """
        if self._masks is None:
            if self._pairs is not None:
                masks = [0] * self.n_lower
                for lower, upper in self._pairs:
                    masks[lower] |= 1 << upper
                self._masks = masks
            else:
                self._masks = _masks_from_matrix(self._matrix)
        return self._masks

    def masks(self) -> List[int]:
        """Return the relation as per-lower-slot bitmasks of upper slots."""
        return list(self._masks_ref())

    def masks_view(self) -> List[int]:
        """Return the per-lower-slot bitmask list *without copying*.

        The returned list is the relation's internal cache and MUST be
        treated as read-only — relations are immutable and aggressively
        shared (interned identities, plan-level wire relations, stored index
        relations).  This is the accessor the mask-native enumeration of
        Algorithm 2 uses to thread Γ-position masks through compositions with
        zero per-call allocation; it works for every backend (``pairs`` and
        ``matrix`` relations convert once and cache the mask form).
        """
        return self._masks_ref()

    def is_empty(self) -> bool:
        """Return ``True`` if the relation contains no pair."""
        if self._masks is not None:
            return not any(self._masks)
        if self._pairs is not None:
            return not self._pairs
        return not self._matrix.any()

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __len__(self) -> int:
        if self._masks is not None:
            return sum(mask.bit_count() for mask in self._masks)
        if self._pairs is not None:
            return len(self._pairs)
        return int(self._matrix.sum())

    def _canonical_masks(self) -> Tuple[int, ...]:
        """A cached, backend-independent canonical form (per-lower bitmasks)."""
        if self._canonical is None:
            self._canonical = tuple(self._masks_ref())
        return self._canonical

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Relation):
            return NotImplemented
        if self.n_lower != other.n_lower or self.n_upper != other.n_upper:
            return False
        return self._canonical_masks() == other._canonical_masks()

    def __hash__(self) -> int:
        return hash((self.n_lower, self.n_upper, self._canonical_masks()))

    def lower_slots(self) -> FrozenSet[int]:
        """Return ``π₁(R)``: the lower slots related to at least one upper slot."""
        if self._masks is not None:
            return frozenset(lower for lower, mask in enumerate(self._masks) if mask)
        if self.backend == "matrix" and self._matrix is not None:
            return frozenset(np.nonzero(self._matrix.any(axis=1))[0].tolist())
        return frozenset(lower for lower, _upper in self.pairs())

    def lower_mask(self) -> int:
        """Return ``π₁(R)`` as a bitmask over lower slots."""
        if self._masks is not None:
            mask = 0
            for lower, row in enumerate(self._masks):
                if row:
                    mask |= 1 << lower
            return mask
        return mask_of(self.lower_slots())

    def uppers_by_lower(self) -> Dict[int, FrozenSet[int]]:
        """Return the relation as a mapping lower slot → set of upper slots."""
        if self._masks is not None:
            return {
                lower: frozenset(iter_bits(mask))
                for lower, mask in enumerate(self._masks)
                if mask
            }
        if self.backend == "matrix" and self._matrix is not None:
            lowers, uppers = np.nonzero(self._matrix)
            grouped: Dict[int, List[int]] = {}
            for lower, upper in zip(lowers.tolist(), uppers.tolist()):
                grouped.setdefault(lower, []).append(upper)
            return {lower: frozenset(ups) for lower, ups in grouped.items()}
        mapping: Dict[int, Set[int]] = {}
        for lower, upper in self.pairs():
            mapping.setdefault(lower, set()).add(upper)
        return {lower: frozenset(uppers) for lower, uppers in mapping.items()}

    # ------------------------------------------------------------- composition
    def compose(self, upper_relation: "Relation") -> "Relation":
        """Compose ``self : lower × mid`` with ``upper_relation : mid × upper``.

        The result relates ``lower`` to ``upper``; this is the operation
        written ``R(B, B') ∘ R`` in Algorithm 3 and in Lemma 6.3.  The result
        backend is the "fastest" of the operands'
        (bitset > matrix > pairs).
        """
        if self.n_upper != upper_relation.n_lower:
            raise ValueError(
                f"cannot compose relations: mid dimensions differ "
                f"({self.n_upper} vs {upper_relation.n_lower})"
            )
        if self.backend == "bitset" or upper_relation.backend == "bitset":
            upper_masks = upper_relation._masks_ref()
            out: List[int] = []
            for mid_mask in self._masks_ref():
                acc = 0
                while mid_mask:
                    low = mid_mask & -mid_mask
                    acc |= upper_masks[low.bit_length() - 1]
                    mid_mask ^= low
                out.append(acc)
            return Relation.from_masks(self.n_lower, upper_relation.n_upper, out, backend="bitset")
        if self.backend == "matrix" or upper_relation.backend == "matrix":
            matrix = np.matmul(self.matrix(), upper_relation.matrix())
            return Relation.from_matrix(matrix, backend="matrix")
        # Naive join on pair sets: index the upper relation by its lower side.
        by_mid: Dict[int, List[int]] = {}
        for mid, upper in upper_relation.pairs():
            by_mid.setdefault(mid, []).append(upper)
        joined: Set[Tuple[int, int]] = set()
        for lower, mid in self.pairs():
            for upper in by_mid.get(mid, ()):
                joined.add((lower, upper))
        return Relation(self.n_lower, upper_relation.n_upper, joined, backend="pairs")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Relation({self.n_lower}x{self.n_upper}, {len(self)} pairs, {self.backend})"
