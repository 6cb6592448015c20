"""Host-speed calibration of the benchmark's timings.

On a shared 2-CPU container the host changes speed by up to 1.6x over spells
of 5-15 s: a fixed pure-Python loop ran at 44-70 iterations/s over 30 s, in
CPU time as much as in wall time, so the cause is not time stolen from the
process.  Two runs of identical code then differed by up to 50% in their
median page latency.  Every timing is therefore reported at a reference host
speed: a wall-clock duration is scaled by ``REFERENCE_S / kernel_s``, where
``kernel_s`` is how long :func:`kernel` took on this host around the timed
operation.  The kernel allocates no container, so it never triggers or pays
for the program's GC.

The kernel is interpreter work of the program's kind: dict lookups chasing
pointers, bound-method calls and integer arithmetic.  With it, the spread of
four same-seed ``edit_page`` runs fell from 66% to 6% for the median page
latency and from 44% to 3% for the median edit latency.  It tracks
memory-bound work less well: the ``ingest`` tail, where a generation-2
collection over a few hundred MB lands on one document in four, still
spreads by 20-40% between runs of one seed.

The kernel and ``REFERENCE_S`` belong to the benchmark: a change to the
program leaves them alone, so a program that gets faster reads faster.
"""

from __future__ import annotations

from time import perf_counter

#: kernel duration that defines the reference host speed
REFERENCE_S = 1.0e-3

_CHAIN = {i: i * 2654435761 % 4093 for i in range(4093)}


class _Cell:
    __slots__ = ("base",)

    def __init__(self):
        self.base = 1

    def add(self, value: int) -> int:
        return self.base + value


_CELL = _Cell()


def kernel() -> int:
    chain, cell = _CHAIN, _CELL
    total, key = 0, 1
    for _ in range(6000):
        key = chain[key]
        total += cell.add(key & 7)
    return total


def kernel_seconds() -> float:
    """The kernel's duration on this host now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def speed_factor(before: float, after: float) -> float:
    """Scale of a duration bracketed by kernel timings ``before`` and ``after``."""
    return 2.0 * REFERENCE_S / (before + after)
