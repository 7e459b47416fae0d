"""Machine-speed calibration for time metrics on a shared machine.

On a virtual machine whose cores are shared, the speed of pure-Python
code drifts by 20% and more within seconds and over minutes.  The drift
moves the benchmark's passes and any other interpreter-bound loop
together, so the benchmark runs this fixed kernel just before and just
after every timed span and divides the span's time by the mean of the
two speed factors: times read as seconds at the speed at which the
kernel takes ``NOMINAL_S``.  The passes slow down somewhat less than
the kernel, so the correction is partial.  The kernel is the
benchmark's own code: a change to domchrom cannot make it faster or
slower.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.014  # one kernel run at the reference speed: its median on a 2-vCPU Xeon VM at 2.1 GHz
CHUNKS = 7
ROUNDS = 2


@dataclass(frozen=True)
class _Verdict:  # built per candidate, like domchrom's DominationDiagnostic
    ok: bool
    undominating: tuple[int, ...]
    improper: tuple[tuple[int, int], ...]


class _Partition:
    __slots__ = ("blocks", "count")

    def __init__(self, labels: tuple[int, ...]):
        blocks: dict[int, int] = {}
        for v, label in enumerate(labels):
            blocks[label] = blocks.get(label, 0) | (1 << v)
        self.blocks = tuple(blocks.values())
        self.count = len(self.blocks)


def _check(adj: tuple[int, ...], closed: tuple[int, ...], part: _Partition) -> _Verdict:
    full = (1 << len(adj)) - 1
    dominated = 0
    improper = []
    for members in part.blocks:
        common = full
        rest = members
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            clash = adj[v] & members & ~((low << 1) - 1)
            while clash:
                bit = clash & -clash
                improper.append((v, bit.bit_length() - 1))
                clash ^= bit
            common &= closed[v]
        dominated |= common
    missing = tuple(v for v in range(len(adj)) if not (dominated >> v) & 1)
    return _Verdict(not missing and not improper, missing, tuple(improper))


def _kernel() -> int:
    """Check every set partition of a fixed 7-vertex graph as a domination coloring.

    Bitset loops, a small object and a frozen dataclass per candidate,
    tuples and lists: the mix of work behind domchrom's solver, oracle
    and checker, written separately so that it never changes with them.
    """
    adj = (0b0100110, 0b1000101, 0b0001011, 0b0010110, 0b0101001, 0b1011000, 0b0110001)
    closed = tuple(mask | (1 << v) for v, mask in enumerate(adj))
    n = len(adj)
    labels = [0] * n
    best = n

    def scan(i: int, top: int) -> None:
        nonlocal best
        if i == n:
            part = _Partition(tuple(labels))
            if _check(adj, closed, part).ok:
                best = min(best, part.count)
            return
        for c in range(top + 2):
            labels[i] = c
            scan(i + 1, max(top, c))

    for _ in range(ROUNDS):
        scan(1, 0)
    return best


def speed_factor() -> float:
    """Time of the kernel now over its nominal time: 2.0 means running at half speed."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / NOMINAL_S
