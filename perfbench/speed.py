"""Machine-speed gauge: the benchmark's times are calibrated seconds.

On a shared host the same operation can take twice as long from one
half-minute to the next, because other tenants load the same cores.
Raw wall times of two runs are then not comparable, whatever their
length.  So the benchmark brackets the work it measures with short
samples of a fixed reference loop, taken outside the work: before and
after each scenario execution, lattice query and set-up probe.  A
scenario execution, which lasts about a second, also takes samples
between slices of its kernel loop (``workloads.sampled_kernel``).  It
reports
*calibrated seconds*::

    calibrated = wall * REFERENCE_S / r

where ``r`` is the mean time of the reference samples around and
inside the measured work (:class:`Bracket`), and ``REFERENCE_S`` is the loop's
median sample time on the machine the benchmark was defined on (a
2-vCPU KVM guest on an Intel Xeon host, Python 3.11).
The loop is pure Python and uses no ``repro`` code, so a change to the
program moves the calibrated time exactly as it moves the wall time;
a change of machine load moves both the work and the loop, and
cancels.  Reference time is excluded from the work's wall time.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Any, Callable

#: Size of one reference sample (3 to 5 ms on that machine).
DICT_STEPS = 16_000
HEAP_ITEMS = 1_200
#: Nominal seconds of one reference sample (see module docstring).
REFERENCE_S = 0.005


class _Item:
    __slots__ = ("t", "key", "payload")

    def __init__(self, t: int, key: tuple, payload: list) -> None:
        self.t = t
        self.key = key
        self.payload = payload

    def __lt__(self, other: "_Item") -> bool:
        return self.t < other.t


def reference_sample() -> float:
    """Run the reference loop once; returns its wall seconds.

    Two parts, in the interpreter's two modes the program spends its
    time in: integer-keyed dict updates, and a priority queue of small
    allocated objects with tuple-keyed lookups (what a discrete-event
    kernel does).  Both are deterministic.  The cyclic garbage collector
    is paused for the sample: its cost grows with the *program's* heap,
    which would otherwise leak into the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_reference()
    finally:
        if enabled:
            gc.enable()


def _timed_reference() -> float:
    t0 = perf_counter()
    acc: dict[int, int] = {}
    for i in range(DICT_STEPS):
        key = i & 1023
        acc[key] = acc.get(key, 0) + i
    heap: list[_Item] = []
    table: dict[tuple, _Item] = {}
    done: list[list] = []
    x = 12345
    for i in range(HEAP_ITEMS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(x % 100_000, (i % 97, i % 13), [i, x])
        heapq.heappush(heap, item)
        table[item.key] = item
        if len(heap) > 500:
            done.append(heapq.heappop(heap).payload)
    return perf_counter() - t0


class Bracket:
    """Times consecutive pieces of work, each calibrated by the reference
    samples taken just before and just after it, outside the work, plus
    any a seam in the work takes inside it (:meth:`sample_inside`).  The
    after-samples of one piece are the before-samples of the next."""

    def __init__(self, per_side: int = 1) -> None:
        #: reference samples on each side of a piece of work
        self.per_side = per_side
        #: reference samples taken so far
        self.samples = 0
        #: reference seconds taken inside the last piece of work; they
        #: are not part of its wall time
        self.inside_s = 0.0
        self._before: "list[float] | None" = None
        self._inside: list[float] = []

    def _sample(self) -> list[float]:
        self.samples += self.per_side
        return [reference_sample() for _ in range(self.per_side)]

    def sample_inside(self) -> None:
        """Take one reference sample inside the piece of work being timed."""
        self.samples += 1
        self._inside.append(reference_sample())

    def reset(self) -> None:
        """Take fresh before-samples for the next piece of work (after
        untimed work that should not count as its surroundings)."""
        self._before = None

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any
             ) -> tuple[Any, float, float]:
        """Run ``fn``; returns (its result, its wall seconds without the
        samples taken inside it, the calibration factor
        ``REFERENCE_S / r``)."""
        if self._before is None:
            self._before = self._sample()
        self._inside = []
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        wall = perf_counter() - t0
        after = self._sample()
        ref = self._before + self._inside + after
        self.inside_s = sum(self._inside)
        self._before = after
        return out, wall - self.inside_s, REFERENCE_S * len(ref) / sum(ref)


__all__ = ["Bracket", "REFERENCE_S", "reference_sample"]
