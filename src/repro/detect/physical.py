"""ε-synchronized physical-clock detection (Mayo–Kearns / Stoller).

Each record carries the sensing process's *local* wall-clock reading
(synchronized to within skew ε by a protocol from
:mod:`repro.clocks.sync`, or not at all).  The observer sorts records
by reported timestamp and replays the global state along that total
order, reporting a detection at every rising edge of φ.

Accuracy: when two world events at different locations occur closer
together than the clock error, the reported order can invert the true
order, producing false positives *and* false negatives — the
"races" of §3.3 item 2; the classic bound is that predicate intervals
shorter than 2ε may be missed [28].  Experiment E1 sweeps exactly
this.
"""

from __future__ import annotations

from repro.core.records import SensedEventRecord
from repro.detect.base import TotalOrderDetector


class PhysicalClockDetector(TotalOrderDetector):
    """Replay-by-physical-timestamp detection of Instantaneously(φ)."""

    name = "physical"
    stamp = "physical"

    @staticmethod
    def _sort_key(r: SensedEventRecord) -> tuple:
        # Total order: reported wall time, pid/seq tiebreak.
        return (r.physical, r.pid, r.seq)


__all__ = ["PhysicalClockDetector"]
