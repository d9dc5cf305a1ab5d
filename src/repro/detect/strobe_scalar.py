"""Scalar-strobe detection — the lightweight option of [25].

Records are stamped with the strobe scalar clock (SSC1–SSC2).  The
observer sorts by ``(clock value, pid, seq)`` — a linearization
consistent with each process's local order (local strobe values are
strictly increasing) and with the strobe-induced catch-up order — and
replays the global state, reporting rising edges of φ.

Accuracy (§3.3): scalar strobes carry no concurrency information, so
races within Δ can be serialized in the wrong order.  This yields both
false negatives *and* false positives, whereas vector strobes avoid
transient states that provably never co-existed.  Experiment E2
compares the two.
"""

from __future__ import annotations

from repro.core.records import SensedEventRecord
from repro.detect.base import TotalOrderDetector


class ScalarStrobeDetector(TotalOrderDetector):
    """Replay-by-scalar-strobe detection of Instantaneously(φ)."""

    name = "strobe_scalar"
    stamp = "strobe_scalar"

    @staticmethod
    def _sort_key(r: SensedEventRecord) -> tuple:
        return (r.strobe_scalar.value, r.pid, r.seq)


__all__ = ["ScalarStrobeDetector"]
