"""Detector interfaces and shared machinery."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping

from repro.core.records import SensedEventRecord
from repro.predicates.base import Predicate


class DetectionLabel(Enum):
    """Confidence class of a detection (§5's "borderline bin").

    * ``FIRM`` — every ordering of the racing events yields φ true.
    * ``BORDERLINE`` — φ's truth depends on how a race resolves; the
      application chooses how to treat these ("to err on the safe
      side, such entries can be treated as positives", §5).
    """

    FIRM = "firm"
    BORDERLINE = "borderline"


@dataclass(frozen=True, slots=True)
class Detection:
    """One reported occurrence of the predicate.

    Attributes
    ----------
    detector:
        Emitting detector's name.
    trigger:
        The record whose application made φ (appear to become) true.
        ``trigger.true_time`` is used *only* by the scoring oracle.
    env:
        The variable environment at detection.
    label:
        FIRM or BORDERLINE.
    detail:
        Free-form extra info (race set size, interval combination...).
    """

    detector: str
    trigger: SensedEventRecord
    env: dict
    label: DetectionLabel = DetectionLabel.FIRM
    detail: Any = None

    @property
    def firm(self) -> bool:
        return self.label is DetectionLabel.FIRM


class RecordStore:
    """Deduplicating accumulator of sensed records.

    A record may reach a detector several times (once per strobe copy
    when the detector taps several processes, or via both the local and
    the strobe path at the root); the store keeps the first copy of
    each ``(pid, seq)``.
    """

    def __init__(self) -> None:
        self._records: dict[tuple[int, int], SensedEventRecord] = {}
        self.duplicates = 0

    def add(self, record: SensedEventRecord) -> bool:
        """Returns True if the record was new."""
        key = record.key()
        if key in self._records:
            self.duplicates += 1
            return False
        self._records[key] = record
        return True

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> list[tuple[int, int]]:
        """Sorted ``(pid, seq)`` identities of the retained records."""
        return sorted(self._records)

    def all(self) -> list[SensedEventRecord]:
        """Records sorted by (pid, seq)."""
        return [self._records[k] for k in sorted(self._records)]

    def by_process(self, n: int) -> list[list[SensedEventRecord]]:
        """Per-process record lists in seq order."""
        out: list[list[SensedEventRecord]] = [[] for _ in range(n)]
        for (pid, _), rec in sorted(self._records.items()):
            out[pid].append(rec)
        return out


class Detector:
    """Base class: feed records in, call finalize() for detections.

    Online detectors may also emit during :meth:`feed`; ``detections``
    accumulates everything.
    """

    name = "detector"
    #: The :class:`SensedEventRecord` field this detector orders by, or
    #: None when it needs no stamp (see :meth:`check_stamps`).  A
    #: stamped detector also defines ``_sort_key``, its total order.
    stamp: "str | None" = None
    #: pid of the process :meth:`attach` last tapped (detection
    #: entries name it as the emitting host)
    host = 0
    #: instrumentation handle (None = no-op fast path)
    _probe = None

    def __init__(self, predicate: Predicate, initials: Mapping[str, Any]) -> None:
        missing = [v for v in predicate.variables if v not in initials]
        if missing:
            raise ValueError(
                f"initial values required for all predicate variables; missing {missing}"
            )
        self.predicate = predicate
        self.initials = dict(initials)
        self.store = RecordStore()
        self.detections: list[Detection] = []

    # -- ingestion ------------------------------------------------------
    def feed(self, record: SensedEventRecord) -> None:
        """Ingest one record (order-insensitive)."""
        self.store.add(record)

    def feed_many(self, records: Iterable[SensedEventRecord]) -> None:
        for r in records:
            self.feed(r)

    def attach(self, process, *, local: bool = True, strobes: bool = True) -> None:
        """Tap a :class:`~repro.core.process.SensorProcess` so its
        record streams flow into this detector, which reports to the
        process's probe (now, or once the process is instrumented)."""
        self.host = process.pid
        if local:
            process.add_record_listener(self.feed)
        if strobes:
            process.add_strobe_listener(self.feed)
        process.add_probed(self)

    def bind_probe(self, probe) -> None:
        """Hold ``probe``; detectors with metrics or emissions also
        register with its catalog."""
        self._probe = probe

    def check_stamps(self, records: Iterable[SensedEventRecord]) -> None:
        """Raise ``ValueError`` if any record lacks :attr:`stamp`."""
        stamp = self.stamp
        if stamp is None:
            return
        missing = [r.key() for r in records if getattr(r, stamp) is None]
        if missing:
            raise ValueError(
                f"{len(missing)} record(s) lack {stamp} stamps (first "
                f"{missing[0]}); configure ClockConfig({stamp}=True)"
            )

    # -- finalization ----------------------------------------------------
    def finalize(self) -> list[Detection]:
        """Run/complete detection; returns all detections."""
        raise NotImplementedError

    # -- recovery ---------------------------------------------------------
    def frontier_snapshot(self) -> dict[str, Any]:
        """JSON-safe summary of the detector's ingestion frontier.

        The base form covers what every detector holds: the dedup
        store, the detections emitted so far and, for a stamped
        detector, the sort key of its last record.  Online detectors
        extend it with their watermark state (:mod:`repro.detect.online`).
        Consumed by :mod:`repro.recover` as a state *certificate* —
        two runs with equal snapshots continue identically.
        """
        snap: dict[str, Any] = {
            "name": self.name,
            "records": len(self.store),
            "record_keys_tail": [list(k) for k in self.store.keys()[-8:]],
            "duplicates": self.store.duplicates,
            "detections": len(self.detections),
        }
        if self.stamp is not None:
            # Sort key of the last stamped record: where the detector's
            # total order currently ends.
            keys = [
                self._sort_key(r) for r in self.store.all()
                if getattr(r, self.stamp) is not None
            ]
            snap["linearization_tail"] = list(max(keys)) if keys else None
        return snap


class TotalOrderDetector(Detector):
    """Instantaneously(φ) by replaying the records in one total order.

    The time models that totally order records (ε-synchronized physical
    clocks, strobe scalar clocks) differ only in the stamp a record
    must carry and the key that sorts by it.  A subclass declares
    :attr:`stamp` and ``_sort_key``; this class applies the records in
    key order to a live environment and emits a FIRM detection at every
    rising edge of φ, copying the environment only on emission.
    """

    def __init__(self, predicate: Predicate, initials: Mapping[str, Any]) -> None:
        super().__init__(predicate, initials)
        self._env: dict = dict(self.initials)
        self._prev = False

    @staticmethod
    def _sort_key(r: SensedEventRecord) -> tuple:
        raise NotImplementedError

    def _step(self, rec: SensedEventRecord, detail_extra: "dict | None" = None) -> None:
        """Apply one record in order: evaluate φ on the live
        environment and emit a FIRM detection on a rising edge (with
        ``detail_extra`` copied into its ``detail``)."""
        env = self._env
        env[rec.var] = rec.value
        cur = self.predicate.evaluate_safe(env)
        if cur is None:
            return
        cur = bool(cur)
        if cur and not self._prev:
            self.detections.append(Detection(
                self.name, rec, dict(env), DetectionLabel.FIRM,
                detail=dict(detail_extra) if detail_extra else None,
            ))
        self._prev = cur

    def finalize(self) -> list[Detection]:
        records = self.store.all()
        self.check_stamps(records)
        self.detections = []
        self._env = dict(self.initials)
        self._prev = False
        for rec in sorted(records, key=self._sort_key):
            self._step(rec)
        return self.detections


__all__ = [
    "Detector", "Detection", "DetectionLabel", "RecordStore", "TotalOrderDetector",
]
