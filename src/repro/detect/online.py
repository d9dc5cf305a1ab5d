"""Online strobe detection with a Δ-stability watermark.

The offline :class:`~repro.detect.strobe_vector.VectorStrobeDetector`
replays the whole record stream at the end of the run.  Real
deployments (and the algorithms of [24]) detect *on-line*: the
observer must decide when a record's place in the strobe order is
final.  The stability argument, assuming strobe-per-event and no
strobe loss:

* two records can be concurrent only if generated within Δ of each
  other — if event f happens more than Δ after event e, e's strobe has
  already arrived at f's process and f's vector dominates e's;
* a record generated at g arrives at the observer by g + Δ;

hence every record that can precede-or-race a record that *arrived* at
time a has itself arrived by **a + 2Δ**.  The online detector
processes the linearization prefix whose records have been stable for
2Δ, emitting detections with bounded latency ≤ 3Δ after occurrence.

Nothing can change between the instants where some record crosses
its 2Δ watermark or a silent process crosses the liveness horizon, so
the detectors flush only on the ``check_period`` grid ticks where one
of those is due (:class:`_WatermarkMixin`), with the same emit times as
a flush on every tick.

With strobe loss the argument breaks: a record may arrive (via
retransmission semantics it would not, here it simply never arrives —
the store misses it) or sort inside the already-processed prefix.
Such "late" records are counted in :attr:`late_records` and skipped,
degrading accuracy without corrupting state — matching the §4.2.2
transient-loss behaviour.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.clocks.base import ClockError
from repro.clocks.vector import (
    PACKED_MAX_N,
    concurrency_block,
    pack_matrix,
    stack_timestamps,
)
from repro.core.records import SensedEventRecord
from repro.detect.base import Detection
from repro.detect.strobe_scalar import ScalarStrobeDetector
from repro.detect.strobe_vector import VectorStrobeDetector
from repro.predicates.base import Predicate
from repro.sim.kernel import Simulator
from repro.sim.timers import GridTimer

class _LivenessMixin:
    """Liveness tracking + quarantine for the online detectors.

    A process that has fed the detector nothing for ``liveness_horizon``
    simulated seconds is *quarantined*: added to :attr:`quarantined`,
    counted, and read by obs.  Quarantine is advisory — the
    detector keeps processing whatever arrives (its watermark is
    arrival-driven, so a silent process never stalls it), but consumers
    evaluating ``Definitely``-style conjunctions over per-process
    interval queues should drop quarantined conjuncts instead of
    waiting on a dead process forever (graceful degradation: answers
    degrade to ``Possibly``/BORDERLINE rather than never arriving).
    The first record heard from a quarantined process rejoins it.
    """

    def _liveness_init(self, horizon: "float | None") -> None:
        if horizon is not None and horizon <= 0:
            raise ValueError(f"liveness_horizon must be positive, got {horizon}")
        self._liveness_horizon = None if horizon is None else float(horizon)
        self._last_heard: dict[int, float] = {}
        #: pids currently considered silent/dead (advisory)
        self.quarantined: set[int] = set()
        #: total quarantine entries over the run (rejoins don't subtract)
        self.quarantine_events = 0

    def _note_heard(self, pid: int, now: float) -> bool:
        """Track ``pid`` as heard at ``now``; True iff its silence is
        newly timed (first record, or a rejoin from quarantine) — the
        only cases where its expiry can precede every one already due."""
        if self._liveness_horizon is None:
            return False
        fresh = pid not in self._last_heard
        self._last_heard[pid] = now
        if pid in self.quarantined:
            self.quarantined.discard(pid)
            return True
        return fresh

    def _update_quarantine(self, now: float) -> None:
        horizon = self._liveness_horizon
        if horizon is None:
            return
        for pid in sorted(self._last_heard):
            if pid not in self.quarantined and now - self._last_heard[pid] > horizon:
                self.quarantined.add(pid)
                self.quarantine_events += 1


class _WatermarkMixin(_LivenessMixin):
    """Arrival bookkeeping and event-driven flushing shared by the
    online detectors.

    A flush can change state at a grid tick ``g`` only if the first
    pending record has been stable for the wait (``g - a >= wait`` for
    its arrival ``a``, the test ``flush`` applies) or a tracked process
    passes the liveness horizon (``g - heard > horizon``).  Both tests
    are monotone in ``a`` and ``heard``, so the earliest such tick is
    known in advance and is the only one armed on the ``check_period``
    grid (:class:`~repro.sim.timers.GridTimer`).  Flushes land on the
    same ticks, in the same same-instant order, as a flush polled on
    every tick; the skipped ticks would have changed nothing.
    """

    def _watermark_init(
        self,
        sim: Simulator,
        *,
        delta: float,
        check_period: float,
        liveness_horizon: "float | None",
        label: str,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if check_period <= 0:
            raise ValueError(f"check_period must be positive, got {check_period}")
        self._liveness_init(liveness_horizon)
        self._sim = sim
        self._stability_wait = 2.0 * float(delta)
        self._arrivals: dict[tuple[int, int], float] = {}
        #: not-yet-final records, kept sorted by ``_sort_key``
        self._pending: list[SensedEventRecord] = []
        #: arrivals since the last flush (unsorted, in arrival order)
        self._new: list[SensedEventRecord] = []
        #: sort key of the last record stepped past the watermark
        self._last_key: tuple | None = None
        self.late_records = 0
        #: flushes run so far (``detect.flushes``)
        self.flushes = 0
        #: (detection, emit_time) pairs for latency analysis
        self.emissions: list[tuple[Detection, float]] = []
        self._grid = GridTimer(sim, self.flush, period=check_period, label=label)

    def bind_probe(self, probe) -> None:
        """Report to ``probe``: every emission's latency and detection
        entry (at :attr:`host`); its catalog reads the record,
        processed, late, flush and quarantine counts."""
        self._probe = probe
        probe.bind(self, "online")

    def start(self) -> None:
        """Begin watermark flushes on the ``check_period`` grid."""
        self._grid.start()
        self._rearm()

    def stop(self) -> None:
        self._grid.stop()

    def feed(self, record: SensedEventRecord) -> None:
        if getattr(record, self.stamp) is None:
            self.check_stamps((record,))      # raises before any state moves
        now = self._sim.now
        heard = now if self._note_heard(record.pid, now) else None
        arrival = None
        if self.store.add(record):
            self._arrivals[record.key()] = now
            self._new.append(record)
            if not self._pending and len(self._new) == 1:
                arrival = now                # the first unprocessed record
        self._arm(arrival, heard)

    def _arm(self, arrival: "float | None", heard: "float | None") -> None:
        """Arm the first grid tick where the record that arrived at
        ``arrival`` is stable or the process heard at ``heard`` expires
        (either may be None), unless an earlier tick is armed already."""
        grid = self._grid
        if not grid.running or (arrival is None and heard is None):
            return
        wait = self._stability_wait
        horizon = self._liveness_horizon
        period = grid.period
        armed = grid.armed
        g = grid.next_tick
        while not (
            (arrival is not None and g - arrival >= wait)
            or (heard is not None and g - heard > horizon)
        ):
            if armed is not None and g >= armed:
                return
            g = g + period
        grid.arm(g)

    def _rearm(self) -> None:
        """Arm for the current state: the first pending record (a new
        arrival can only sort before it with a later arrival) and the
        earliest hearing of a process not yet quarantined."""
        head = self._pending[0] if self._pending else (self._new[0] if self._new else None)
        heard = None
        if self._liveness_horizon is not None:
            heard = min(
                (t for pid, t in self._last_heard.items() if pid not in self.quarantined),
                default=None,
            )
        self._arm(None if head is None else self._arrivals[head.key()], heard)

    def _absorb_new(self) -> None:
        """Fold arrivals since the last flush into the sorted pending
        list, counting (and dropping) late records.

        Only *new* arrivals can be late: the watermark never passes an
        unstable pending record, so ``_last_key`` is always ≤ every
        pending record's key.  This keeps late detection O(new).
        """
        new = self._new
        self._new = []
        new.sort(key=self._sort_key)
        last = self._last_key
        if last is not None:
            # A record sorting inside the already-processed region is
            # impossible under the no-loss stability argument (module
            # docstring): a strobe was lost.  Drop, counted once each.
            fresh = [r for r in new if not self._sort_key(r) < last]
            self.late_records += len(new) - len(fresh)
            new = fresh
        if self._pending:
            self._pending.extend(new)
            self._pending.sort(key=self._sort_key)
        else:
            self._pending = new

    def flush(self) -> None:
        """Advance the watermark: process every record whose position in
        the total order is final.

        Incremental: new arrivals are merged into the sorted pending
        list, the stable prefix is found by one scan and handed to the
        detector's ``_flush_stable(pending, stable, now)``; the processed
        prefix is never revisited."""
        now = self._sim.now
        self._update_quarantine(now)
        self.flushes += 1
        if self._new:
            self._absorb_new()
        arrivals = self._arrivals
        wait = self._stability_wait
        stable = 0
        for r in self._pending:
            if now - arrivals[r.key()] < wait:
                break                        # not yet final; stop in order
            stable += 1
        if stable:
            pending = self._pending
            start = len(self.detections)
            self._flush_stable(pending, stable, now)
            self._pending = pending[stable:]
            self._last_key = self._sort_key(pending[stable - 1])
            probe = self._probe
            for d in self.detections[start:]:
                self.emissions.append((d, now))
                if probe is not None:
                    probe.emit_latency_s(now - d.trigger.true_time)
                    probe.record_detection(d, now, self.host)
        self._rearm()

    def finalize(self) -> list[Detection]:
        """Flush everything regardless of stability (end of run)."""
        self.stop()
        self._stability_wait = 0.0
        self.flush()
        return self.detections

    def detection_latencies(self) -> list[float]:
        """Oracle-side: emit time − true occurrence time per detection."""
        return [t - d.trigger.true_time for d, t in self.emissions]

    def _watermark_snapshot(self) -> dict[str, Any]:
        """Frontier fields both detectors share: retained pending/new
        arrival cursors, the incremental environment, and the flush
        grid's next tick position and armed tick."""
        from repro.trace.recorder import _canon

        return {
            "pending": [list(r.key()) for r in self._pending],
            "new": sorted(list(r.key()) for r in self._new),
            "arrivals": [
                [k[0], k[1], t] for k, t in sorted(self._arrivals.items())
            ],
            "env": {k: _canon(v) for k, v in sorted(self._env.items())},
            "last_key": _canon(self._last_key),
            "late_records": self.late_records,
            "emissions": len(self.emissions),
            "quarantined": sorted(self.quarantined),
            "grid": self._grid.snapshot(),
        }


class OnlineVectorStrobeDetector(_WatermarkMixin, VectorStrobeDetector):
    """Watermark-based online variant of the vector-strobe detector.

    Parameters
    ----------
    sim:
        Simulation kernel (drives the flush grid and supplies arrival
        times).
    predicate, initials:
        As for every detector.
    delta:
        The network's delay bound Δ; the stability wait is ``2 * delta``.
    check_period:
        Spacing of the grid the watermark advances on (seconds).
        Smaller periods reduce detection latency jitter; idle ticks
        cost nothing.
    liveness_horizon:
        Quarantine processes silent for this many simulated seconds
        (see :class:`_LivenessMixin`); ``None`` disables the tracking.
    """

    name = "online_strobe_vector"

    def __init__(
        self,
        sim: Simulator,
        predicate: Predicate,
        initials: Mapping[str, Any],
        *,
        delta: float,
        check_period: float = 0.1,
        max_race_combos: int = 4096,
        liveness_horizon: float | None = None,
    ) -> None:
        super().__init__(predicate, initials, max_race_combos=max_race_combos)
        self._watermark_init(
            sim, delta=delta, check_period=check_period,
            liveness_horizon=liveness_horizon, label="online-detect",
        )
        # Incremental replay state.
        self._env: dict = dict(initials)
        self._processed: list[SensedEventRecord] = []
        self._prevs: list[Any] = []          # prev value per processed record
        self._vars_l: list[str] = []         # var per linearization index
        self._vals_l: list[Any] = []         # post-event value per index
        self._state = {"prev_lin": False, "prev_possible": False}
        # Growing stamp buffers over the linearization (processed prefix
        # persists; suffix rows are rewritten each flush).
        self._vec_width: int | None = None
        self._vecs: "np.ndarray | None" = None        # (cap, n) int64
        self._packed_buf: "np.ndarray | None" = None  # (cap,) uint64
        self._packed_ok = False

    # ------------------------------------------------------------------
    def _ensure_rows(self, total: int) -> "np.ndarray":
        """Grow the stamp buffers to at least ``total`` rows, preserving
        the processed prefix (suffix rows are transient per flush)."""
        vecs = self._vecs
        if vecs is not None and vecs.shape[0] >= total:
            return vecs
        cap = max(256, total, 0 if vecs is None else 2 * vecs.shape[0])
        keep = len(self._processed)
        grown = np.empty((cap, self._vec_width), dtype=np.int64)
        packed = np.empty(cap, dtype=np.uint64)
        if vecs is not None and keep:
            grown[:keep] = vecs[:keep]
            packed[:keep] = self._packed_buf[:keep]
        self._vecs = grown
        self._packed_buf = packed
        return grown

    def _flush_stable(self, suffix: list[SensedEventRecord], stable: int, now: float) -> None:
        """Process the ``stable``-length prefix of the pending
        ``suffix``, racing against the whole linearization (unstable
        records included): concurrency is an (stable × all) block
        against incrementally maintained stacked (and, for n ≤ 8,
        packed) stamp buffers."""
        prefix_len = len(self._processed)
        svecs = stack_timestamps([r.strobe_vector for r in suffix])
        n = svecs.shape[1]
        if self._vec_width is None:
            self._vec_width = n
            self._packed_ok = 1 <= n <= PACKED_MAX_N
        elif n != self._vec_width:
            raise ClockError(f"vector width mismatch: {self._vec_width} vs {n}")
        total = prefix_len + len(suffix)
        vecs = self._ensure_rows(total)
        vecs[prefix_len:total] = svecs
        if self._packed_ok:
            spacked = pack_matrix(svecs)
            if spacked is None:              # component overflow: fall back
                self._packed_ok = False
            else:
                self._packed_buf[prefix_len:total] = spacked
        if self._packed_ok:
            conc = concurrency_block(
                vecs[prefix_len:prefix_len + stable], vecs[:total],
                a_packed=self._packed_buf[prefix_len:prefix_len + stable],
                b_packed=self._packed_buf[:total],
            )
        else:
            conc = concurrency_block(vecs[prefix_len:prefix_len + stable], vecs[:total])
        # Self-pairs (row k vs column prefix_len + k) compare a record
        # with its own stamp: equal timestamps are mutually ≤, never
        # concurrent — no masking needed.
        cols, indptr = self._race_csr(conc)
        cols = cols.tolist()
        bounds = indptr.tolist()

        full = self._processed               # extend to the linearization view
        full.extend(suffix)
        vars_l = self._vars_l
        vals_l = self._vals_l
        vars_l.extend(r.var for r in suffix)
        vals_l.extend(r.value for r in suffix)
        env = self._env
        prevs = self._prevs
        state = self._state
        extra = {"emit_time": now}
        for k in range(stable):
            rec = suffix[k]
            prev = env.get(rec.var)
            env[rec.var] = rec.value
            prevs.append(prev)
            self._step(
                prefix_len + k, rec, env, vars_l, vals_l, prevs,
                cols[bounds[k]:bounds[k + 1]], state, detail_extra=extra,
            )
        del full[prefix_len + stable:]       # drop the unstable tail
        del vars_l[prefix_len + stable:]
        del vals_l[prefix_len + stable:]

    def processed_total(self) -> int:
        """Records stepped past the watermark (``detect.processed``)."""
        return len(self._processed)

    # ------------------------------------------------------------------
    def frontier_snapshot(self) -> dict[str, Any]:
        """Base summary plus the watermark frontier: processed prefix
        length, the shared cursors (see ``_watermark_snapshot``) and the
        race state — the full per-flush recurrence state, so equal
        snapshots imply identical future flushes."""
        snap = super().frontier_snapshot()
        snap.update(self._watermark_snapshot())
        snap.update({
            "processed": len(self._processed),
            "state": dict(self._state),
        })
        return snap


class OnlineScalarStrobeDetector(_WatermarkMixin, ScalarStrobeDetector):
    """Watermark-based online scalar-strobe detection.

    The 2Δ stability argument holds for the scalar order too: any
    record generated Δ after record r has merged r's strobe and ticked,
    so its scalar strictly exceeds r's — once r has been stable for 2Δ,
    nothing can sort before it.  The detector runs the offline replay's
    rising-edge step over the stable prefix of the (value, pid, seq)
    order.

    Lighter than the vector variant (no race analysis — scalar strobes
    carry no concurrency information, so every detection is FIRM and
    error-prone exactly as the offline scalar detector is).
    """

    name = "online_strobe_scalar"

    def __init__(
        self,
        sim: Simulator,
        predicate: Predicate,
        initials: Mapping[str, Any],
        *,
        delta: float,
        check_period: float = 0.1,
        liveness_horizon: float | None = None,
    ) -> None:
        super().__init__(predicate, initials)
        self._watermark_init(
            sim, delta=delta, check_period=check_period,
            liveness_horizon=liveness_horizon, label="online-scalar-detect",
        )
        self._processed_count = 0

    def _flush_stable(self, pending: list[SensedEventRecord], stable: int, now: float) -> None:
        extra = {"emit_time": now}
        for rec in pending[:stable]:
            self._step(rec, extra)
        self._processed_count += stable

    def processed_total(self) -> int:
        """Records stepped past the watermark (late ones are skipped)."""
        return self._processed_count

    def frontier_snapshot(self) -> dict[str, Any]:
        """Base summary plus the scalar watermark frontier (processed
        count, the shared cursors, rising-edge state)."""
        snap = super().frontier_snapshot()
        snap.update(self._watermark_snapshot())
        snap.update({"processed": self._processed_count, "prev": self._prev})
        return snap


__all__ = ["OnlineVectorStrobeDetector", "OnlineScalarStrobeDetector"]
