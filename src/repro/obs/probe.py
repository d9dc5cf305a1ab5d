"""The probe seam between instrumented components and their sinks.

Each instrumented component — kernel, transport and loss model, sensor
process and its clocks, online and lattice detectors, fault injector —
keeps one ``_probe`` handle, ``None`` until its ``bind_probe`` sets it,
so an uninstrumented run pays one ``is None`` test per hook site.
Components never import this module;
:func:`~repro.obs.instrument.instrument_system` wires a whole system.

A :class:`Probe` feeds a :class:`~repro.obs.registry.MetricsRegistry`,
a :class:`~repro.trace.recorder.FlightRecorder`, or both, attached in
any order.  It owns the metric catalog (``_catalog_<kind>``): every
counter and gauge reads state its component keeps, and four
distributions are pushed through probe attributes.  Two of those,
whose values cost work to compute, stay ``None`` without a registry;
the rest, and the ``record_*`` hooks (the recorder's own methods when
one is attached), are no-ops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry


def _nop(*_args: Any) -> None:
    """The hook of a sink that is not attached."""


#: ``net.delay_s`` buckets: sub-ms to ~100 s of *simulated* latency.
_DELAY_BUCKETS = [10 ** (k / 2) for k in range(-8, 5)]
#: ``clock.strobe.catchup`` buckets: how many ticks a merge advanced
#: the local clock by — powers of two up to 2^10.
_CATCHUP_BUCKETS = [0.0] + [float(2 ** k) for k in range(11)]
#: ``detect.emit_latency_s`` buckets (simulated seconds).
_LATENCY_BUCKETS = [10 ** (k / 2) for k in range(-6, 7)]


class Probe:
    """The sinks of one instrumented run (see module docstring)."""

    # Hooks, replaced by the recorder's methods and the registry's
    # histograms as those are attached.
    callback_wall_s: "Callable[[float], None] | None" = None
    strobe_catchup: "Callable[[float], None] | None" = None
    net_delay_s = emit_latency_s = staticmethod(_nop)
    record_event = record_receive = record_drop = staticmethod(_nop)
    record_send = record_detection = staticmethod(_nop)

    def __init__(
        self, registry: "MetricsRegistry | None" = None, recorder: Any = None
    ) -> None:
        self.registry: "MetricsRegistry | None" = None
        #: the flight recorder (repro.trace.FlightRecorder), if attached
        self.recorder: Any = None
        #: (kind, component) per bind, replayed for a late registry
        self._bound: list[tuple[str, Any]] = []
        #: catch-up of the most recent strobe merge, system-wide
        self._skew: float = 0.0
        self._catchup: Callable[[float], None] = _nop
        self.attach(registry, recorder)

    def attach(
        self, registry: "MetricsRegistry | None" = None, recorder: Any = None
    ) -> None:
        """Add a sink.  A probe feeds at most one of each; attaching the
        one it already has is a no-op, attaching another raises."""
        if recorder is not None and recorder is not self.recorder:
            if self.recorder is not None:
                raise ValueError("probe already feeds a flight recorder")
            self.recorder = recorder
            for hook in ("record_event", "record_send", "record_receive",
                         "record_drop", "record_detection"):
                setattr(self, hook, getattr(recorder, hook))
        if registry is not None and registry is not self.registry:
            if self.registry is not None:
                raise ValueError("probe already feeds a metrics registry")
            self.registry = registry
            for kind, component in self._bound:
                getattr(self, f"_catalog_{kind}")(registry, component)

    def bind(self, component: Any, kind: str) -> None:
        """Register ``component`` under catalog entry ``kind`` (called
        by the component's ``bind_probe``)."""
        self._bound.append((kind, component))
        if self.registry is not None:
            getattr(self, f"_catalog_{kind}")(self.registry, component)

    def _strobe_catchup(self, gain: float) -> None:
        self._skew = gain
        self._catchup(gain)

    # -- the metric catalog ----------------------------------------------
    def _catalog_kernel(self, reg: "MetricsRegistry", sim: Any) -> None:
        reg.counter("kernel.events_fired").read_from(lambda: sim.processed_events)
        reg.counter("kernel.compactions").read_from(lambda: sim.compactions)
        # Noted by the kernel after each event while callbacks are timed.
        reg.gauge("kernel.heap_depth").read_from(lambda: sim._fired_depth)
        self.callback_wall_s = reg.histogram("kernel.callback_wall_s").observe

    def _catalog_net(self, reg: "MetricsRegistry", net: Any) -> None:
        stats = net.stats
        for name in ("sent", "delivered", "dropped_loss", "dropped_partition",
                     "dropped_crashed", "dropped_burst"):
            reg.counter(f"net.{name}").read_from(lambda f=name: getattr(stats, f))
        reg.counter("net.payload_units").read_from(lambda: stats.total_units)
        # The loss model is consulted once per dispatch; each drop it
        # decides is a dropped_loss.
        reg.counter("net.loss.drops").read_from(lambda: stats.dropped_loss)
        self.net_delay_s = reg.histogram("net.delay_s", _DELAY_BUCKETS).observe

    def _catalog_gilbert_elliott(self, reg: "MetricsRegistry", loss: Any) -> None:
        reg.counter("net.loss.burst_transitions").read_from(lambda: loss.transitions)
        reg.gauge("net.loss.in_bad_state").read_from(lambda: float(loss.in_bad_state))

    def _catalog_strobe(self, reg: "MetricsRegistry", clock: Any) -> None:
        size = clock.strobe_size()
        reg.counter("clock.strobe.emitted").read_from(lambda: clock.relevant_events)
        reg.counter("clock.strobe.merged").read_from(lambda: clock.strobes_received)
        reg.counter("clock.strobe.payload_units").read_from(
            lambda: clock.relevant_events * size
        )
        reg.gauge("clock.strobe.skew").read_from(lambda: self._skew)
        self._catchup = reg.histogram("clock.strobe.catchup", _CATCHUP_BUCKETS).observe
        self.strobe_catchup = self._strobe_catchup

    def _catalog_vector(self, reg: "MetricsRegistry", clock: Any) -> None:
        # VC1/VC2 tick; VC3 merges; each send piggybacks the n-vector.
        reg.counter("clock.vector.ticks").read_from(lambda: clock.local_events + clock.sends)
        reg.counter("clock.vector.merges").read_from(lambda: clock.receives)
        reg.counter("clock.vector.piggyback_units").read_from(lambda: clock.sends * clock.n)

    def _catalog_online(self, reg: "MetricsRegistry", det: Any) -> None:
        def backlog() -> int:
            return len(det.store) - det.processed_total() - det.late_records

        reg.counter("detect.records").read_from(lambda: len(det.store))
        reg.counter("detect.processed").read_from(det.processed_total)
        reg.counter("detect.late_records").read_from(lambda: det.late_records)
        reg.counter("detect.quarantine_events").read_from(lambda: det.quarantine_events)
        reg.counter("detect.flushes").read_from(lambda: det.flushes)
        reg.gauge("detect.backlog").read_from(backlog)
        reg.gauge("detect.quarantined").read_from(lambda: float(len(det.quarantined)))
        self.emit_latency_s = reg.histogram(
            "detect.emit_latency_s", _LATENCY_BUCKETS
        ).observe

    def _catalog_lattice(self, reg: "MetricsRegistry", det: Any) -> None:
        for name in ("queries", "cuts_evaluated", "extends", "rebuilds"):
            reg.counter(f"detect.lattice.{name}").read_from(
                lambda f=name: getattr(det, f)
            )
        # The most recent successful query's lattice (0.0 before one).
        for name, stat in (("states", "n_states"), ("max_width", "max_width")):
            reg.gauge(f"detect.lattice.{name}").read_from(
                lambda s=stat: getattr(det.last_stats, s) if det.last_stats else 0.0
            )

    def _catalog_faults(self, reg: "MetricsRegistry", injector: Any) -> None:
        reg.counter("faults.injected").read_from(lambda: injector.injected)
        reg.counter("faults.cleared").read_from(lambda: injector.cleared)
        reg.gauge("faults.active").read_from(lambda: injector.active)


__all__ = ["Probe"]
