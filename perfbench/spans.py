"""Outside-in span tracer: the per-layer split of a benchmark run.

:class:`SpanTracer` wraps calls into each layer's public functions in
spans and keeps, per span name, the call count and the *self* time:
the span's duration minus the durations of the spans nested inside it.
Times are integer nanoseconds, so when every span opens inside a root
span ``bench.op`` the self times add up to the duration of the root
spans exactly — no rounding residue.  A layer span opened outside
``bench.op`` (a hook firing where the benchmark does not expect it)
breaks that sum, and :meth:`SpanTracer.check_exact_sum` fails.

:meth:`SpanTracer.install` patches the layer functions at class (or
module) level and :meth:`SpanTracer.uninstall` puts the originals back.
Class-level patches are what makes the tracer see everything: record
listeners, the flush timer and the world-plane tap capture bound
methods when a system is wired, so the patches must be in place before
any scenario is built.  Nothing under ``src/`` changes; the tracer is
passive — it reads the wall clock and counts, and never alters an
argument or a return value.

:class:`NullTracer` has the same ``call`` surface and adds nothing, so
the untraced and traced runs share one code path.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable

#: Kernel labels of the online detectors' flush timers.  Their callbacks
#: are counted but not spanned: the flush itself is spanned as
#: ``detect.flush`` by the patched method.
FLUSH_TIMER_LABELS = ("online-detect", "online-scalar-detect")

#: Every span the tracer can open, named ``<layer>.<boundary>``.
#: ``bench.op`` is the root span of one operation; its self time is the
#: unattributed remainder (``residual_s``).
SPANS = (
    "sim.dispatch", "sim.schedule",
    "world.dynamics", "world.set_attribute",
    "core.on_sense",
    "clocks.on_relevant_event", "clocks.on_strobe", "clocks.local_stamp",
    "net.send", "net.deliver",
    "detect.flush", "detect.feed", "detect.finalize",
    "lattice.modalities", "lattice.extend", "lattice.evaluate",
    "lattice.enumerate", "lattice.state_of",
    "trace.record",
    "obs.bind", "obs.record",
    "replay.prepare", "replay.finalize",
    "scenarios.build", "scenarios.run",
    "bench.op",
)
#: The root span of one operation.
ROOT = "bench.op"


class NullTracer:
    """The untraced run's tracer: ``call`` is a plain call."""

    @staticmethod
    def call(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class SpanTracer:
    """Aggregating span tracer (see module docstring)."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = dict.fromkeys(SPANS, 0)
        self.calls: dict[str, int] = dict.fromkeys(SPANS, 0)
        #: duration of every ``ROOT`` span opened outside any span,
        #: summed — the traced total
        self.root_ns = 0
        #: counters kept at the same boundaries as the spans
        self.counts: dict[str, int] = {
            "sim.flush_timer_events": 0,
            "net.messages": 0,
            "detect.useful_flushes": 0,
            "lattice.cuts": 0,
        }
        self._stack: list[list[int]] = []
        self._fed = False
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- spans -------------------------------------------------------------
    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        frame = [0]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter_ns() - t0
            stack.pop()
            self.self_ns[name] += dur - frame[0]
            self.calls[name] += 1
            if stack:
                stack[-1][0] += dur
            elif name == ROOT:
                self.root_ns += dur

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call is a span called ``name``."""
        call = self.call

        def span(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, replacement)

    def _span_method(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.timed(name, getattr(owner, attr)))

    def install(self) -> None:
        """Patch every traced layer boundary (call before building)."""
        from repro.clocks.physical import PhysicalClock, PhysicalVectorClock
        from repro.clocks.scalar import LamportClock
        from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
        from repro.clocks.vector import VectorClock
        from repro.core.process import SensorProcess
        from repro.detect.base import Detector
        from repro.detect.lattice_detector import LatticeDetector
        from repro.detect.online import OnlineVectorStrobeDetector
        from repro.detect.strobe_vector import VectorStrobeDetector
        from repro.lattice.lattice import StateLattice
        from repro.net.transport import Network
        from repro.obs.registry import Counter, Gauge, Histogram
        from repro.scenarios import builders
        from repro.sim.kernel import Simulator
        from repro.trace.recorder import FlightRecorder
        from repro.world.objects import WorldState

        if self._patches:
            raise RuntimeError("span tracer already installed")
        call = self.call
        counts = self.counts

        # sim: the run loop, and every scheduled callback classified by
        # its kernel label (deliveries, flush timers, world dynamics).
        self._span_method(Simulator, "run", "sim.dispatch")
        schedule_at = Simulator.schedule_at

        def count_timer(cb: Callable[[], None]) -> None:
            counts["sim.flush_timer_events"] += 1
            cb()

        def traced_schedule_at(sim, time, callback, **kwargs):
            label = kwargs.get("label", "")
            if label.startswith("deliver:"):
                wrapped = lambda cb=callback: call("net.deliver", cb)  # noqa: E731
            elif label in FLUSH_TIMER_LABELS:
                wrapped = lambda cb=callback: count_timer(cb)  # noqa: E731
            else:
                wrapped = lambda cb=callback: call("world.dynamics", cb)  # noqa: E731
            return call("sim.schedule", schedule_at, sim, time, wrapped, **kwargs)

        self._patch(Simulator, "schedule_at", traced_schedule_at)

        # world, core, clocks
        self._span_method(WorldState, "set_attribute", "world.set_attribute")
        self._span_method(SensorProcess, "on_sense", "core.on_sense")
        for cls in (StrobeVectorClock, StrobeScalarClock):
            self._span_method(cls, "on_relevant_event", "clocks.on_relevant_event")
            self._span_method(cls, "on_strobe", "clocks.on_strobe")
        for cls in (LamportClock, VectorClock, PhysicalVectorClock):
            self._span_method(cls, "on_local_event", "clocks.local_stamp")
        self._span_method(PhysicalClock, "read", "clocks.local_stamp")

        # net: sends count the messages they put on the wire.
        def traced_send(original):
            def send(*args, **kwargs):
                out = call("net.send", original, *args, **kwargs)
                counts["net.messages"] += len(out) if isinstance(out, list) else 1
                return out
            return send

        for attr in ("send", "broadcast", "neighbor_broadcast"):
            self._patch(Network, attr, traced_send(getattr(Network, attr)))

        # detect: a flush is useful if a feed arrived since the last one
        # or it emitted a detection.
        def traced_feed(original):
            def feed(det, record):
                self._fed = True
                return call("detect.feed", original, det, record)
            return feed

        flush = OnlineVectorStrobeDetector.flush

        def traced_flush(det):
            before = len(det.detections)
            fed, self._fed = self._fed, False
            call("detect.flush", flush, det)
            if fed or len(det.detections) > before:
                counts["detect.useful_flushes"] += 1

        self._patch(Detector, "feed", traced_feed(Detector.feed))
        self._patch(
            OnlineVectorStrobeDetector, "feed",
            traced_feed(OnlineVectorStrobeDetector.feed),
        )
        self._patch(OnlineVectorStrobeDetector, "flush", traced_flush)
        for cls in (OnlineVectorStrobeDetector, VectorStrobeDetector):
            self._span_method(cls, "finalize", "detect.finalize")

        # lattice: the environment callback evaluate() receives is
        # spanned on its own (lattice.state_of).
        modalities = LatticeDetector.modalities

        def traced_modalities(det):
            out = call("lattice.modalities", modalities, det)
            counts["lattice.cuts"] += det.last_stats.n_states
            return out

        evaluate = StateLattice.evaluate

        def traced_evaluate(lattice, state_of, predicate):
            def timed_state_of(cut):
                return call("lattice.state_of", state_of, cut)
            return call("lattice.evaluate", evaluate, lattice, timed_state_of, predicate)

        self._patch(LatticeDetector, "modalities", traced_modalities)
        self._patch(StateLattice, "evaluate", traced_evaluate)
        self._span_method(StateLattice, "enumerate_levels", "lattice.enumerate")
        self._span_method(StateLattice, "extend", "lattice.extend")

        # trace, obs
        for attr in (
            "record_event", "record_send", "record_receive", "record_drop",
            "record_world", "record_detection",
        ):
            self._span_method(FlightRecorder, attr, "trace.record")
        self._span_method(Counter, "inc", "obs.record")
        for attr in ("set", "inc", "dec"):
            self._span_method(Gauge, attr, "obs.record")
        self._span_method(Histogram, "observe", "obs.record")

        # scenarios: prepare_execution imports build_scenario from the
        # module at call time, so the module attribute is the seam.
        self._span_method(builders, "build_scenario", "scenarios.build")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------
    def check_exact_sum(self) -> None:
        """Self times of all spans must add up to the ``ROOT`` total;
        they do not when a span opened outside every ``ROOT`` span."""
        total = sum(self.self_ns.values())
        if total != self.root_ns:
            raise AssertionError(
                f"per-layer self times sum to {total} ns, traced total is "
                f"{self.root_ns} ns: a span opened outside {ROOT}"
            )


__all__ = ["FLUSH_TIMER_LABELS", "NullTracer", "ROOT", "SPANS", "SpanTracer"]
