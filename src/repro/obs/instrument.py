"""Wiring: attach a metrics registry and/or flight recorder to a system.

Instrumented components each keep one probe handle, bound by
``bind_probe`` (see :mod:`repro.obs.probe`).  :func:`instrument_system`
is the one wiring call: it walks a
:class:`~repro.core.system.PervasiveSystem` and binds every layer to
the system's :class:`~repro.obs.probe.Probe`.  :class:`Observability`
bundles the registry + sim-time span tracer pair that the CLI and
examples pass around.

The sampling hook (:func:`attach_sampler`) rides the kernel's
*post-event* hook rather than a scheduled timer, so turning sampling
on adds **zero** events to the simulation — event ordering and every
RNG stream are untouched (the determinism test pins this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.probe import Probe
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PervasiveSystem
    from repro.sim.kernel import Simulator
    from repro.trace.recorder import FlightRecorder


@dataclass
class Observability:
    """A registry + tracer pair for one run."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: SpanTracer = field(default_factory=SpanTracer)

    @classmethod
    def for_sim(cls, sim: "Simulator") -> "Observability":
        """An Observability whose tracer auto-stamps sim time."""
        return cls(tracer=SpanTracer(sim))


def attach_sampler(
    sim: "Simulator", registry: MetricsRegistry, *, every_events: int = 1000
) -> None:
    """Sample all scalar metric values every ``every_events`` fired
    events, dual-stamped (sim.now, wall clock).  Pure observation: no
    events are scheduled, no RNG is consumed."""
    if every_events < 1:
        raise ValueError(f"every_events must be >= 1, got {every_events}")
    state = {"k": 0}

    def hook(_ev) -> None:
        state["k"] += 1
        if state["k"] >= every_events:
            state["k"] = 0
            registry.sample(sim.now, time.time())

    sim.add_post_hook(hook)


def instrument_system(
    system: "PervasiveSystem",
    registry: MetricsRegistry | None = None,
    *,
    recorder: "FlightRecorder | None" = None,
    sample_every: int | None = None,
) -> Probe:
    """Feed ``registry`` and/or ``recorder`` from every layer of ``system``.

    The first call gives the system its :class:`Probe` and binds the
    kernel, the transport and every process, with its clocks and the
    detectors attached to it (now or later); a later call adds a sink.
    A recorder also taps the world plane.  Returns the probe, which a
    component built apart from the system binds with ``bind_probe``.
    """
    probe = system.probe
    if probe is None:
        probe = system.probe = Probe()
        system.sim.bind_probe(probe)
        system.net.bind_probe(probe)
        for proc in system.processes:
            proc.bind_probe(probe)
    had_recorder = probe.recorder is not None
    probe.attach(registry, recorder)
    if recorder is not None and not had_recorder:
        system.world.add_listener(recorder.record_world)
    if sample_every is not None:
        if registry is None:
            raise ValueError("sample_every needs a registry to sample")
        attach_sampler(system.sim, registry, every_events=sample_every)
    return probe


__all__ = ["Observability", "instrument_system", "attach_sampler"]
