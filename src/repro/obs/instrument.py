"""Wiring helpers: attach a registry/tracer to a running system.

Instrumented components each expose ``bind_obs(registry)``: the
registry reads the counts they already keep, and the rest go through
handles that stay ``None`` until bound (see :mod:`repro.obs.registry`).
:func:`instrument_system` walks a
:class:`~repro.core.system.PervasiveSystem` and binds every layer in
one call; :class:`Observability` bundles the registry + tracer pair
that the CLI, examples, and benchmarks pass around.

The sampling hook (:func:`attach_sampler`) rides the kernel's
*post-event* hook rather than a scheduled timer, so turning sampling
on adds **zero** events to the simulation — event ordering and every
RNG stream are untouched (the determinism test pins this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PervasiveSystem
    from repro.sim.kernel import Simulator


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
    obs: Observability | MetricsRegistry,
    *,
    sample_every: int | None = None,
) -> Observability:
    """Bind instrumentation through every layer of ``system``.

    Binds the kernel (events, heap depth, callback wall time), the
    network transport and its loss model, and every process's clocks
    (including those a restart rebuilds).  Detectors are bound
    individually (they are attached after system construction):
    ``detector.bind_obs(obs.registry)``.

    Returns the :class:`Observability` (constructing one around a bare
    registry if needed) so call sites can do::

        obs = instrument_system(system, MetricsRegistry())
    """
    if isinstance(obs, MetricsRegistry):
        obs = Observability(registry=obs, tracer=SpanTracer(system.sim))
    reg = obs.registry
    system.sim.bind_obs(reg)
    system.net.bind_obs(reg)
    for proc in system.processes:
        proc.bind_obs(reg)
    if sample_every is not None:
        attach_sampler(system.sim, reg, every_events=sample_every)
    return obs


__all__ = ["Observability", "instrument_system", "attach_sampler"]
