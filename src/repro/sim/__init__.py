"""Discrete-event simulation kernel.

This subpackage is the substrate that every other layer of the
reproduction runs on.  The paper's system is a distributed
sensor-actuator network observed against *true physical time*; the
kernel provides exactly that: a single authoritative simulation clock
(``Simulator.now``) that plays the role of the unobservable "global
wall clock" of the physical world, plus deterministic scheduling and
seeded randomness so that every experiment in ``benchmarks/`` is
reproducible bit-for-bit.

Design notes
------------
* No ``simpy`` dependency — the kernel is a few hundred lines of
  heap-based scheduling, which keeps the hot loop free of generator
  trampolines (per the HPC guides: simple, profileable code first).
* Ties are broken deterministically by (time, priority, sequence
  number) so two runs with the same seed produce identical traces.
* The kernel never exposes ``now`` to model code that should not see
  it; clock objects in :mod:`repro.clocks` mediate all access, which
  is how the paper's "processes have no synchronized clock" constraint
  is enforced in software.
"""

from repro.sim.kernel import (
    Simulator,
    ScheduledEvent,
    CancelledError,
    SimulationError,
)
from repro.sim.rng import RngRegistry, substream_seed
from repro.sim.timers import GridTimer, PeriodicTimer, Timer

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "CancelledError",
    "SimulationError",
    "RngRegistry",
    "substream_seed",
    "Timer",
    "PeriodicTimer",
    "GridTimer",
]
