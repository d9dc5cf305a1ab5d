"""The benchmark's three workloads, driven through the public entry points.

Each workload is a sequence of *operations*; an operation is one
scenario execution (``hospital_online``, ``hall_observed``) or one
modal query (``lattice_windows``).  Every operation yields an
:class:`Op` carrying its wall times, the records it covered and a
digest of its output, which the runner checks against ``expected.json``.

Scenario seeds come from a fixed pool of ``POOL`` seeds whose expected
outputs are stored; the workload seed picks a permutation of the pool
(:func:`scenario_seeds`), so any workload seed has a checked answer for
every operation it runs.

Operations report raw wall seconds; the runner brackets each one with
reference samples and calibrates it with :meth:`Op.calibrated` (see
:mod:`speed`).  A timed execution calls ``scenario.run`` as the program
does; :func:`sampled_kernel` adds reference samples inside it.

This module imports ``repro`` lazily (inside functions) so that the
set-up probe can start its clock before the first ``repro`` import.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Iterator

from speed import Bracket

from spans import NullTracer

WORKLOADS = ("hospital_online", "hall_observed", "lattice_windows")

#: Scenario seeds with stored expected outputs, per workload.
POOL = 32
DELTA = 0.5
HOSPITAL_DURATION = 3000.0
HALL_DURATION = 600.0
OFFICE_DURATION = 3000.0
#: lattice_windows queries after every WINDOW new records
WINDOW = 100
#: kernel-loop slices of an execution under sampled_kernel
SLICES = 10

NULL = NullTracer()


@dataclass
class Op:
    """One operation's measurements and checked output."""

    seed: int
    wall_s: float           # the whole operation
    work_s: float           # the part records_per_s divides by
    records: int            # records the operation covered
    output: Any             # digest (executions) or the query's answer
    # The program's own counters, for the traced run's cross-checks.
    events: int = 0         # Simulator.processed_events
    sent: int = 0           # net.stats.sent
    delivered: int = 0      # net.stats.delivered
    #: calibration factor applied to the wall times (1.0: raw seconds)
    speed: float = 1.0

    def calibrated(self, speed: float, inside_s: float = 0.0) -> "Op":
        """This operation without the ``inside_s`` reference seconds taken
        inside its run, and with its times scaled by ``speed``."""
        return replace(self, wall_s=(self.wall_s - inside_s) * speed,
                       work_s=(self.work_s - inside_s) * speed,
                       speed=self.speed * speed)


def scenario_seeds(workload: str, seed: int) -> Iterator[int]:
    """Endless pool permutation chosen by the workload seed."""
    order = list(range(POOL))
    random.Random(f"{workload}:{seed}").shuffle(order)
    k = 0
    while True:
        yield order[k % POOL]
        k += 1


def import_layers(workload: str) -> None:
    """Import every ``repro`` module the workload runs (set-up cost)."""
    import repro  # noqa: F401
    from repro.replay import engine, families, manifest  # noqa: F401
    from repro.scenarios import builders  # noqa: F401

    if workload == "hospital_online":
        from repro.detect import online  # noqa: F401
        from repro.scenarios import hospital  # noqa: F401
    elif workload == "hall_observed":
        from repro import obs, trace  # noqa: F401
        from repro.detect import strobe_vector  # noqa: F401
        from repro.scenarios import exhibition_hall  # noqa: F401
    else:
        from repro.detect import lattice_detector  # noqa: F401
        from repro.scenarios import smart_office  # noqa: F401


def detections_digest(detections: list, emit_times: list[float]) -> str:
    """Digest of (trigger, label, occurrence time, emit time) per
    detection, in emission order — the ``labels_digest`` style, with the
    detection's interval start and emit instant added."""
    h = hashlib.blake2b(digest_size=8)
    for d, emit in zip(detections, emit_times, strict=True):
        trig = d.trigger
        h.update(
            f"{trig.pid}:{trig.seq}:{d.label.value}:"
            f"{trig.true_time!r}:{float(emit)!r}\n".encode()
        )
    return h.hexdigest()


@contextmanager
def sampled_kernel(bracket: Bracket) -> Iterator[None]:
    """Within the block, ``Simulator.run(until=T)`` enters the original
    kernel loop in ``SLICES`` equal pieces of simulated time up to ``T``
    and takes a reference sample (:meth:`Bracket.sample_inside`) between
    pieces.  The loop's ``until`` is inclusive and resumable, so the
    events, their order and the final clock are those of one call; the
    expected-output check of every operation confirms it.

    A scenario execution lasts about a second, and on a shared host the
    machine's speed changes within that second.  On 20 repeats of one
    hospital execution, raw wall times spread 13-21% (coefficient of
    variation); samples only around each execution calibrated them to
    5-12%, samples around and inside to 3-4%."""
    from repro.sim.kernel import Simulator

    original = Simulator.run

    def run(sim: Any, until: "float | None" = None,
            max_events: "int | None" = None) -> None:
        if until is None or max_events is not None:
            original(sim, until=until, max_events=max_events)
            return
        start = sim.now
        for k in range(1, SLICES):
            original(sim, until=start + (until - start) * k / SLICES)
            bracket.sample_inside()
        original(sim, until=until)

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


def execution_op(seed: int, times: tuple[float, float, float], records: int,
                 digest: str, system: Any) -> Op:
    """The Op of one execution timed at ``times`` = (start, wired, done)."""
    t0, t1, t2 = times
    stats = system.net.stats
    return Op(seed, t2 - t0, t2 - t1, records, digest,
              system.sim.processed_events, stats.sent, stats.delivered)


# ---------------------------------------------------------------------------
# hospital_online
# ---------------------------------------------------------------------------

def hospital_manifest(seed: int):
    from repro.replay.manifest import RunManifest

    return RunManifest(
        scenario="hospital", seed=seed, duration=HOSPITAL_DURATION,
        delta=DELTA, clock_family="vector_strobe", check_period=0.1,
    )


def hospital_build(seed: int):
    """Build and wire one execution: (manifest, scenario, bound detector)."""
    from repro.replay import families
    from repro.scenarios import builders

    manifest = hospital_manifest(seed)
    scenario, phi, initials = builders.build_scenario(
        "hospital", seed=seed, delta=DELTA
    )
    bound = families.build_detector(manifest, scenario, phi, initials)
    return manifest, scenario, bound


def hospital_op(seed: int, tracer: Any = NULL) -> Op:
    t0 = perf_counter()
    manifest, scenario, bound = hospital_build(seed)
    t1 = perf_counter()
    tracer.call("scenarios.run", scenario.run, manifest.duration)
    bound.finalize(end_time=manifest.duration)
    t2 = perf_counter()
    det = bound.detector
    emitted = [d for d, _ in det.emissions]
    digest = detections_digest(emitted, [t for _, t in det.emissions])
    return execution_op(seed, (t0, t1, t2), len(det.store), digest,
                        scenario.system)


# ---------------------------------------------------------------------------
# hall_observed
# ---------------------------------------------------------------------------

def hall_manifest(seed: int):
    from repro.replay.manifest import RunManifest

    return RunManifest(
        scenario="hall", seed=seed, duration=HALL_DURATION, delta=DELTA,
        clock_family="offline_vector_strobe",
    )


def hall_prepare(seed: int, tracer: Any = NULL, *, recorder: bool = True,
                 obs: bool = True):
    """Wire one hall execution.  With ``recorder`` this is the shared
    ``prepare_execution`` path (FlightRecorder bound); with ``obs`` the
    metrics registry is bound too.  Returns (manifest, prepared-or-None,
    scenario, bound detector)."""
    from repro.replay import engine, families
    from repro.scenarios import builders

    manifest = hall_manifest(seed)
    if recorder:
        prepared = tracer.call("replay.prepare", engine.prepare_execution, manifest)
        scenario, bound = prepared.scenario, prepared.detector
    else:
        prepared = None
        scenario, phi, initials = builders.build_scenario(
            "hall", seed=seed, delta=DELTA
        )
        bound = families.build_detector(manifest, scenario, phi, initials)
    if obs:
        tracer.call("obs.bind", bind_obs, scenario.system, bound.detector)
    return manifest, prepared, scenario, bound


def bind_obs(system: Any, detector: Any) -> None:
    """``instrument_system`` plus the detector's ``bind_obs`` (the
    offline families have none)."""
    from repro.obs import MetricsRegistry, instrument_system

    registry = MetricsRegistry()
    instrument_system(system, registry)
    bind = getattr(detector, "bind_obs", None)
    if bind is not None:
        bind(registry)


def hall_op(seed: int, tracer: Any = NULL, *, recorder: bool = True,
            obs: bool = True) -> Op:
    from repro.replay import engine

    t0 = perf_counter()
    manifest, prepared, scenario, bound = hall_prepare(
        seed, tracer, recorder=recorder, obs=obs
    )
    t1 = perf_counter()
    tracer.call("scenarios.run", scenario.run, manifest.duration)
    if prepared is not None:
        detections = tracer.call(
            "replay.finalize", engine.finalize_execution, prepared
        ).detections
    else:
        detections = bound.finalize(end_time=manifest.duration)
    t2 = perf_counter()
    digest = detections_digest(detections, [manifest.duration] * len(detections))
    return execution_op(seed, (t0, t1, t2), len(bound.detector.store),
                        digest, scenario.system)


# ---------------------------------------------------------------------------
# lattice_windows
# ---------------------------------------------------------------------------

@dataclass
class Stream:
    """One smart_office record stream in host arrival order."""

    seed: int
    predicate: Any
    initials: dict
    n: int
    records: list

    def windows(self) -> list[list]:
        """The record chunks fed before each query."""
        recs = self.records
        return [recs[k:k + WINDOW] for k in range(0, len(recs), WINDOW)]


def make_stream(seed: int) -> Stream:
    """Run one smart_office execution and keep the records the host
    (process 0) learns of, deduplicated, in arrival order."""
    from repro.scenarios import builders

    scenario, phi, initials = builders.build_scenario(
        "smart_office", seed=seed, delta=DELTA
    )
    seen: set = set()
    arrivals: list = []

    def tap(record) -> None:
        if record.key() not in seen:
            seen.add(record.key())
            arrivals.append(record)

    host = scenario.system.processes[0]
    host.add_record_listener(tap)
    host.add_strobe_listener(tap)
    scenario.run(OFFICE_DURATION)
    return Stream(seed, phi, dict(initials), scenario.system.n, arrivals)


def new_lattice_detector(stream: Stream, *, incremental: bool = True):
    from repro.detect.lattice_detector import LatticeDetector

    return LatticeDetector(
        stream.predicate, stream.initials, stream.n, incremental=incremental
    )


def query_window(lattice: Any, stream: Stream, chunk: list) -> Op:
    """Feed one window of new records, then run the modal query.
    ``wall_s`` is the query alone; the feed is ingest, not query.  The
    output is ``[possibly, definitely, consistent cuts]``."""
    lattice.feed_many(chunk)
    t0 = perf_counter()
    possibly, definitely = lattice.modalities()
    dt = perf_counter() - t0
    return Op(stream.seed, dt, dt, len(lattice.store),
              [bool(possibly), bool(definitely), lattice.last_stats.n_states])


__all__ = [
    "DELTA", "Op", "POOL", "SLICES", "Stream", "WINDOW", "WORKLOADS",
    "bind_obs", "detections_digest", "execution_op", "hall_op",
    "hall_prepare", "hospital_build", "hospital_op", "import_layers",
    "make_stream", "new_lattice_detector", "query_window", "sampled_kernel",
    "scenario_seeds",
]
