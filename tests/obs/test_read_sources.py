"""Metrics that read the counts components already keep.

A read counter's value is, summed over its sources, how far each
source has grown since it was attached; a read gauge reports its
source.  These tests pin the rules: bind-time baselines, several
systems on one registry, the registry's round trips, and restarts that
rebuild clocks.
"""

import json

import pytest

from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.online import OnlineScalarStrobeDetector, OnlineVectorStrobeDetector
from repro.net.delay import DeltaBoundedDelay
from repro.net.loss import BernoulliLoss
from repro.obs import MetricsRegistry, instrument_system
from repro.obs.exporters import export_jsonl, read_jsonl, registry_from_jsonl
from repro.obs.registry import Counter, Gauge, restore_snapshot
from repro.scenarios.builders import build_scenario
from repro.scenarios.exhibition_hall import ExhibitionHall, ExhibitionHallConfig


def exact(snapshot):
    """Snapshot as canonical JSON text: equal only if values *and*
    types agree (``0`` vs ``0.0``), as the exporters would write them."""
    return json.dumps(snapshot, sort_keys=True)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

def test_read_counter_counts_growth_since_attach_plus_pushes():
    total = {"n": 5}
    c = Counter("c")
    c.read_from(lambda: total["n"])
    assert c.value == 0
    total["n"] = 9
    c.inc(2)
    assert c.value == 6 and isinstance(c.value, int)


def test_read_counter_sums_every_source():
    a, b = {"n": 0}, {"n": 100}
    c = Counter("c")
    c.read_from(lambda: a["n"])
    c.read_from(lambda: b["n"])
    a["n"], b["n"] = 3, 104
    assert c.value == 7


def test_gauge_reports_its_last_writer():
    state = {"v": 4}
    g = Gauge("g")
    assert g.value == 0.0
    g.read_from(lambda: state["v"])
    state["v"] = 6
    assert g.value == 6
    g.set(1.5)                      # a push replaces the source
    state["v"] = 8
    assert g.value == 1.5
    g.read_from(lambda: state["v"])
    g.inc(1)
    assert g.value == 9


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

def office(seed=3):
    scenario, _, _ = build_scenario("smart_office", seed=seed, delta=0.2)
    return scenario


def test_registry_bound_mid_run_reports_only_later_work():
    scenario = office()
    system = scenario.system
    scenario.run(20.0)
    def emitted():
        return sum(
            p.strobe_vector.relevant_events + p.strobe_scalar.relevant_events
            for p in system.processes
        )

    events, sent, emitted_before = (
        system.sim.processed_events, system.net.stats.sent, emitted()
    )
    assert events and sent and emitted_before
    reg = MetricsRegistry()
    instrument_system(system, reg)
    assert reg.get("kernel.events_fired").value == 0
    assert reg.get("net.sent").value == 0
    assert reg.get("clock.strobe.emitted").value == 0
    system.run(until=40.0)
    assert reg.get("kernel.events_fired").value == system.sim.processed_events - events
    assert reg.get("net.sent").value == system.net.stats.sent - sent
    assert reg.get("clock.strobe.emitted").value == emitted() - emitted_before


def test_one_registry_bound_to_two_systems_sums_both():
    reg = MetricsRegistry()
    systems = []
    for seed in (1, 2):
        scenario = office(seed)
        instrument_system(scenario.system, reg)
        scenario.run(30.0)
        systems.append(scenario.system)
    assert reg.get("kernel.events_fired").value == sum(
        s.sim.processed_events for s in systems
    )
    assert reg.get("net.payload_units").value == sum(
        s.net.stats.total_units for s in systems
    )
    assert reg.get("clock.strobe.merged").value == sum(
        p.strobe_vector.strobes_received + p.strobe_scalar.strobes_received
        for s in systems for p in s.processes
    )


def test_round_trips_keep_read_values(tmp_path):
    scenario = office()
    reg = MetricsRegistry()
    instrument_system(scenario.system, reg, sample_every=50)
    scenario.run(30.0)
    snap = reg.snapshot()
    assert snap["kernel.events_fired"]["value"] == scenario.system.sim.processed_events

    assert exact(restore_snapshot(snap).snapshot()) == exact(snap)
    merged = MetricsRegistry()
    merged.merge(reg)
    assert exact(merged.snapshot()) == exact(snap)
    path = export_jsonl(tmp_path / "m.jsonl", reg, t_sim=scenario.system.sim.now)
    back = registry_from_jsonl(read_jsonl(path))
    assert exact(back.snapshot()) == exact(snap)
    assert back.samples == reg.samples


@pytest.mark.parametrize("clock", ["vector", "strobe_vector", "strobe_scalar"])
def test_clock_metrics_run_on_across_a_restart(clock):
    """A restart rebuilds the process's clocks; each clock family's
    metrics must run on across it, counting the retired clock's work
    and the rebuilt clock's."""
    system = PervasiveSystem(SystemConfig(
        n_processes=2, seed=0, clocks=ClockConfig(**{clock: True}),
    ))
    system.world.create("obj", x0=0, x1=0)
    for i, p in enumerate(system.processes):
        p.track(f"x{i}", "obj", f"x{i}", initial=0)
    reg = MetricsRegistry()
    instrument_system(system, reg)
    p0, p1 = system.processes

    def sense(values, start):
        for k, v in enumerate(values):
            system.run(until=start + 0.01 * k)
            system.world.set_attribute("obj", "x0", v)

    sense(range(1, 4), 0.1)
    system.run(until=0.5)
    p0.crash(mode="recover")
    system.run(until=0.6)
    before = getattr(p0, clock)
    p0.restart()
    after = getattr(p0, clock)
    assert after is not before
    sense(range(10, 20), 1.0)
    system.run(until=3.0)

    clocks = (before, after, getattr(p1, clock))
    if clock == "vector":
        # No application messages, so a clock's own component is its
        # tick count.
        assert after.read().as_tuple()[0] >= 10
        assert reg.get("clock.vector.ticks").value == sum(
            c.read().as_tuple()[c.pid] for c in clocks
        )
    else:
        assert after.relevant_events >= 10
        assert reg.get("clock.strobe.emitted").value == sum(
            c.relevant_events for c in clocks
        )
        assert reg.get("clock.strobe.merged").value == sum(
            c.strobes_received for c in clocks
        )
        assert reg.get("clock.strobe.payload_units").value == sum(
            c.relevant_events * c.strobe_size() for c in clocks
        )


@pytest.mark.parametrize(
    "cls", [OnlineVectorStrobeDetector, OnlineScalarStrobeDetector]
)
def test_detector_counts_split_records_into_processed_and_late(cls):
    """Under strobe loss some records arrive behind the watermark; after
    the final flush every stored record was either processed or
    skipped as late, never both."""
    hall = ExhibitionHall(ExhibitionHallConfig(
        doors=3, capacity=8, arrival_rate=3.0, mean_dwell=3.0, seed=7,
        delay=DeltaBoundedDelay(0.2), loss=BernoulliLoss(0.3),
        clocks=ClockConfig.strobes(),
    ))
    reg = MetricsRegistry()
    det = cls(hall.system.sim, hall.predicate, hall.initials,
              delta=0.2, check_period=0.05)
    instrument_system(hall.system, reg)
    hall.attach_detector(det)
    det.start()
    hall.run(60.0)
    det.finalize()
    late = reg.get("detect.late_records").value
    assert late == det.late_records > 0
    assert reg.get("detect.records").value == len(det.store)
    assert reg.get("detect.processed").value + late == len(det.store)
